"""Reduced dynamics of a two-level system crossing a single-mode cavity.

The qubit enters excited, exchanges excitation with one field mode under the
rotating-wave dipole coupling

    H = (Delta/2) sz + g (a s+ + a† s-),

and is measured after a free flight during which spontaneous emission acts at
rate gamma.  Within the n-excitation sector the joint amplitudes evolve as

    c_e(t) = [cos(l_n t) - i Delta/(2 l_n) sin(l_n t)] a_{n-1},
    c_g(t) = -i (g sqrt(n)/l_n) sin(l_n t) a_{n-1},

with effective Rabi frequency l_n = sqrt(Delta^2/4 + g^2 n).  Tracing out the
field yields the 2x2 state at the cavity exit; the flight multiplies the
excited population by exp(-gamma tau_f) and the coherence by its square root.

A fully dissipative in-cavity variant (resonant, vacuum field, cavity damping
kappa and qubit decay gamma active during the transit) is provided through a
closed-form excited population f(t), assembled in complex arithmetic so the
oscillatory and overdamped regimes share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidRate, TruncationTooSmall
from .qubit import Hermitian2, QubitState

__all__ = [
    "Scenario",
    "FieldState",
    "reduced_state",
    "dissipative_state",
    "field_for",
    "detector_matrix_elements",
]

#: minimum photon-number mass the truncated ladder must capture
CAPTURE_THRESHOLD = 0.99
#: extra levels kept above the capture point
CUTOFF_MARGIN = 10
#: phase l tau below which sin(l tau)/l and its derivative ratio come from
#: their Taylor series
_SERIES_PHASE = 0.1
_TINY = 1e-300
#: rounding excess of the dissipative excited fraction over [0, 1] that is
#: clamped away; a larger excess is an error
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    """Physical knobs of one estimation run.

    All times and rates are in coupling units (g0 = 1 makes them the
    dimensionless products used throughout).  ``kappa``/``gamma_cav`` are the
    in-cavity damping and decay rates of the dissipative variant and must be
    zero on the unitary-transit path.
    """

    tau_c: float
    tau_f_gamma: float = 0.0
    delta: float = 0.0
    alpha: complex = 0j
    kappa: float = 0.0
    gamma_cav: float = 0.0
    fock_cutoff: Optional[int] = None  # None = automatic captured-mass rule

    def __post_init__(self):
        for name in ("tau_c", "tau_f_gamma", "kappa", "gamma_cav"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.fock_cutoff is not None and self.fock_cutoff < 0:
            raise ValueError("fock_cutoff must be nonnegative")

    @property
    def is_unitary_transit(self) -> bool:
        return self.kappa == 0.0 and self.gamma_cav == 0.0


def _auto_cutoff(alpha: complex) -> int:
    """Smallest N capturing >= 99% of the coherent mass, plus safety margin."""
    mean = abs(alpha) ** 2
    if mean == 0.0:
        return 0
    n = 0
    term = math.exp(-mean)
    mass = term
    while mass < CAPTURE_THRESHOLD:
        n += 1
        term *= mean / n
        mass += term
    return n + CUTOFF_MARGIN


@dataclass(frozen=True)
class FieldState:
    """Truncated photon-number expansion of the initial cavity field."""

    coefficients: tuple

    def __post_init__(self):
        mass = self.captured_mass
        if mass > 1.0 + 1e-12:
            raise ValueError(f"field norm {mass} exceeds 1")

    @cached_property
    def captured_mass(self) -> float:
        return float(sum(abs(c) ** 2 for c in self.coefficients))

    @property
    def cutoff(self) -> int:
        return len(self.coefficients) - 1

    @staticmethod
    def vacuum() -> "FieldState":
        return FieldState(coefficients=(1.0 + 0j,))

    @staticmethod
    def coherent(alpha: complex, cutoff: Optional[int] = None) -> "FieldState":
        """Coherent amplitudes a_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!).

        With ``cutoff=None`` the ladder is truncated at the smallest N whose
        captured mass reaches 99%, plus a safety margin; the tail is NOT
        renormalized away (coefficients are used as-is).
        """
        if abs(alpha) == 0.0:
            n_max = 0 if cutoff is None else cutoff
            coeff = np.zeros(n_max + 1, dtype=complex)
            coeff[0] = 1.0
            return FieldState(coefficients=tuple(coeff))
        n_max = _auto_cutoff(alpha) if cutoff is None else cutoff
        n = np.arange(n_max + 1)
        log_fact = np.array([math.lgamma(k + 1) for k in range(n_max + 1)])
        log_mag = -abs(alpha) ** 2 / 2 + n * math.log(abs(alpha)) - 0.5 * log_fact
        phase = np.exp(1j * n * np.angle(alpha)) if alpha.imag or alpha.real < 0 else 1.0
        coeff = np.exp(log_mag) * phase
        return FieldState(coefficients=tuple(coeff))


def field_for(scenario: Scenario) -> FieldState:
    """Initial field implied by a scenario's coherent amplitude and cutoff."""
    return FieldState.coherent(scenario.alpha, scenario.fock_cutoff)


def _check_truncation(field: FieldState) -> None:
    if 1.0 - field.captured_mass > 1.0 - CAPTURE_THRESHOLD:
        raise TruncationTooSmall(
            f"field ladder captures only {field.captured_mass:.6f} of the mass"
        )


def _derivative_ratio(ratio, cos, lam2, phase, tc):
    """R = (t cos(l t) - S)/l^2 for S = sin(l t)/l (``ratio``), regular at l = 0.

    At l = 0 the quotient S = sin(l t)/l reads 0 instead of its limit t;
    the state itself never notices, since S enters it there only multiplied
    by g or by Delta^2/4, both zero, but the derivative does.  So at phases
    x = l t below ``_SERIES_PHASE`` S (in place) and R are summed from

        S = t sum_{k>=0} (-1)^k x^(2k) / (2k+1)!,
        R = t^3 sum_{k>=1} (-1)^k 2k x^(2k-2) / (2k+1)!,

    truncated where the next term is below 1e-17 of the sum (S -> t and
    R -> -t^3/3).  Above it the quotient loses at most 3 eps / x^2 of R to
    cancellation.
    """
    rem = (tc * cos - ratio) / np.maximum(lam2, _TINY)
    small = phase < _SERIES_PHASE
    if small.any():
        x2 = phase[small] ** 2
        ratio[small] = tc * (1 - x2 / 6 * (1 - x2 / 20 * (1 - x2 / 42 * (1 - x2 / 72))))
        rem[small] = tc**3 * (
            -1 / 3 + x2 / 30 * (1 - x2 / 28 * (1 - x2 / 54 * (1 - x2 / 88)))
        )
    return rem


def detector_matrix_elements(
    g_values: np.ndarray,
    scenario: Scenario,
    field: FieldState,
    derivative: bool = False,
) -> tuple[np.ndarray, ...]:
    """Vectorized (a_ee, a_eg) of the detector-time state over a g grid.

    Sums the photon-ladder contributions for every coupling value at once;
    used by the moment integrals, the state and bound evaluations and the
    Monte-Carlo paths.  Flight damping is applied as exp(-gamma tau_f) on
    the population and exp(-gamma tau_f/2) on the coherence.

    Sector n holds cos^2(l_n t) + (Delta^2/4) S_n^2 with S_n = sin(l_n t)/l_n;
    the coherence pairs the bracket cos(l_{m+1} t) - i (Delta/2) S_{m+1} with
    the swing g sqrt(m) S_m.  cos and sin are evaluated once over the ladder
    and the sine only where something reads it.  With ``derivative=True``
    the exact g-derivatives (da_ee, da_eg) follow from the same arrays, with
    d l_n/dg = g n / l_n and R_n = (t cos(l_n t) - S_n)/l_n^2:

        dP_n/dg      = 2 g n S_n (Delta^2/4 R_n - t cos(l_n t)),
        d bracket/dg = -g (m+1) [t S_{m+1} + i (Delta/2) R_{m+1}],
        d swing/dg   = sqrt(m) (S_m + g^2 m R_m),

    and the four arrays (a_ee, a_eg, da_ee, da_eg) are returned.
    """
    if not scenario.is_unitary_transit:
        raise ValueError("unitary transit path requires kappa = gamma_cav = 0")
    _check_truncation(field)

    g_values = np.atleast_1d(np.asarray(g_values, dtype=float))
    coeff = np.asarray(field.coefficients, dtype=complex)
    n_max = len(coeff) - 1
    tc, delta = scenario.tau_c, scenario.delta
    quarter = delta**2 / 4

    # sectors n = 1 .. n_max+1 hold amplitude a_{n-1}; column j is n = j + 1
    ns = np.arange(1, n_max + 2)
    g2n = np.outer(g_values**2, ns)
    lam2 = quarter + g2n
    lam = np.sqrt(lam2)
    phase = lam * tc
    cos = np.cos(phase)
    weight = np.abs(coeff) ** 2
    damp = math.exp(-scenario.tau_f_gamma)
    root_damp = math.sqrt(damp)

    if not (delta or n_max or derivative):  # resonant vacuum: cos^2 alone
        return (cos * cos) @ weight * damp, np.zeros(len(g_values), dtype=complex)

    ratio = np.sin(phase) / np.maximum(lam, _TINY)
    if derivative and (delta or n_max):  # R enters only through these
        rem = _derivative_ratio(ratio, cos, lam2, phase, tc)
    sector = cos * cos
    if delta:
        sector += quarter * ratio * ratio
    a_ee = sector @ weight * damp

    # coherences pair c_{e,m} (sector m+1) with c_{g,m} (sector m), m = 1..n_max:
    # i bracket swing = (Delta/2) S_{m+1} swing + i cos(l_{m+1} t) swing, so
    # the ladder sums run over real arrays against the real and imaginary
    # parts of the pair amplitudes
    if n_max:
        pair_amp = coeff[1:] * np.conj(coeff[:-1])
        pair_parts = pair_amp.view(float).reshape(-1, 2)

        def ladder_sum(re, im):
            # (re + i im) @ pair_amp for real re (or None) and im
            total = (im @ pair_parts).view(complex)[:, 0] * 1j
            if re is not None:
                total += (re @ pair_parts).view(complex)[:, 0]
            return total * root_damp

        s_m, s_m1, c_m1 = ratio[:, :-1], ratio[:, 1:], cos[:, 1:]
        swing = np.outer(g_values, np.sqrt(ns[:-1])) * s_m
        a_eg = ladder_sum(delta / 2 * s_m1 * swing if delta else None, c_m1 * swing)
    else:
        a_eg = np.zeros(len(g_values), dtype=complex)
    if not derivative:
        return a_ee, a_eg

    g_col = g_values[:, None]
    slope = quarter * rem - tc * cos if delta else -tc * cos
    da_ee = (2.0 * g_col * ns * ratio * slope) @ weight * damp
    if n_max:
        # i d(bracket swing) = g (m+1) [(Delta/2) R_{m+1} - i t S_{m+1}] swing
        #                      + [(Delta/2) S_{m+1} + i cos(l_{m+1} t)] d swing
        d_swing = np.sqrt(ns[:-1]) * (s_m + g2n[:, :-1] * rem[:, :-1])
        g_up = g_col * ns[1:]
        da_eg = ladder_sum(
            delta / 2 * (g_up * rem[:, 1:] * swing + s_m1 * d_swing) if delta else None,
            c_m1 * d_swing - tc * g_up * s_m1 * swing,
        )
    else:
        da_eg = np.zeros_like(a_eg)
    return a_ee, a_eg, da_ee, da_eg


def reduced_state(g, scenario: Scenario, field: FieldState, derivative: bool = False):
    """Two-level state at the detector for coupling ``g``.

    Traces the field out of the jointly evolved state and applies the
    free-flight decay factors.  Unit trace and positivity are enforced by the
    returned :class:`QubitState`.  An array ``g`` gives the batch of states,
    one entry per coupling, from one kernel call.  With ``derivative=True``
    the exact d rho/dg (a traceless :class:`Hermitian2` of the same shape)
    is returned along with the state.
    """
    elements = detector_matrix_elements(g, scenario, field, derivative=derivative)
    if np.ndim(g) == 0:
        elements = [x[0].item() for x in elements]
    a_ee, a_eg = elements[:2]
    state = QubitState(Hermitian2(ee=a_ee, gg=1.0 - a_ee, eg=a_eg))
    if not derivative:
        return state
    da_ee, da_eg = elements[2:]
    return state, Hermitian2(ee=da_ee, gg=-da_ee, eg=da_eg)


def _excited_fraction(g_values: np.ndarray, t, gamma: float, kappa: float) -> np.ndarray:
    """Excited-state population of the damped resonant vacuum model.

    Evaluated elementwise over ``g_values`` broadcast against ``t`` (a
    column of times gives one row per time) from

        f(t) = e^{-(gamma+kappa)t/2} [ cosh(s) + 2 g^2 t^2 C2(s)
                                       + (kappa-gamma)(t/2) S1(s) ],

    with s = Omega t / 2, Omega = sqrt((gamma-kappa)^2 - 16 g^2) taken as a
    principal-branch complex root, C2(s) = (cosh s - 1)/s^2 and
    S1(s) = sinh(s)/s; this grouping is an algebraically equivalent
    rearrangement of the standard damped-Rabi solution and satisfies
    f(0) = 1 identically.  With h = s/2 and q = sinh(h)/h every term comes
    from sinh(h) and cosh(h) without cancellation near Omega = 0:
    cosh s = 1 + 2 (h q)^2, C2 = q^2 / 2 and S1 = q cosh(h); q is summed
    from its series below |h| = 5e-5, so the Omega -> 0 point is regular.
    Raises ArithmeticError if any value keeps an imaginary residue of 1e-12
    or more.
    """
    g = np.asarray(g_values, dtype=float)
    omega = np.sqrt(((gamma - kappa) ** 2 - 16.0 * g**2).astype(complex))
    h = omega * (t / 4.0)
    series = np.abs(h) < 5e-5
    h_far = np.where(series, 1.0, h)  # the quotient divides by h
    q = np.sinh(h_far) / h_far
    if series.any():
        h2 = h[series] ** 2
        q[series] = 1.0 + h2 / 6.0 + h2 * h2 / 120.0
    hq = h * q
    val = np.exp(-(gamma + kappa) * t / 2.0) * (
        1.0 + 2.0 * hq * hq + (g * t) ** 2 * (q * q)
        + (kappa - gamma) * (t / 2.0) * q * np.cosh(h)
    )
    residue = np.abs(val.imag)
    if np.any(residue >= 1e-12):
        raise ArithmeticError(
            f"imaginary residue {val.imag.flat[np.argmax(residue)]} in excited fraction"
        )
    return val.real


def dissipative_state(g: float, t: float, gamma: float, kappa: float) -> QubitState:
    """State after a transit with in-cavity decay/damping active.

    Resonant interaction, initial state |e>|0>.  ``gamma`` is the qubit decay
    rate, ``kappa`` the cavity damping rate.  Reduces to the unitary vacuum
    result cos^2(g t) when both rates vanish.  The population is
    :func:`dissipative_populations` at the one coupling ``g``.
    """
    f = float(dissipative_populations(g, t, gamma, kappa)[0])
    return QubitState(Hermitian2(ee=f, gg=1.0 - f))


def dissipative_populations(
    g_values: np.ndarray, t, gamma: float, kappa: float
) -> np.ndarray:
    """Vectorized excited population of the dissipative variant.

    ``t`` is one time, giving one population per coupling, or a column of
    times, giving a (times x couplings) grid; the checks below hold over the
    whole grid.  Rounding may carry f(t) past [0, 1] by at most
    ``CLAMP_TOL``, which is clamped; anything further raises ArithmeticError.
    """
    if gamma < 0 or kappa < 0:
        raise InvalidRate(f"rates must be nonnegative, got gamma={gamma} kappa={kappa}")
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be nonnegative")
    f = _excited_fraction(np.atleast_1d(g_values), t, gamma, kappa)
    lo, hi = f.min(), f.max()
    if lo < -CLAMP_TOL or hi > 1.0 + CLAMP_TOL:
        bad = lo if lo < -CLAMP_TOL else hi
        raise ArithmeticError(f"excited fraction {float(bad)!r} outside [0, 1] beyond {CLAMP_TOL}")
    return f if 0.0 <= lo and hi <= 1.0 else np.clip(f, 0.0, 1.0)
