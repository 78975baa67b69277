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

A scenario with cavity damping kappa or qubit decay gamma active during the
transit is the damped case of the same transit: resonant, vacuum field and no
flight decay, with the closed-form excited population f(t) the square of a
real amplitude: cos and sin in the oscillatory regime, cosh and sinh folded
with the decay envelope in the overdamped one, so neither overflows.
:func:`reduced_state` reads the transit model off the :class:`Scenario`, so
callers make no choice between the two.
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
    "field_for",
    "detector_matrix_elements",
]

#: minimum photon-number mass the truncated ladder must capture
CAPTURE_THRESHOLD = 0.99
#: extra levels kept above the capture point
CUTOFF_MARGIN = 10
#: largest photon number of a field ladder, explicit or automatic (|alpha| <= 30 fits)
MAX_FOCK_CUTOFF = 1024
#: phase l tau below which sin(l tau)/l and its derivative ratio come from
#: their Taylor series
_SERIES_PHASE = 0.1
_TINY = 1e-300
#: rounding excess of the dissipative excited fraction above 1 that is
#: clamped away; a larger excess is an error (a square is never below 0)
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class Scenario:
    """Physical knobs of one estimation run, or of a batch of them.

    All times and rates are in coupling units (g0 = 1 makes them the
    dimensionless products used throughout).  ``kappa``/``gamma_cav`` are the
    in-cavity damping and decay rates; either one nonzero makes the transit
    damped, a model defined only at resonance, in vacuum and without flight
    decay, so such a scenario refuses ``delta``, ``alpha`` and ``tau_f_gamma``.

    ``tau_c``, ``tau_f_gamma`` and ``delta`` may each be a column, a tuple of
    one float per point of a batch; floats alone make a point, the 0-d case
    of the columns (see :attr:`columns`).  Every value is finite.
    """

    tau_c: float | tuple
    tau_f_gamma: float | tuple = 0.0
    delta: float | tuple = 0.0
    alpha: complex = 0j
    kappa: float = 0.0
    gamma_cav: float = 0.0
    fock_cutoff: Optional[int] = None  # None = automatic captured-mass rule

    def __post_init__(self):
        raw = (self.tau_c, self.tau_f_gamma, self.delta)
        tau_c, tau_f_gamma, delta = [v if type(v) is tuple else (v,) for v in raw]
        if len({len(v) for v in raw if type(v) is tuple}) > 1 or not (tau_c and tau_f_gamma and delta):
            raise ValueError("the columns of tau_c, tau_f_gamma and delta need one nonzero length")
        times_and_rates = (*tau_c, *tau_f_gamma, self.kappa, self.gamma_cav)
        finite = (*times_and_rates, *delta, self.alpha.real, self.alpha.imag)
        if not (all(map(math.isfinite, finite)) and min(times_and_rates) >= 0):
            raise ValueError("every knob must be finite, and times and rates nonnegative")
        if self.fock_cutoff is not None and not 0 <= self.fock_cutoff <= MAX_FOCK_CUTOFF:
            raise ValueError(f"fock_cutoff must be in [0, {MAX_FOCK_CUTOFF}]")
        if (self.kappa or self.gamma_cav) and (any(delta) or self.alpha or any(tau_f_gamma)):
            raise ValueError(
                "a damped scenario (kappa or gamma_cav > 0) needs delta = alpha = tau_f_gamma = 0"
            )

    @property
    def is_unitary_transit(self) -> bool:
        return self.kappa == 0.0 and self.gamma_cav == 0.0

    @cached_property
    def columns(self) -> np.ndarray:
        """(tau_c, tau_f_gamma, delta) as a read-only float array, (3,) for a
        point or (3, points), computed once per scenario."""
        raw = (self.tau_c, self.tau_f_gamma, self.delta)
        n = max(len(v) if type(v) is tuple else 0 for v in raw)
        out = np.array([v if type(v) is tuple or not n else (v,) * n for v in raw], dtype=float)
        out.flags.writeable = False
        return out


def _auto_cutoff(alpha: complex) -> int:
    """Smallest N capturing >= 99% of the coherent mass, plus safety margin.

    The Poisson terms are formed in log space, so e^{-|alpha|^2} does not
    underflow; raises ``ValueError`` past ``MAX_FOCK_CUTOFF``.
    """
    mean = min(abs(alpha), MAX_FOCK_CUTOFF) ** 2  # a larger |alpha| misses too; no overflow
    if mean == 0.0:
        return 0
    log_mean = math.log(mean)
    mass = 0.0
    for n in range(MAX_FOCK_CUTOFF - CUTOFF_MARGIN + 1):
        mass += math.exp(n * log_mean - mean - math.lgamma(n + 1))
        if mass >= CAPTURE_THRESHOLD:
            return n + CUTOFF_MARGIN
    raise ValueError(f"|alpha| = {abs(alpha)!r} needs a Fock ladder past {MAX_FOCK_CUTOFF}")


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
        # a real alpha takes its sign exactly, as (-1)^n for alpha < 0
        phase = np.exp(1j * n * np.angle(alpha)) if alpha.imag else np.sign(alpha.real) ** n
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


def _check_vacuum(field: FieldState) -> None:
    """A damped transit starts in vacuum: refuse a field holding photons."""
    if any(field.coefficients[1:]):
        raise ValueError("a damped transit starts in vacuum, but the field has photons")


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
        t = np.broadcast_to(tc, phase.shape)[small]
        ratio[small] = t * (1 - x2 / 6 * (1 - x2 / 20 * (1 - x2 / 42 * (1 - x2 / 72))))
        rem[small] = t**3 * (
            -1 / 3 + x2 / 30 * (1 - x2 / 28 * (1 - x2 / 54 * (1 - x2 / 88)))
        )
    return rem


def detector_matrix_elements(
    g_values: np.ndarray,
    scenario: Scenario,
    field: FieldState,
    derivative: bool = False,
    ground: bool = False,
) -> tuple[np.ndarray, ...]:
    """Vectorized (a_ee, a_eg) of the detector-time state over a g grid.

    Sums the photon-ladder contributions for every coupling value at once;
    used by the moment integrals, the state and bound evaluations and the
    Monte-Carlo paths.  Flight damping is applied as exp(-gamma tau_f) on
    the population and exp(-gamma tau_f/2) on the coherence.  A column
    ``scenario`` gives (points x couplings) arrays over its (tau_c,
    tau_f_gamma, delta) columns, and each row equals bit for bit the 1-D
    arrays of its point scenario, the 0-d case; a scalar ``g_values`` is one
    coupling.  Early-outs, decided once per call: first a resonant one-level
    call without flags builds no ladder, a_ee = |a_0|^2 cos^2(g t) e^{-u}
    (the ladder's bits, as sqrt(fl(g^2)) = |g| and cos is even, but finite
    past |g| = 1.3e154, where the ladder's g^2 overflows to NaN); then the
    Delta = 0 ones when no point is detuned, and the empty-ladder one (no
    coherence) when the field is the vacuum alone.

    Sector n holds cos^2(l_n t) + (Delta^2/4) S_n^2 with S_n = sin(l_n t)/l_n;
    the coherence pairs the bracket cos(l_{m+1} t) - i (Delta/2) S_{m+1} with
    the swing g sqrt(m) S_m.  cos and sin are evaluated once over the ladder
    and the sine only where something reads it.  With ``ground=True``
    a_gg = 1 - a_ee follows, free of cancellation as a_ee -> 1, as
    (1 - e^{-u} W) + e^{-u} sum_n w_n g^2 n S_n^2 with W = sum_n w_n, since
    1 - cos^2(l_n t) - (Delta^2/4) S_n^2 = g^2 n S_n^2.  With
    ``derivative=True`` the exact g-derivatives (da_ee, da_eg) come last,
    from the same arrays, with d l_n/dg = g n / l_n and
    R_n = (t cos(l_n t) - S_n)/l_n^2:

        dP_n/dg      = 2 g n S_n (Delta^2/4 R_n - t cos(l_n t)),
        d bracket/dg = -g (m+1) [t S_{m+1} + i (Delta/2) R_{m+1}],
        d swing/dg   = sqrt(m) (S_m + g^2 m R_m),

    so both flags give (a_ee, a_eg, a_gg, da_ee, da_eg).  A one-level
    field has no coherence: its a_eg and da_eg are one read-only complex
    zero array, broadcast over the couplings, which holds no memory.
    """
    if not scenario.is_unitary_transit:
        raise ValueError("the unitary state kernel takes kappa = gamma_cav = 0")
    _check_truncation(field)

    g_values = np.atleast_1d(np.asarray(g_values, dtype=float))
    coeff = np.asarray(field.coefficients, dtype=complex)
    n_max = len(coeff) - 1
    tc, u, delta = scenario.columns[..., None, None]  # (1, 1) or (points, 1, 1) each
    detuned = bool(delta.any())
    quarter = delta**2 / 4
    weight = np.abs(coeff) ** 2
    damp = np.exp(-u[..., 0])

    if not (detuned or n_max or derivative or ground):  # resonant vacuum: cos^2 alone
        a_ee = g_values * tc[..., 0]  # l_1 = sqrt(fl(g^2)) = |g|, and cos is even
        np.cos(a_ee, out=a_ee)
        a_ee *= a_ee
        a_ee *= weight[0]
        a_ee *= damp
        return a_ee, np.broadcast_to(0j, a_ee.shape)

    # sectors n = 1 .. n_max+1 hold amplitude a_{n-1}; column j is n = j + 1
    ns = np.arange(1, n_max + 2)
    g2n = np.outer(g_values**2, ns)
    lam2 = quarter + g2n
    lam = np.sqrt(lam2)
    phase = lam * tc
    cos = np.cos(phase)
    root_damp = np.sqrt(damp)
    ratio = np.sin(phase) / np.maximum(lam, _TINY)
    if derivative and (detuned or n_max):  # R enters only through these
        rem = _derivative_ratio(ratio, cos, lam2, phase, tc)
    sector = cos * cos
    if detuned:
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
            total = (im @ pair_parts).view(complex)[..., 0] * 1j
            if re is not None:
                total += (re @ pair_parts).view(complex)[..., 0]
            return total * root_damp

        s_m, s_m1, c_m1 = ratio[..., :-1], ratio[..., 1:], cos[..., 1:]
        swing = np.outer(g_values, np.sqrt(ns[:-1])) * s_m
        a_eg = ladder_sum(delta / 2 * s_m1 * swing if detuned else None, c_m1 * swing)
    else:
        a_eg = np.broadcast_to(0j, a_ee.shape)
    out = (a_ee, a_eg)
    if ground:
        rest = -np.expm1(-u[..., 0]) + damp * (1.0 - weight.sum())
        out += (rest + (g2n * ratio * ratio) @ weight * damp,)
    if not derivative:
        return out

    g_col = g_values[:, None]
    slope = quarter * rem - tc * cos if detuned else -tc * cos
    da_ee = (2.0 * g_col * ns * ratio * slope) @ weight * damp
    if n_max:
        # i d(bracket swing) = g (m+1) [(Delta/2) R_{m+1} - i t S_{m+1}] swing
        #                      + [(Delta/2) S_{m+1} + i cos(l_{m+1} t)] d swing
        d_swing = np.sqrt(ns[:-1]) * (s_m + g2n[:, :-1] * rem[..., :-1])
        g_up = g_col * ns[1:]
        da_eg = ladder_sum(
            delta / 2 * (g_up * rem[..., 1:] * swing + s_m1 * d_swing) if detuned else None,
            c_m1 * d_swing - tc * g_up * s_m1 * swing,
        )
    else:
        da_eg = a_eg
    return out + (da_ee, da_eg)


def reduced_state(g, scenario: Scenario, field: FieldState, derivative: bool = False):
    """Two-level state at the detector for coupling ``g``.

    Traces the field out of the jointly evolved state and applies the
    free-flight decay factors; the ground population is the kernel's a_gg,
    exact as the state nears |e><e|.  Unit trace and positivity are enforced
    by the returned :class:`QubitState`.  An array ``g`` gives the batch of
    states, one entry per coupling, from one kernel call, and a scalar its
    0-d case, a state of numpy scalars.  With
    ``derivative=True`` the exact d rho/dg (a traceless :class:`Hermitian2`
    of the same shape) is returned along with the state.

    A damped scenario gives diag(f, 1 - f) with f from
    :func:`dissipative_populations`; its transit starts in vacuum, so a
    ``field`` with any amplitude above n = 0 raises ``ValueError``, as does
    ``derivative=True``.  A column scenario raises ``ValueError``.
    """
    if scenario.columns.ndim > 1:
        raise ValueError("the reduced state takes a point scenario")
    if not scenario.is_unitary_transit:
        _check_vacuum(field)
        if derivative:
            raise ValueError("a damped state has no d rho/dg")
        f = dissipative_populations(g, scenario.tau_c, scenario.gamma_cav, scenario.kappa)
        f = f.reshape(np.shape(g))[()]
        return QubitState(Hermitian2(ee=f, gg=1.0 - f))
    elements = detector_matrix_elements(g, scenario, field, derivative=derivative, ground=True)
    elements = [x.reshape(np.shape(g))[()] for x in elements]
    a_ee, a_eg, a_gg = elements[:3]
    state = QubitState(Hermitian2(ee=a_ee, gg=a_gg, eg=a_eg))
    if not derivative:
        return state
    da_ee, da_eg = elements[3:]
    return state, Hermitian2(ee=da_ee, gg=-da_ee, eg=da_eg)


def _excited_fraction(g_values: np.ndarray, t, gamma: float, kappa: float) -> np.ndarray:
    """Excited-state population of the damped resonant vacuum model.

    Evaluated elementwise over ``g_values`` broadcast against ``t``, one
    time or a column of times (one row per time, ahead of the coupling axes),
    as the square f = c^2 of the real excited amplitude

        c(t) = e^{-(gamma+kappa)t/4} [ C + b S ],   b = (kappa-gamma) t/4,

    with h^2 = b^2 - g^2 t^2 = D t^2/16, D = (gamma-kappa)^2 - 16 g^2:
    C = cosh h and S = sinh(h)/h when D > 0 (overdamped), C = cos r and
    S = sin(r)/r otherwise, with r = |h| = sqrt|D| t/4.
    This is the standard damped-Rabi solution, with f(0) = 1 identically.
    Each coupling's regime is decided once, from D over the couplings.  All
    take the oscillatory pass, one sin and one cos over the grid with
    b S = ((kappa-gamma)/sqrt|D|) sin r under e^{-(gamma+kappa)t/4}, one exp
    per time: the amplitude of |g| > |gamma-kappa|/4.  The critical ones,
    D = 0 and S = 1, read it at r = 0 and add b S = (kappa-gamma) t/4 to c as
    ((kappa-gamma)/4) (t e^{-(gamma+kappa)t/4}), which stays bounded.  The
    overdamped ones, |g| < |gamma-kappa|/4 (a band of a sorted rule's nodes,
    often empty), are rewritten on their own entries with the envelope folded
    into e^{r - (gamma+kappa)t/4} <= 1, whose exponent is formed as
    -(|b| - r) - min(gamma, kappa) t/2 with
    |b| - r = 4 g^2 t / (sqrt|D| + |kappa-gamma|), against C e^{-r} = 1 + m/2
    and r S e^{-r} = -m/2 with m = expm1(-2r); for gamma > kappa the bracket
    is taken as e^{-r} - (|b| - r) S.  b S = ((kappa-gamma)/sqrt|D|) r S and
    (|b| - r) S = 16 g^2 r S/(sqrt|D| (sqrt|D| + |kappa-gamma|)) hold no t.
    No term holds t^2; on a long transit only r, 2r, |b| - r and the
    envelope exponents overflow, silently, to the +-inf whose limit f = 0 is
    meant, and nothing cancels but at a true zero of c.  A time whose
    envelope is 0 reads r = 0, so an overflowed r reaches sin and cos only
    under an envelope of 1 (zero rates), where f has no limit and reads NaN.
    """
    g = np.asarray(g_values, dtype=float)
    g2 = g**2
    disc = (gamma - kappa) ** 2 - 16.0 * g2
    root = np.sqrt(np.abs(disc))
    over, crit = disc > 0.0, disc == 0.0
    with np.errstate(over="ignore"):  # inf is the long-transit limit
        decay = np.exp(-(gamma + kappa) * t / 4.0)  # the oscillatory envelope, one per time
        c = root * (t / 4.0)  # r
        if not decay.all():
            c[np.broadcast_to(decay == 0.0, c.shape)] = 0.0
        s = np.sin(c)
        np.cos(c, out=c)
        s *= (kappa - gamma) / (root + crit)  # 1 for the critical ones, whose sin r is 0
        c += s
        c *= decay
        if crit.any():
            c[..., crit] += np.broadcast_to((kappa - gamma) / 4.0 * (t * decay), c.shape)[..., crit]
        if over.any():  # the overdamped couplings against the times as a column
            tb, g2b, rb = np.reshape(t, (-1, 1)), g2[over], root[over]
            den = rb + abs(kappa - gamma)  # |b| - r = 4 g^2 t / den
            m = np.expm1(-0.5 * rb * tb)  # -2r: scaling by 2 and 4 is exact, tiny r aside
            half = 0.5 * m  # -r S e^{-r}
            if kappa >= gamma:
                amp = 1.0 + half
                amp -= (kappa - gamma) / rb * half
            else:
                amp = 1.0 + m
                amp += 16.0 * g2b / (rb * den) * half
            amp *= np.exp(-4.0 * g2b * tb / den - min(gamma, kappa) * tb / 2.0)
            c[..., over] = amp
    c *= c
    return c


def dissipative_populations(
    g_values: np.ndarray, t, gamma: float, kappa: float
) -> np.ndarray:
    """Vectorized excited population of the damped transit.

    ``t`` is one time, giving one population per coupling, or a column of
    times, giving a (times x couplings) grid; every time must be finite and
    nonnegative, and the checks below hold over the whole grid.  f(t) is a
    square, so never negative; rounding may carry it past 1 by at most
    ``CLAMP_TOL``, which is clamped, and anything further raises
    ArithmeticError.
    """
    if gamma < 0 or kappa < 0:
        raise InvalidRate(f"rates must be nonnegative, got gamma={gamma} kappa={kappa}")
    t_arr = np.asarray(t)
    if not ((t_arr >= 0) & (t_arr < math.inf)).all():  # NaN included
        raise ValueError("time must be finite and nonnegative")
    f = _excited_fraction(np.atleast_1d(g_values), t, gamma, kappa)
    hi = f.max()
    if hi > 1.0 + CLAMP_TOL:
        raise ArithmeticError(f"excited fraction {float(hi)!r} above 1 beyond {CLAMP_TOL}")
    return f if hi <= 1.0 else np.minimum(f, 1.0)
