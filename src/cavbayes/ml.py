"""Likelihood-optimal POVMs for resonant interaction with a vacuum field.

The delta-valued cost turns the optimization into maximizing

    C = int z(x) [ f_I(x) + f_z(x) (2 cos^2(x tau_c) e^{-u} - 1) ] dx

over measurement densities (f_I, f_z) generating the POVM

    dPi(x) = [[f_I + f_z, 0], [0, f_I - f_z]] dx

(the off-diagonal components drop out of the cost and are fixed to zero).
The maximizer aligns f_z with the oscillatory part of the likelihood, leaving
one free scale c.  POVM positivity on every compact interval is equivalent to
the pointwise condition |f_z(x)| <= f_I(x): the zero-width interval limit is
the pointwise condition itself, and conversely f_I +- f_z is then a
nonnegative density of total mass one, so every interval mass lies in
[0, 1].  The production normalization constant of each prior is therefore
the closed-form pointwise cap.

f_I is the prior density and int f_z = 0, so the mean estimate, its MSE and
the bound slope need only the exact moments int x f_z and int x^2 f_z
(:func:`f_z_moments`).  Interval integrals of f_I +- f_z are exact too
(error function with complex argument for the Gaussian prior), so
positivity audits over any intervals reflect the densities themselves;
scipy is imported only inside them.

A POVM holds tau_c and gamma tau_f as arrays, 0-d for a point, and its
constants, cost and moments are masked array expressions over them: a sweep
along either is one POVM.  A uniform POVM keeps the prior's centered
transform at omega = 2 tau_c (:func:`priors._centered_transform`, which sums
the s(x) = sin(x)/x series for the MMSE moments too), the cost's bracket
T(A) included; its cap, f_z, cost and moments read that one pass, and this
module sums no series of its own.

Two functions here serve verification only.  :func:`gaussian_bound_constants`
gives the Gaussian fixed-interval constants c1/c2 of the half-period integral
inequalities, which never fall below the cap; :func:`interval_audit` probes
POVM positivity on random intervals.  They stay beside the cap and the
interval integrals they test because the benchmark's layer tracer
(``bench/layers.py``) reads them as ``ml.gaussian_bound_constants`` and
``ml.interval_audit``.  Every other reference evaluation of the likelihood
closed forms, and the battery that runs them, lives in :mod:`oracle`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import priors as priors_mod
from .errors import SinVanishes
from .priors import Prior, density

__all__ = [
    "MlPovm",
    "gaussian_cmax",
    "gaussian_bound_constants",
    "gaussian_ml_povm",
    "gaussian_cost_max",
    "uniform_cmax",
    "uniform_ml_povm",
    "uniform_cost_max",
    "ml_povm",
    "cost_max",
    "f_z_moments",
    "ml_average_estimate",
    "ml_mse",
    "interval_audit",
]

_SIN_FLOOR = 1e-14
AUDIT_TOL = 1e-9


# ---------------------------------------------------------------------------
# POVM container


@dataclass(frozen=True)
class MlPovm:
    """Measurement densities (f_I, f_z) of a likelihood-optimal POVM.

    ``tau_c``, ``gamma_tau_f``, ``c_max`` and the f_z scale are arrays of
    the builder's shapes, numpy scalars for a point; densities, interval
    masses and audits take a point.  ``c_max`` is +inf where sin(2 g0 tau_c)
    = 0 (uniform prior: where :func:`uniform_cmax` raises, tau_c = 0
    included); f_z vanishes there and the measurement returns prior draws.
    The off-diagonal densities are zero by convention (never in the cost).

    At tau_c = 0 the state no longer depends on g, so every f_z with
    |f_z| <= f_I gives the same cost and f_z == 0 is a convention: the mean
    estimate is g0.  For the uniform prior this is not the tau_c -> 0 limit
    of the optimal POVM, whose f_z stays nonzero; at sigma = g0 its mean
    estimate at g = g0 tends to (3 - sqrt(3))/2 g0 = 0.63397... g0, so a
    likelihood sweep from tau_c = 0 jumps at its first row by design.
    """

    prior: Prior
    tau_c: np.ndarray
    gamma_tau_f: np.ndarray
    c_max: np.ndarray
    _fz_scale: np.ndarray  # Gaussian: c sin(2 g0 tau_c); uniform: c itself (0 if c = inf)
    _sinc: tuple  # uniform: K - 1 and (s, 1 - s, phi1, sigma^2 - phi2, T) at omega = 2 tau_c; else ()

    @property
    def window(self) -> tuple[float, float]:
        return self.prior.window

    def f_i(self, x):
        x = np.asarray(x, dtype=float)
        if self.prior.kind == priors_mod.GAUSSIAN:
            out = density(self.prior, x)
        else:
            out = np.full_like(x, 1.0 / (2.0 * math.sqrt(3.0) * self.prior.sigma))
        return out[()]

    def f_z(self, x):
        x = np.asarray(x, dtype=float)
        g0, sig, tc = self.prior.g0, self.prior.sigma, self.tau_c
        if self.prior.kind == priors_mod.GAUSSIAN:
            out = (
                -self._fz_scale
                * np.sin(2.0 * tc * (x - g0))
                * np.exp(-((x - g0) ** 2) / (2.0 * sig**2))
            )
        else:
            # cos(2 x tau_c) - K = -2 sin^2(x tau_c) - (K - 1): both terms keep
            # their relative precision as tau_c -> 0, where c_max grows as 1/tau^2
            out = -self._fz_scale * (2.0 * np.sin(tc * x) ** 2 + self._sinc[0])
        return out[()]

    def interval_parts(self, lo, hi):
        """Exact integrals (of f_I, of f_z) over [lo, hi].

        The mass of f_I + s f_z over an interval is ``part_i + s * part_z``,
        so one call serves both signs and any rescaled f_z (positivity audits
        probe inflated normalization constants).  Vectorized over interval
        arrays.
        """
        from scipy.special import erf

        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        g0, sig, tc = self.prior.g0, self.prior.sigma, self.tau_c
        if self.prior.kind == priors_mod.GAUSSIAN:
            rt2s = math.sqrt(2.0) * sig
            part_i = 0.5 * (erf((hi - g0) / rt2s) - erf((lo - g0) / rt2s))
            part_z = -self._fz_scale * _gaussian_sine_band(
                lo - g0, hi - g0, sig, 2.0 * tc
            )
        else:
            part_i = (hi - lo) / (2.0 * math.sqrt(3.0) * sig)
            # the primitive of -2 sin^2(x tau_c) - (K - 1), as in f_z
            part_z = -self._fz_scale * (
                (_y_minus_sin(2.0 * tc * hi) - _y_minus_sin(2.0 * tc * lo)) / (2.0 * tc)
                + self._sinc[0] * (hi - lo)
            )
        return part_i, part_z

    def completeness(self) -> tuple[float, float]:
        """(integral of f_I, integral of f_z) over the support window."""
        part_i, part_z = self.interval_parts(*self.window)
        # from the masses of f_I +- f_z, whose rounding the verify report pins
        # as its completeness_error
        tot_plus, tot_minus = float(part_i + part_z), float(part_i - part_z)
        return 0.5 * (tot_plus + tot_minus), 0.5 * (tot_plus - tot_minus)


def _gaussian_sine_band(t_lo, t_hi, sigma: float, k: float):
    """int_{t_lo}^{t_hi} sin(k u) exp(-u^2 / (2 sigma^2)) du, exactly.

    Completing the square turns the integrand into a shifted Gaussian along a
    horizontal line in the complex plane; the primitive is the imaginary part
    of erf((u - i k sigma^2) / (sqrt(2) sigma)) up to constants.
    """
    from scipy.special import erf

    shift = 1j * k * sigma**2
    scale = math.exp(-(k**2) * sigma**2 / 2.0) * sigma * math.sqrt(math.pi / 2.0)
    rt2s = math.sqrt(2.0) * sigma
    return scale * (erf((t_hi - shift) / rt2s) - erf((t_lo - shift) / rt2s)).imag


def _y_minus_sin(y):
    """y - sin(y) = y (1 - s(y)); below |y| = ``priors._SERIES_ARG``, where it
    cancels, 1 - s is 0 - (s - 1) from the sinc series' first row, +0 (so the
    product takes y's sign) where the series underflows."""
    small = np.abs(y) < priors_mod._SERIES_ARG
    y_small = np.where(small, y, 0.0)
    return np.where(small, y_small * (0.0 - priors_mod._sinc_series(y_small)[0]), y - np.sin(y))


def _cmax_and_scale(prior: Prior, tau_c: np.ndarray) -> tuple:
    """(c_max, f_z scale, transform) over the array ``tau_c``: the cap of
    :func:`gaussian_cmax` or :func:`uniform_cmax`, with c_max = +inf and a zero
    scale where unbounded, and the uniform POVM's K - 1 and transform parts
    (() if Gaussian)."""
    if not (tau_c >= 0).all():  # NaN included
        raise ValueError("tau_c must be nonnegative")
    if prior.kind == priors_mod.GAUSSIAN:
        s = np.sin(2.0 * prior.g0 * tau_c)
        free = np.abs(s) < _SIN_FLOOR
        cap = 1.0 / (math.sqrt(2.0 * math.pi) * prior.sigma * np.maximum(np.abs(s), _SIN_FLOOR))
        return np.where(free, math.inf, cap)[()], np.where(free, 0.0, cap * s)[()], ()
    phi, one_minus, phi1, _, var_minus, t_part = priors_mod._centered_transform(prior, 2.0 * tau_c)
    # K - 1 for the support average K = s(A) cos(B) of cos(2 x tau_c), with
    # A = 2 sqrt(3) sigma tau_c and B = 2 g0 tau_c, free of cancellation
    big_b = 2.0 * prior.g0 * tau_c
    k_excess = -one_minus * np.cos(big_b) - 2.0 * np.sin(big_b / 2.0) ** 2
    lo, hi = prior.support
    # cos(2 x tau_c) - K = -2 sin^2(x tau_c) - (K - 1): both terms keep their
    # relative precision as tau_c -> 0, where the difference itself is O(tau^2)
    peak = np.maximum(*(np.abs(2.0 * np.sin(tau_c * x) ** 2 + k_excess) for x in (lo, hi)))
    # at the stationary points x = j pi / (2 tau_c), sin^2(x tau_c) is j mod 2,
    # so the first two in the support, j = k_lo and k_lo + 1, stand for all
    k_lo = np.ceil(2.0 * tau_c * lo / math.pi)
    span = np.floor(2.0 * tau_c * hi / math.pi) - k_lo
    for odd, present in ((k_lo % 2.0, span >= 0.0), (1.0 - k_lo % 2.0, span >= 1.0)):
        peak = np.maximum(peak, np.abs(2.0 * odd + k_excess) * present)
    free = peak < 1e-300
    cap = 1.0 / (2.0 * math.sqrt(3.0) * prior.sigma * np.maximum(peak, 1e-300))
    return (np.where(free, math.inf, cap)[()], np.where(free, 0.0, cap)[()],
            (k_excess, phi, one_minus, phi1, var_minus, t_part))


def _point_cmax(prior: Prior, tau_c: float, kind: str) -> float:
    """The cap at one time for a ``kind`` prior; :class:`SinVanishes` where unbounded."""
    if prior.kind != kind:
        raise ValueError(f"{kind}_cmax requires a {kind} prior")
    c_max = _cmax_and_scale(prior, np.asarray(tau_c, dtype=float)[()])[0]
    if c_max == math.inf:
        raise SinVanishes(f"tau_c = {float(tau_c)!r}: traceless component unconstrained")
    return c_max


def _povm(prior: Prior, tau_c, gamma_tau_f, kind: str) -> MlPovm:
    if prior.kind != kind:
        raise ValueError(f"{kind}_ml_povm requires a {kind} prior")
    tau_c = np.asarray(tau_c, dtype=float)[()]
    return MlPovm(prior, tau_c, np.asarray(gamma_tau_f, dtype=float)[()],
                  *_cmax_and_scale(prior, tau_c))


# ---------------------------------------------------------------------------
# Gaussian prior: normalization constants


def _gaussian_sin_or_raise(prior: Prior, tau_c: float) -> float:
    s = math.sin(2.0 * prior.g0 * tau_c)
    if abs(s) < _SIN_FLOOR:
        raise SinVanishes(
            f"sin(2 g0 tau_c) = {s}: traceless component unconstrained"
        )
    return s


def gaussian_bound_constants(prior: Prior, tau_c: float) -> tuple[float, float]:
    """Fixed-interval constants (c1, c2) from the defining integral bounds.

    With a = 2 sigma tau_c and the half-period window [0, pi/a] in centered
    units, the two one-sided conditions on int (f_I -+ f_z) give

        c1 = I0 / (y I1),    c2 = (1 - I0) / (y I1),
        I0 = int_0^{pi/a} e^{-x^2/2} dx / sqrt(2 pi),
        I1 = int_0^{pi/a} e^{-x^2/2} sin(a x) dx,
        y  = sigma |sin(2 g0 tau_c)|,

    evaluated by adaptive quadrature.  These are necessary conditions only
    and never fall below the pointwise cap of :func:`gaussian_cmax`; they are
    a reference for verification, not a production path.
    """
    from scipy import integrate

    sin_b = _gaussian_sin_or_raise(prior, tau_c)
    a = 2.0 * prior.sigma * tau_c
    upper = math.pi / a
    i0 = integrate.quad(
        lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi), 0.0, upper
    )[0]
    i1 = integrate.quad(
        lambda x: math.exp(-x * x / 2.0) * math.sin(a * x), 0.0, upper, limit=200
    )[0]
    y = prior.sigma * abs(sin_b)
    return i0 / (y * i1), (1.0 - i0) / (y * i1)


def gaussian_cmax(prior: Prior, tau_c: float) -> float:
    """Largest POVM-valid scale of the traceless component, Gaussian prior.

    The pointwise cap 1 / (sqrt(2 pi) sigma |sin(2 g0 tau_c)|): both
    densities share the Gaussian envelope, so |f_z| <= f_I binds where
    |sin(2 tau_c (x - g0))| reaches one.  The fixed-interval constants of
    :func:`gaussian_bound_constants` never bind: c1/cap = sqrt(2 pi) I0/I1 > 1
    because sin(a x) < 1 on the half-period window, and c2 >= c1 because
    I0 <= 1/2.

    Raises :class:`SinVanishes` when sin(2 g0 tau_c) = 0; the POVM builders
    then use a vanishing f_z with the scale reported as +inf.
    """
    return _point_cmax(prior, tau_c, priors_mod.GAUSSIAN)


def gaussian_ml_povm(prior: Prior, tau_c, gamma_tau_f=0.0) -> MlPovm:
    """Optimal POVM densities for the Gaussian prior.

    f_I is the prior density itself; f_z is the prior envelope times
    -c_max sin(2 g0 tau_c) sin(2 tau_c (x - g0)).  When sin(2 g0 tau_c) = 0
    the constraint disappears, c_max is reported as +inf and f_z == 0.
    """
    return _povm(prior, tau_c, gamma_tau_f, priors_mod.GAUSSIAN)


def gaussian_cost_max(povm: MlPovm):
    """Maximized average cost for the Gaussian-prior POVM.

    Closed form 1/sqrt(4 pi sigma^2)
    + c_max e^{-u} (1 - e^{-4 sigma^2 tau_c^2}) sin^2(2 g0 tau_c) / (2 sqrt 2);
    the product c_max sin^2 is evaluated through the stored f_z scale so the
    unconstrained (c_max = inf, f_z = 0) case degrades gracefully.
    """
    if povm.prior.kind != priors_mod.GAUSSIAN:
        raise ValueError("gaussian_cost_max requires a Gaussian-prior POVM")
    sig, tc = povm.prior.sigma, povm.tau_c
    base = 1.0 / math.sqrt(4.0 * math.pi * sig**2)
    csin2 = povm._fz_scale * np.sin(2.0 * povm.prior.g0 * tc)
    envelope = np.exp(-povm.gamma_tau_f) * (1.0 - np.exp(-4.0 * sig**2 * tc**2))
    return (base + envelope / (2.0 * math.sqrt(2.0)) * csin2)[()]


# ---------------------------------------------------------------------------
# Uniform prior: normalization constant


def uniform_cmax(prior: Prior, tau_c: float) -> float:
    """Largest POVM-valid scale of the traceless component, uniform prior.

    The pointwise cap 1/(2 sqrt(3) sigma max_x |cos(2 x tau_c) - K|) over the
    support, K the support average of the cosine.  It binds for every compact
    interval: under |f_z| <= f_I, f_I +- f_z is a nonnegative density of
    total mass one, so each interval mass lies in [0, 1], and the zero-width
    interval limit is the pointwise condition itself.  The maximum is taken
    over the support endpoints and the interior stationary points of the
    cosine, where it is |K - 1| or |K + 1|, so the cost does not grow with
    the number of periods in the support.

    Raises :class:`SinVanishes` where the peak falls below 1e-300: at
    tau_c = 0, where the cosine is constant, and below tau_c ~ 1e-150, where
    the O(tau^2) peak underflows; f_z then vanishes and the scale is unbounded.
    That f_z == 0 is a convention of the degenerate problem, not the limit
    of the POVM as tau_c -> 0 (see :class:`MlPovm`): the scale grows as
    1/tau^2 while f_z shrinks as tau^2, so the product stays finite.
    """
    return _point_cmax(prior, tau_c, priors_mod.UNIFORM)


def uniform_ml_povm(prior: Prior, tau_c, gamma_tau_f=0.0) -> MlPovm:
    """Optimal POVM densities for the uniform prior.

    f_I is the flat density; f_z = c_max [cos(2 x tau_c) - K] with K the
    support-average of the cosine, so f_z integrates to zero exactly.  Where
    :func:`uniform_cmax` finds no constraint, c_max = +inf and f_z == 0.
    """
    return _povm(prior, tau_c, gamma_tau_f, priors_mod.UNIFORM)


def uniform_cost_max(povm: MlPovm):
    """Maximized average cost for the uniform-prior POVM.

    Closed form with A = 2 sqrt(3) sigma tau_c, B = 2 g0 tau_c:

        1/(2 sqrt(3) sigma) + c_max e^{-u} [ 1/2
            - sin^2(A) cos^2(B) / A^2 + sin(2A) cos(2B) / (4A) ],

    the bracket weighted by the stored f_z scale, which is 0 where
    c_max = inf (at tau_c = 0).  It is free of cancellation regrouped as
    T(A) + sin^2(B) s (s - cos A) with s = sin(A)/A, s - cos A = -A s'(A)
    and T(A) = 1/2 + sin(2A)/(4A) - s^2, all read from the POVM's transform.
    T vanishes as A^4/45 while c_max grows as 1/A^2; the transform sums it
    from its series below A = 1.
    """
    if povm.prior.kind != priors_mod.UNIFORM:
        raise ValueError("uniform_cost_max requires a uniform-prior POVM")
    g0, sig, k, tc = povm.prior.g0, povm.prior.sigma, povm._fz_scale, povm.tau_c
    _, phi, _, phi1, _, t_part = povm._sinc
    h = math.sqrt(3.0) * sig
    big_a = 2.0 * h * tc
    bracket = t_part + np.sin(2.0 * g0 * tc) ** 2 * phi * (big_a * phi1 / h)
    return (1.0 / (2.0 * h) + k * np.exp(-povm.gamma_tau_f) * bracket)[()]


def ml_povm(prior: Prior, tau_c, gamma_tau_f) -> MlPovm:
    """Optimal POVM for either prior kind (:func:`gaussian_ml_povm`,
    :func:`uniform_ml_povm`) over arrays of ``tau_c`` and ``gamma_tau_f``;
    ``OverflowError`` where a phase of any entry overflows."""
    tc = np.asarray(tau_c, dtype=float)
    # NaN passes here, for the time check that both priors share
    finite = ~(np.abs(tc) > sys.float_info.max / (8.0 * (prior.g0 + prior.sigma)))
    if not finite.all():
        bad = float(tc.flat[np.argmin(finite)])
        raise OverflowError(f"tau_c = {bad!r} overflows the phases of the likelihood POVM")
    build = gaussian_ml_povm if prior.kind == priors_mod.GAUSSIAN else uniform_ml_povm
    return build(prior, tau_c, gamma_tau_f)


def cost_max(povm: MlPovm):
    """Maximized average cost for either prior kind (:func:`gaussian_cost_max`,
    :func:`uniform_cost_max`)."""
    if povm.prior.kind == priors_mod.GAUSSIAN:
        return gaussian_cost_max(povm)
    return uniform_cost_max(povm)


# ---------------------------------------------------------------------------
# Conditional law of the estimate and derived quantities


def _contrast(povm: MlPovm, g):
    """c(g) = 2 cos^2(g tau_c) e^{-u} - 1 at the POVM's u: the weight of f_z in p(x|g)."""
    g = np.asarray(g, dtype=float)
    return 2.0 * np.cos(g * povm.tau_c) ** 2 * np.exp(-povm.gamma_tau_f) - 1.0


def f_z_moments(povm: MlPovm) -> tuple:
    """(m1, m2) = (int x f_z dx, int x^2 f_z dx), exactly.

    With k the stored f_z scale: for the Gaussian prior
    m1 = -2 sqrt(2 pi) k sigma^3 tau_c e^{-2 sigma^2 tau_c^2} and m2 = 2 g0 m1;
    for the uniform prior, with h = sqrt(3) sigma, B = 2 g0 tau_c and the
    POVM's transform (phi, phi1, phi2) at x = 2 tau_c h,

        m1 = -2 h k sin(B) phi1,
        m2 = 2 g0 m1 + 2 h k cos(B) (phi2 - sigma^2 phi).

    Both vanish as x^2 while k grows as 1/tau_c^2.  phi1 keeps its digits
    from the transform's series; the second bracket is the difference
    sigma^2 (1 - phi) - (sigma^2 - phi2) of two series terms below x = 1 and
    2 sigma^2 (phi - 3 phi1/(h x)) from there, where the difference loses
    digits at wide priors.  A zero scale (f_z == 0) gives (0, 0).
    """
    g0, sig, k, tc = povm.prior.g0, povm.prior.sigma, povm._fz_scale, povm.tau_c
    if povm.prior.kind == priors_mod.GAUSSIAN:
        m1 = -2.0 * math.sqrt(2.0 * math.pi) * k * sig**3 * tc * np.exp(-2.0 * sig**2 * tc**2)
        m2 = 2.0 * g0 * m1
    else:
        _, phi, one_minus, phi1, var_minus, _ = povm._sinc
        h, var, x_min = math.sqrt(3.0) * sig, sig**2, priors_mod._SERIES_ARG
        x, big_b = 2.0 * h * tc, 2.0 * g0 * tc
        m1 = -2.0 * h * k * np.sin(big_b) * phi1
        bracket = np.where(x < x_min, var * one_minus - var_minus,
                           2.0 * var * (phi - 3.0 * phi1 / (h * np.maximum(x, x_min))))
        m2 = 2.0 * g0 * m1 + 2.0 * h * k * np.cos(big_b) * bracket
    return m1, m2


def ml_average_estimate(povm: MlPovm, g):
    """Mean recorded estimate int x p(x|g) dx = g0 + c(g) m1.

    An array ``g`` gives one mean per entry; a scalar gives a numpy scalar.
    """
    m1, _ = f_z_moments(povm)
    out = povm.prior.g0 + _contrast(povm, g) * m1
    return out[()]


def ml_mse(povm: MlPovm, g):
    """Conditional mean-squared error int (x - g)^2 p(x|g) dx
    = sigma^2 + (g0 - g)^2 + c(g) (m2 - 2 g m1); ``g`` as in
    :func:`ml_average_estimate`."""
    m1, m2 = f_z_moments(povm)
    g = np.asarray(g, dtype=float)
    out = (
        povm.prior.sigma**2
        + (povm.prior.g0 - g) ** 2
        + _contrast(povm, g) * (m2 - 2.0 * g * m1)
    )
    return out[()]


# ---------------------------------------------------------------------------
# Positivity audit


@dataclass(frozen=True)
class AuditResult:
    n_intervals: int
    n_violations: int
    worst_low: float  # most negative interval mass (>= -AUDIT_TOL passes)
    worst_high: float  # largest interval mass (<= 1 + AUDIT_TOL passes)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def interval_audit(
    povm: MlPovm,
    n_intervals: int = 500,
    seed: int = 0,
    scale: float = 1.0,
) -> AuditResult:
    """Randomized positivity audit of the POVM on compact intervals.

    Draws interval centers uniformly over the support window.  Widths are
    mostly sub-period (the traceless component oscillates with period
    pi/tau_c, so dips of f_I +- scale*f_z live on that scale), with a bulk
    fraction extending to the window size to probe the <= 1 side.  Interval
    masses come from the closed-form primitives, so a violation report
    reflects the densities themselves and not quadrature noise.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    lo, hi = povm.window
    span = hi - lo
    period = min(math.pi / max(povm.tau_c, 1e-12), span)

    # endpoint-anchored probes: extrema of the densities frequently sit on
    # the support boundary, where only one-sided slivers can go negative
    n_anchor = min(64, n_intervals // 8)
    if n_anchor >= 2:
        anchor_w = np.exp(
            np.linspace(math.log(period / 1024.0), math.log(span), n_anchor // 2)
        )
        a_anchor = np.concatenate([np.full_like(anchor_w, lo), hi - anchor_w])
        b_anchor = np.concatenate([lo + anchor_w, np.full_like(anchor_w, hi)])
    else:
        a_anchor = np.empty(0)
        b_anchor = np.empty(0)

    n_rand = n_intervals - len(a_anchor)
    centers = rng.uniform(lo, hi, size=n_rand)
    narrow = rng.random(n_rand) < 0.8
    w_narrow = period * np.exp(rng.uniform(math.log(1.0 / 64.0), 0.0, size=n_rand))
    w_bulk = np.exp(rng.uniform(math.log(period), math.log(span), size=n_rand))
    widths = np.where(narrow, w_narrow, w_bulk)
    a = np.concatenate([a_anchor, np.maximum(centers - widths / 2.0, lo)])
    b = np.concatenate([b_anchor, np.minimum(centers + widths / 2.0, hi)])

    worst_low = math.inf
    worst_high = -math.inf
    violations = 0
    part_i, part_z = povm.interval_parts(a, b)
    for sign in (1, -1):
        vals = part_i + sign * scale * part_z
        worst_low = min(worst_low, float(np.min(vals)))
        worst_high = max(worst_high, float(np.max(vals)))
        violations += int(np.sum((vals < -AUDIT_TOL) | (vals > 1.0 + AUDIT_TOL)))
    return AuditResult(
        n_intervals=n_intervals,
        n_violations=violations,
        worst_low=worst_low,
        worst_high=worst_high,
    )
