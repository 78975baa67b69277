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
from dataclasses import dataclass

import numpy as np

from . import priors as priors_mod
from .errors import SinVanishes
from .priors import Prior, _odd_factorial_series, density

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
    "conditional_pdf",
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

    ``c_max`` is +inf when sin(2 g0 tau_c) = 0, in which case f_z vanishes
    identically and the measurement returns prior draws.  The off-diagonal
    densities are zero by convention (they never enter the average cost).
    """

    prior: Prior
    tau_c: float
    gamma_tau_f: float
    c_max: float
    _fz_scale: float  # Gaussian: c sin(2 g0 tau_c); uniform: c itself

    @property
    def window(self) -> tuple[float, float]:
        return self.prior.window

    def f_i(self, x):
        x = np.asarray(x, dtype=float)
        if self.prior.kind == priors_mod.GAUSSIAN:
            out = density(self.prior, x)
        else:
            out = np.full_like(x, 1.0 / (2.0 * math.sqrt(3.0) * self.prior.sigma))
        return out if out.ndim else float(out)

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
            k_excess = _uniform_offset_excess(self.prior, tc)
            out = -self._fz_scale * (2.0 * np.sin(tc * x) ** 2 + k_excess)
        return out if out.ndim else float(out)

    def interval_integral(self, lo, hi, sign: int = 1, scale: float = 1.0):
        """Exact integral of f_I + sign * scale * f_z over [lo, hi].

        ``scale`` rescales f_z only (used by positivity audits probing
        inflated normalization constants).  Vectorized over interval arrays.
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
                + _uniform_offset_excess(self.prior, tc) * (hi - lo)
            )
        out = part_i + sign * scale * part_z
        return out if out.ndim else float(out)

    def completeness(self) -> tuple[float, float]:
        """(integral of f_I, integral of f_z) over the support window."""
        lo, hi = self.window
        tot_plus = self.interval_integral(lo, hi, sign=1)
        tot_minus = self.interval_integral(lo, hi, sign=-1)
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
    """y - sin(y), summed from its series below |y| = 1, where it cancels."""
    small = np.abs(y) < 1.0
    y_small = np.where(small, y, 0.0)
    series = y_small * _odd_factorial_series(y_small, lambda k: (-1) ** (k + 1), 1)
    return np.where(small, series, y - np.sin(y))


def _s_minus_cos(x: float) -> float:
    """sin(x)/x - cos(x) = sum_{k>=1} (-1)^(k+1) 2k x^(2k)/(2k+1)!, from the
    series below x = 1, where it vanishes as x^2/3."""
    if x >= 1.0:
        return math.sin(x) / x - math.cos(x)
    return _odd_factorial_series(x, lambda k: (-1) ** (k + 1) * 2 * k, 1)


def _uniform_second_bracket(x: float) -> float:
    """s - 3 (s - cos x)/x^2 with s = sin(x)/x; below x = 1, where it
    vanishes as -x^2/15, it is sum_{k>=2} (-1)^(k+1) 4k(k-1) x^(2k-2)/(2k+1)!."""
    if x >= 1.0:
        return math.sin(x) / x - 3.0 * _s_minus_cos(x) / (x * x)
    return _odd_factorial_series(x, lambda k: (-1) ** (k + 1) * 4 * k * (k - 1), 2) / (x * x)


def _uniform_offset_excess(prior: Prior, tau_c: float) -> float:
    """K - 1 for the support average K of cos(2 x tau_c), free of cancellation.

    K = s(A) cos(B) with s(A) = sin(A)/A, so

        K - 1 = (s(A) - 1) cos(B) - 2 sin^2(B/2),

    and below A = 1 s(A) - 1 = sum_{k>=1} (-1)^k A^(2k)/(2k+1)! is summed.
    """
    big_a = 2.0 * math.sqrt(3.0) * prior.sigma * tau_c
    big_b = 2.0 * prior.g0 * tau_c
    if big_a >= 1.0:
        s_minus_one = math.sin(big_a) / big_a - 1.0
    else:
        s_minus_one = _odd_factorial_series(big_a, lambda k: (-1) ** k, 1)
    return s_minus_one * math.cos(big_b) - 2.0 * math.sin(big_b / 2.0) ** 2


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

    Raises :class:`SinVanishes` when sin(2 g0 tau_c) = 0; callers then use a
    vanishing f_z with the scale reported as +inf.
    """
    sin_b = _gaussian_sin_or_raise(prior, tau_c)
    return 1.0 / (math.sqrt(2.0 * math.pi) * prior.sigma * abs(sin_b))


def gaussian_ml_povm(prior: Prior, tau_c: float, gamma_tau_f: float = 0.0) -> MlPovm:
    """Optimal POVM densities for the Gaussian prior.

    f_I is the prior density itself; f_z is the prior envelope times
    -c_max sin(2 g0 tau_c) sin(2 tau_c (x - g0)).  When sin(2 g0 tau_c) = 0
    the constraint disappears, c_max is reported as +inf and f_z == 0.
    """
    if prior.kind != priors_mod.GAUSSIAN:
        raise ValueError("gaussian_ml_povm requires a Gaussian prior")
    try:
        c_max = gaussian_cmax(prior, tau_c)
        scale = c_max * math.sin(2.0 * prior.g0 * tau_c)
    except SinVanishes:
        c_max = math.inf
        scale = 0.0
    return MlPovm(
        prior=prior, tau_c=tau_c, gamma_tau_f=gamma_tau_f, c_max=c_max, _fz_scale=scale
    )


def gaussian_cost_max(povm: MlPovm) -> float:
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
    csin2 = povm._fz_scale * math.sin(2.0 * povm.prior.g0 * tc)
    return base + (
        math.exp(-povm.gamma_tau_f)
        * (1.0 - math.exp(-4.0 * sig**2 * tc**2))
        / (2.0 * math.sqrt(2.0))
        * csin2
    )


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

    Raises :class:`SinVanishes` at tau_c = 0, where the cosine is constant,
    f_z vanishes identically and the scale is unbounded.
    """
    if prior.kind != priors_mod.UNIFORM:
        raise ValueError("uniform_cmax requires a uniform prior")
    if tau_c < 0:
        raise ValueError("tau_c must be nonnegative")
    if tau_c == 0:
        raise SinVanishes("tau_c = 0: traceless component unconstrained")
    sig = prior.sigma
    k_excess = _uniform_offset_excess(prior, tau_c)
    lo, hi = prior.support
    # cos(2 x tau_c) - K = -2 sin^2(x tau_c) - (K - 1): both terms keep their
    # relative precision as tau_c -> 0, where the difference itself is O(tau^2)
    peak = max(abs(2.0 * math.sin(tau_c * x) ** 2 + k_excess) for x in (lo, hi))
    # at the stationary points x = j pi / (2 tau_c), sin^2(x tau_c) is 0 for
    # even j and 1 for odd j, so the first two in the support stand for all
    k_lo = math.ceil(2.0 * tau_c * lo / math.pi)
    k_hi = math.floor(2.0 * tau_c * hi / math.pi)
    for j in range(k_lo, min(k_hi, k_lo + 1) + 1):
        peak = max(peak, abs(2.0 * (j % 2) + k_excess))
    if peak < 1e-300:
        return math.inf
    return 1.0 / (2.0 * math.sqrt(3.0) * sig * peak)


def uniform_ml_povm(prior: Prior, tau_c: float, gamma_tau_f: float = 0.0) -> MlPovm:
    """Optimal POVM densities for the uniform prior.

    f_I is the flat density; f_z = c_max [cos(2 x tau_c) - K] with K the
    support-average of the cosine, so f_z integrates to zero exactly.
    """
    if prior.kind != priors_mod.UNIFORM:
        raise ValueError("uniform_ml_povm requires a uniform prior")
    c_max = uniform_cmax(prior, tau_c)
    return MlPovm(
        prior=prior, tau_c=tau_c, gamma_tau_f=gamma_tau_f, c_max=c_max, _fz_scale=c_max
    )


def _uniform_cost_bracket(big_a: float, big_b: float) -> float:
    """1/2 - sin^2(A) cos^2(B)/A^2 + sin(2A) cos(2B)/(4A), free of cancellation.

    Regrouped as T(A) + sin^2(B) s (s - cos A) with s = sin(A)/A and
    T(A) = 1/2 + sin(2A)/(4A) - s^2.  As A -> 0, T and s - cos A vanish as
    A^4/45 and A^2/3 while c_max grows as 1/A^2, so below A = 1 both are
    summed from their Taylor series instead of differenced:

        T(A) = sum_{m>=2} (-1)^m (m-1)/(2m+2) (2A)^(2m) / (2m+1)!,

    and s - cos A from :func:`_s_minus_cos`.
    """
    if big_a >= 1.0:
        return (
            0.5
            - (math.sin(big_a) * math.cos(big_b)) ** 2 / big_a**2
            + math.sin(2.0 * big_a) * math.cos(2.0 * big_b) / (4.0 * big_a)
        )
    t_sum = _odd_factorial_series(2.0 * big_a, lambda m: (-1) ** m * (m - 1) / (2 * m + 2), 2)
    s = math.sin(big_a) / big_a
    return t_sum + math.sin(big_b) ** 2 * s * _s_minus_cos(big_a)


def uniform_cost_max(povm: MlPovm) -> float:
    """Maximized average cost for the uniform-prior POVM.

    Closed form with A = 2 sqrt(3) sigma tau_c, B = 2 g0 tau_c:

        1/(2 sqrt(3) sigma) + c_max e^{-u} [ 1/2
            - sin^2(A) cos^2(B) / A^2 + sin(2A) cos(2B) / (4A) ],

    the bracket evaluated by :func:`_uniform_cost_bracket`.
    """
    if povm.prior.kind != priors_mod.UNIFORM:
        raise ValueError("uniform_cost_max requires a uniform-prior POVM")
    g0, sig, tc = povm.prior.g0, povm.prior.sigma, povm.tau_c
    bracket = _uniform_cost_bracket(2.0 * math.sqrt(3.0) * sig * tc, 2.0 * g0 * tc)
    return 1.0 / (2.0 * math.sqrt(3.0) * sig) + povm.c_max * math.exp(
        -povm.gamma_tau_f
    ) * bracket


def ml_povm(prior: Prior, tau_c: float, gamma_tau_f: float) -> MlPovm:
    """Optimal POVM for either prior kind (:func:`gaussian_ml_povm`,
    :func:`uniform_ml_povm`)."""
    if prior.kind == priors_mod.GAUSSIAN:
        return gaussian_ml_povm(prior, tau_c, gamma_tau_f)
    return uniform_ml_povm(prior, tau_c, gamma_tau_f)


def cost_max(povm: MlPovm) -> float:
    """Maximized average cost for either prior kind (:func:`gaussian_cost_max`,
    :func:`uniform_cost_max`)."""
    if povm.prior.kind == priors_mod.GAUSSIAN:
        return gaussian_cost_max(povm)
    return uniform_cost_max(povm)


# ---------------------------------------------------------------------------
# Conditional law of the estimate and derived quantities


def _contrast(povm: MlPovm, g, gamma_tau_f: float):
    """c(g) = 2 cos^2(g tau_c) e^{-u} - 1, the weight of f_z in p(x|g)."""
    g = np.asarray(g, dtype=float)
    return 2.0 * np.cos(g * povm.tau_c) ** 2 * math.exp(-gamma_tau_f) - 1.0


def conditional_pdf(povm: MlPovm, g, g_tilde, gamma_tau_f: float):
    """Density of the recorded estimate given the true coupling.

    p(x | g) = f_I(x) + f_z(x) (2 cos^2(g tau_c) e^{-u} - 1); vectorized over
    the estimate argument.  An array ``g`` adds leading axes, one density
    per coupling.
    """
    contrast = _contrast(povm, g, gamma_tau_f)
    return povm.f_i(g_tilde) + np.multiply.outer(contrast, povm.f_z(g_tilde))


def f_z_moments(povm: MlPovm) -> tuple[float, float]:
    """(m1, m2) = (int x f_z dx, int x^2 f_z dx), exactly.

    With k the stored f_z scale: for the Gaussian prior
    m1 = -2 sqrt(2 pi) k sigma^3 tau_c e^{-2 sigma^2 tau_c^2} and m2 = 2 g0 m1;
    for the uniform prior, with h = sqrt(3) sigma, x = 2 tau_c h,
    s = sin(x)/x and B = 2 g0 tau_c,

        m1 = -k sin(B) 2 h^2 (s - cos x) / x,
        m2 = 2 g0 m1 + k cos(B) (4 h^3 / 3) (s - 3 (s - cos x) / x^2),

    both brackets summed from their series below x = 1, where they vanish
    as x^2 while k grows as 1/tau_c^2.
    """
    g0, sig, tc = povm.prior.g0, povm.prior.sigma, povm.tau_c
    k = povm._fz_scale
    if povm.prior.kind == priors_mod.GAUSSIAN:
        m1 = -2.0 * math.sqrt(2.0 * math.pi) * k * sig**3 * tc * math.exp(
            -2.0 * sig**2 * tc**2
        )
        return m1, 2.0 * g0 * m1
    h = math.sqrt(3.0) * sig
    x = 2.0 * tc * h
    big_b = 2.0 * g0 * tc
    m1 = -k * math.sin(big_b) * 2.0 * h * h * _s_minus_cos(x) / x
    m2 = 2.0 * g0 * m1 + k * math.cos(big_b) * (4.0 * h**3 / 3.0) * (
        _uniform_second_bracket(x)
    )
    return m1, m2


def ml_average_estimate(povm: MlPovm, g, gamma_tau_f: float):
    """Mean recorded estimate int x p(x|g) dx = g0 + c(g) m1.

    An array ``g`` gives one mean per entry; a scalar gives a float.
    """
    m1, _ = f_z_moments(povm)
    out = povm.prior.g0 + _contrast(povm, g, gamma_tau_f) * m1
    return out if out.ndim else float(out)


def ml_mse(povm: MlPovm, g, gamma_tau_f: float):
    """Conditional mean-squared error int (x - g)^2 p(x|g) dx
    = sigma^2 + (g0 - g)^2 + c(g) (m2 - 2 g m1); ``g`` as in
    :func:`ml_average_estimate`."""
    m1, m2 = f_z_moments(povm)
    g = np.asarray(g, dtype=float)
    out = (
        povm.prior.sigma**2
        + (povm.prior.g0 - g) ** 2
        + _contrast(povm, g, gamma_tau_f) * (m2 - 2.0 * g * m1)
    )
    return out if out.ndim else float(out)


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
    for sign in (1, -1):
        vals = povm.interval_integral(a, b, sign=sign, scale=scale)
        worst_low = min(worst_low, float(np.min(vals)))
        worst_high = max(worst_high, float(np.max(vals)))
        violations += int(np.sum((vals < -AUDIT_TOL) | (vals > 1.0 + AUDIT_TOL)))
    return AuditResult(
        n_intervals=n_intervals,
        n_violations=violations,
        worst_low=worst_low,
        worst_high=worst_high,
    )
