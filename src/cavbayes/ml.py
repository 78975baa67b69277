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
the closed-form pointwise cap.  The Gaussian fixed-interval constants c1/c2
from the half-period integral inequalities are kept as reference
implementations for verification; they never fall below the cap.

Interval integrals of f_I +- f_z are available in closed form (error function
with complex argument for the Gaussian prior), which makes positivity audits
over arbitrary interval collections exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import priors as priors_mod
from .errors import SinVanishes
from .priors import Prior, density

__all__ = [
    "MlPovm",
    "gaussian_cmax",
    "gaussian_bound_constants",
    "gaussian_bound_constants_erf",
    "gaussian_ml_povm",
    "gaussian_cost_max",
    "uniform_cmax",
    "uniform_ml_povm",
    "uniform_cost_max",
    "ml_povm",
    "cost_max",
    "conditional_pdf",
    "ml_average_estimate",
    "ml_mse",
    "average_cost_quadrature",
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

    @functools.cached_property
    def rule(self) -> priors_mod.QuadratureRule:
        """Prior-window rule resolving the oscillation of f_z, built once."""
        n = priors_mod.nodes_for_oscillation(self.prior, 2.0 * self.tau_c)
        return priors_mod.quadrature(self.prior, n)

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
    shift = 1j * k * sigma**2
    scale = math.exp(-(k**2) * sigma**2 / 2.0) * sigma * math.sqrt(math.pi / 2.0)
    rt2s = math.sqrt(2.0) * sigma
    return scale * (erf((t_hi - shift) / rt2s) - erf((t_lo - shift) / rt2s)).imag


def _y_minus_sin(y):
    """y - sin(y), summed from its series below |y| = 1, where it cancels.

    The nine terms sum_{k=1}^{9} (-1)^(k+1) y^(2k+1)/(2k+1)! leave a tail
    below 1e-19 of the sum there.
    """
    small = np.abs(y) < 1.0
    y_small = np.where(small, y, 0.0)
    y2 = y_small * y_small
    term = y_small * y2 / 6.0
    series = term
    for k in range(2, 10):
        term = term * (-y2 / ((2 * k) * (2 * k + 1)))
        series = series + term
    return np.where(small, series, y - np.sin(y))


def _uniform_offset_excess(prior: Prior, tau_c: float) -> float:
    """K - 1 for the support average K of cos(2 x tau_c), free of cancellation.

    K = s(A) cos(B) with s(A) = sin(A)/A, so

        K - 1 = (s(A) - 1) cos(B) - 2 sin^2(B/2),

    and below A = 1 the term s(A) - 1 = sum_{k>=1} (-1)^k A^(2k)/(2k+1)! is
    summed until its terms drop below 1e-17 of the sum.
    """
    big_a = 2.0 * math.sqrt(3.0) * prior.sigma * tau_c
    big_b = 2.0 * prior.g0 * tau_c
    if abs(big_a) >= 1.0:
        s_minus_one = math.sin(big_a) / big_a - 1.0
    else:
        a2 = big_a * big_a
        term, s_minus_one, k = 1.0, 0.0, 0
        while True:
            k += 1
            term *= -a2 / ((2 * k) * (2 * k + 1))
            s_minus_one += term
            if abs(term) <= 1e-17 * abs(s_minus_one):
                break
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


def gaussian_bound_constants_erf(prior: Prior, tau_c: float) -> tuple[float, float]:
    """(c1, c2) through the error function, no quadrature.

    Independent evaluation of the same defining integrals:

        I0 = erf(L/sqrt(2)) / 2,                      L = pi / a,
        I1 = e^{-a^2/2} sqrt(2 pi)/2
             * Im[ erf((L - i a)/sqrt(2)) + erf(i a / sqrt(2)) ].
    """
    sin_b = _gaussian_sin_or_raise(prior, tau_c)
    a = 2.0 * prior.sigma * tau_c
    big_l = math.pi / a
    i0 = 0.5 * erf(big_l / math.sqrt(2.0))
    i1 = (
        math.exp(-a * a / 2.0)
        * math.sqrt(2.0 * math.pi)
        / 2.0
        * (erf((big_l - 1j * a) / math.sqrt(2.0)) + erf(1j * a / math.sqrt(2.0))).imag
    )
    y = prior.sigma * abs(sin_b)
    return i0 / (y * i1), (1.0 - i0) / (y * i1)


def _gaussian_bound_constants_erf_alt(prior: Prior, tau_c: float) -> tuple[float, float]:
    # real-part erf combination; disagrees with the defining integrals and is
    # surfaced in the verification report only, never asserted
    sin_b = _gaussian_sin_or_raise(prior, tau_c)
    q = prior.sigma * tau_c
    pref = 2.0 / (
        math.sqrt(2.0 * math.pi * prior.sigma**2)
        * abs(sin_b)
        * math.exp(-2.0 * q * q)
    )
    num1 = erf(math.pi / (2.0 * math.sqrt(2.0) * q))
    den = (
        erf((math.pi + 4j * q * q) / (2.0 * math.sqrt(2.0) * q))
        + erf((math.pi - 4j * q * q) / (2.0 * math.sqrt(2.0) * q))
    ).real
    return pref * num1 / den, pref * (2.0 - num1) / den


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
    cosine.

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
    xs = [lo, hi]
    k_lo = math.ceil(2.0 * tau_c * lo / math.pi)
    k_hi = math.floor(2.0 * tau_c * hi / math.pi)
    xs += [j * math.pi / (2.0 * tau_c) for j in range(k_lo, k_hi + 1)]
    # cos(2 x tau_c) - K = -2 sin^2(x tau_c) - (K - 1): both terms keep their
    # relative precision as tau_c -> 0, where the difference itself is O(tau^2)
    peak = max(abs(2.0 * math.sin(tau_c * x) ** 2 + k_excess) for x in xs)
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

        T(A)      = sum_{n>=3} (-1)^(n+1) (n-2) (2A)^(2n-2) / (2n)!,
        s - cos A = sum_{k>=1} (-1)^(k+1) 2k A^(2k) / (2k+1)!.
    """
    if big_a >= 1.0:
        return (
            0.5
            - (math.sin(big_a) * math.cos(big_b)) ** 2 / big_a**2
            + math.sin(2.0 * big_a) * math.cos(2.0 * big_b) / (4.0 * big_a)
        )
    x2 = 4.0 * big_a**2
    power = x2 * x2 / 720.0  # (2A)^(2n-2) / (2n)! at n = 3
    t_sum, n = 0.0, 3
    while power * (n - 2) > 1e-18 * t_sum:
        t_sum += (-1) ** (n + 1) * (n - 2) * power
        power *= x2 / ((2 * n + 1) * (2 * n + 2))
        n += 1
    a2 = big_a**2
    power = a2 / 6.0  # A^(2k) / (2k+1)! at k = 1
    gap, k = 0.0, 1
    while 2 * k * power > 1e-18 * gap:
        gap += (-1) ** (k + 1) * 2 * k * power
        power *= a2 / ((2 * k + 2) * (2 * k + 3))
        k += 1
    s = math.sin(big_a) / big_a
    return t_sum + math.sin(big_b) ** 2 * s * gap


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


def conditional_pdf(povm: MlPovm, g, g_tilde, gamma_tau_f: float):
    """Density of the recorded estimate given the true coupling.

    p(x | g) = f_I(x) + f_z(x) (2 cos^2(g tau_c) e^{-u} - 1); vectorized over
    the estimate argument.  An array ``g`` adds leading axes, one density
    per coupling.
    """
    g = np.asarray(g, dtype=float)
    contrast = 2.0 * np.cos(g * povm.tau_c) ** 2 * math.exp(-gamma_tau_f) - 1.0
    return povm.f_i(g_tilde) + np.multiply.outer(contrast, povm.f_z(g_tilde))


def ml_average_estimate(povm: MlPovm, g, gamma_tau_f: float):
    """Mean recorded estimate, int x p(x|g) dx by quadrature.

    An array ``g`` gives one mean per entry from one (g x nodes) density; a
    scalar gives a float through the same code.
    """
    rule = povm.rule
    p = conditional_pdf(povm, g, rule.nodes, gamma_tau_f)
    return rule.integrate(rule.nodes * p)


def ml_mse(povm: MlPovm, g, gamma_tau_f: float):
    """Conditional mean-squared error int (x - g)^2 p(x|g) dx; ``g`` as in
    :func:`ml_average_estimate`."""
    rule = povm.rule
    p = conditional_pdf(povm, g, rule.nodes, gamma_tau_f)
    return rule.integrate(np.subtract.outer(g, rule.nodes) ** 2 * p)


def gaussian_average_estimate_closed_forms(
    povm: MlPovm, g: float, gamma_tau_f: float
) -> tuple[float, float]:
    """(derived, alternative) closed forms of the Gaussian mean estimate.

    The derived form follows from int x f_z(x) dx evaluated exactly:

        g0 + 2 sqrt(2 pi) c sigma^3 tau_c e^{-2 sigma^2 tau_c^2 - u}
             [e^u - 2 cos^2(g tau_c)] sin(2 g0 tau_c),

    and agrees with the quadrature definition.  The alternative carries a
    4 sqrt(5 pi) c sigma^2 prefactor instead; it is evaluated only so the
    verification report can display the discrepancy.
    """
    g0, sig, tc = povm.prior.g0, povm.prior.sigma, povm.tau_c
    u = gamma_tau_f
    csin = povm._fz_scale  # c_max sin(2 g0 tau_c), 0 when unconstrained
    common = math.exp(-2.0 * sig**2 * tc**2 - u) * (
        math.exp(u) - 2.0 * math.cos(g * tc) ** 2
    )
    derived = g0 + 2.0 * math.sqrt(2.0 * math.pi) * sig**3 * tc * csin * common
    alt = g0 + 4.0 * math.sqrt(5.0 * math.pi) * sig**2 * tc * csin * common
    return derived, alt


def average_cost_quadrature(povm: MlPovm) -> float:
    """Average cost by direct quadrature, int z(x) p(x|x) dx.

    Independent of the closed forms; the diagonal of the conditional density
    appears because the delta-valued cost rewards probability mass placed at
    the true value.
    """
    rule = povm.rule
    contrast = (
        2.0 * np.cos(rule.nodes * povm.tau_c) ** 2 * math.exp(-povm.gamma_tau_f) - 1.0
    )
    p = povm.f_i(rule.nodes) + contrast * povm.f_z(rule.nodes)
    return rule.expect(povm.prior, p)


# ---------------------------------------------------------------------------
# Positivity audit


@dataclass(frozen=True)
class AuditResult:
    n_intervals: int
    n_violations: int
    worst_low: float  # most negative interval mass (>= -tol passes)
    worst_high: float  # largest interval mass (<= 1 + tol passes)

    @property
    def passed(self) -> bool:
        return self.n_violations == 0


def interval_audit(
    povm: MlPovm,
    n_intervals: int = 500,
    seed: int = 0,
    scale: float = 1.0,
    tol: float = AUDIT_TOL,
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
        violations += int(np.sum((vals < -tol) | (vals > 1.0 + tol)))
    return AuditResult(
        n_intervals=n_intervals,
        n_violations=violations,
        worst_low=worst_low,
        worst_high=worst_high,
    )
