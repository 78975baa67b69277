"""Prior distributions on the coupling strength and quadrature over them.

Two families share a common parametrization by mean ``g0`` and standard
deviation ``sigma``:

* Gaussian on the whole real line,
* uniform on [g0 - sqrt(3) sigma, g0 + sqrt(3) sigma] (the half-width makes
  the variance exactly sigma^2).

The moments M_k(omega) = int z(g) g^k e^{i omega g} dg, k = 0, 1, 2, are
exact (:func:`characteristic_moments`, :func:`cosine_deficits`).  Other
integrals against the prior (detuned or dissipative moment operators,
verification oracles) use equal 16-point Gauss-Legendre panels over the
prior's window, +-8.5 sigma for the Gaussian.  Its neglected tail, weighted
by g^2, is 2 (g0^2 Q(w) + sigma^2 (w phi(w) + Q(w))) at w = 8.5 (Q and phi
the standard normal tail and density): 1.9e-17 g0^2 + 1.4e-15 sigma^2, so
below 1e-14 absolute for sigma <= 2 g0.

A rule is sized by the error bound of Gauss-Legendre quadrature for
integrands analytic in a Bernstein ellipse (Trefethen, Approximation Theory
and Approximation Practice, Thm 19.3): on a panel of half-width h, 16
points miss by at most h 64 M(rho) / (15 (rho^2 - 1) rho^32) when the
integrand is bounded by M(rho) on the ellipse E_rho, whose height is
y = h (rho - 1/rho)/2.  The moment integrands z(g) g^k a(g) are entire, and
M(rho) takes three factors: e^{omega y} for the state's entries a(g) at
their top angular rate omega (exact for cos^2(omega g/2) at resonance), the
density's largest modulus on the ellipse (its growth e^{y^2 / 2 sigma^2}
for the Gaussian) and max(1, |s|)^2 for the g^k factor with s = (g - g0)/
sigma, which bounds the error of G_k in units of (|g0| + sigma)^k.  Summed
over the panels and minimised over rho, the bound depends only on
omega sigma and the window's half-width in sigma, so one table per prior
kind and window, built on first use, serves every g0 and sigma.
:func:`nodes_for_oscillation` gives the fewest panels whose bound stays
under ``QUADRATURE_BUDGET`` = 1e-14, and every :class:`QuadratureRule`
states the bound it spends (``bound``, formed on first read), the window's
tail included.  Rounding, a few ulps of the unit-scaled sums, comes on top.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCombination

__all__ = ["Prior", "QuadratureRule", "density", "moments", "characteristic_moments",
           "cosine_deficits", "quadrature"]

GAUSSIAN = "gaussian"
UNIFORM = "uniform"

GAUSS_LEGENDRE_COMPOSITE = "gauss_legendre_composite"

#: Gaussian quadrature window half-width in units of sigma
GAUSSIAN_TAIL_SIGMAS = 8.5
#: Gauss-Legendre points per panel
_PANEL_POINTS = 16
#: minimum admissible node count
MIN_NODES = 64
#: default node count
DEFAULT_NODES = 256
#: panels of the smallest rule
_MIN_PANELS = MIN_NODES // _PANEL_POINTS
#: stated error a sized rule may spend on its panels, per unit (|g0| + sigma)^k
QUADRATURE_BUDGET = 1e-14
#: panel counts of the bound table; larger rules are multiples of its top half
_TABLE_PANELS = 128
#: Bernstein-ellipse parameters the bound is minimised over, geometric from
#: 1.02 to 1e3 (a list, as np.geomspace would raise the import's peak memory)
_RHO = np.array([1.02 * (1e3 / 1.02) ** (k / 47) for k in range(48)])
#: most nodes times ladder levels of one rule, which bounds one point's state grid
MAX_QUADRATURE_NODES = 2**21
#: |x| below which the uniform law's s(x) = sin(x)/x terms come from series,
#: and the coefficients (k = 1..16) of s - 1, x s', x^2 (s'' + 1/3) and
#: x s' - 2 (s - 1) there
_SERIES_ARG = 1.0
_SINC_COEF = np.array([(-1) ** k * np.c_[[1.0, 2 * k, 2 * k * (2 * k - 1) * (k > 1), 2 * k - 2]]
                       for k in range(1, 17)])


@dataclass(frozen=True)
class Prior:
    """Prior law of the coupling strength, identified by mean and spread."""

    kind: str
    g0: float
    sigma: float

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, UNIFORM):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.g0 <= 0:
            raise ValueError("g0 must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @staticmethod
    def gaussian(g0: float, sigma: float) -> "Prior":
        return Prior(GAUSSIAN, g0, sigma)

    @staticmethod
    def uniform(g0: float, sigma: float) -> "Prior":
        return Prior(UNIFORM, g0, sigma)

    @property
    def support(self) -> tuple[float, float]:
        """Support of the density (infinite for the Gaussian)."""
        if self.kind == GAUSSIAN:
            return (-math.inf, math.inf)
        half = math.sqrt(3.0) * self.sigma
        return (self.g0 - half, self.g0 + half)

    @property
    def window_sigmas(self) -> float:
        """Half-width of :attr:`window` in units of sigma."""
        return GAUSSIAN_TAIL_SIGMAS if self.kind == GAUSSIAN else math.sqrt(3.0)

    @property
    def window(self) -> tuple[float, float]:
        """Finite integration window carrying all numerically relevant mass."""
        if self.kind == GAUSSIAN:
            w = self.window_sigmas * self.sigma
            return (self.g0 - w, self.g0 + w)
        return self.support


@dataclass(frozen=True)
class QuadratureRule:
    """Plain nodes/weights: sum(w * f(nodes)) approximates int f(g) dg.

    The rule spans ``prior``'s window and was built for integrands of the
    state at top angular rate ``angular_rate``; :attr:`bound` states its
    error for them.
    """

    nodes: np.ndarray
    weights: np.ndarray
    prior: Prior
    angular_rate: float = 0.0

    @functools.cached_property
    def bound(self) -> float:
        """Stated error for the moment integrands of the state at
        ``angular_rate``, per unit (|g0| + sigma)^k, the window's tail
        included (see the module docstring); formed on first read."""
        return _rule_bound(self.prior, len(self.nodes) // _PANEL_POINTS, self.angular_rate)

    def __post_init__(self):
        if len(self.nodes) < MIN_NODES:
            raise ValueError(f"node count {len(self.nodes)} < {MIN_NODES}")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def integrate(self, values: np.ndarray):
        """Integral of a function sampled on the nodes; a (..., nodes) array
        gives one integral per row."""
        out = np.sum(self.weights * values, axis=-1)
        return out[()]

    def expect(self, prior: "Prior", values: np.ndarray) -> float:
        """Prior expectation of a function sampled on the nodes."""
        return float(np.sum(self.weights * density(prior, self.nodes) * values))


def density(prior: Prior, g) -> np.ndarray | float:
    """Prior density z(g); zero outside the support for the uniform law."""
    g_arr = np.asarray(g, dtype=float)
    if prior.kind == GAUSSIAN:
        out = np.exp(-((g_arr - prior.g0) ** 2) / (2 * prior.sigma**2)) / math.sqrt(
            2 * math.pi * prior.sigma**2
        )
    else:
        lo, hi = prior.support
        out = np.where(
            (g_arr >= lo) & (g_arr <= hi), 1.0 / (2 * math.sqrt(3.0) * prior.sigma), 0.0
        )
    return out[()]


def moments(prior: Prior) -> tuple[float, float]:
    """(mean, variance) — identical to (g0, sigma^2) for both families."""
    return prior.g0, prior.sigma**2


def _sinc_series(x):
    """The sums sum_k _SINC_COEF[k-1] x^(2k) / (2k+1)!, k = 1..16, over the
    array ``x`` (|x| <= 1), stacked on a leading axis: s - 1, x s',
    x^2 (s'' + 1/3) and x s' - 2 (s - 1) for s(x) = sin(x)/x.

    The coefficients are at most quadratic in k, so the dropped tail is below
    1e-20 of each sum.
    """
    x2 = np.ravel(x * x)
    power = x2 / 6.0
    total = 0.0
    for k, coef in enumerate(_SINC_COEF, start=1):
        total = total + coef * power
        power = power * x2 / ((2 * k + 2) * (2 * k + 3))
    return total.reshape(_SINC_COEF.shape[1:2] + np.shape(x))


def _centered_transform(prior: Prior, omega) -> tuple:
    """(phi, 1 - phi, phi1, phi2, sigma^2 - phi2, T) over the array ``omega``,
    each of ``omega``'s shape (numpy scalars for a scalar); T is None for the
    Gaussian law.

    phi = E e^{i omega y}, E y e^{i omega y} = i phi1 and
    E y^2 e^{i omega y} = phi2 for y = g - g0, all real.  Uniform law:
    phi = s, phi1 = -h s', phi2 = -h^2 s'' with h = sqrt(3) sigma and
    s(x) = sin(x)/x at x = h omega.  The differences vanish as omega -> 0
    and keep their digits through expm1 (Gaussian) or, below
    |x| = ``_SERIES_ARG``, the series of s - 1, x s' and x^2 (s'' + 1/3),
    which are 0 where x^2 underflows.  The MMSE moments below and the
    uniform likelihood POVM (at omega = 2 tau_c, :mod:`ml`) read this one pass.
    The POVM's cost bracket T = 1/2 + sin(2x)/(4x) - s^2 vanishes as x^4/45:
    the series gives (1/2) [r + (s - 1)(x s' - (s - 1))], r = x s' - 2 (s - 1),
    two terms from +x^4 on (1e-15 relative), and the direct form above keeps
    2e-16 absolute (6e-15 relative next to x = 1).
    """
    omega = np.asarray(omega, dtype=float)
    var = prior.sigma**2
    if prior.kind == GAUSSIAN:
        a = var * omega * omega
        half = -a / 2.0
        e, one_minus = np.exp(half), -np.expm1(half)
        return e, one_minus, var * omega * e, var * e * (1.0 - a), var * (one_minus + a * e), None
    h = math.sqrt(3.0) * prior.sigma
    x = h * np.atleast_1d(omega)  # masked assignments below need an array
    small = np.abs(x) < _SERIES_ARG
    xd = np.where(small, 1.0, x)
    s = np.sin(xd) / xd
    ds = (np.cos(xd) - s) / xd
    s_less, d2s_third = s - 1.0, 1.0 / 3.0 - s - 2.0 * ds / xd
    t_part = 0.5 + np.sin(2.0 * xd) / (4.0 * xd) - s * s
    if small.any():
        xs = x[small]
        xs_d = np.where(xs * xs == 0.0, 1.0, xs)  # every series is 0 where x^2 is
        a, x_ds, x2_d2s, r = _sinc_series(xs)
        s_less[small] = a
        s[small] = 1.0 + a
        ds[small] = x_ds / xs_d
        d2s_third[small] = x2_d2s / xs_d**2
        t_part[small] = 0.5 * (r + a * (x_ds - a))
    parts = s, -s_less, -h * ds, var - h * h * d2s_third, h * h * d2s_third, t_part
    return tuple(part.reshape(omega.shape)[()] for part in parts)


def characteristic_moments(prior: Prior, omega) -> tuple:
    """(M0, M1, M2), M_k = int z(g) g^k e^{i omega g} dg, over the array ``omega``
    and of its shape.

    Gaussian: e^{i omega g0 - sigma^2 omega^2/2} times 1, m and m^2 + sigma^2
    with m = g0 + i sigma^2 omega.  Uniform: e^{i omega g0} times s,
    g0 s - i h s' and g0^2 s - 2 i g0 h s' - h^2 s'' (see _centered_transform).
    """
    phi, _, phi1, phi2, _, _ = _centered_transform(prior, omega)
    g0 = prior.g0
    rot = np.exp(1j * g0 * np.asarray(omega, dtype=float))
    return rot * phi, rot * (g0 * phi + 1j * phi1), rot * (g0 * g0 * phi + 2j * g0 * phi1 + phi2)


def cosine_deficits(prior: Prior, omega) -> tuple:
    """(D0, D1, D2), D_k = mu_k - Re M_k = int z g^k (1 - cos omega g) dg, of
    the shape of ``omega``.

    mu_k are the prior moments.  With theta = omega g0, every term of
    D0 = (1 - phi) + phi (1 - cos theta), D1 = g0 D0 + phi1 sin theta and
    D2 = g0^2 D0 + (sigma^2 - phi2) + phi2 (1 - cos theta) + 2 g0 phi1 sin theta
    is nonnegative as omega -> 0, so none cancels (1 - cos = 2 sin^2(theta/2)).
    """
    phi, one_minus, phi1, phi2, var_minus, _ = _centered_transform(prior, omega)
    g0 = prior.g0
    theta = g0 * np.asarray(omega, dtype=float)
    versine, swing = 2.0 * np.sin(theta / 2.0) ** 2, phi1 * np.sin(theta)
    d0 = one_minus + phi * versine
    d1 = g0 * d0 + swing
    return d0, d1, g0 * (d1 + swing) + var_minus + phi2 * versine


@functools.lru_cache(maxsize=None)
def _legendre_base() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of one panel on [-1, 1].

    Built once and shared by every composite rule, so the arrays are frozen:
    a rule only ever reads them into fresh node and weight arrays.
    """
    x, w = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _heights(half: float, panels) -> np.ndarray:
    """Heights y = h (rho - 1/rho)/2 over ``_RHO`` of the ellipses of panels
    of half-width h = ``half`` / ``panels``; an array of counts gives a row each."""
    h = half / np.asarray(panels, dtype=float)[..., None]
    return h * (_RHO - 1.0 / _RHO) / 2.0


def _log_panel_sums(kind: str, half: float, panels: int) -> np.ndarray:
    """ln S over ``_RHO`` for ``panels`` equal panels on [-half, half], in
    units of sigma about g0.

    The bound of the rule at top rate w is S e^{w y}, with
    S = sum_p h 64 M_p / (15 (rho^2 - 1) rho^32) for the panel half-width h,
    y (:func:`_heights`) the height of each panel's ellipse and M_p the
    largest |z| max(1, |s|)^2 on it: the density at the point of the panel's
    real extent nearest the mean, times e^{y^2/2} for the Gaussian, and
    the largest |s|^2 on it, (|c_p| + a)^2 + y^2 with a = h (rho + 1/rho)/2.
    The panels mirror about the mean, so each distance |c_p| enters once
    with its count.
    """
    h = half / panels
    centre = half - h * (2.0 * np.arange((panels + 1) // 2) + 1.0)  # |c_p|, outermost first
    count = np.full(len(centre), 2.0)
    count[-1] -= panels % 2  # an odd rule's middle panel sits on the mean
    rho = _RHO[:, None]
    y, a = _heights(half, panels)[:, None], h * (rho + 1.0 / rho) / 2.0
    log_m = np.log(np.maximum(1.0, (centre + a) ** 2 + y * y))
    if kind == GAUSSIAN:
        log_m += (y * y - np.maximum(centre - a, 0.0) ** 2) / 2.0 - 0.5 * math.log(2.0 * math.pi)
    else:
        log_m -= math.log(2.0 * half)
    top = log_m.max(axis=1)
    log_pre = math.log(64.0 * h / 15.0) - np.log(_RHO * _RHO - 1.0) - 2 * _PANEL_POINTS * np.log(_RHO)
    return log_pre + top + np.log(np.exp(log_m - top[:, None]) @ count)


@functools.lru_cache(maxsize=None)
def _bound_table(kind: str, half: float) -> tuple:
    """(ln S, reach, fewest) of the rules of 1 .. ``_TABLE_PANELS`` panels
    over a window of half-width ``half`` sigma, one row per panel count.

    ``reach`` holds the top rate (times sigma) each rule admits under
    ``QUADRATURE_BUDGET``, and ``fewest`` its running maximum from
    ``_MIN_PANELS`` on, so the first entry of ``fewest`` at or above a rate
    is the fewest admissible panels for it.
    The rows depend on sigma only through ``half``, so a prior kind and
    window share one table for every g0 and sigma.
    """
    log_s, reach = np.empty((_TABLE_PANELS, len(_RHO))), np.empty(_TABLE_PANELS)
    for p in range(1, _TABLE_PANELS + 1):  # row by row, to hold no second table
        log_s[p - 1] = _log_panel_sums(kind, half, p)
        reach[p - 1] = ((math.log(QUADRATURE_BUDGET) - log_s[p - 1]) / _heights(half, p)).max()
    return log_s, reach, np.maximum.accumulate(reach[_MIN_PANELS - 1:])


def _window_tail(prior: Prior) -> float:
    """Bound of the integral outside the window, per unit (|g0| + sigma)^k:
    int_{|s| > w} z s^2 ds = 2 (w phi(w) + Q(w)) for the Gaussian window of
    w sigma (w >= 1), and 0 for the uniform law, whose window is its support."""
    if prior.kind != GAUSSIAN:
        return 0.0
    w = prior.window_sigmas
    return 2.0 * (w * math.exp(-w * w / 2.0) / math.sqrt(2.0 * math.pi) + math.erfc(w / math.sqrt(2.0)) / 2.0)


def _rule_bound(prior: Prior, panels: int, angular_rate: float) -> float:
    """Stated error bound of ``panels`` equal panels over the prior's window
    at top rate ``angular_rate``, window tail included.

    A rule of m P0 panels splits each of P0's panels into m, whose ellipses
    at the same rho lie inside the parent's, so its S is at most P0's and
    its y is P0's over m; the bound is the least over the divisors P0 of
    ``panels`` in the table, or ``panels`` itself within it.
    """
    log_s = _bound_table(prior.kind, prior.window_sigmas)[0]
    p0 = panels if panels <= _TABLE_PANELS else np.flatnonzero(panels % np.arange(1, _TABLE_PANELS + 1) == 0) + 1
    log_b = log_s[p0 - 1] + (angular_rate * prior.sigma) * _heights(prior.window_sigmas, panels)
    return math.exp(log_b.min()) + _window_tail(prior)


def _composite_legendre(prior: Prior, panels: int, angular_rate: float) -> QuadratureRule:
    """``panels`` equal panels of ``_PANEL_POINTS`` nodes over the prior's window."""
    lo, hi = prior.window
    base_x, base_w = _legendre_base()
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, prior=prior, angular_rate=angular_rate)


def quadrature(
    prior: Prior, n_points: int = DEFAULT_NODES, kind: str = GAUSS_LEGENDRE_COMPOSITE,
    *, angular_rate: float = 0.0,
) -> QuadratureRule:
    """Quadrature rule of ceil(``n_points`` / 16) equal 16-point
    Gauss-Legendre panels over the prior's window.

    ``n_points`` is a lower bound on the node count and must be at least 64.
    The rule records in ``bound`` its stated error for integrands of the
    state at top angular rate ``angular_rate`` (see the module docstring);
    :func:`nodes_for_oscillation` gives the fewest nodes holding that bound
    to ``QUADRATURE_BUDGET``, and an oscillatory caller sizes its rule with
    it.  The composite Gauss-Legendre rule is the only ``kind``.
    """
    if n_points < MIN_NODES:
        raise ValueError(f"n_points must be >= {MIN_NODES}")
    if kind != GAUSS_LEGENDRE_COMPOSITE:
        raise ValueError(f"unknown quadrature kind {kind!r}")
    return _composite_legendre(prior, math.ceil(n_points / _PANEL_POINTS), angular_rate)


def nodes_for_oscillation(prior: Prior, angular_rate, levels: int = 1):
    """Fewest nodes, in whole panels and at least ``MIN_NODES``, whose
    stated bound at top rate ``angular_rate`` stays under
    ``QUADRATURE_BUDGET``.

    ``angular_rate`` is the largest angular frequency (in g) of the state,
    e.g. 2 tau_c sqrt(n_max + 1) for a photon ladder truncated at n_max, and
    a zero or negative rate the non-oscillatory case; an array of rates
    gives an integer array of counts, one per element, and one rate its 0-d
    case.  Up to ``_TABLE_PANELS`` panels the count is read off the lazily
    built table of the prior's kind and window; past it the rule is m P0
    panels for the P0 of the table's top half that gives the fewest, which
    admits m times P0's rate (see :func:`_rule_bound`).  Past
    ``MAX_QUADRATURE_NODES`` nodes times ``levels``, the ladder levels at
    every node, it raises :class:`UnsupportedCombination` for the first such
    rate.
    """
    _, reach, fewest = _bound_table(prior.kind, prior.window_sigmas)
    rate = np.asarray(np.maximum(angular_rate, 0.0) * prior.sigma)  # NaN stays NaN
    panels = np.searchsorted(fewest, rate) + _MIN_PANELS
    if not rate.max(initial=0.0) <= fewest[-1]:  # past the table, NaN included
        top = _TABLE_PANELS // 2
        split = np.ceil(rate[..., None] / reach[top:])
        panels = np.where(rate <= fewest[-1], panels, (split * np.arange(top + 1, _TABLE_PANELS + 1)).min(axis=-1))
    need = panels * _PANEL_POINTS
    if not need.max(initial=0) * levels <= MAX_QUADRATURE_NODES:  # NaN included
        first = np.extract(~(need * levels <= MAX_QUADRATURE_NODES), need)[0]
        raise UnsupportedCombination(f"{first:.3g} nodes x {levels} levels pass {MAX_QUADRATURE_NODES}")
    return need.astype(int, copy=False)[()]
