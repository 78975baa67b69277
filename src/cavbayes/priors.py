"""Prior distributions on the coupling strength and quadrature over them.

Two families share a common parametrization by mean ``g0`` and standard
deviation ``sigma``:

* Gaussian on the whole real line,
* uniform on [g0 - sqrt(3) sigma, g0 + sqrt(3) sigma] (the half-width makes
  the variance exactly sigma^2).

The moments M_k(omega) = int z(g) g^k e^{i omega g} dg, k = 0, 1, 2, are
exact (:func:`characteristic_moments`, :func:`cosine_deficits`).  Other
integrals against the prior (detuned or dissipative moment operators,
verification oracles) use composite Gauss-Legendre panels, and there the
Gaussian support is truncated at +-8 sigma.  The neglected tail mass is
2 Q(8) = 1.2e-15 and, weighted by g^2, 2 (g0^2 Q(8) + sigma^2 (8 phi(8) +
Q(8))) = 1.2e-15 g0^2 + 8.2e-14 sigma^2 (Q and phi the standard normal tail
and density), which bounds every entry of a moment operator: below 1e-13
absolute for sigma <= g0 = 1, 1.9e-13 at sigma = 1.5.  Node counts can be
scaled up so oscillatory integrands cos(2 g tau) keep at least ~8 nodes per
period; with 16 points per panel the moment operators stay within 1e-15 of
a rule with 32 over g0 tau <= 3, Delta <= 3 and Fock cutoffs <= 27.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Prior", "QuadratureRule", "density", "moments", "characteristic_moments",
           "cosine_deficits", "quadrature"]

GAUSSIAN = "gaussian"
UNIFORM = "uniform"

GAUSS_LEGENDRE_COMPOSITE = "gauss_legendre_composite"

#: Gaussian quadrature window half-width in units of sigma
GAUSSIAN_TAIL_SIGMAS = 8.0
#: Gauss-Legendre points per panel
_PANEL_POINTS = 16
#: minimum admissible node count
MIN_NODES = 64
#: default node count
DEFAULT_NODES = 256
#: |x| below which the uniform law's s(x) = sin(x)/x terms come from series,
#: and the coefficients (k = 1..16) of s - 1, x s' and x^2 (s'' + 1/3) there
_SERIES_ARG = 1.0
_SINC_COEF = [(-1) ** k * np.c_[[1.0, 2 * k, 2 * k * (2 * k - 1) * (k > 1)]] for k in range(1, 17)]


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
    def window(self) -> tuple[float, float]:
        """Finite integration window carrying all numerically relevant mass."""
        if self.kind == GAUSSIAN:
            w = GAUSSIAN_TAIL_SIGMAS * self.sigma
            return (self.g0 - w, self.g0 + w)
        return self.support


@dataclass(frozen=True)
class QuadratureRule:
    """Plain nodes/weights: sum(w * f(nodes)) approximates int f(g) dg."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) < MIN_NODES:
            raise ValueError(f"node count {len(self.nodes)} < {MIN_NODES}")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def integrate(self, values: np.ndarray):
        """Integral of a function sampled on the nodes; a (..., nodes) array
        gives one integral per row."""
        out = np.sum(self.weights * values, axis=-1)
        return out if out.ndim else float(out)

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
    return float(out) if np.isscalar(g) else out


def moments(prior: Prior) -> tuple[float, float]:
    """(mean, variance) — identical to (g0, sigma^2) for both families."""
    return prior.g0, prior.sigma**2


def _odd_factorial_series(x, coef, k0: int):
    """sum_{k>=k0} coef(k) x^(2k) / (2k+1)!, elementwise, for |x| <= 2.

    Sixteen terms are summed; for the coefficients used here, at most
    quadratic in k, the dropped tail is below 1e-20 of the sum.
    """
    x2 = x * x
    power = x2**k0 / math.factorial(2 * k0 + 1)
    total = 0.0
    for k in range(k0, k0 + 16):
        total = total + coef(k) * power
        power = power * x2 / ((2 * k + 2) * (2 * k + 3))
    return total


def _centered_transform(prior: Prior, omega) -> tuple:
    """(phi, 1 - phi, phi1, phi2, sigma^2 - phi2) over the array ``omega``.

    phi = E e^{i omega y}, E y e^{i omega y} = i phi1 and
    E y^2 e^{i omega y} = phi2 for y = g - g0, all real.  Uniform law:
    phi = s, phi1 = -h s', phi2 = -h^2 s'' with h = sqrt(3) sigma and
    s(x) = sin(x)/x at x = h omega.  The differences vanish as omega -> 0
    and keep their digits through expm1 (Gaussian) or, below
    |x| = ``_SERIES_ARG``, the series of s - 1, x s' and x^2 (s'' + 1/3).
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    var = prior.sigma**2
    if prior.kind == GAUSSIAN:
        a = var * omega * omega
        half = -a / 2.0
        e, one_minus = np.exp(half), -np.expm1(half)
        return e, one_minus, var * omega * e, var * e * (1.0 - a), var * (one_minus + a * e)
    h = math.sqrt(3.0) * prior.sigma
    x = h * omega
    small = np.abs(x) < _SERIES_ARG
    xd = np.where(small, 1.0, x)
    s = np.sin(xd) / xd
    ds = (np.cos(xd) - s) / xd
    s_less, d2s_third = s - 1.0, 1.0 / 3.0 - s - 2.0 * ds / xd
    if small.any():
        xs = x[small]
        xs_d = np.where(xs == 0.0, 1.0, xs)  # every series vanishes at x = 0
        series = _odd_factorial_series(xs, lambda k: _SINC_COEF[k - 1], 1)
        s_less[small] = series[0]
        s[small] = 1.0 + series[0]
        ds[small] = series[1] / xs_d
        d2s_third[small] = series[2] / xs_d**2
    return s, -s_less, -h * ds, var - h * h * d2s_third, h * h * d2s_third


def characteristic_moments(prior: Prior, omega) -> tuple:
    """(M0, M1, M2), M_k = int z(g) g^k e^{i omega g} dg, over the array ``omega``.

    Gaussian: e^{i omega g0 - sigma^2 omega^2/2} times 1, m and m^2 + sigma^2
    with m = g0 + i sigma^2 omega.  Uniform: e^{i omega g0} times s,
    g0 s - i h s' and g0^2 s - 2 i g0 h s' - h^2 s'' (see _centered_transform).
    """
    phi, _, phi1, phi2, _ = _centered_transform(prior, omega)
    g0 = prior.g0
    rot = np.exp(1j * g0 * np.asarray(omega, dtype=float))
    return rot * phi, rot * (g0 * phi + 1j * phi1), rot * (g0 * g0 * phi + 2j * g0 * phi1 + phi2)


def cosine_deficits(prior: Prior, omega) -> tuple:
    """(D0, D1, D2), D_k = mu_k - Re M_k = int z g^k (1 - cos omega g) dg.

    mu_k are the prior moments.  With theta = omega g0, every term of
    D0 = (1 - phi) + phi (1 - cos theta), D1 = g0 D0 + phi1 sin theta and
    D2 = g0^2 D0 + (sigma^2 - phi2) + phi2 (1 - cos theta) + 2 g0 phi1 sin theta
    is nonnegative as omega -> 0, so none cancels (1 - cos = 2 sin^2(theta/2)).
    """
    phi, one_minus, phi1, phi2, var_minus = _centered_transform(prior, omega)
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


def _composite_legendre(lo: float, hi: float, n_points: int, max_width: float) -> QuadratureRule:
    """Panels of ``_PANEL_POINTS`` nodes, at least ``n_points`` nodes in all
    and no panel wider than ``max_width``."""
    panels = max(1, math.ceil(n_points / _PANEL_POINTS), math.ceil((hi - lo) / max_width))
    base_x, base_w = _legendre_base()
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights)


def quadrature(
    prior: Prior, n_points: int = DEFAULT_NODES, kind: str = GAUSS_LEGENDRE_COMPOSITE
) -> QuadratureRule:
    """Quadrature rule over the prior's window.

    ``n_points`` is a lower bound on the node count (rounded up to whole
    panels) and must be at least 64.  Panels are additionally kept no wider
    than one prior standard deviation, which resolves the moderately
    oscillatory integrands arising at interaction times of a few periods;
    faster oscillations should size the rule via ``nodes_for_oscillation``.
    The composite Gauss-Legendre rule is the only ``kind``.
    """
    if n_points < MIN_NODES:
        raise ValueError(f"n_points must be >= {MIN_NODES}")
    if kind != GAUSS_LEGENDRE_COMPOSITE:
        raise ValueError(f"unknown quadrature kind {kind!r}")
    lo, hi = prior.window
    return _composite_legendre(lo, hi, n_points, prior.sigma)


def nodes_for_oscillation(prior: Prior, angular_rate: float) -> int:
    """Node count resolving cos(angular_rate * g) with >= 8 nodes per period,
    and at least ``DEFAULT_NODES``.

    ``angular_rate`` is the largest angular frequency (in g) appearing in the
    integrand, e.g. 2 tau_c sqrt(n_max) for a photon ladder truncated at
    n_max.
    """
    lo, hi = prior.window
    if angular_rate <= 0:
        return DEFAULT_NODES
    period = 2 * math.pi / angular_rate
    return max(DEFAULT_NODES, math.ceil(8.0 * (hi - lo) / period))
