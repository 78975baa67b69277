"""Prior distributions on the coupling strength and quadrature over them.

Two families share a common parametrization by mean ``g0`` and standard
deviation ``sigma``:

* Gaussian on the whole real line,
* uniform on [g0 - sqrt(3) sigma, g0 + sqrt(3) sigma] (the half-width makes
  the variance exactly sigma^2).

Integrals against the prior are evaluated with composite Gauss-Legendre
panels.  The Gaussian support is truncated at +-8 sigma, where the neglected
tail mass (< 1e-15, and < 1e-13 after weighting by g^2) sits far below every
tolerance used downstream.  Node counts can be scaled up so oscillatory
integrands cos(2 g tau) keep at least ~8 nodes per period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Prior", "QuadratureRule", "density", "moments", "quadrature"]

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


def _composite_legendre(
    lo: float, hi: float, n_points: int, max_panel_width: float | None = None
) -> QuadratureRule:
    panels = max(1, math.ceil(n_points / _PANEL_POINTS))
    if max_panel_width is not None:
        panels = max(panels, math.ceil((hi - lo) / max_panel_width))
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
    return _composite_legendre(lo, hi, n_points, max_panel_width=prior.sigma)


def nodes_for_oscillation(
    prior: Prior, angular_rate: float, minimum: int = DEFAULT_NODES
) -> int:
    """Node count resolving cos(angular_rate * g) with >= 8 nodes per period.

    ``angular_rate`` is the largest angular frequency (in g) appearing in the
    integrand, e.g. 2 tau_c sqrt(n_max) for a photon ladder truncated at
    n_max.
    """
    lo, hi = prior.window
    if angular_rate <= 0:
        return max(minimum, MIN_NODES)
    period = 2 * math.pi / angular_rate
    needed = math.ceil(8.0 * (hi - lo) / period)
    return max(minimum, needed, MIN_NODES)
