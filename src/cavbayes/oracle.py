"""Independent verification layer: sampling and brute-force re-derivations.

Everything here stays deliberately separate from the production paths: the
moment operators are re-derived by midpoint Riemann sums, and the analytic
average costs and the exact likelihood mean estimate are checked by
simulating the measurement record itself.

Randomness uses the counter-based Philox generator keyed by an explicit
64-bit seed, with Gaussian draws produced by inverse-CDF mapping of uniforms
(high-accuracy rational approximation of the normal quantile), so runs are
reproducible across platforms and shard layouts.  Reductions use pairwise
summation, making the totals independent of accumulation order.  scipy is
imported only inside the samplers that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import priors as priors_mod
from .dynamics import FieldState, Scenario, detector_matrix_elements
from .ml import MlPovm, conditional_pdf, ml_average_estimate
from .mmse import GammaTriple, MmseResult
from .priors import Prior, density
from .qubit import Hermitian2

__all__ = [
    "McReport",
    "MlSampleReport",
    "mc_quadratic_cost",
    "mc_estimate_distribution",
    "brute_force_gamma",
    "sample_prior",
]


@dataclass(frozen=True)
class McReport:
    """Monte-Carlo estimate of an average cost against its analytic value."""

    n_samples: int
    empirical_cost: float
    standard_error: float
    analytic_cost: float
    z_score: float
    seed: int


@dataclass(frozen=True)
class MlSampleReport:
    """Empirical estimate distribution drawn from the conditional density."""

    n_samples: int
    mean: float
    histogram: np.ndarray
    bin_edges: np.ndarray
    analytic_mean: float
    standard_error: float
    z_score: float
    ks_statistic_vs_prior: float
    seed: int


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_prior(prior: Prior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw couplings from the prior by inverse-CDF transform of uniforms."""
    from scipy.special import ndtri

    u = rng.random(n)
    if prior.kind == priors_mod.GAUSSIAN:
        return prior.g0 + prior.sigma * ndtri(u)
    lo, hi = prior.support
    return lo + (hi - lo) * u


def mc_quadratic_cost(
    result: MmseResult,
    prior: Prior,
    scenario: Scenario,
    field: FieldState,
    n: int,
    seed: int,
) -> McReport:
    """Simulate the measurement record and average the squared error.

    Per sample: draw g from the prior, form the detector state, draw the
    measurement outcome with the Born probabilities of the estimator's
    eigenprojectors, and record (estimate - g)^2.  The analytic reference is
    the attained minimum average cost.
    """
    if n < 10**4:
        raise ValueError("need at least 1e4 samples for a stable z-score")
    rng = _generator(seed)
    gs = sample_prior(prior, n, rng)
    a_ee, a_eg = detector_matrix_elements(gs, scenario, field)

    # Born probability of the first (ascending) estimate: v0
    v0 = result.projectors[:, 0]
    p_first = (
        abs(v0[0]) ** 2 * a_ee
        + abs(v0[1]) ** 2 * (1.0 - a_ee)
        + 2.0 * np.real(np.conj(v0[0]) * v0[1] * np.conj(a_eg))
    )
    p_first = np.clip(p_first, 0.0, 1.0)
    pick_first = rng.random(n) < p_first
    estimates = np.where(pick_first, result.estimates[0], result.estimates[1])
    losses = (estimates - gs) ** 2

    mean = float(np.mean(losses))
    stderr = float(np.std(losses, ddof=1) / math.sqrt(n))
    z = abs(mean - result.c_min) / stderr if stderr > 0 else math.inf
    return McReport(
        n_samples=n,
        empirical_cost=mean,
        standard_error=stderr,
        analytic_cost=result.c_min,
        z_score=z,
        seed=seed,
    )


def mc_estimate_distribution(
    povm: MlPovm,
    g: float,
    scenario: Scenario,
    n: int,
    seed: int,
    grid_points: int = 2048,
    bins: int = 64,
) -> MlSampleReport:
    """Sample the recorded-estimate distribution by inverse-CDF on a grid.

    The conditional density is tabulated on ``grid_points`` nodes over the
    support window, integrated to a CDF with the trapezoid rule, and inverted
    by linear interpolation.  Reports the empirical mean against the exact
    mean estimate of :func:`ml.ml_average_estimate`, and a Kolmogorov-Smirnov
    distance to the prior (useful when f_z vanishes and the estimate
    distribution must collapse onto it).
    """
    from scipy.special import erf

    if n < 10**4:
        raise ValueError("need at least 1e4 samples for a stable z-score")
    rng = _generator(seed)
    lo, hi = povm.window
    grid = np.linspace(lo, hi, grid_points)
    pdf = np.clip(conditional_pdf(povm, g, grid, scenario.tau_f_gamma), 0.0, None)
    cdf = np.concatenate(
        [[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))]
    )
    cdf /= cdf[-1]
    samples = np.interp(rng.random(n), cdf, grid)

    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n))
    exact_mean = ml_average_estimate(povm, g, scenario.tau_f_gamma)
    z = abs(mean - exact_mean) / stderr if stderr > 0 else math.inf

    hist, edges = np.histogram(samples, bins=bins, range=(lo, hi))

    # one-sample KS distance against the prior CDF
    sorted_s = np.sort(samples)
    if povm.prior.kind == priors_mod.GAUSSIAN:
        prior_cdf = 0.5 * (
            1.0 + erf((sorted_s - povm.prior.g0) / (math.sqrt(2) * povm.prior.sigma))
        )
    else:
        s_lo, s_hi = povm.prior.support
        prior_cdf = np.clip((sorted_s - s_lo) / (s_hi - s_lo), 0.0, 1.0)
    ks = float(
        np.max(
            np.maximum(
                np.abs(np.arange(1, n + 1) / n - prior_cdf),
                np.abs(np.arange(n) / n - prior_cdf),
            )
        )
    )
    return MlSampleReport(
        n_samples=n,
        mean=mean,
        histogram=hist,
        bin_edges=edges,
        analytic_mean=exact_mean,
        standard_error=stderr,
        z_score=z,
        ks_statistic_vs_prior=ks,
        seed=seed,
    )


def brute_force_gamma(
    prior: Prior, scenario: Scenario, field: FieldState, n_grid: int
) -> GammaTriple:
    """Moment operators by midpoint Riemann sum, no quadrature machinery."""
    if n_grid < 10**4:
        raise ValueError("need at least 1e4 grid cells")
    lo, hi = prior.window
    step = (hi - lo) / n_grid
    mids = lo + (np.arange(n_grid) + 0.5) * step
    a_ee, a_eg = detector_matrix_elements(mids, scenario, field)
    wz = density(prior, mids) * step

    out = []
    for k in (0, 1, 2):
        wk = wz * mids**k
        out.append(
            Hermitian2(
                ee=float(np.sum(wk * a_ee)),
                gg=float(np.sum(wk * (1.0 - a_ee))),
                eg=complex(np.sum(wk * a_eg)),
            )
        )
    return GammaTriple(*out)
