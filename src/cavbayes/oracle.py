"""Independent verification layer: the battery of ``cavbayes verify``
(:func:`verify_all`), the reference evaluations it checks the production
closed forms against, and samplers of the measurement record.

No production command (``state``, ``mmse``, ``ml``, ``sweep``, ``tau-star``)
calls into this module.  The references re-derive the likelihood cost and
f_z moments by quadrature and the Gaussian fixed-interval constants through
the error function, and give the closed-form diagonal logarithmic
derivative and the first-power variant of the accuracy bound, which only
the tests read; the samplers check the analytic average costs and the
exact likelihood mean estimate by simulating the record itself.

Randomness uses the counter-based Philox generator keyed by an explicit
seed, with Gaussian draws produced by inverse-CDF mapping of uniforms
(high-accuracy rational approximation of the normal quantile), so runs are
reproducible across platforms and shard layouts.  Reductions use pairwise
summation, making the totals independent of accumulation order.  scipy is
imported only inside the functions that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import priors as priors_mod
from .bounds import BoundReport, cr_bound_ml, cr_bound_mmse
from .dynamics import FieldState, Scenario, detector_matrix_elements, dissipative_state
from .ml import (MlPovm, _contrast, _gaussian_sin_or_raise, conditional_pdf, cost_max, f_z_moments,
                 gaussian_bound_constants, gaussian_cmax, interval_audit, ml_average_estimate,
                 ml_povm, uniform_cmax)
from .mmse import MmseResult, gamma_moments, gamma_moments_quadrature, mmse_estimator
from .priors import Prior
from .qubit import Hermitian2

__all__ = [
    "McReport",
    "MlSampleReport",
    "mc_quadratic_cost",
    "mc_estimate_distribution",
    "sample_prior",
    "gaussian_bound_constants_erf",
    "average_cost_quadrature",
    "f_z_moments_quadrature",
    "sld",
    "first_power_bound",
    "verify_all",
]

#: nodes of the grid on which the estimate CDF is tabulated and inverted
_CDF_GRID_POINTS = 2048
#: histogram bins of a sampled estimate distribution
_HISTOGRAM_BINS = 64


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
    povm: MlPovm, g: float, scenario: Scenario, n: int, seed: int
) -> MlSampleReport:
    """Sample the recorded-estimate distribution by inverse-CDF on a grid.

    The conditional density is tabulated on ``_CDF_GRID_POINTS`` nodes over
    the support window, integrated to a CDF with the trapezoid rule, and
    inverted by linear interpolation.  The samples are binned into
    ``_HISTOGRAM_BINS`` bins over the window.  Reports the empirical mean against the exact
    mean estimate of :func:`ml.ml_average_estimate`, and a Kolmogorov-Smirnov
    distance to the prior (useful when f_z vanishes and the estimate
    distribution must collapse onto it).
    """
    from scipy.special import erf

    if n < 10**4:
        raise ValueError("need at least 1e4 samples for a stable z-score")
    rng = _generator(seed)
    lo, hi = povm.window
    grid = np.linspace(lo, hi, _CDF_GRID_POINTS)
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

    hist, edges = np.histogram(samples, bins=_HISTOGRAM_BINS, range=(lo, hi))

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


# ---------------------------------------------------------------------------
# Reference evaluations of the likelihood closed forms


def gaussian_bound_constants_erf(prior: Prior, tau_c: float) -> tuple[float, float]:
    """(c1, c2) of :func:`ml.gaussian_bound_constants` through the error
    function, no quadrature.

    Independent evaluation of the same defining integrals:

        I0 = erf(L/sqrt(2)) / 2,                      L = pi / a,
        I1 = e^{-a^2/2} sqrt(2 pi)/2
             * Im[ erf((L - i a)/sqrt(2)) + erf(i a / sqrt(2)) ].
    """
    from scipy.special import erf

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
    from scipy.special import erf

    sin_b = _gaussian_sin_or_raise(prior, tau_c)
    q = prior.sigma * tau_c
    pref = 2.0 / (math.sqrt(2.0 * math.pi * prior.sigma**2) * abs(sin_b) * math.exp(-2.0 * q * q))
    num1 = erf(math.pi / (2.0 * math.sqrt(2.0) * q))
    den = (
        erf((math.pi + 4j * q * q) / (2.0 * math.sqrt(2.0) * q))
        + erf((math.pi - 4j * q * q) / (2.0 * math.sqrt(2.0) * q))
    ).real
    return pref * num1 / den, pref * (2.0 - num1) / den


def _gaussian_average_estimate_display(povm: MlPovm, g: float, gamma_tau_f: float) -> float:
    # mean estimate with a 4 sqrt(5 pi) c sigma^2 prefactor in place of the
    # derived 2 sqrt(2 pi) c sigma^3; surfaced in the verification report
    # only, never asserted
    sig, tc = povm.prior.sigma, povm.tau_c
    contrast = 1.0 - 2.0 * math.cos(g * tc) ** 2 * math.exp(-gamma_tau_f)
    return povm.prior.g0 + 4.0 * math.sqrt(5.0 * math.pi) * sig**2 * tc * (
        povm._fz_scale * math.exp(-2.0 * sig**2 * tc**2) * contrast
    )


def average_cost_quadrature(povm: MlPovm) -> float:
    """Average cost by direct quadrature, int z(x) p(x|x) dx: the oracle of
    :func:`ml.cost_max`.

    Independent of the closed forms; the diagonal of the conditional density
    appears because the delta-valued cost rewards probability mass placed at
    the true value.
    """
    n = priors_mod.nodes_for_oscillation(povm.prior, 2.0 * povm.tau_c)
    rule = priors_mod.quadrature(povm.prior, n)
    contrast = _contrast(povm, rule.nodes, povm.gamma_tau_f)
    p = povm.f_i(rule.nodes) + contrast * povm.f_z(rule.nodes)
    return rule.expect(povm.prior, p)


def f_z_moments_quadrature(povm: MlPovm) -> tuple[float, float]:
    """(int x f_z dx, int x^2 f_z dx) by quadrature over the prior window:
    the oracle of :func:`ml.f_z_moments`."""
    n = priors_mod.nodes_for_oscillation(povm.prior, 2.0 * povm.tau_c)
    rule = priors_mod.quadrature(povm.prior, n)
    weighted = rule.nodes * povm.f_z(rule.nodes)
    return rule.integrate(weighted), rule.integrate(rule.nodes * weighted)


# ---------------------------------------------------------------------------
# Reference forms of the accuracy bound


def sld(g: float, tau_c: float, gamma_tau_f: float) -> Hermitian2:
    """Symmetrized logarithmic derivative of the resonant vacuum family.

    rho(g) = diag(P, 1 - P) with P = cos^2(g tau_c) e^{-u} is diagonal, so
    L = diag(P'/P, -P'/(1 - P)): the analytic reference of
    :func:`bounds.sld_general`.  Raises ``ValueError`` at the pure-state
    edge, where cos(g tau_c) or 1 - P vanishes and a branch of L diverges.
    """
    c = math.cos(g * tau_c)
    p = c * c * math.exp(-gamma_tau_f)
    if abs(c) <= 1e-12 or 1.0 - p <= 1e-12:
        raise ValueError(f"L diverges at the pure-state edge g tau_c = {g * tau_c}")
    dp = -tau_c * math.sin(2.0 * g * tau_c) * math.exp(-gamma_tau_f)
    return Hermitian2(ee=dp / p, gg=-dp / (1.0 - p))


def first_power_bound(report: BoundReport):
    """|x'| / Tr{rho L^2} of a bound report, or 0 where Tr{rho L^2} = 0.

    A variant of the bound carrying x' to the first power; several
    closed-form displays use it, but it can exceed the conditional MSE, so
    it is a reference for those displays and never a bound.
    """
    fisher = np.asarray(report.fisher)
    informative = fisher > 0.0
    ratio = np.abs(report.sensitivity) / np.where(informative, fisher, 1.0)
    out = np.where(informative, ratio, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Verification battery


def _check(name: str, passed: bool, **details) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update({k: v for k, v in sorted(details.items())})
    return entry


def verify_all(seed: int = 0) -> dict:
    """Run the oracle and invariant suite; returns a machine-readable report.

    Deterministic for a fixed seed (byte-identical serialized report).
    Informational comparisons (closed-form variants that are reported rather
    than asserted) are emitted as notes and never fail the run.  The POVM
    audits also run with the traceless component inflated by 5%, which the
    audit must flag.
    """
    checks = []
    notes = []
    gauss = Prior.gaussian(1.0, 1.0)
    unif = Prior.uniform(1.0, 1.0)
    vac = FieldState.vacuum()

    # quadrature reproduces the moments of both priors
    for prior in (gauss, unif):
        rule = priors_mod.quadrature(prior, 256)
        z = rule.expect(prior, np.ones_like(rule.nodes))
        m1 = rule.expect(prior, rule.nodes)
        m2 = rule.expect(prior, (rule.nodes - prior.g0) ** 2)
        err = max(abs(z - 1.0), abs(m1 - prior.g0), abs(m2 - prior.sigma**2))
        checks.append(_check(f"quadrature_moments_{prior.kind}", err < 1e-10, error=err))

    # exact resonant moments against quadrature: vacuum, and a coherent field on 8 draws
    rng = _generator(seed)
    coherent = FieldState.coherent(1.0, cutoff=5)
    worst = 0.0
    for draw in range(25):
        g0 = rng.uniform(0.5, 2.0)
        sig = rng.uniform(0.3, 1.5) * g0
        tc = rng.uniform(0.05, 4.0) / g0
        u = rng.uniform(0.0, 2.0)
        sc = Scenario(tau_c=tc, tau_f_gamma=u)
        for prior in (Prior.gaussian(g0, sig), Prior.uniform(g0, sig)):
            for fld in (vac, coherent) if draw < 8 else (vac,):
                exact = gamma_moments(prior, sc, fld)
                quad = gamma_moments_quadrature(prior, sc, fld)
                for name in ("gamma0", "gamma1", "gamma2"):
                    a, b = getattr(exact, name), getattr(quad, name)
                    worst = max(worst, abs(a.ee - b.ee), abs(a.gg - b.gg), abs(a.eg - b.eg))
    checks.append(_check("moments_closed_vs_quadrature", worst < 1e-11, error=worst))

    # anchors of the resonant vacuum Gaussian analysis: (estimates, c_min)
    shift = (math.pi / 2.0) * math.exp(-math.pi**2 / 8.0)
    quarter_cost = 1.0 - (math.pi**2 / 4.0) * math.exp(-math.pi**2 / 4.0)
    for name, tc, want in (
        ("anchor_half_period", math.pi / 2.0, (1.0, 1.0, 1.0)),
        ("anchor_quarter_period", math.pi / 4.0, (1.0 - shift, 1.0 + shift, quarter_cost)),
    ):
        res = mmse_estimator(gamma_moments(gauss, Scenario(tau_c=tc), vac))
        err = max(abs(x - w) for x, w in zip((*res.estimates, res.c_min), want))
        checks.append(_check(name, err < 1e-12, error=err))

    # POVM validity, and the audit flagging a 5% inflated traceless component
    for prior in (gauss, unif):
        povm = ml_povm(prior, math.pi / 4.0, 0.0)
        tot_i, tot_z = povm.completeness()
        ok = abs(tot_i - 1.0) < 1e-9 and abs(tot_z) < 1e-9
        audit = interval_audit(povm, n_intervals=2000, seed=seed)
        inflated = interval_audit(povm, n_intervals=2000, seed=seed, scale=1.05)
        checks.append(_check(f"povm_validity_{prior.kind}", ok and audit.passed,
                             completeness_error=abs(tot_i - 1.0), worst_interval=audit.worst_low))
        checks.append(_check(f"povm_audit_detects_inflation_{prior.kind}", not inflated.passed,
                             violations=inflated.n_violations))

    # likelihood special case, uniform prior
    sp_prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    sp_tc = math.pi / 4.0
    c_num = uniform_cmax(sp_prior, sp_tc)
    cost_sp = cost_max(ml_povm(sp_prior, sp_tc, 0.0))
    err = max(abs(c_num - 2.0 * sp_tc / math.pi), abs(cost_sp - 0.75))
    checks.append(_check("ml_uniform_special_case", err < 1e-6, error=err))

    # Gaussian likelihood cost: closed form against direct quadrature
    worst = 0.0
    for tc in (0.3, math.pi / 4.0, 1.1, 2.0):
        povm = ml_povm(gauss, tc, 0.3)
        worst = max(worst, abs(cost_max(povm) - average_cost_quadrature(povm)))
    checks.append(_check("ml_gaussian_cost_quadrature", worst < 1e-8, error=worst))

    # the exact f_z moments behind every likelihood row, against quadrature
    worst = 0.0
    for prior in (gauss, unif):
        for tc in (0.3, math.pi / 4.0, 1.1, 2.0):
            povm = ml_povm(prior, tc, 0.3)
            (m1, m2), (q1, q2) = f_z_moments(povm), f_z_moments_quadrature(povm)
            worst = max(worst, abs(m1 - q1), abs(m2 - q2))
    checks.append(_check("ml_fz_moments_quadrature", worst < 1e-9, error=worst))

    # bound constants: quadrature against the error-function evaluation, and
    # the pointwise cap strictly below both fixed-interval constants
    worst = 0.0
    alt_gap = 0.0
    cap_ratio = math.inf
    for (g0, sig, tc) in ((1.0, 1.0, math.pi / 4.0), (1.0, 0.5, 0.9), (2.0, 0.7, 0.33)):
        p = Prior.gaussian(g0, sig)
        c1q, c2q = gaussian_bound_constants(p, tc)
        c1e, c2e = gaussian_bound_constants_erf(p, tc)
        worst = max(worst, abs(c1q - c1e), abs(c2q - c2e))
        cap_ratio = min(cap_ratio, min(c1q, c2q) / gaussian_cmax(p, tc))
        c1a, c2a = _gaussian_bound_constants_erf_alt(p, tc)
        alt_gap = max(alt_gap, abs(c1q - c1a), abs(c2q - c2a))
    checks.append(_check("ml_bound_constants_erf", worst < 1e-8 and cap_ratio > 1.0,
                         error=worst, min_bound_over_cap=cap_ratio))
    notes.append(
        "real-part erf combination for (c1,c2) deviates from the defining "
        f"integrals by up to {alt_gap:.3e}; reported, not asserted"
    )

    # accuracy bounds hold for every strategy/prior pair
    violations = 0
    worst_gap = 0.0
    g_grid = np.linspace(0.2, 1.8, 25)
    for prior in (gauss, unif):
        sc = Scenario(tau_c=math.pi / 4.0, tau_f_gamma=0.2)
        result = mmse_estimator(gamma_moments(prior, sc, vac), sc.tau_f_gamma)
        povm = ml_povm(prior, sc.tau_c, sc.tau_f_gamma)
        for rep in (
            cr_bound_mmse(result, g_grid, sc, vac),
            cr_bound_ml(povm, g_grid, sc.tau_f_gamma),
        ):
            gap = rep.mse - rep.lower_bound
            worst_gap = min(worst_gap, float(gap.min()))
            violations += int(np.count_nonzero(gap < -1e-9))
    checks.append(_check("cr_inequality_grid", violations == 0, worst_gap=worst_gap))

    # Monte-Carlo concordance, deterministic under the seed
    z_max = 0.0
    for tc in (math.pi / 4.0, 0.6, 1.0):
        sc = Scenario(tau_c=tc)
        result = mmse_estimator(gamma_moments(gauss, sc, vac))
        rep = mc_quadratic_cost(result, gauss, sc, vac, 10**5, seed)
        rep2 = mc_quadratic_cost(result, gauss, sc, vac, 10**5, seed)
        if rep != rep2:
            checks.append(_check("mc_determinism", False))
            break
        z_max = max(z_max, rep.z_score)
    else:
        checks.append(_check("mc_determinism", True))
    checks.append(_check("mc_quadratic_cost_z", z_max < 4.0, z_max=z_max))

    z_max = 0.0
    for g in (0.7, 1.0, 1.3):
        povm = ml_povm(gauss, math.pi / 4.0, 0.0)
        rep = mc_estimate_distribution(povm, g, Scenario(tau_c=math.pi / 4.0), 10**5, seed)
        z_max = max(z_max, rep.z_score)
    checks.append(_check("mc_ml_estimate_z", z_max < 4.0, z_max=z_max))

    # dissipation-free limit agrees with the unitary path
    worst = 0.0
    for gt in np.linspace(0.0, 10.0, 41):
        pop = dissipative_state(1.0, float(gt), 0.0, 0.0).excited_population
        worst = max(worst, abs(pop - math.cos(gt) ** 2))
    checks.append(_check("dissipative_zero_rate_limit", worst < 1e-10, error=worst))

    # informational: display variant of the Gaussian mean estimate
    povm = ml_povm(gauss, math.pi / 4.0, 0.0)
    gap = abs(
        ml_average_estimate(povm, 0.7, 0.0) - _gaussian_average_estimate_display(povm, 0.7, 0.0)
    )
    notes.append(
        "display variant of the mean-estimate closed form deviates from "
        f"the exact mean by {gap:.3e} at the reference point; reported, not asserted"
    )

    return {
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "notes": notes,
    }
