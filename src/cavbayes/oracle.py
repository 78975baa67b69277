"""Independent verification layer: the battery of ``cavbayes verify``
(:func:`verify_all`), the reference evaluations it checks the production
closed forms against, and samplers of the measurement record.

No production command (``state``, ``mmse``, ``ml``, ``sweep``, ``tau-star``)
calls into this module.  The references re-derive the estimator's moment
operators, the likelihood cost and the f_z moments by quadrature and the
Gaussian fixed-interval constants through the error function, and give the
closed-form diagonal logarithmic derivative and the first-power variant of
the accuracy bound, which only the tests read; the samplers check the
analytic average costs and the exact likelihood mean estimate by simulating
the record itself, the estimate sampler from the conditional density
:func:`conditional_pdf`.  Like the likelihood evaluations, the estimate
sampler and the display variant of the mean take the POVM and read its
flight decay.

Randomness uses the counter-based Philox generator keyed by an explicit
seed, with Gaussian draws produced by inverse-CDF mapping of uniforms
through scipy's normal quantile ``ndtri``, so a seed fixes the draws.  Each
sampler call draws its streams once and serves every point it is given:
the cost sampler's couplings and outcome uniforms every time of a column
scenario, and the estimate sampler's sorted uniforms every coupling of an
array.  Beside those shared streams the cost sampler keeps two n-sample
work arrays, in which the loss arithmetic of every point runs in place,
and the state-kernel arrays of the point it is on; the estimate sampler
keeps the samples of each report it returns.  Neither builds a
(points x samples) grid.  ``verify`` runs the cost sampler twice in full,
so its determinism check compares two independent runs of the seed.
Totals are numpy's pairwise sums: fixed for a fixed order of the values,
but a reordering may move their last bits (the estimate sampler's ascending
draws sum in another order than the draw order would).  scipy is imported
only inside the functions that use it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import priors as priors_mod
from .bounds import BoundReport, cr_bound_ml, cr_bound_mmse
from .dynamics import (FieldState, Scenario, detector_matrix_elements, dissipative_populations,
                       reduced_state)
from .ml import (MlPovm, _contrast, _gaussian_sin_or_raise, cost_max, f_z_moments,
                 gaussian_bound_constants, gaussian_cmax, interval_audit, ml_average_estimate,
                 ml_povm, uniform_cmax)
from .mmse import (GammaTriple, MmseResult, _entries, _quadrature_moments, _triples, gamma_moments,
                   mmse_estimator)
from .priors import Prior
from .qubit import Hermitian2

__all__ = [
    "McReport",
    "MlSampleReport",
    "mc_quadratic_cost",
    "mc_estimate_distribution",
    "conditional_pdf",
    "sample_prior",
    "gamma_moments_quadrature",
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
    """Empirical estimate distribution drawn from the conditional density.

    ``samples`` holds the draws in ascending order.  The histogram over the
    prior's window and the Kolmogorov-Smirnov distance to the prior are
    computed from them when read.
    """

    n_samples: int
    mean: float
    analytic_mean: float
    standard_error: float
    z_score: float
    seed: int
    prior: Prior
    samples: np.ndarray = dataclasses.field(repr=False, compare=False)

    @property
    def bin_edges(self) -> np.ndarray:
        return np.linspace(*self.prior.window, _HISTOGRAM_BINS + 1)

    @property
    def histogram(self) -> np.ndarray:
        """Counts per bin, [e_i, e_i+1) with the last bin closed on the right,
        as ``np.histogram`` over the window counts them."""
        edges = self.bin_edges
        below = np.searchsorted(self.samples, edges, side="left")
        below[-1] = np.searchsorted(self.samples, edges[-1], side="right")
        return np.diff(below)

    @property
    def ks_statistic_vs_prior(self) -> float:
        """One-sample Kolmogorov-Smirnov distance against the prior CDF."""
        from scipy.special import erf

        s, n, prior = self.samples, self.n_samples, self.prior
        if prior.kind == priors_mod.GAUSSIAN:
            prior_cdf = 0.5 * (1.0 + erf((s - prior.g0) / (math.sqrt(2) * prior.sigma)))
        else:
            s_lo, s_hi = prior.support
            prior_cdf = np.clip((s - s_lo) / (s_hi - s_lo), 0.0, 1.0)
        above = np.abs(np.arange(1, n + 1) / n - prior_cdf)
        below = np.abs(np.arange(n) / n - prior_cdf)
        return float(np.max(np.maximum(above, below)))


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def sample_prior(prior: Prior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw couplings from the prior by inverse-CDF transform of uniforms,
    in place on the uniforms' array: g0 + sigma ndtri(u) or lo + (hi - lo) u."""
    from scipy.special import ndtri

    u = rng.random(n)
    if prior.kind == priors_mod.GAUSSIAN:
        ndtri(u, out=u)
        u *= prior.sigma
        u += prior.g0
        return u
    lo, hi = prior.support
    u *= hi - lo
    u += lo
    return u


def mc_quadratic_cost(
    result: MmseResult,
    prior: Prior,
    scenario: Scenario,
    field: FieldState,
    n: int,
    seed: int,
) -> list[McReport]:
    """Simulate the measurement record and average the squared error.

    Per sample: draw g from the prior, form the detector state, draw the
    measurement outcome with the Born probabilities of the estimator's
    eigenprojectors, and record (estimate - g)^2.  The analytic reference is
    the attained minimum average cost.

    Gives one :class:`McReport` per point of ``scenario``, with the batched
    ``result`` of its points, in column order (a list of one for a point).
    The couplings and the outcome uniforms are drawn once and serve every
    point, so each report equals that of its point call; each point takes
    its own state-kernel call on them, and the loss arithmetic of every
    point runs in place in that call's excited population and in two
    n-sample work arrays shared by all points.
    """
    if n < 10**4:
        raise ValueError("need at least 1e4 samples for a stable z-score")
    points = scenario.columns.reshape(3, -1).T.tolist()
    projectors = np.reshape(result.projectors, (-1, 2, 2))
    estimates = np.reshape(result.estimates, (2, -1))
    c_min = np.reshape(result.c_min, -1)
    if len(projectors) != len(points):
        raise ValueError("the result needs one estimator per point of the scenario")
    rng = _generator(seed)
    gs = sample_prior(prior, n, rng)
    picks = rng.random(n)
    work = np.empty((2, n))
    reports = []
    for i, (tau_c, tau_f_gamma, delta) in enumerate(points):
        point = dataclasses.replace(scenario, tau_c=tau_c, tau_f_gamma=tau_f_gamma, delta=delta)
        mean, stderr = _loss_moments(gs, picks, point, field, projectors[i], estimates[:, i], work)
        z = abs(mean - c_min[i]) / stderr if stderr > 0 else math.inf
        reports.append(McReport(n_samples=n, empirical_cost=mean, standard_error=stderr,
                                analytic_cost=c_min[i], z_score=z, seed=seed))
    return reports


def _loss_moments(gs, picks, point: Scenario, field: FieldState, v, estimates, work):
    """(mean, standard error) of the squared error over the couplings ``gs``
    at one point, whose record picks the first estimate where ``picks`` lies
    below its Born probability.

    Everything runs in place, in the kernel's a_ee and the two rows of the
    (2, n) array ``work``, in the order of

        p = clip(|v00|^2 a_ee + |v01|^2 (1 - a_ee)
                 + 2 (Re w Re a_eg - Im w Im a_eg), 0, 1),   w = conj(v00) v01,
        x = (f e0 + (1 - f) e1 - g)^2,                       f = [pick < p],

    with v0 the eigenvector of the first (ascending) estimate, and the
    coherence term only for a field with photons (a one-level field's a_eg
    is zero, and p + 0 = p for p >= +0).  f is 1.0 or 0.0, so f e0 +
    (1 - f) e1 is the picked estimate exactly.  The statistics are numpy's
    own: mean = add.reduce(x)/n and the standard error sqrt(add.reduce((x -
    mean)^2)/(n - 1))/sqrt(n), the bits of ``np.mean`` and ``np.std(ddof=1)``.
    """
    a_ee, a_eg = detector_matrix_elements(gs, point, field)
    v0 = v[:, 0]
    w = np.conj(v0[0]) * v0[1]
    p, rest = a_ee, np.subtract(1.0, a_ee, out=work[0])
    rest *= abs(v0[1]) ** 2
    p *= abs(v0[0]) ** 2
    p += rest
    if len(field.coefficients) > 1:
        # 2 Re(w a_eg) in real arithmetic: no complex temporaries of n samples
        coherence = np.multiply(a_eg.real, w.real, out=work[0])
        coherence -= np.multiply(a_eg.imag, w.imag, out=work[1])
        coherence *= 2.0
        p += coherence
    np.clip(p, 0.0, 1.0, out=p)
    x = np.less(picks, p, out=work[1])
    second = np.subtract(1.0, x, out=work[0])
    second *= estimates[1]
    x *= estimates[0]
    x += second
    x -= gs
    np.square(x, out=x)
    n = len(gs)
    mean = np.add.reduce(x) / n
    x -= mean
    np.square(x, out=x)
    return float(mean), math.sqrt(np.add.reduce(x) / (n - 1)) / math.sqrt(n)


def conditional_pdf(povm: MlPovm, g, g_tilde):
    """Density of the recorded estimate given the true coupling.

    p(x | g) = f_I(x) + f_z(x) (2 cos^2(g tau_c) e^{-u} - 1); vectorized over
    the estimate argument.  An array ``g`` adds leading axes, one density
    per coupling.
    """
    contrast = _contrast(povm, g)
    return povm.f_i(g_tilde) + np.multiply.outer(contrast, povm.f_z(g_tilde))


def _cdf_table(povm: MlPovm, g: float) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, CDF) of the recorded estimate on ``_CDF_GRID_POINTS`` nodes
    over the window: the clipped conditional density, trapezoid-integrated
    and normalized to end at one."""
    lo, hi = povm.window
    grid = np.linspace(lo, hi, _CDF_GRID_POINTS)
    pdf = np.clip(conditional_pdf(povm, g, grid), 0.0, None)
    cdf = np.concatenate(
        [[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))]
    )
    cdf /= cdf[-1]
    return grid, cdf


def mc_estimate_distribution(
    povm: MlPovm, g, n: int, seed: int
) -> list[MlSampleReport]:
    """Sample the recorded-estimate distribution by inverse-CDF on a grid.

    The uniforms are sorted before linear interpolation inverts them through
    the table of :func:`_cdf_table`, so the interpolation walks the table
    forward and the samples are those of the draw order, ascending.
    The report computes its histogram and its Kolmogorov-Smirnov distance to
    the prior (useful when f_z vanishes and the estimate distribution must
    collapse onto it) from them when read.  Reports the empirical mean
    against the exact mean estimate of :func:`ml.ml_average_estimate`.

    Gives one :class:`MlSampleReport` per coupling of ``g`` in order (a list
    of one for a scalar), each equal to its point call with the same
    samples, since one sorted uniform stream is inverted through each
    coupling's table.

    Error budget of the table: the sampled law is the piecewise-linear CDF
    through the nodes, whose mean is sum_j dF_j (x_j + x_j+1)/2.  Its bias
    against the exact mean is held below 1e-3 standard errors at n = 1e5
    over both priors with g0 = 1, sigma in [0.2, 1.5], g0 tau_c in [0.1, 3],
    u in {0, 0.5} and g in [0.3, 1.9]; a scan of 40,000 points there found
    at most 5.52e-4 (uniform prior, sigma = 1.5, g0 tau_c = 2.41: a bias of
    2.6e-6 against a standard error of 4.7e-3), and 1e-11 for the Gaussian.
    The table therefore moves the z-score by under 1e-3.
    """
    if n < 10**4:
        raise ValueError("need at least 1e4 samples for a stable z-score")
    uniforms = _generator(seed).random(n)
    uniforms.sort()
    reports = []
    for coupling in np.atleast_1d(g).tolist():
        grid, cdf = _cdf_table(povm, coupling)
        samples = np.interp(uniforms, cdf, grid)
        mean = float(np.mean(samples))
        stderr = float(np.std(samples, ddof=1) / math.sqrt(n))
        exact_mean = ml_average_estimate(povm, coupling)
        z = abs(mean - exact_mean) / stderr if stderr > 0 else math.inf
        reports.append(MlSampleReport(n_samples=n, mean=mean, analytic_mean=exact_mean,
                                      standard_error=stderr, z_score=z, seed=seed,
                                      prior=povm.prior, samples=samples))
    return reports


# ---------------------------------------------------------------------------
# Reference evaluation of the moment operators


def gamma_moments_quadrature(prior: Prior, scenario: Scenario, field: FieldState) -> GammaTriple:
    """Moment operators by prior quadrature of the detector-time state: the
    oracle of the exact resonant path of :func:`mmse.gamma_moments`, through
    the quadrature it takes at Delta != 0.

    It reads a point or column ``scenario`` as :func:`mmse.gamma_moments`
    does.  The node count is raised automatically so the fastest Rabi
    oscillation, cos(2 l tau_c) at the ladder top, is resolved.
    """
    points = np.arange(scenario.columns[0].size)
    out = _entries(len(points))
    _quadrature_moments(prior, scenario, points, field, None, out)
    return _triples(out, scenario.columns.shape[1:])


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


def _gaussian_average_estimate_display(povm: MlPovm, g: float) -> float:
    # mean estimate with a 4 sqrt(5 pi) c sigma^2 prefactor in place of the
    # derived 2 sqrt(2 pi) c sigma^3; surfaced in the verification report
    # only, never asserted
    sig, tc = povm.prior.sigma, povm.tau_c
    contrast = 1.0 - 2.0 * math.cos(g * tc) ** 2 * math.exp(-povm.gamma_tau_f)
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
    contrast = _contrast(povm, rule.nodes)
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
    :func:`bounds.sld_general`.  1 - P is formed as (1 - e^{-u}) +
    e^{-u} sin^2(g tau_c), free of cancellation as P -> 1.  Raises
    ``ValueError`` at the pure-state edge, where cos(g tau_c) or 1 - P
    vanishes (|cos| <= 1e-12 or 1 - P <= 1e-24) and a branch of L diverges.
    """
    c, s = math.cos(g * tau_c), math.sin(g * tau_c)
    eu = math.exp(-gamma_tau_f)
    p, q = c * c * eu, -math.expm1(-gamma_tau_f) + eu * s * s
    if abs(c) <= 1e-12 or q <= 1e-24:
        raise ValueError(f"L diverges at the pure-state edge g tau_c = {g * tau_c}")
    dp = -tau_c * math.sin(2.0 * g * tau_c) * eu
    return Hermitian2(ee=dp / p, gg=-dp / q)


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
    return out[()]


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
    sc = Scenario(tau_c=math.pi / 4.0, tau_f_gamma=0.2)
    rho, drho = reduced_state(g_grid, sc, vac, derivative=True)
    for prior in (gauss, unif):
        result = mmse_estimator(gamma_moments(prior, sc, vac), sc.tau_f_gamma)
        povm = ml_povm(prior, sc.tau_c, sc.tau_f_gamma)
        for rep in (cr_bound_mmse(result, g_grid, rho, drho), cr_bound_ml(povm, g_grid)):
            gap = rep.mse - rep.lower_bound
            worst_gap = min(worst_gap, float(gap.min()))
            violations += int(np.count_nonzero(gap < -1e-9))
    checks.append(_check("cr_inequality_grid", violations == 0, worst_gap=worst_gap))

    # Monte-Carlo concordance, deterministic under the seed: one draw of each
    # stream serves every time of the cost check and every coupling of the
    # estimate check, and the cost check runs twice in full
    taus = Scenario(tau_c=(math.pi / 4.0, 0.6, 1.0))
    result = mmse_estimator(gamma_moments(gauss, taus, vac))
    reps = mc_quadratic_cost(result, gauss, taus, vac, 10**5, seed)
    checks.append(_check("mc_determinism",
                         reps == mc_quadratic_cost(result, gauss, taus, vac, 10**5, seed)))
    z_max = max(0.0, *(rep.z_score for rep in reps))
    checks.append(_check("mc_quadratic_cost_z", z_max < 4.0, z_max=z_max))

    povm = ml_povm(gauss, math.pi / 4.0, 0.0)
    reps = mc_estimate_distribution(povm, (0.7, 1.0, 1.3), 10**5, seed)
    z_max = max(0.0, *(rep.z_score for rep in reps))
    checks.append(_check("mc_ml_estimate_z", z_max < 4.0, z_max=z_max))

    # dissipation-free limit agrees with the unitary path
    times = np.linspace(0.0, 10.0, 41)
    pops = dissipative_populations(1.0, times[:, None], 0.0, 0.0)[:, 0]
    worst = max(0.0, *(abs(pop - math.cos(gt) ** 2)
                       for pop, gt in zip(pops.tolist(), times.tolist())))
    checks.append(_check("dissipative_zero_rate_limit", worst < 1e-10, error=worst))

    # informational: display variant of the Gaussian mean estimate, on the
    # POVM of the estimate check
    gap = abs(ml_average_estimate(povm, 0.7) - _gaussian_average_estimate_display(povm, 0.7))
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
