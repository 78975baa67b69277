"""Monte-Carlo measurement simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erf

from cavbayes import oracle
from cavbayes.dynamics import FieldState, Scenario, detector_matrix_elements, field_for
from cavbayes.ml import (MlPovm, gaussian_ml_povm, ml_average_estimate, ml_mse, ml_povm,
                         uniform_ml_povm)
from cavbayes.mmse import (
    MmseResult,
    gamma_moments,
    mmse_estimator,
)
from cavbayes.oracle import (
    mc_estimate_distribution,
    mc_quadratic_cost,
    sample_prior,
    verify_all,
)
from cavbayes.priors import Prior
from cavbayes.qubit import Hermitian2
from conftest import dense

VACUUM = FieldState.vacuum()
GAUSS = Prior.gaussian(1.0, 1.0)
SEED = 20260810


def test_full_swap_cost_is_prior_variance():
    sc = Scenario(tau_c=math.pi / 2.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    [rep] = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    assert rep.analytic_cost == pytest.approx(1.0, abs=1e-12)
    assert rep.z_score < 3.0


def test_engineered_constant_estimator_on_delta_prior():
    prior = Prior.gaussian(1.0, 1e-8)
    sc = Scenario(tau_c=0.7)
    res = MmseResult(
        m_min=Hermitian2(1.0, 1.0),
        estimates=(1.0, 1.0),
        projectors=(Hermitian2(1.0, 0.0), Hermitian2(0.0, 1.0)),
        c_min=0.0,
    )
    [rep] = mc_quadratic_cost(res, prior, sc, VACUUM, 10**4, SEED)
    assert rep.empirical_cost == pytest.approx(0.0, abs=1e-12)


def test_quarter_period_cost_concordance():
    sc = Scenario(tau_c=math.pi / 4.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    [rep] = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**6, SEED)
    assert rep.z_score < 3.0


def test_reports_are_deterministic_under_seed():
    sc = Scenario(tau_c=0.9, tau_f_gamma=0.2)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    [rep1] = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    [rep2] = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    assert rep1 == rep2
    [rep3] = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED + 1)
    assert rep3.empirical_cost != rep1.empirical_cost


def test_sample_size_guard():
    sc = Scenario(tau_c=0.9)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    with pytest.raises(ValueError):
        mc_quadratic_cost(res, GAUSS, sc, VACUUM, 100, SEED)


def test_uninformative_povm_samples_the_prior():
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)  # f_z == 0
    n = 10**5
    [rep] = mc_estimate_distribution(povm, 1.0, n, SEED)
    assert rep.ks_statistic_vs_prior < 1.63 / math.sqrt(n)  # 1% level
    assert rep.analytic_mean == pytest.approx(1.0, abs=1e-9)


def test_uniform_special_case_mean_estimate():
    prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    povm = uniform_ml_povm(prior, math.pi / 4.0, 0.0)
    [rep] = mc_estimate_distribution(povm, 1.0, 10**5, SEED)
    assert rep.analytic_mean == pytest.approx(1.0, abs=1e-9)
    assert rep.z_score < 3.0


def test_gaussian_mean_estimate_concordance():
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
    [rep] = mc_estimate_distribution(povm, 1.2, 10**5, SEED)
    assert rep.z_score < 3.0
    assert rep.histogram.sum() == rep.n_samples


# the estimate sampler and its report, against the draw-order computation
# they replace
PRIORS = {"gaussian": GAUSS, "uniform": Prior.uniform(1.0, 1.0)}


@pytest.fixture(scope="module", params=sorted(PRIORS))
def sampled(request):
    povm = ml_povm(PRIORS[request.param], math.pi / 4.0, 0.0)
    return povm, mc_estimate_distribution(povm, 1.3, 10**5, SEED)[0]


def test_ascending_draws_are_the_sorted_draw_order_inversions(sampled):
    povm, rep = sampled
    grid, cdf = oracle._cdf_table(povm, 1.3)
    in_draw_order = np.interp(oracle._generator(SEED).random(10**5), cdf, grid)
    assert np.array_equal(rep.samples, np.sort(in_draw_order))
    assert rep.mean == pytest.approx(float(np.mean(in_draw_order)), rel=1e-14, abs=0.0)


def test_histogram_counts_as_numpy_does(sampled):
    povm, rep = sampled
    counts, edges = np.histogram(rep.samples, 64, range=povm.window)
    assert np.array_equal(rep.histogram, counts) and rep.histogram.dtype == counts.dtype
    assert np.array_equal(rep.bin_edges, edges)
    # every edge, its neighbours on both sides, samples at hi and past the window
    lo, hi = povm.window
    neighbours = [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    crafted = np.sort(np.concatenate([edges, *neighbours, [lo - 1.0, hi, hi, hi + 1.0]]))
    report = dataclasses.replace(rep, samples=crafted, n_samples=len(crafted))
    counts, _ = np.histogram(crafted, 64, range=povm.window)
    assert np.array_equal(report.histogram, counts)
    assert report.histogram[-1] == 6  # e_63 and the float above it, the float below hi, hi thrice


def test_ks_statistic_is_the_sorted_sample_formula(sampled):
    povm, rep = sampled
    s, n, prior = np.sort(rep.samples), rep.n_samples, povm.prior
    if prior.kind == "gaussian":
        prior_cdf = 0.5 * (1.0 + erf((s - prior.g0) / (math.sqrt(2) * prior.sigma)))
    else:
        s_lo, s_hi = prior.support
        prior_cdf = np.clip((s - s_lo) / (s_hi - s_lo), 0.0, 1.0)
    want = np.max(np.maximum(np.abs(np.arange(1, n + 1) / n - prior_cdf),
                             np.abs(np.arange(n) / n - prior_cdf)))
    assert rep.ks_statistic_vs_prior == float(want)


def test_verify_takes_each_interval_set_once(monkeypatch):
    # two completeness totals and four audits (two of them inflated)
    calls = []
    parts = MlPovm.interval_parts

    def counted(self, lo, hi):
        calls.append(np.size(lo))
        return parts(self, lo, hi)

    monkeypatch.setattr(MlPovm, "interval_parts", counted)
    assert verify_all(seed=7)["passed"]
    assert calls == [1, 2000, 2000] * 2


def _point_result(result: MmseResult, i: int) -> MmseResult:
    m = result.m_min
    row = [Hermitian2(ee=x.ee[i], gg=x.gg[i], eg=x.eg[i]) for x in (m, *result.projectors)]
    return MmseResult(m_min=row[0], estimates=(result.estimates[0][i], result.estimates[1][i]),
                      projectors=tuple(row[1:]), c_min=result.c_min[i])


@pytest.mark.parametrize("column,field", [
    (Scenario(tau_c=(math.pi / 4.0, 0.6, 1.0)), VACUUM),
    (Scenario(tau_c=(0.4, 0.9, 1.3), tau_f_gamma=(0.0, 0.2, 0.5), delta=(0.0, 0.7, 0.3)),
     FieldState.coherent(1.0, cutoff=6)),
])
def test_column_cost_reports_equal_their_point_calls(column, field):
    result = mmse_estimator(gamma_moments(GAUSS, column, field), column.tau_f_gamma)
    reports = mc_quadratic_cost(result, GAUSS, column, field, 10**4, SEED)
    assert len(reports) == 3
    for i, (point, report) in enumerate(zip(column.columns.T.tolist(), reports)):
        assert [report] == mc_quadratic_cost(_point_result(result, i), GAUSS, Scenario(*point),
                                             field, 10**4, SEED)


def test_column_cost_needs_one_estimator_per_point():
    column = Scenario(tau_c=(0.6, 1.0))
    result = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=0.6), VACUUM))
    with pytest.raises(ValueError):
        mc_quadratic_cost(result, GAUSS, column, VACUUM, 10**4, SEED)


@pytest.mark.parametrize("kind", sorted(PRIORS))
def test_coupling_array_reports_equal_their_point_calls(kind):
    povm = ml_povm(PRIORS[kind], math.pi / 4.0, 0.3)
    couplings = np.array([0.7, 1.0, 1.3])
    reports = mc_estimate_distribution(povm, couplings, 10**4, SEED)
    assert len(reports) == 3
    for g, report in zip(couplings.tolist(), reports):
        [point] = mc_estimate_distribution(povm, g, 10**4, SEED)
        assert report == point and np.array_equal(report.samples, point.samples)


def test_verify_flags_a_stream_that_changes_between_runs(monkeypatch):
    # the determinism check compares two complete runs of the seed, so a
    # generator that hands out another stream on its second use must fail it
    uses = []
    generator = oracle._generator

    def drifting(seed):
        uses.append(seed)
        return generator(seed + 1 if len(uses) == 2 else seed)

    monkeypatch.setattr(oracle, "_generator", drifting)
    report = verify_all(seed=7)
    passed = {check["name"]: check["passed"] for check in report["checks"]}
    assert not passed["mc_determinism"] and not report["passed"]


def test_verify_draws_each_monte_carlo_stream_once(monkeypatch):
    # one verify draws the couplings and the outcome uniforms once per run of
    # the cost check (two runs, for determinism), the estimate uniforms once
    # for all couplings, and the zero-rate populations in one call
    class Recording:
        def __init__(self, rng):
            self.rng, self.sizes = rng, []

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def random(self, n):
            self.sizes.append(n)
            return self.rng.random(n)

    generators, prior_draws, population_calls = [], [], []
    generator, sample, populations = (oracle._generator, oracle.sample_prior,
                                      oracle.dissipative_populations)

    def recording(seed):
        generators.append(Recording(generator(seed)))
        return generators[-1]

    def counted_sample(*args):
        prior_draws.append(args[1])
        return sample(*args)

    def counted_populations(*args):
        population_calls.append(np.shape(args[1]))
        return populations(*args)

    monkeypatch.setattr(oracle, "_generator", recording)
    monkeypatch.setattr(oracle, "sample_prior", counted_sample)
    monkeypatch.setattr(oracle, "dissipative_populations", counted_populations)
    assert verify_all(seed=7)["passed"]
    n = 10**5
    assert prior_draws == [n, n]
    assert [g.sizes for g in generators] == [[], [n, n], [n, n], [n]]
    assert population_calls == [(41, 1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(sorted(PRIORS)),
    sigma=st.floats(0.2, 1.5),
    g0_tau=st.floats(0.1, 3.0),
    u=st.sampled_from([0.0, 0.5]),
    g=st.floats(0.3, 1.9),
)
@example(kind="uniform", sigma=1.5, g0_tau=2.4, u=0.0, g=1.3)  # near the largest bias a scan found
def test_cdf_table_bias_within_budget(kind, sigma, g0_tau, u, g):
    # the mean of the tabulated piecewise-linear law against the exact mean,
    # in standard errors of a 1e5-sample run: the budget of the docstring
    prior = Prior.gaussian(1.0, sigma) if kind == "gaussian" else Prior.uniform(1.0, sigma)
    povm = ml_povm(prior, g0_tau, u)
    x, cdf = oracle._cdf_table(povm, g)
    table_mean = float(np.sum(np.diff(cdf) * (x[1:] + x[:-1]) / 2.0))
    exact = ml_average_estimate(povm, g)
    stderr = math.sqrt((ml_mse(povm, g) - (exact - g) ** 2) / 10**5)
    assert abs(table_mean - exact) <= 1e-3 * stderr


@pytest.mark.parametrize("kind", sorted(PRIORS))
@pytest.mark.parametrize("sc,field", [
    pytest.param(Scenario(tau_c=(math.pi / 4.0, 0.6, 1.0), tau_f_gamma=0.4), VACUUM,
                 id="vacuum_tau_column"),
    pytest.param(Scenario(tau_c=0.9, delta=0.7), FieldState.coherent(1.0, cutoff=6),
                 id="coherent_detuned"),
])
def test_born_probability_in_real_arithmetic(sc, field, kind):
    # each report's statistics are numpy's own over the draw-order losses,
    # built with np.where from the Born probability Tr{P_lo rho} of the first
    # estimate.  A detuned coherent field gives a complex coherence and a
    # complex P_lo; numpy's complex product may fuse a multiply-add, so the
    # real form of 2 Re(conj(P_eg) a_eg) can differ from it in the last bit
    # (the vacuum coherence is zero, where both read 0), and no draw moves
    prior, n = PRIORS[kind], 10**5
    res = mmse_estimator(gamma_moments(prior, sc, field), sc.tau_f_gamma)
    reports = mc_quadratic_cost(res, prior, sc, field, n, SEED)

    rng = oracle._generator(SEED)
    gs = sample_prior(prior, n, rng)
    picks = rng.random(n)
    p_lo = [np.reshape(x, -1) for x in (res.projectors[0].ee, res.projectors[0].gg,
                                        res.projectors[0].eg)]
    v = np.reshape(np.linalg.eigh(dense(res.m_min))[1], (-1, 2, 2))
    estimates = np.reshape(res.estimates, (2, -1))
    points = sc.columns.reshape(3, -1).T.tolist()
    assert len(reports) == len(points)
    for i, (point, rep) in enumerate(zip(points, reports)):
        a_ee, a_eg = detector_matrix_elements(gs, Scenario(*point), field)
        p_ee, p_gg, p_eg = (x[i] for x in p_lo)
        coherence = 2.0 * np.real(np.conj(p_eg) * a_eg)
        if field.cutoff:
            assert np.iscomplexobj(a_eg) and np.any(a_eg.imag) and p_eg.imag
        assert np.allclose(coherence, 2.0 * (p_eg.real * a_eg.real + p_eg.imag * a_eg.imag),
                           rtol=0.0, atol=1e-16)
        born = p_ee * a_ee + p_gg * (1.0 - a_ee) + coherence
        # against <v0|rho|v0> with v0 numpy's dense eigenvector of the first estimate
        v0 = v[i][:, 0]
        rho = np.array([[a_ee, a_eg], [np.conj(a_eg), 1.0 - a_ee]])
        assert np.allclose(born, np.einsum("i,ijn,j->n", np.conj(v0), rho, v0).real,
                           rtol=0.0, atol=1e-15)
        p_first = np.clip(born, 0.0, 1.0)
        losses = (np.where(picks < p_first, *estimates[:, i]) - gs) ** 2
        assert rep.empirical_cost == float(np.mean(losses))
        assert rep.standard_error == float(np.std(losses, ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("kind", sorted(PRIORS))
@pytest.mark.parametrize("sc", [
    pytest.param(Scenario(tau_c=0.9, alpha=1.0, fock_cutoff=6), id="coherent_resonant"),
    pytest.param(Scenario(tau_c=0.9, delta=0.7, alpha=1.0, fock_cutoff=6), id="coherent_detuned"),
    pytest.param(Scenario(tau_c=(0.4, 1.6), delta=(0.0, -1.1), alpha=-0.5 + 1.2j, fock_cutoff=10,
                          tau_f_gamma=0.3), id="complex_alpha_column"),
])
def test_coherent_sampled_cost_meets_minimum(sc, kind):
    # the coherence enters the Born probability as 2 Re(w a_eg); with its
    # sign flipped the resonant Gaussian point reads 1.232 against 0.898
    prior, field = PRIORS[kind], field_for(sc)
    res = mmse_estimator(gamma_moments(prior, sc, field), sc.tau_f_gamma)
    for rep in mc_quadratic_cost(res, prior, sc, field, 10**5, 5):
        assert rep.z_score < 4.0, rep
