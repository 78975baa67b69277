"""Monte-Carlo measurement simulation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import erf

from cavbayes import oracle
from cavbayes.dynamics import FieldState, Scenario, detector_matrix_elements
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

VACUUM = FieldState.vacuum()
GAUSS = Prior.gaussian(1.0, 1.0)
SEED = 20260810


def test_full_swap_cost_is_prior_variance():
    sc = Scenario(tau_c=math.pi / 2.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    rep = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    assert rep.analytic_cost == pytest.approx(1.0, abs=1e-12)
    assert rep.z_score < 3.0


def test_engineered_constant_estimator_on_delta_prior():
    prior = Prior.gaussian(1.0, 1e-8)
    sc = Scenario(tau_c=0.7)
    res = MmseResult(
        m_min=Hermitian2(1.0, 1.0),
        estimates=(1.0, 1.0),
        projectors=np.eye(2, dtype=complex),
        c_min=0.0,
    )
    rep = mc_quadratic_cost(res, prior, sc, VACUUM, 10**4, SEED)
    assert rep.empirical_cost == pytest.approx(0.0, abs=1e-12)


def test_quarter_period_cost_concordance():
    sc = Scenario(tau_c=math.pi / 4.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    rep = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**6, SEED)
    assert rep.z_score < 3.0


def test_reports_are_deterministic_under_seed():
    sc = Scenario(tau_c=0.9, tau_f_gamma=0.2)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    rep1 = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    rep2 = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    assert rep1 == rep2
    rep3 = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED + 1)
    assert rep3.empirical_cost != rep1.empirical_cost


def test_sample_size_guard():
    sc = Scenario(tau_c=0.9)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    with pytest.raises(ValueError):
        mc_quadratic_cost(res, GAUSS, sc, VACUUM, 100, SEED)


def test_uninformative_povm_samples_the_prior():
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)  # f_z == 0
    n = 10**5
    rep = mc_estimate_distribution(povm, 1.0, n, SEED)
    assert rep.ks_statistic_vs_prior < 1.63 / math.sqrt(n)  # 1% level
    assert rep.analytic_mean == pytest.approx(1.0, abs=1e-9)


def test_uniform_special_case_mean_estimate():
    prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    povm = uniform_ml_povm(prior, math.pi / 4.0, 0.0)
    rep = mc_estimate_distribution(povm, 1.0, 10**5, SEED)
    assert rep.analytic_mean == pytest.approx(1.0, abs=1e-9)
    assert rep.z_score < 3.0


def test_gaussian_mean_estimate_concordance():
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
    rep = mc_estimate_distribution(povm, 1.2, 10**5, SEED)
    assert rep.z_score < 3.0
    assert rep.histogram.sum() == rep.n_samples


# the estimate sampler and its report, against the draw-order computation
# they replace
PRIORS = {"gaussian": GAUSS, "uniform": Prior.uniform(1.0, 1.0)}


@pytest.fixture(scope="module", params=sorted(PRIORS))
def sampled(request):
    povm = ml_povm(PRIORS[request.param], math.pi / 4.0, 0.0)
    return povm, mc_estimate_distribution(povm, 1.3, 10**5, SEED)


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


def test_born_probability_in_real_arithmetic():
    # a detuned coherent field gives a complex coherence and complex
    # eigenvectors.  numpy's complex product may fuse a multiply-add, so the
    # real form of 2 Re(w conj(a_eg)) can differ from it in the last bit
    # (the vacuum coherence is zero, where both read 0), and no draw moves
    field = FieldState.coherent(1.0, cutoff=6)
    sc = Scenario(tau_c=0.9, delta=0.7)
    res = mmse_estimator(gamma_moments(GAUSS, sc, field))
    rep = mc_quadratic_cost(res, GAUSS, sc, field, 10**5, SEED)

    rng = oracle._generator(SEED)
    gs = sample_prior(GAUSS, 10**5, rng)
    a_ee, a_eg = detector_matrix_elements(gs, sc, field)
    v0 = res.projectors[:, 0]
    w = np.conj(v0[0]) * v0[1]
    assert np.iscomplexobj(a_eg) and np.any(a_eg.imag) and w.imag
    assert np.allclose(2.0 * np.real(w * np.conj(a_eg)),
                       2.0 * (w.real * a_eg.real + w.imag * a_eg.imag), rtol=0.0, atol=1e-16)
    p_first = np.clip(abs(v0[0]) ** 2 * a_ee + abs(v0[1]) ** 2 * (1.0 - a_ee)
                      + 2.0 * np.real(w * np.conj(a_eg)), 0.0, 1.0)
    estimates = np.where(rng.random(10**5) < p_first, *res.estimates)
    assert rep.empirical_cost == float(np.mean((estimates - gs) ** 2))
