"""Monte-Carlo measurement simulation and brute-force re-derivations."""

import math

import numpy as np
import pytest

from cavbayes.dynamics import FieldState, Scenario
from cavbayes.ml import gaussian_ml_povm, uniform_ml_povm
from cavbayes.mmse import (
    MmseResult,
    closed_form_abc,
    closed_form_gammas,
    gamma_moments,
    mmse_estimator,
)
from cavbayes.oracle import (
    brute_force_gamma,
    mc_estimate_distribution,
    mc_quadratic_cost,
)
from cavbayes.priors import Prior
from cavbayes.qubit import Hermitian2

VACUUM = FieldState.vacuum()
GAUSS = Prior.gaussian(1.0, 1.0)
SEED = 20260810


def test_full_swap_cost_is_prior_variance():
    sc = Scenario(tau_c=math.pi / 2.0)
    res = mmse_estimator(closed_form_gammas(GAUSS, sc.tau_c, 0.0))
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
    res = mmse_estimator(closed_form_gammas(GAUSS, sc.tau_c, 0.0))
    rep = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**6, SEED)
    assert rep.z_score < 3.0


def test_reports_are_deterministic_under_seed():
    sc = Scenario(tau_c=0.9, tau_f_gamma=0.2)
    res = mmse_estimator(closed_form_gammas(GAUSS, sc.tau_c, sc.tau_f_gamma))
    rep1 = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    rep2 = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
    assert rep1 == rep2
    rep3 = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED + 1)
    assert rep3.empirical_cost != rep1.empirical_cost


def test_sample_size_guard():
    sc = Scenario(tau_c=0.9)
    res = mmse_estimator(closed_form_gammas(GAUSS, sc.tau_c, 0.0))
    with pytest.raises(ValueError):
        mc_quadratic_cost(res, GAUSS, sc, VACUUM, 100, SEED)


def test_uninformative_povm_samples_the_prior():
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)  # f_z == 0
    n = 10**5
    rep = mc_estimate_distribution(povm, 1.0, Scenario(tau_c=math.pi / 2.0), n, SEED)
    assert rep.ks_statistic_vs_prior < 1.63 / math.sqrt(n)  # 1% level
    assert rep.analytic_mean == pytest.approx(1.0, abs=1e-9)


def test_uniform_special_case_mean_estimate():
    prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    povm = uniform_ml_povm(prior, math.pi / 4.0, 0.0)
    rep = mc_estimate_distribution(povm, 1.0, Scenario(tau_c=math.pi / 4.0), 10**5, SEED)
    assert rep.analytic_mean == pytest.approx(1.0, abs=1e-9)
    assert rep.z_score < 3.0


def test_gaussian_mean_estimate_concordance():
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
    rep = mc_estimate_distribution(povm, 1.2, Scenario(tau_c=math.pi / 4.0), 10**5, SEED)
    assert rep.z_score < 3.0
    assert rep.histogram.sum() == rep.n_samples


def test_riemann_moments_match_closed_entries():
    for prior in (GAUSS, Prior.uniform(1.0, 1.0)):
        sc = Scenario(tau_c=0.8, tau_f_gamma=0.3)
        got = brute_force_gamma(prior, sc, VACUUM, 2 * 10**4)
        a, b, c = closed_form_abc(prior, sc.tau_c)
        damp = math.exp(-sc.tau_f_gamma)
        assert got.gamma0.ee == pytest.approx(a * damp, abs=1e-6)
        assert got.gamma1.ee == pytest.approx(b * damp, abs=1e-6)
        assert got.gamma2.ee == pytest.approx(c * damp, abs=1e-6)
        assert got.gamma0.trace == pytest.approx(1.0, abs=1e-6)
        assert got.gamma1.trace == pytest.approx(prior.g0, abs=1e-6)
        assert got.gamma2.trace == pytest.approx(
            prior.g0**2 + prior.sigma**2, abs=1e-6
        )


def test_riemann_agrees_with_quadrature_moments():
    sc = Scenario(tau_c=1.2, tau_f_gamma=0.1, alpha=1.0)
    from cavbayes.dynamics import field_for

    fld = field_for(sc)
    riemann = brute_force_gamma(GAUSS, sc, fld, 5 * 10**4)
    quad = gamma_moments(GAUSS, sc, fld)
    for name in ("gamma0", "gamma1", "gamma2"):
        assert abs(getattr(riemann, name).ee - getattr(quad, name).ee) < 1e-6
        assert abs(getattr(riemann, name).eg - getattr(quad, name).eg) < 1e-6
