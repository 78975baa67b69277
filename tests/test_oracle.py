"""Monte-Carlo measurement simulation."""

import math

import numpy as np
import pytest

from cavbayes.dynamics import FieldState, Scenario
from cavbayes.ml import gaussian_ml_povm, uniform_ml_povm
from cavbayes.mmse import (
    MmseResult,
    gamma_moments,
    mmse_estimator,
)
from cavbayes.oracle import (
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
