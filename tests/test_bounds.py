"""Logarithmic derivative and accuracy lower bounds."""

import math

import numpy as np
import pytest

from cavbayes.bounds import cr_bound_ml, cr_bound_mmse, sld_general
from cavbayes.dynamics import FieldState, Scenario, field_for, reduced_state
from cavbayes.ml import gaussian_ml_povm, ml_povm, uniform_ml_povm
from cavbayes.mmse import gamma_moments, mmse_estimator
from cavbayes.oracle import first_power_bound, sld
from cavbayes.priors import Prior
from cavbayes.qubit import square, trace_product

VACUUM = FieldState.vacuum()
GAUSS = Prior.gaussian(1.0, 1.0)
UNIF = Prior.uniform(1.0, 1.0)


def rho_diag(g, tc, u):
    p = math.cos(g * tc) ** 2 * math.exp(-u)
    return np.diag([p, 1.0 - p])


def drho_diag(g, tc, u):
    dp = -tc * math.sin(2.0 * g * tc) * math.exp(-u)
    return np.diag([dp, -dp])


def test_sld_quarter_period_values():
    op = sld(1.0, math.pi / 4.0, 0.0)
    assert op.ee == pytest.approx(-math.pi / 2.0, abs=1e-14)
    assert op.gg == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_sld_defining_identity_on_grid():
    tc, u = 0.8, 0.3
    for g in np.linspace(0.1, 2.5, 50):
        if abs(math.cos(g * tc)) < 1e-6:
            continue
        l_arr = sld(float(g), tc, u).as_array()
        rho = rho_diag(g, tc, u)
        residual = 0.5 * (l_arr @ rho + rho @ l_arr) - drho_diag(g, tc, u)
        assert np.max(np.abs(residual)) < 1e-9


def test_sld_singular_at_pure_state_edge():
    with pytest.raises(ValueError):
        sld(1.0, math.pi / 2.0, 0.0)  # cos(g tau_c) = 0


def test_numeric_sld_matches_analytic_derivative():
    sc = Scenario(tau_c=0.8, tau_f_gamma=0.3)
    for g in (0.5, 1.0, 1.7):
        l_num = sld_general(g, sc, VACUUM).as_array()
        l_ref = sld(g, sc.tau_c, sc.tau_f_gamma).as_array()
        assert np.max(np.abs(l_num - l_ref)) < 1e-12


def test_inconclusive_times_give_zero_bound():
    for tc in (math.pi / 2.0, math.pi):
        sc = Scenario(tau_c=tc, tau_f_gamma=0.3)
        res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
        for g in np.linspace(0.2, 1.8, 21):
            rep = cr_bound_mmse(res, float(g), sc)
            assert rep.lower_bound < 1e-12
            assert rep.mse >= -1e-12


def test_quarter_period_report_values():
    # at the prior mean the quadratic bound is tight and the absolute-
    # sensitivity variant reproduces the closed display factor, which
    # exceeds the MSE there (recorded, not asserted as a bound)
    res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 4.0), VACUUM))
    sc = Scenario(tau_c=math.pi / 4.0)
    rep = cr_bound_mmse(res, 1.0, sc)
    k = (math.pi / 2.0) * math.exp(-math.pi**2 / 8.0)
    assert rep.mse == pytest.approx(k**2, abs=1e-12)
    assert rep.lower_bound == pytest.approx(k**2, abs=1e-12)
    assert first_power_bound(rep) == pytest.approx(math.exp(-math.pi**2 / 8.0), abs=1e-12)
    assert first_power_bound(rep) > rep.mse


def test_quarter_period_display_factor_off_mean():
    # closed display: (1 - cos^2 e^{-u})/sin^2 * |sin(2 g tc)| * s^2 e^{-pi^2 s^2/8}/(2 - e^{-u})
    res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 4.0), VACUUM))
    sc = Scenario(tau_c=math.pi / 4.0)
    for g in (0.6, 1.3):
        rep = cr_bound_mmse(res, g, sc)
        phase = math.pi * g / 4.0
        expected = (
            (1.0 - math.cos(phase) ** 2)
            / math.sin(phase) ** 2
            * abs(math.sin(2.0 * phase))
            * math.exp(-math.pi**2 / 8.0)
        )
        assert first_power_bound(rep) == pytest.approx(expected, abs=1e-12)


def test_closed_path_matches_numeric_path():
    # the resonant vacuum report takes x' and Tr{rho L^2} in closed form;
    # the eigenbasis L of the general path gives the same numbers
    res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 4.0, tau_f_gamma=0.2), VACUUM))
    sc = Scenario(tau_c=math.pi / 4.0, tau_f_gamma=0.2)
    for g in (0.7, 1.0, 1.4):
        closed = cr_bound_mmse(res, g, sc)
        rho, drho = reduced_state(g, sc, VACUUM, derivative=True)
        xprime = trace_product(res.m_min, drho)
        fisher = trace_product(square(sld_general(g, sc, VACUUM, rho=rho, drho=drho)), rho.matrix)
        assert xprime**2 / fisher == pytest.approx(closed.lower_bound, abs=1e-8)
        assert xprime == pytest.approx(closed.sensitivity, abs=1e-8)
        assert fisher == pytest.approx(closed.fisher, abs=1e-6)


def test_general_scenario_bound_holds():
    sc = Scenario(tau_c=1.1, delta=0.5, alpha=1.0, tau_f_gamma=0.1)
    fld = field_for(sc)
    res = mmse_estimator(gamma_moments(GAUSS, sc, fld))
    for g in (0.6, 1.0, 1.5):
        rep = cr_bound_mmse(res, g, sc, fld)
        assert rep.mse >= rep.lower_bound - 1e-9


def test_numeric_bound_evaluates_state_once(monkeypatch):
    # rho(g) and its exact derivative come from one kernel call, which also
    # serves the conditional MSE and the SLD; rho is diagonalized once, to
    # build L, and L itself never is
    from cavbayes import bounds, dynamics

    calls = []
    real_elements = dynamics.detector_matrix_elements
    real_sld = bounds.sld_general
    real_eig = bounds.eigendecompose

    def count_elements(*args, **kwargs):
        calls.append(("state", kwargs.get("derivative", False)))
        return real_elements(*args, **kwargs)

    def count_sld(*args, **kwargs):
        calls.append(("sld", None))
        return real_sld(*args, **kwargs)

    def count_eig(*args, **kwargs):
        calls.append(("eig", None))
        return real_eig(*args, **kwargs)

    sc = Scenario(tau_c=0.9, delta=0.4, alpha=1.2, tau_f_gamma=0.2)
    fld = field_for(sc)
    res = mmse_estimator(gamma_moments(GAUSS, sc, fld))
    before = cr_bound_mmse(res, 0.8, sc, fld)
    monkeypatch.setattr(dynamics, "detector_matrix_elements", count_elements)
    monkeypatch.setattr(bounds, "sld_general", count_sld)
    monkeypatch.setattr(bounds, "eigendecompose", count_eig)
    after = cr_bound_mmse(res, 0.8, sc, fld)
    assert calls == [("state", True), ("sld", None), ("eig", None)]
    assert after == before


def test_batched_bound_rows_equal_scalar_calls():
    # a batch of couplings is the scalar call row by row, on both paths
    g = np.linspace(0.3, 1.7, 6)
    cases = [
        Scenario(tau_c=0.9, delta=0.4, alpha=1.2, tau_f_gamma=0.2),
        Scenario(tau_c=math.pi / 4.0, tau_f_gamma=0.2),
    ]
    for sc in cases:
        fld = field_for(sc)
        res = mmse_estimator(gamma_moments(GAUSS, sc, fld))
        batch = cr_bound_mmse(res, g, sc, fld)
        for i, gi in enumerate(g):
            single = cr_bound_mmse(res, float(gi), sc, fld)
            row = batch.row(i)
            for name in ("g", "mse", "lower_bound", "sensitivity", "fisher"):
                assert getattr(row, name) == pytest.approx(
                    getattr(single, name), rel=1e-14, abs=1e-15
                ), (sc, name)


@pytest.mark.parametrize("prior", [GAUSS, UNIF], ids=["gaussian", "uniform"])
def test_batched_ml_bound_rows_equal_scalar_calls(prior):
    u = 0.35
    povm = ml_povm(prior, 0.9, u)
    g = np.linspace(0.2, 1.8, 7)
    batch = cr_bound_ml(povm, g, u)
    for i, gi in enumerate(g):
        single, row = cr_bound_ml(povm, float(gi), u), batch.row(i)
        for name in ("g", "mse", "lower_bound", "sensitivity", "fisher"):
            assert getattr(row, name) == pytest.approx(getattr(single, name), rel=1e-14), name


def test_ml_bound_zero_when_uninformative():
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)  # f_z == 0
    rep = cr_bound_ml(povm, 0.8, 0.0)
    assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_ml_uniform_special_case_display_value():
    prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    povm = uniform_ml_povm(prior, math.pi / 4.0, 0.0)
    rep = cr_bound_ml(povm, 1.0, 0.0)
    assert first_power_bound(rep) == pytest.approx(8.0 / math.pi**3, abs=1e-9)
    assert rep.mse == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.mse >= rep.lower_bound - 1e-9


def test_ml_bounds_hold_on_grid():
    for prior, build in ((GAUSS, gaussian_ml_povm), (UNIF, uniform_ml_povm)):
        povm = build(prior, math.pi / 4.0, 0.2)
        for g in np.linspace(0.2, 1.8, 50):
            rep = cr_bound_ml(povm, float(g), 0.2)
            assert rep.mse >= rep.lower_bound - 1e-9


def test_bound_invariant_under_outcome_relabeling():
    # shifting every outcome label leaves the response slope unchanged
    # because f_z carries no net mass
    from cavbayes import priors as priors_mod

    povm = gaussian_ml_povm(GAUSS, 0.9, 0.0)
    rule = priors_mod.quadrature(GAUSS, 512)
    fz = povm.f_z(rule.nodes)
    base = rule.integrate(rule.nodes * fz)
    for delta in (0.5, -2.0):
        shifted = rule.integrate((rule.nodes + delta) * fz)
        assert shifted == pytest.approx(base, abs=1e-10)


def test_mmse_abs_sensitivity_variant_can_exceed_mse():
    # the quadratic-form bound is the production lower bound precisely
    # because the first-power variant fails as a bound on this grid
    res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 4.0), VACUUM))
    sc = Scenario(tau_c=math.pi / 4.0)
    exceed = 0
    for g in np.linspace(0.2, 1.8, 50):
        rep = cr_bound_mmse(res, float(g), sc)
        assert rep.mse >= rep.lower_bound - 1e-9
        if first_power_bound(rep) > rep.mse + 1e-9:
            exceed += 1
    assert exceed > 0
