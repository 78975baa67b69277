"""Logarithmic derivative and accuracy lower bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cavbayes.bounds import cr_bound_ml, cr_bound_mmse, sld_general
from cavbayes.dynamics import FieldState, Scenario, field_for, reduced_state
from cavbayes.ml import gaussian_ml_povm, ml_povm, uniform_ml_povm
from cavbayes.mmse import gamma_moments, mmse_estimator
from cavbayes.oracle import first_power_bound, sld
from cavbayes.priors import Prior
from cavbayes.qubit import square, trace_product
from conftest import dense

VACUUM = FieldState.vacuum()
GAUSS = Prior.gaussian(1.0, 1.0)
UNIF = Prior.uniform(1.0, 1.0)


def mmse_bound(res, g, sc, fld=VACUUM):
    """cr_bound_mmse at the state and derivative of ``sc`` and ``fld`` at g."""
    return cr_bound_mmse(res, g, *reduced_state(g, sc, fld, derivative=True))


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
        l_arr = dense(sld(float(g), tc, u))
        rho = rho_diag(g, tc, u)
        residual = 0.5 * (l_arr @ rho + rho @ l_arr) - drho_diag(g, tc, u)
        assert np.max(np.abs(residual)) < 1e-9


def test_sld_singular_at_pure_state_edge():
    with pytest.raises(ValueError):
        sld(1.0, math.pi / 2.0, 0.0)  # cos(g tau_c) = 0


def test_numeric_sld_matches_analytic_derivative():
    sc = Scenario(tau_c=0.8, tau_f_gamma=0.3)
    for g in (0.5, 1.0, 1.7):
        l_num = dense(sld_general(*reduced_state(g, sc, VACUUM, derivative=True)))
        l_ref = dense(sld(g, sc.tau_c, sc.tau_f_gamma))
        assert np.max(np.abs(l_num - l_ref)) < 1e-12
    # within 1e-6 of the edge g tau = pi/2 (P -> 0) the excited pair sum 2P
    # falls below 1e-12, and a cut there would drop the L_ee branch, of
    # size 2 tau / |cos(g tau)| ~ 1e6 and more: compared relative to it
    edge = math.pi / (2.0 * sc.tau_c)
    for g in (edge - 1e-6, edge - 1e-7, edge + 1e-8, edge + 1e-6):
        l_num = dense(sld_general(*reduced_state(g, sc, VACUUM, derivative=True)))
        l_ref = dense(sld(g, sc.tau_c, sc.tau_f_gamma))
        assert np.all(np.abs(l_num - l_ref) <= 1e-12 * np.abs(l_ref)), g
    # the other edge, g tau = pi at u = 0 (P -> 1), where the L_gg branch
    # 2 tau cos(g tau)/sin(g tau) grows without bound
    sc = Scenario(tau_c=0.8)
    edge = math.pi / sc.tau_c
    for g in (edge - 1e-4, edge - 1e-6, edge - 1e-7, edge - 1e-8, edge + 1e-8, edge + 1e-6):
        l_num = dense(sld_general(*reduced_state(g, sc, VACUUM, derivative=True)))
        l_ref = dense(sld(g, sc.tau_c, sc.tau_f_gamma))
        assert np.all(np.abs(l_num - l_ref) <= 1e-12 * np.abs(l_ref)), g


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    tc=st.floats(0.05, 3.0),
    delta=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
    alpha_abs=st.one_of(st.just(0.0), st.floats(0.2, 3.0)),
    alpha_phase=st.floats(0.0, 2.0 * math.pi),
    u=st.floats(0.0, 1.0),
)
def test_numeric_sld_defining_identity(tc, delta, alpha_abs, alpha_phase, u):
    # the eigenbasis L of the coherent and detuned families, the ones the
    # production bound builds it for, solves (L rho + rho L)/2 = d rho/dg
    # wherever rho has full rank
    assume(delta or alpha_abs)
    sc = Scenario(tau_c=tc, delta=delta, alpha=alpha_abs * complex(math.cos(alpha_phase),
                  math.sin(alpha_phase)), tau_f_gamma=u)
    rho, drho = reduced_state(np.linspace(0.05, 2.5, 32), sc, field_for(sc), derivative=True)
    r, l_op = dense(rho), dense(sld_general(rho, drho))
    full_rank = np.linalg.eigvalsh(r)[:, 0] > 1e-6
    residual = 0.5 * (l_op @ r + r @ l_op) - dense(drho)
    assert np.max(np.abs(residual[full_rank]), initial=0.0) <= 1e-12


def _pure_state_edges(sc):
    """Couplings below 4 g0 where the state of ``sc`` is pure at u = 0:
    g = 0, and for a vacuum field l tau = k pi (l = sqrt(Delta^2/4 + g^2)),
    with g tau = pi/2 + k pi too at resonance."""
    edges = [0.0]
    if sc.alpha == 0:
        for k in range(1, 40):
            lam = k * math.pi / sc.tau_c
            if lam > sc.delta / 2.0:
                edges.append(math.sqrt(lam**2 - sc.delta**2 / 4.0))
            if sc.delta == 0.0:
                edges.append((k - 0.5) * math.pi / sc.tau_c)
    return [e for e in edges if e < 4.0]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "uniform"]),
    sigma=st.floats(0.2, 1.5),
    tc=st.floats(0.1, 4.0),
    u=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    family=st.sampled_from(["vacuum", "detuned", "coherent"]),
    knob=st.floats(0.1, 2.0),
)
def test_bound_holds_near_pure_states(kind, sigma, tc, u, family, knob):
    # within 1e-9 of every pure-state edge the eigenbasis L keeps the
    # Fisher term of the small eigenvalue, so each bound row is finite and
    # stays below the conditional MSE
    sc = Scenario(tau_c=tc, tau_f_gamma=u, delta=knob if family == "detuned" else 0.0,
                  alpha=knob if family == "coherent" else 0.0)
    fld = field_for(sc)
    res = mmse_estimator(gamma_moments(Prior(kind, 1.0, sigma), sc, fld), u)
    offsets = (0.0, 1e-15, 1e-12, 1e-10, 1e-9)
    g = np.array(sorted({abs(e + s * d) for e in _pure_state_edges(sc)
                         for d in offsets for s in (-1, 1)}))
    rep = mmse_bound(res, g, sc, fld)
    assert np.all(np.isfinite(rep.lower_bound))
    assert np.all(rep.lower_bound <= rep.mse * (1.0 + 1e-12)), g[np.argmax(rep.lower_bound / rep.mse)]


def test_inconclusive_times_give_zero_bound():
    for tc in (math.pi / 2.0, math.pi):
        sc = Scenario(tau_c=tc, tau_f_gamma=0.3)
        res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
        for g in np.linspace(0.2, 1.8, 21):
            rep = mmse_bound(res, float(g), sc)
            assert rep.lower_bound < 1e-12
            assert rep.mse >= -1e-12


def test_quarter_period_report_values():
    # at the prior mean the quadratic bound is tight and the absolute-
    # sensitivity variant reproduces the closed display factor, which
    # exceeds the MSE there (recorded, not asserted as a bound)
    res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 4.0), VACUUM))
    sc = Scenario(tau_c=math.pi / 4.0)
    rep = mmse_bound(res, 1.0, sc)
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
        rep = mmse_bound(res, g, sc)
        phase = math.pi * g / 4.0
        expected = (
            (1.0 - math.cos(phase) ** 2)
            / math.sin(phase) ** 2
            * abs(math.sin(2.0 * phase))
            * math.exp(-math.pi**2 / 8.0)
        )
        assert first_power_bound(rep) == pytest.approx(expected, abs=1e-12)


def _near_pure_couplings(tc):
    """Couplings at and within 1e-9 of the pure-state edges g = 0,
    g tau = k pi and g tau = pi/2 + k pi, k <= 2, of the resonant vacuum."""
    edges = [k * math.pi / (2.0 * tc) for k in range(5)]
    offsets = (0.0, 1e-15, 1e-12, 1e-9)
    return np.array(sorted({abs(e + s * d) for e in edges for d in offsets for s in (-1, 1)}))


@pytest.mark.parametrize("u", [0.0, 0.2, 2.0])
@pytest.mark.parametrize("tc", [0.05, math.pi / 4.0, 1.3, 3.0])
def test_ml_fisher_matches_numeric_sld(tc, u):
    # the one closed Fisher entry left, that of the likelihood bound, against
    # Tr{rho L^2} of the eigenbasis L on the state kernel's vacuum family,
    # on a grid and at the near-pure couplings where a branch of L diverges
    g = np.concatenate([np.linspace(0.0, 3.0, 61), _near_pure_couplings(tc)])
    rho, drho = reduced_state(g, Scenario(tau_c=tc, tau_f_gamma=u), VACUUM, derivative=True)
    numeric = trace_product(square(sld_general(rho, drho)), rho.matrix)
    closed = cr_bound_ml(ml_povm(GAUSS, tc, u), g).fisher
    scale = np.maximum(np.abs(closed), np.abs(numeric))
    assert np.all(np.abs(numeric - closed) <= 1e-13 * scale), np.max(np.abs(numeric - closed) / scale)


def test_general_scenario_bound_holds():
    sc = Scenario(tau_c=1.1, delta=0.5, alpha=1.0, tau_f_gamma=0.1)
    fld = field_for(sc)
    res = mmse_estimator(gamma_moments(GAUSS, sc, fld))
    for g in (0.6, 1.0, 1.5):
        rep = mmse_bound(res, g, sc, fld)
        assert rep.mse >= rep.lower_bound - 1e-9


def test_numeric_bound_evaluates_state_once(monkeypatch):
    # rho(g) and its exact derivative come from the caller's one kernel
    # call, which serves the conditional MSE and the SLD too; L is one solve
    # of the operator equation in Bloch form, so neither rho nor L is
    # diagonalized
    from cavbayes import bounds, dynamics, qubit

    calls = []

    def spy(module, name, tag):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append((tag, kwargs.get("derivative")))
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    sc = Scenario(tau_c=0.9, delta=0.4, alpha=1.2, tau_f_gamma=0.2)
    fld = field_for(sc)
    res = mmse_estimator(gamma_moments(GAUSS, sc, fld))
    before = mmse_bound(res, 0.8, sc, fld)
    spy(dynamics, "detector_matrix_elements", "state")
    spy(bounds, "sld_general", "sld")
    spy(bounds, "solve_symmetric_product", "solve")
    spy(qubit, "eigendecompose", "eig")
    after = mmse_bound(res, 0.8, sc, fld)
    assert calls == [("state", True), ("sld", None), ("solve", None)]
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
        batch = mmse_bound(res, g, sc, fld)
        for i, gi in enumerate(g):
            single = mmse_bound(res, float(gi), sc, fld)
            for name in ("g", "mse", "lower_bound", "sensitivity", "fisher"):
                assert getattr(batch, name)[i] == pytest.approx(
                    getattr(single, name), rel=1e-14, abs=1e-15
                ), (sc, name)


@pytest.mark.parametrize("prior", [GAUSS, UNIF], ids=["gaussian", "uniform"])
def test_batched_ml_bound_rows_equal_scalar_calls(prior):
    u = 0.35
    povm = ml_povm(prior, 0.9, u)
    g = np.linspace(0.2, 1.8, 7)
    batch = cr_bound_ml(povm, g)
    for i, gi in enumerate(g):
        single = cr_bound_ml(povm, float(gi))
        for name in ("g", "mse", "lower_bound", "sensitivity", "fisher"):
            assert getattr(batch, name)[i] == pytest.approx(getattr(single, name), rel=1e-14), name


def test_ml_bound_zero_when_uninformative():
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)  # f_z == 0
    rep = cr_bound_ml(povm, 0.8)
    assert rep.lower_bound == pytest.approx(0.0, abs=1e-12)


def test_ml_uniform_special_case_display_value():
    prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    povm = uniform_ml_povm(prior, math.pi / 4.0, 0.0)
    rep = cr_bound_ml(povm, 1.0)
    assert first_power_bound(rep) == pytest.approx(8.0 / math.pi**3, abs=1e-9)
    assert rep.mse == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rep.mse >= rep.lower_bound - 1e-9


def test_ml_bounds_hold_on_grid():
    for prior, build in ((GAUSS, gaussian_ml_povm), (UNIF, uniform_ml_povm)):
        povm = build(prior, math.pi / 4.0, 0.2)
        for g in np.linspace(0.2, 1.8, 50):
            rep = cr_bound_ml(povm, float(g))
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
        rep = mmse_bound(res, float(g), sc)
        assert rep.mse >= rep.lower_bound - 1e-9
        if first_power_bound(rep) > rep.mse + 1e-9:
            exceed += 1
    assert exceed > 0
