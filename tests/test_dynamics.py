"""Transit dynamics against joint-space and master-equation oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cavbayes.dynamics import (
    FieldState,
    Scenario,
    detector_matrix_elements,
    dissipative_state,
    field_for,
    reduced_state,
)
from cavbayes.errors import InvalidRate, TruncationTooSmall
from cavbayes.mmse import gamma_moments, mmse_estimator
from cavbayes.priors import Prior
from conftest import master_equation_excited_population, schrodinger_reduced_state

VACUUM = FieldState.vacuum()


def test_full_swap_leaves_ground_state():
    rho = reduced_state(1.0, Scenario(tau_c=math.pi / 2), VACUUM)
    assert rho.matrix.ee == pytest.approx(0.0, abs=1e-15)
    assert rho.matrix.gg == pytest.approx(1.0, abs=1e-15)


def test_no_interaction_keeps_excited_state():
    for alpha, delta in ((0.0, 0.0), (1.0, 1.5), (2.0, -0.7)):
        sc = Scenario(tau_c=0.0, delta=delta, alpha=alpha)
        fld = field_for(sc)
        rho = reduced_state(1.0, sc, fld)
        # exact up to the (untouched) ladder tail mass
        assert rho.matrix.ee == pytest.approx(fld.captured_mass, abs=1e-14)
        assert rho.matrix.ee == pytest.approx(1.0, abs=5e-8)


def test_half_swap_with_flight_decay():
    rho = reduced_state(
        1.0, Scenario(tau_c=math.pi / 4, tau_f_gamma=math.log(2.0)), VACUUM
    )
    assert rho.matrix.ee == pytest.approx(0.25, abs=1e-14)
    assert rho.matrix.gg == pytest.approx(0.75, abs=1e-14)


def test_reduced_state_matches_joint_expm_oracle():
    g, tc = 1.0, 2.0
    sc = Scenario(tau_c=tc, delta=0.5 * g, alpha=1.0)
    fld = field_for(sc)
    got = reduced_state(g, sc, fld).as_array()
    ref = schrodinger_reduced_state(g, tc, sc.delta, fld.coefficients)
    assert np.max(np.abs(got - ref)) < 1e-8


@pytest.mark.parametrize(
    "g,tc,delta,alpha,u",
    [
        (1.3, 1.1, -1.2, 1.5, 0.0),
        (0.6, 0.8, 2.3, 0.8, 0.7),
        (-0.9, 1.7, 0.4, 1.2, 0.2),
    ],
)
def test_reduced_state_oracle_sweep(g, tc, delta, alpha, u):
    sc = Scenario(tau_c=tc, delta=delta, alpha=alpha, tau_f_gamma=u)
    fld = field_for(sc)
    got = reduced_state(g, sc, fld).as_array()
    ref = schrodinger_reduced_state(g, tc, delta, fld.coefficients, u)
    assert np.max(np.abs(got - ref)) < 1e-8


def test_states_stay_physical_over_grid():
    scenarios = [
        Scenario(tau_c=0.3),
        Scenario(tau_c=1.7, delta=1.0),
        Scenario(tau_c=0.9, alpha=1.0, tau_f_gamma=0.5),
        Scenario(tau_c=2.5, delta=-0.8, alpha=2.0),
    ]
    for sc in scenarios:
        fld = field_for(sc)
        for g in np.linspace(0.0, 3.0, 61):
            reduced_state(float(g), sc, fld)  # validation inside the constructor


def test_populations_and_cost_ignore_field_phase():
    prior = Prior.gaussian(1.0, 1.0)
    base = None
    for phase in (0.0, 0.9, 2.2, -1.3):
        alpha = 1.0 * complex(math.cos(phase), math.sin(phase))
        sc = Scenario(tau_c=0.8, alpha=alpha)
        fld = field_for(sc)
        pop = reduced_state(1.3, sc, fld).matrix.ee
        c_min = mmse_estimator(gamma_moments(prior, sc, fld)).c_min
        if base is None:
            base = (pop, c_min)
        assert pop == pytest.approx(base[0], abs=1e-9)
        assert c_min == pytest.approx(base[1], abs=1e-9)


def test_flight_damping_is_exact_factor():
    u = 0.8
    exit_state = reduced_state(1.2, Scenario(tau_c=0.7, alpha=1.0), field_for(Scenario(tau_c=0.7, alpha=1.0)))
    sc = Scenario(tau_c=0.7, alpha=1.0, tau_f_gamma=u)
    detector = reduced_state(1.2, sc, field_for(sc))
    assert detector.matrix.ee == exit_state.matrix.ee * math.exp(-u)


def test_auto_cutoff_captures_mass():
    for alpha in (0.5, 1.0, 2.0, 3.0):
        fld = FieldState.coherent(alpha)
        assert fld.captured_mass >= 0.99
        # margin of ten levels above the capture point
        bare = FieldState.coherent(alpha, cutoff=fld.cutoff - 10)
        assert bare.captured_mass >= 0.99


def test_undersized_ladder_rejected():
    fld = FieldState.coherent(2.0, cutoff=2)
    with pytest.raises(TruncationTooSmall):
        reduced_state(1.0, Scenario(tau_c=1.0, alpha=2.0), fld)


def test_dissipative_zero_rates_match_unitary():
    for gt in np.linspace(0.0, 10.0, 101):
        pop = dissipative_state(1.0, float(gt), 0.0, 0.0).excited_population
        assert pop == pytest.approx(math.cos(gt) ** 2, abs=1e-10)
        unitary = reduced_state(1.0, Scenario(tau_c=float(gt)), VACUUM)
        assert pop == pytest.approx(unitary.excited_population, abs=1e-10)


def test_unitary_path_rejects_cavity_damping():
    sc = Scenario(tau_c=1.0, kappa=0.3)
    with pytest.raises(ValueError):
        reduced_state(1.0, sc, VACUUM)


def test_dissipative_initial_state_is_excited():
    assert dissipative_state(1.0, 0.0, 0.3, 0.7).excited_population == pytest.approx(1.0)


def test_dissipative_matches_master_equation():
    for g, t, gamma, kappa in [
        (1.0, 1.0, 0.014, 0.246),
        (1.0, 2.3, 0.6, 0.6),
        (0.8, 1.7, 3.9, 0.1),
    ]:
        got = dissipative_state(g, t, gamma, kappa).excited_population
        ref = master_equation_excited_population(g, t, gamma, kappa)
        assert got == pytest.approx(ref, abs=1e-8)


def test_dissipative_critical_damping_edge():
    # (gamma - kappa)^2 = 16 g^2: the complex root vanishes
    g = 0.25 * (3.0 - 1.0)
    got = dissipative_state(g, 1.3, 3.0, 1.0).excited_population
    ref = master_equation_excited_population(g, 1.3, 3.0, 1.0)
    assert got == pytest.approx(ref, abs=1e-10)


def test_negative_rates_rejected():
    with pytest.raises(InvalidRate):
        dissipative_state(1.0, 1.0, -0.1, 0.0)
    with pytest.raises(InvalidRate):
        dissipative_state(1.0, 1.0, 0.0, -0.1)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(tau_c=-1.0)
    with pytest.raises(ValueError):
        Scenario(tau_c=1.0, tau_f_gamma=-0.5)


# ---------------------------------------------------------------------------
# exact d rho/dg of the state kernel


def _mp_elements(g, tc, delta, coefficients, u):
    """(a_ee, a_eg) of the detector-time state in mpmath arithmetic."""
    quarter = mp.mpf(delta) ** 2 / 4
    t = mp.mpf(tc)
    c = [mp.mpc(x) for x in coefficients]
    n_top = len(c)
    lam = [None] + [mp.sqrt(quarter + g**2 * n) for n in range(1, n_top + 1)]
    swing = [None] + [t * mp.sinc(lm * t) for lm in lam[1:]]
    a_ee = sum(
        abs(c[n - 1]) ** 2 * (mp.cos(lam[n] * t) ** 2 + quarter * swing[n] ** 2)
        for n in range(1, n_top + 1)
    )
    a_eg = mp.mpc(0)
    for m in range(1, n_top):
        bracket = mp.cos(lam[m + 1] * t) - 1j * (mp.mpf(delta) / 2) * swing[m + 1]
        a_eg += 1j * bracket * g * mp.sqrt(m) * swing[m] * c[m] * mp.conj(c[m - 1])
    damp = mp.exp(-mp.mpf(u))
    return a_ee * damp, a_eg * mp.sqrt(damp)


@settings(max_examples=60, deadline=None)
@given(
    tc=st.floats(0.0, 3.0),
    delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
    alpha_abs=st.floats(0.0, 2.0),
    alpha_phase=st.floats(0.0, 2.0 * math.pi),
    cutoff=st.integers(0, 14),
    u=st.floats(0.0, 1.0),
    g=st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 2.5)),
)
def test_kernel_derivative_matches_high_precision_reference(
    tc, delta, alpha_abs, alpha_phase, cutoff, u, g
):
    fld = FieldState.coherent(alpha_abs * cmath.exp(1j * alpha_phase), cutoff)
    assume(1.0 - fld.captured_mass <= 0.01)
    sc = Scenario(tau_c=tc, delta=delta, tau_f_gamma=u)
    got = detector_matrix_elements(np.array([g]), sc, fld, derivative=True)
    with mp.workdps(40):
        ref = _mp_elements(mp.mpf(g), tc, delta, fld.coefficients, u)
        d_ref = [
            mp.diff(lambda x, k=k: _mp_elements(x, tc, delta, fld.coefficients, u)[k], g)
            for k in (0, 1)
        ]
        for value, exact in zip(got, ref + tuple(d_ref)):
            assert abs(value[0] - complex(exact)) <= 1e-14


def test_kernel_derivative_is_regular_at_zero_coupling():
    # resonant: every l_n vanishes at g = 0 and the series take over
    fld = FieldState.coherent(1.1 + 0.4j, 12)
    sc = Scenario(tau_c=0.9, tau_f_gamma=0.3)
    g = np.array([0.0, 1e-300, 1e-160, 1e-8])
    for part in detector_matrix_elements(g, sc, fld, derivative=True):
        assert np.all(np.isfinite(part))
    state, drho = reduced_state(g, sc, fld, derivative=True)
    # d a_ee/dg is odd in g, and at g = 0 every captured level stays excited
    assert drho.ee[0] == 0.0
    assert state.matrix.ee[0] == pytest.approx(fld.captured_mass * math.exp(-0.3), abs=1e-15)


def test_batched_state_rows_equal_scalar_calls():
    sc = Scenario(tau_c=1.3, delta=0.6, alpha=1.5, fock_cutoff=12, tau_f_gamma=0.2)
    fld = field_for(sc)
    g = np.linspace(0.0, 2.0, 9)
    states, drho = reduced_state(g, sc, fld, derivative=True)
    for i, gi in enumerate(g):
        one, d_one = reduced_state(float(gi), sc, fld, derivative=True)
        # the same code, up to the rounding of the ladder sum's BLAS kernel
        for got, ref in (
            (one.matrix.ee, states.matrix.ee[i]),
            (one.matrix.eg, states.matrix.eg[i]),
            (d_one.ee, drho.ee[i]),
            (d_one.eg, drho.eg[i]),
        ):
            assert got == pytest.approx(ref, rel=1e-15, abs=1e-16)
        assert d_one.gg == -d_one.ee


def test_dissipative_rounding_excess_is_clamped(monkeypatch):
    from cavbayes import dynamics

    for raw, clamped in ((1.0 + 5e-13, 1.0), (-5e-13, 0.0)):
        monkeypatch.setattr(dynamics, "_excited_fraction", lambda *a, raw=raw: np.array([raw]))
        assert dissipative_state(1.0, 1.0, 0.2, 0.3).excited_population == clamped


def test_dissipative_excess_beyond_tolerance_raises(monkeypatch):
    from cavbayes import dynamics

    for raw in (1.0 + 1e-9, -1e-9):
        monkeypatch.setattr(dynamics, "_excited_fraction", lambda *a, raw=raw: np.array([raw]))
        with pytest.raises(ArithmeticError):
            dissipative_state(1.0, 1.0, 0.2, 0.3)


def test_dissipative_excess_exits_with_numeric_error(monkeypatch, tmp_path, capsys):
    from cavbayes import dynamics
    from cavbayes.cli import main

    cfg = tmp_path / "damped.ini"
    cfg.write_text("[scenario]\ng0_tau_c = 1.0\nkappa_over_g0 = 0.3\ngamma_over_g0 = 0.2\n")
    assert main(["state", "--config", str(cfg)]) == 0
    monkeypatch.setattr(dynamics, "_excited_fraction", lambda *a: np.array([1.0 + 1e-9]))
    capsys.readouterr()
    assert main(["state", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith("numeric error:")


def test_dissipative_sweep_excess_exits_with_numeric_error(monkeypatch, tmp_path, capsys):
    # sweeps and tau-star share the range check of the single-state path
    from cavbayes import dynamics
    from cavbayes.cli import main

    cfg = tmp_path / "damped_sweep.ini"
    cfg.write_text(
        "[scenario]\nkappa_over_g0 = 0.3\ngamma_over_g0 = 0.2\n"
        "[sweep]\nquantity = dissipative_cost\naxis = tau_c\nlo = 0.1\nhi = 2\nn_points = 4\n"
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "ok.csv")]) == 0
    real = dynamics._excited_fraction

    def one_node_past_tolerance(g, *args):
        f = real(g, *args).copy()
        f[0] = 1.0 + 1e-9  # an edge node of the prior window
        return f

    monkeypatch.setattr(dynamics, "_excited_fraction", one_node_past_tolerance)
    capsys.readouterr()
    for command in ("sweep", "tau-star"):
        assert main([command, "--config", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("numeric error:")
