"""Transit dynamics against joint-space and master-equation oracles."""

import cmath
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cavbayes.dynamics import (
    MAX_FOCK_CUTOFF,
    FieldState,
    Scenario,
    detector_matrix_elements,
    dissipative_populations,
    field_for,
    reduced_state,
)
from cavbayes.errors import InvalidRate, TruncationTooSmall
from cavbayes.mmse import gamma_moments, gamma_moments_dissipative, mmse_estimator
from cavbayes.priors import Prior
from conftest import dense, master_equation_excited_population, schrodinger_reduced_state

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
    got = dense(reduced_state(g, sc, fld))
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
    got = dense(reduced_state(g, sc, fld))
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


def test_auto_cutoff_in_log_space_up_to_the_ceiling():
    # e^{-|alpha|^2} underflows past |alpha| ~ 27.3; the log-space terms do not
    fld = FieldState.coherent(30.0)
    assert fld.captured_mass >= 0.99 and fld.cutoff <= MAX_FOCK_CUTOFF
    with pytest.raises(ValueError):
        FieldState.coherent(40.0)  # its ladder would pass the ceiling
    with pytest.raises(ValueError):
        Scenario(tau_c=1.0, fock_cutoff=MAX_FOCK_CUTOFF + 1)


def test_undersized_ladder_rejected():
    fld = FieldState.coherent(2.0, cutoff=2)
    with pytest.raises(TruncationTooSmall):
        reduced_state(1.0, Scenario(tau_c=1.0, alpha=2.0), fld)


def test_dissipative_zero_rates_match_unitary():
    for gt in np.linspace(0.0, 10.0, 101):
        pop = float(dissipative_populations(1.0, float(gt), 0.0, 0.0)[0])
        assert pop == pytest.approx(math.cos(gt) ** 2, abs=1e-10)
        unitary = reduced_state(1.0, Scenario(tau_c=float(gt)), VACUUM)
        assert pop == pytest.approx(unitary.matrix.ee, abs=1e-10)


def _damped(t: float, gamma: float, kappa: float) -> Scenario:
    return Scenario(tau_c=t, gamma_cav=gamma, kappa=kappa)


@pytest.mark.parametrize("gamma,kappa", [(0.3, 0.0), (0.0, 0.4), (0.2, 0.7), (3.0, 1.0)])
def test_damped_reduced_state_is_the_damped_population(gamma, kappa):
    # a damped scenario's state is diag(f, 1 - f) with f the damped
    # population, bit for bit, for a scalar coupling and a batch
    g = np.linspace(-0.5, 2.5, 13)
    f = dissipative_populations(g, 1.3, gamma, kappa)
    batch = reduced_state(g, _damped(1.3, gamma, kappa), VACUUM).matrix
    assert np.array_equal(batch.ee, f) and np.array_equal(batch.gg, 1.0 - f)
    assert np.all(batch.eg == 0.0)
    for i in (0, 5, 12):
        one = reduced_state(float(g[i]), _damped(1.3, gamma, kappa), VACUUM).matrix
        assert (one.ee, one.gg, one.eg) == (f[i], 1.0 - f[i], 0j)
        assert isinstance(one.ee, float)


def test_damped_reduced_state_has_no_derivative():
    with pytest.raises(ValueError):
        reduced_state(1.0, _damped(1.0, 0.0, 0.3), VACUUM, derivative=True)


@pytest.mark.parametrize("knob", [{"delta": 0.5}, {"alpha": 1.0j}, {"tau_f_gamma": 0.2}])
@pytest.mark.parametrize("rates", [{"kappa": 0.3}, {"gamma_cav": 0.2}])
def test_damped_scenario_refuses_unitary_knobs(knob, rates):
    # the damped transit is resonant, starts in vacuum and has no flight decay
    with pytest.raises(ValueError):
        Scenario(tau_c=1.0, **rates, **knob)
    Scenario(tau_c=1.0, **knob)  # the same knob on a unitary transit


def test_damped_moment_batches_are_damped_with_one_rate_pair():
    # a damped tau_c column equals its one call of the damped moments, and
    # a damped point scenario their single triple; a column scenario holds
    # one rate pair by construction
    prior = Prior.gaussian(1.0, 0.6)
    taus = np.array([0.5, 0.7, 1.9])
    got = gamma_moments(prior, _damped(tuple(taus.tolist()), 0.2, 0.3), VACUUM)
    ref = gamma_moments_dissipative(prior, taus, 0.2, 0.3)
    one = gamma_moments(prior, _damped(0.7, 0.2, 0.3), VACUUM)
    one_ref = gamma_moments_dissipative(prior, 0.7, 0.2, 0.3)
    for name in ("gamma0", "gamma1", "gamma2"):
        a, b = getattr(got, name), getattr(ref, name)
        assert all(np.array_equal(getattr(a, e), getattr(b, e)) for e in ("ee", "gg", "eg"))
        assert getattr(one, name) == getattr(one_ref, name)


_NON_FINITE = [
    {"tau_c": math.nan},
    {"tau_c": math.inf},
    {"tau_c": 1.0, "delta": math.nan},
    {"tau_c": 1.0, "delta": -math.inf},
    {"tau_c": 1.0, "tau_f_gamma": math.inf},
    {"tau_c": 1.0, "kappa": math.nan},
    {"tau_c": 1.0, "gamma_cav": math.inf},
    {"tau_c": 1.0, "alpha": complex(1.0, math.nan)},
    {"tau_c": (0.5, math.nan)},
    {"tau_c": 1.0, "delta": (0.2, math.inf)},
    {"tau_c": (0.5, 0.7), "tau_f_gamma": (0.1, math.nan)},
]


@pytest.mark.parametrize("knobs", _NON_FINITE)
def test_scenario_refuses_non_finite_knobs(knobs):
    # a NaN or infinite knob, a column entry included, would give c_min = nan
    # with estimates (0, 0) and no error
    with pytest.raises(ValueError, match="finite"):
        Scenario(**knobs)


def test_column_scenario_broadcasts_and_refuses_state_calls():
    column = Scenario(tau_c=(0.2, 0.5, 0.9), delta=0.4, alpha=1.0)
    tau_c, tau_f_gamma, delta = column.columns
    assert tau_c.tolist() == [0.2, 0.5, 0.9]
    assert tau_f_gamma.tolist() == [0.0] * 3 and delta.tolist() == [0.4] * 3
    assert column.columns.shape == (3, 3) and Scenario(tau_c=0.2).columns.shape == (3,)
    assert hash(column) == hash(Scenario(tau_c=(0.2, 0.5, 0.9), delta=0.4, alpha=1.0))
    # built once per scenario and read-only, for a point and for a column
    for sc in (Scenario(tau_c=0.2, delta=0.4), column):
        assert sc.columns is sc.columns
        with pytest.raises(ValueError):
            sc.columns[0, ...] = 1.0
    for knobs in ({"tau_c": ()}, {"tau_c": (0.2, 0.5), "delta": (0.1,)}, {"tau_c": (0.2, -0.5)}):
        with pytest.raises(ValueError):
            Scenario(**knobs)
    # every row of a column kernel call is its point call bit for bit, over
    # detuned columns like those of the quadrature moments; g = 0.05 puts
    # phases below the series threshold of the derivative
    g = np.array([0.0, 0.05, 0.7, 1.5])
    points = list(zip((0.2, 0.5, 0.9), (0.0, 0.3, 1.1), (0.4, -0.7, 1.3)))
    for alpha, cutoff in ((0.0, None), (1.4 * cmath.exp(0.3j), 10)):
        sc = Scenario(*zip(*points), alpha, fock_cutoff=cutoff)
        fld = field_for(sc)
        for ground, derivative, count in ((0, 0, 2), (1, 0, 3), (0, 1, 4), (1, 1, 5)):
            flags = {"ground": bool(ground), "derivative": bool(derivative)}
            batch = detector_matrix_elements(g, sc, fld, **flags)
            for i, point in enumerate(points):
                single = detector_matrix_elements(g, Scenario(*point, alpha), fld, **flags)
                assert len(batch) == len(single) == count
                for rows, one in zip(batch, single):
                    assert rows.shape == (3, 4) and one.shape == (4,)
                    assert rows[i].tobytes() == one.tobytes(), (alpha, flags, i)
    for sc in (column, Scenario(tau_c=(0.2, 0.5), kappa=0.3)):
        with pytest.raises(ValueError):
            reduced_state(1.0, sc, field_for(sc))


def test_damped_transit_refuses_a_field_with_photons():
    # the damped transit starts in vacuum: an explicit field with any
    # amplitude above n = 0 is an error, not silently read as vacuum
    prior = Prior.gaussian(1.0, 0.6)
    sc = Scenario(tau_c=1.0, kappa=0.3)
    for field in (FieldState.coherent(2.0), FieldState(coefficients=(0j, 1.0 + 0j))):
        with pytest.raises(ValueError, match="vacuum"):
            reduced_state(0.8, sc, field)
        with pytest.raises(ValueError, match="vacuum"):
            gamma_moments(prior, sc, field)
        with pytest.raises(ValueError, match="vacuum"):
            gamma_moments(prior, Scenario(tau_c=(1.0, 1.5), kappa=0.3), field)
    # the field a damped scenario implies is vacuum, padded or not
    for cutoff in (None, 0, 6):
        field = field_for(Scenario(tau_c=1.0, kappa=0.3, fock_cutoff=cutoff))
        assert reduced_state(0.8, sc, field) == reduced_state(0.8, sc, VACUUM)
        assert gamma_moments(prior, sc, field) == gamma_moments(prior, sc, VACUUM)


def test_dissipative_initial_state_is_excited():
    rho = reduced_state(1.0, _damped(0.0, 0.3, 0.7), VACUUM)
    assert rho.matrix.ee == pytest.approx(1.0)


def test_dissipative_matches_master_equation():
    for g, t, gamma, kappa in [
        (1.0, 1.0, 0.014, 0.246),
        (1.0, 2.3, 0.6, 0.6),
        (0.8, 1.7, 3.9, 0.1),
    ]:
        got = reduced_state(g, _damped(t, gamma, kappa), VACUUM).matrix.ee
        ref = master_equation_excited_population(g, t, gamma, kappa)
        assert got == pytest.approx(ref, abs=1e-8)


def test_dissipative_critical_damping_edge():
    # (gamma - kappa)^2 = 16 g^2: the complex root vanishes
    g = 0.25 * (3.0 - 1.0)
    got = reduced_state(g, _damped(1.3, 3.0, 1.0), VACUUM).matrix.ee
    ref = master_equation_excited_population(g, 1.3, 3.0, 1.0)
    assert got == pytest.approx(ref, abs=1e-10)


# rate pairs (gamma, kappa), each at its critical coupling g = |gamma - kappa|/4
_CRITICAL_RATES = [(0.0, 8.0), (8.0, 0.0), (0.1, 0.5), (0.5, 0.1), (0.7, 5.0), (5.0, 0.7),
                   (0.0, 60.0), (60.0, 0.0), (1.0, 2.0), (2.0, 1.0)]


@pytest.mark.parametrize("t", [1e300, 1.7e308, np.array([[1e300], [1.7e308]])],
                         ids=["1e300", "1.7e308", "column"])
def test_critical_population_at_huge_time_is_zero_without_warnings(t):
    # |b| - r and the envelope exponent reach -inf, their intended limit, and
    # the error filter turns any numpy warning into a failure
    assert not dissipative_populations(2.0, t, 0.0, 8.0).any()
    for gamma, kappa in _CRITICAL_RATES:
        g = abs(gamma - kappa) / 4.0
        f = dissipative_populations(np.array([g, -g]), t, gamma, kappa)
        assert not f.any() and f.shape == np.broadcast_shapes(np.shape(t), (2,))
    # an underdamped and an overdamped coupling, whose r = sqrt|D| t/4
    # overflows at 1.7e308: sin and cos never see it under a vanished envelope
    for g, gamma, kappa in ((3.0, 0.1, 0.1), (1.0, 0.0, 60.0)):
        assert not dissipative_populations(g, t, gamma, kappa).any()


def test_undamped_population_at_overflowed_phase_is_nan():
    # with zero rates the envelope is 1, and cos^2 of an infinite phase has no limit
    with np.errstate(invalid="ignore"):
        assert np.isnan(dissipative_populations(3.0, 1.7e308, 0.0, 0.0)).all()


def _excited_fraction_both_regimes(g_values, t, gamma, kappa):
    """The damped excited population with both regimes evaluated on every
    (time, coupling) entry and picked by np.where: the per-entry arithmetic
    the production kernel keeps while it decides each coupling's regime once."""
    g = np.asarray(g_values, dtype=float)
    disc = (gamma - kappa) ** 2 - 16.0 * g**2
    root = np.sqrt(np.abs(disc))
    over = disc > 0.0
    with np.errstate(over="ignore"):
        r = root * (t / 4.0)
        lag = 4.0 * g**2 * t / np.maximum(root + abs(kappa - gamma), 1e-300)
        m = np.expm1(-2.0 * r)
        envelope = np.where(over, -lag - min(gamma, kappa) * t / 2.0, -(gamma + kappa) * t / 4.0)
    decay = np.exp(envelope)
    phase = np.where(over | (decay == 0.0), 0.0, r)
    r_sin = np.where(over, -0.5 * m, np.sin(phase))
    crit = root == 0.0
    root_d = np.where(crit, 1.0, root)
    b_sin = np.where(crit, 0.0, (kappa - gamma) / root_d * r_sin)
    if kappa >= gamma:
        amp = np.where(over, 1.0 + 0.5 * m, np.cos(phase)) + b_sin
    else:
        lag_sin = 16.0 * g**2 / (root_d * (root_d + abs(kappa - gamma))) * r_sin
        amp = np.where(over, 1.0 + m - lag_sin, np.cos(phase) + b_sin)
    c = decay * amp + np.where(crit, (kappa - gamma) / 4.0, 0.0) * (t * decay)
    return c * c


_EDGE_TIMES = [0.0, 1e-300, 1e300, 1.7e308]


@pytest.mark.parametrize("gamma,kappa", [(0.0, 0.0), (0.6, 0.6), (0.0, 0.9), (1.3, 0.0), (0.2, 0.7),
                                         (0.7, 0.2), (3.0, 20.0), (60.0, 0.0)])
def test_dissipative_populations_bits_of_both_regime_formula(gamma, kappa):
    # every entry, NaN included (zero rates at an overflowed phase), equals
    # the np.where formula bit for bit: the critical couplings +-|gamma-kappa|/4,
    # 0 and +-1e-300 among seeded ones, at times from 0 to 1.7e308 taken
    # one at a time and as a column, for scalar, 1-D and 2-D couplings
    rng = np.random.default_rng(28)
    crit = abs(gamma - kappa) / 4.0
    g = np.concatenate([[crit, -crit, 0.0, 1e-300, -1e-300, crit / 3.0, -crit / 2.0],
                        rng.normal(1.0, 1.5, 41), rng.uniform(-crit, crit, 8)])
    times = np.concatenate([_EDGE_TIMES, rng.uniform(0.0, 12.0, 12)])
    cases = [(g, times[:, None]), (g.reshape(4, 14), times[:, None, None])]
    cases += [(x, t) for t in times.tolist() for x in (g, g.reshape(4, 14), g[5])]
    nan = False
    with np.errstate(invalid="ignore"):
        for x, t in cases:
            got = dissipative_populations(x, t, gamma, kappa)
            ref = np.minimum(_excited_fraction_both_regimes(np.atleast_1d(x), t, gamma, kappa), 1.0)
            assert got.shape == ref.shape and np.array_equal(got, ref, equal_nan=True), (x, t)
            nan |= bool(np.isnan(ref).any())
    assert nan == (gamma == kappa == 0.0)


def test_negative_rates_rejected():
    with pytest.raises(InvalidRate):
        dissipative_populations(1.0, 1.0, -0.1, 0.0)
    with pytest.raises(InvalidRate):
        dissipative_populations(1.0, 1.0, 0.0, -0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, np.array([[0.5], [math.nan], [2.0]])],
                         ids=["nan", "inf", "-inf", "column_with_nan"])
def test_non_finite_times_rejected(t):
    # Scenario refuses these times; the kernel must not return NaN for them
    for gamma, kappa in ((0.0, 0.0), (0.3, 0.8), (0.8, 0.3)):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dissipative_populations(np.array([0.0, 0.1, 1.0]), t, gamma, kappa)


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


_COUPLINGS = st.one_of(st.floats(-20.0, 20.0), st.floats(-1e-154, 1e-154),
                       st.floats(-1e150, 1e150))


@settings(max_examples=200, deadline=None)
@given(g=st.lists(_COUPLINGS, min_size=1, max_size=40),
       points=st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 30.0)),
                       min_size=1, max_size=4))
def test_resonant_vacuum_kernel_is_the_ladder_cos_squared(g, points):
    # the no-flag vacuum call skips the ladder, yet l_1 = sqrt(fl(g^2)) = |g|
    # (or the phase is too small to move cos from 1) and cos is even, so it
    # keeps the bits of the ground=True call, which still sums the ladder
    g = np.array(g)
    tc, u = (np.array(col)[:, None] for col in zip(*points))
    column = Scenario(tau_c=tuple(tc[:, 0]), tau_f_gamma=tuple(u[:, 0]))
    a_ee, a_eg = detector_matrix_elements(g, column, VACUUM)
    ladder = detector_matrix_elements(g, column, VACUUM, ground=True)[0]
    assert a_ee.tobytes() == ladder.tobytes() == (np.cos(g * tc) ** 2 * np.exp(-u)).tobytes()
    assert a_eg.dtype == complex and a_eg.shape == a_ee.shape
    assert a_eg.tobytes() == bytes(a_eg.nbytes)
    for i, (t, gamma_tau) in enumerate(points):
        one = detector_matrix_elements(g, Scenario(tau_c=t, tau_f_gamma=gamma_tau), VACUUM)
        assert one[0].tobytes() == a_ee[i].tobytes()
        assert one[1].tobytes() == a_eg[i].tobytes()


def test_resonant_vacuum_kernel_allocates_no_ladder():
    # a_ee (8 bytes a coupling) and the complex zero a_eg (16) are all it
    # holds at once: no g^2 n, l_n or phase arrays of the ladder path
    n = 10**5
    g = np.linspace(-3.0, 3.0, n)
    sc = Scenario(tau_c=(math.pi / 4.0,), tau_f_gamma=(0.2,))
    tracemalloc.start()
    try:
        detector_matrix_elements(g, sc, VACUUM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * n


def test_dissipative_rounding_excess_is_clamped(monkeypatch):
    from cavbayes import dynamics

    for raw, clamped in ((1.0 + 5e-13, 1.0),):
        monkeypatch.setattr(dynamics, "_excited_fraction", lambda *a, raw=raw: np.array([raw]))
        assert reduced_state(1.0, _damped(1.0, 0.2, 0.3), VACUUM).matrix.ee == clamped


_RATE = st.one_of(st.just(0.0), st.floats(0.0, 20.0), st.floats(0.0, 1e-2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    t=st.one_of(st.floats(0.0, 20.0), st.floats(0.0, 1e-1)),
    gamma=_RATE,
    kappa=_RATE,
    g=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=32),
    near_critical=st.floats(-1e-4, 1e-4),
)
def test_dissipative_raw_excess_within_four_ulp(t, gamma, kappa, g, near_critical):
    # the rounding excess that CLAMP_TOL = 1e-12 absorbs, measured on the raw
    # fraction over couplings of the +-8 sigma windows, transit times and
    # rates up to 20 g0, the near-critical couplings |gamma - kappa|/4 included
    from cavbayes import dynamics

    crit = abs(gamma - kappa) / 4.0
    nodes = np.array([*g, 0.0, 1e-8, crit, crit * (1.0 + near_critical)])
    f = dynamics._excited_fraction(nodes, t, gamma, kappa)
    ulp = np.spacing(1.0)
    assert np.all(f >= -4.0 * ulp) and np.all(f <= 1.0 + 4.0 * ulp)
    assert 4.0 * ulp < dynamics.CLAMP_TOL


def test_dissipative_excess_beyond_tolerance_raises(monkeypatch):
    from cavbayes import dynamics

    # a square is never negative, so a negative raw value meets the state's
    # own positivity check rather than the clamp
    for raw, error in ((1.0 + 1e-9, ArithmeticError), (-1e-9, ValueError)):
        monkeypatch.setattr(dynamics, "_excited_fraction", lambda *a, raw=raw: np.array([raw]))
        with pytest.raises(error):
            reduced_state(1.0, _damped(1.0, 0.2, 0.3), VACUUM)


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
