"""The batched evaluation path: sweeps, tau-star scan, 2x2 kernel, node rules.

Sweeps over tau_c, delta and gamma_tau_f and the tau-star coarse scan solve
all points in one batched call; these tests hold them to the point-by-point
scalar path, and the batched 2x2 kernel to numpy's dense eigensolver.
"""

import cmath
import dataclasses
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavbayes import bounds as bounds_mod
from cavbayes import mmse as mmse_mod
from cavbayes import priors as priors_mod
from cavbayes.cli import SweepSpec, find_tau_star, main, run_sweep
from cavbayes.dynamics import (
    FieldState,
    Scenario,
    dissipative_populations,
    field_for,
    reduced_state,
)
from cavbayes.errors import DegenerateGamma0
from cavbayes.oracle import gamma_moments_quadrature
from cavbayes.priors import Prior
from cavbayes.qubit import Hermitian2, QubitState, eigendecompose, solve_symmetric_product

REL_TOL = 1e-12

FIELDS = {
    "vacuum": {},
    "detuned": {"delta": 0.8},
    "coherent": {"alpha": 1.4 * cmath.exp(0.3j), "fock_cutoff": 10},
    "coherent_detuned": {"alpha": 2.5 * cmath.exp(2.0j), "fock_cutoff": 27, "delta": 0.4},
}
PRIORS = {"gaussian": Prior.gaussian(1.0, 0.6), "uniform": Prior.uniform(1.0, 0.4)}
AXIS_RANGES = {
    "tau_c": (0.05, 2.5),
    "delta": (0.0, 2.0),
    "gamma_tau_f": (0.0, 0.9),
    "g_over_g0": (0.3, 1.7),
}
_SCENARIO_FIELD = {"tau_c": "tau_c", "delta": "delta", "gamma_tau_f": "tau_f_gamma"}


def _assert_rows_close(rows, ref_rows):
    assert len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        assert len(row) == len(ref)
        for x, y in zip(row, ref):
            assert abs(x - y) <= REL_TOL * max(abs(x), abs(y)), (row, ref)


def _scalar_rows(spec: SweepSpec) -> list:
    """The sweep rebuilt one point at a time through the scalar calls."""
    prior, fld = spec.prior, field_for(spec.scenario)
    rows = []
    for v in np.linspace(spec.lo, spec.hi, spec.n_points):
        v = float(v)
        kw = dict(
            tau_c=spec.scenario.tau_c,
            tau_f_gamma=spec.scenario.tau_f_gamma,
            delta=spec.scenario.delta,
            alpha=spec.scenario.alpha,
            kappa=spec.scenario.kappa,
            gamma_cav=spec.scenario.gamma_cav,
            fock_cutoff=spec.scenario.fock_cutoff,
        )
        if spec.axis in _SCENARIO_FIELD:
            kw[_SCENARIO_FIELD[spec.axis]] = v
        sc = Scenario(**kw)
        res = mmse_mod.mmse_estimator(
            mmse_mod.gamma_moments(prior, sc, fld), sc.tau_f_gamma
        )
        if spec.quantity == "dissipative_cost":
            rows.append([v, res.c_min])
            continue
        row = [v, res.estimates[0], res.estimates[1], res.c_min]
        if spec.axis == "g_over_g0":
            g = v * prior.g0
            rho, drho = reduced_state(g, sc, fld, derivative=True)
            row.append(mmse_mod.average_estimate(res, rho))
            if spec.quantity == "mmse_cr_bound":
                rep = bounds_mod.cr_bound_mmse(res, g, rho, drho)
                row += [rep.lower_bound, rep.mse]
        rows.append(row)
    return rows


_MMSE_CASES = [
    (quantity, axis)
    for quantity in ("mmse_cost", "mmse_eigenvalues")
    for axis in ("tau_c", "delta", "gamma_tau_f")
] + [("mmse_avg_estimate", "g_over_g0"), ("mmse_cr_bound", "g_over_g0")]


@pytest.mark.parametrize("prior_kind", sorted(PRIORS))
@pytest.mark.parametrize("field_kind", sorted(FIELDS))
@pytest.mark.parametrize("quantity,axis", _MMSE_CASES)
def test_sweep_matches_scalar_path(quantity, axis, field_kind, prior_kind):
    lo, hi = AXIS_RANGES[axis]
    scenario = Scenario(tau_c=0.9, tau_f_gamma=0.2, **FIELDS[field_kind])
    spec = SweepSpec(quantity, axis, lo, hi, 5, PRIORS[prior_kind], scenario)
    _assert_rows_close(run_sweep(spec).rows, _scalar_rows(spec))


@pytest.mark.parametrize("prior_kind", sorted(PRIORS))
@pytest.mark.parametrize("rates", [(0.5, 0.3), (0.1, 0.9), (0.4, 0.4)])
def test_dissipative_sweep_matches_scalar_path(prior_kind, rates):
    gamma, kappa = rates
    scenario = Scenario(tau_c=0.6, gamma_cav=gamma, kappa=kappa)
    spec = SweepSpec("dissipative_cost", "tau_c", 0.05, 3.0, 7, PRIORS[prior_kind], scenario)
    _assert_rows_close(run_sweep(spec).rows, _scalar_rows(spec))


# tau* of these scenarios after the two vertex steps, to the last digit;
# c_min there is below a 2001-point scan over tau* +- 1e-4 plus 1e-14
_TAU_STAR = [
    (Prior.gaussian(1.0, 0.8), Scenario(tau_c=0.6, tau_f_gamma=0.4), 0.72544906451835744),
    (
        Prior.uniform(1.0, 0.5),
        Scenario(
            tau_c=0.6,
            tau_f_gamma=0.2,
            alpha=2.0 * complex(math.cos(0.5), math.sin(0.5)),
            fock_cutoff=16,
        ),
        0.55933193251459745,
    ),
    (Prior.gaussian(1.0, 1.0), Scenario(tau_c=0.6, kappa=0.4, gamma_cav=0.7), 0.55859263466012110),
]


@pytest.mark.parametrize("prior,scenario,expected", _TAU_STAR, ids=["vacuum", "coherent", "dissipative"])
def test_tau_star_unchanged(prior, scenario, expected):
    tau, c_min = find_tau_star(prior, scenario)
    assert tau == pytest.approx(expected, rel=REL_TOL)
    fld = field_for(scenario)
    fine = np.linspace(tau - 1e-4, tau + 1e-4, 2001)
    column = dataclasses.replace(scenario, tau_c=tuple(fine.tolist()))
    scan = mmse_mod.mmse_estimator(mmse_mod.gamma_moments(prior, column, fld)).c_min
    assert c_min <= scan.min() + 1e-14


def _spy_batches(monkeypatch, module, name: str, size) -> list:
    """Record ``size(args)`` of every call of ``module.name``."""
    sizes = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        sizes.append(size(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return sizes


def test_tau_star_coarse_scan_is_one_batch(monkeypatch):
    # the coarse scan makes one moment call and one solve over all its
    # points, each vertex step one of each over its triple, for a unitary
    # and a damped scenario; a damped moment call makes exactly one call of
    # the damped moments over all its points
    solves = _spy_batches(monkeypatch, mmse_mod, "mmse_estimator", lambda g, *a: np.size(g.gamma0.ee))
    moments = _spy_batches(
        monkeypatch, mmse_mod, "gamma_moments", lambda p, sc, *a: sc.columns.shape[1] if sc.columns.ndim == 2 else 0
    )
    damped = _spy_batches(
        monkeypatch, mmse_mod, "gamma_moments_dissipative", lambda p, tc, *a: np.size(tc)
    )
    for scenario in (Scenario(tau_c=0.6), Scenario(tau_c=0.6, kappa=0.4, gamma_cav=0.7)):
        for spy in (solves, moments, damped):
            spy.clear()
        find_tau_star(Prior.gaussian(1.0, 0.8), scenario)
        assert damped == ([] if scenario.kappa == 0.0 else moments)
        assert moments == solves == [300, 3, 3]


# name -> (command, config, most Scenarios built, most state-kernel calls)
_COLUMN_RUNS = {
    "resonant_tau_sweep": ("sweep", "[scenario]\nalpha_abs = 2\n[sweep]\nquantity = mmse_cost\n"
                                    "axis = tau_c\nlo = 0.05\nhi = 3\nn_points = 300\n", 4, 0),
    "damped_tau_sweep": ("sweep", "[scenario]\nkappa_over_g0 = 0.3\ngamma_over_g0 = 0.6\n[sweep]\n"
                                  "quantity = dissipative_cost\naxis = tau_c\nlo = 0.05\nhi = 3\n"
                                  "n_points = 300\n", 4, 0),
    "vacuum_tau_star": ("tau-star", "", 4, 0),
    "detuned_tau_sweep": ("sweep", "[scenario]\ndelta_over_g0 = 0.8\n[sweep]\nquantity = mmse_cost\n"
                                   "axis = tau_c\nlo = 0.05\nhi = 3\nn_points = 300\n", 21, 19),
    "detuned_tau_star": ("tau-star", "[scenario]\ndelta_over_g0 = 0.5\n", 25, 21),
}


@pytest.mark.parametrize("name", sorted(_COLUMN_RUNS))
def test_run_builds_a_few_scenarios(name, monkeypatch, tmp_path):
    # a sweep axis or the tau-star scan is one column Scenario, not one
    # Scenario per point: the config's scenario, then one per moment call;
    # a detuned moment call adds one per state-kernel call, each over a
    # chunk of points sharing a quadrature rule
    built = []
    real = Scenario.__post_init__
    monkeypatch.setattr(Scenario, "__post_init__", lambda self: built.append(real(self)))
    kernel = _spy_batches(monkeypatch, mmse_mod, "detector_matrix_elements", lambda g, sc, *a: 1)
    command, text, most_built, most_calls = _COLUMN_RUNS[name]
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
    assert 2 <= len(built) <= most_built and len(kernel) <= most_calls


def test_tau_star_is_one_library_function():
    import cavbayes
    from cavbayes import cli

    assert cavbayes.find_tau_star is cli.find_tau_star is mmse_mod.find_tau_star


_SWEEP_AXES = {
    "mmse_cost_tau": ("mmse_cost", "tau_c", 0.05, 3.0, {"alpha": 2.5, "fock_cutoff": 27}),
    "mmse_cost_u": ("mmse_cost", "gamma_tau_f", 0.0, 1.0, {"alpha": 2.5, "fock_cutoff": 27}),
    "mmse_cost_delta": ("mmse_cost", "delta", 0.0, 3.0, {}),
    "mmse_eigenvalues_tau": ("mmse_eigenvalues", "tau_c", 0.05, 3.0, {}),
    "dissipative_cost": ("dissipative_cost", "tau_c", 0.05, 3.0, {"kappa": 0.3, "gamma_cav": 0.6}),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_AXES))
def test_sweep_makes_one_moment_call_in_bounded_chunks(name, monkeypatch):
    # a 300-point sweep makes one moment call over the whole axis and one
    # solve (for the damped cost that call makes one damped-moments call
    # over all 300 times), and every (points x columns) block it evaluates
    # stays within the chunk budget (all but the vacuum tau sweep need
    # several chunks)
    quantity, axis, lo, hi, knobs = _SWEEP_AXES[name]
    moments = _spy_batches(monkeypatch, mmse_mod, "gamma_moments", lambda p, sc, *a: len(sc.columns[0]))
    damped = _spy_batches(monkeypatch, mmse_mod, "gamma_moments_dissipative", lambda p, tc, *a: len(tc))
    solves = _spy_batches(monkeypatch, mmse_mod, "mmse_estimator", lambda g, *a: len(g.gamma0.ee))
    spies = [
        _spy_batches(monkeypatch, priors_mod, fn, lambda p, omega: np.size(omega))
        for fn in ("cosine_deficits", "characteristic_moments")
    ] + [
        _spy_batches(monkeypatch, mmse_mod, "dissipative_populations", lambda g, t, *a: g.size * t.size),
    ]
    chunk_sizes = []
    real_chunks = mmse_mod._chunks

    def chunks(count, width):
        slices = real_chunks(count, width)
        chunk_sizes.extend(len(range(count)[rows]) * width for rows in slices)
        return slices

    monkeypatch.setattr(mmse_mod, "_chunks", chunks)
    scenario = Scenario(tau_c=0.6, tau_f_gamma=0.2 * (quantity != "dissipative_cost"), **knobs)
    spec = SweepSpec(quantity, axis, lo, hi, 300, PRIORS["gaussian"], scenario)
    assert len(run_sweep(spec).rows) == 300
    assert moments == solves == [300]
    assert damped == ([300] if quantity == "dissipative_cost" else [])
    blocks = [size for spy in spies for size in spy] + chunk_sizes
    assert blocks and max(blocks) <= mmse_mod._CHUNK_ELEMENTS
    assert len(blocks) > 2 or name == "mmse_eigenvalues_tau"


_FIELD_SIZES = st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 2.0 * math.pi), st.integers(0, 27))
_POINTS = st.lists(
    st.tuples(st.floats(1e-3, 3.0), st.floats(0.0, 1.0), st.one_of(st.just(0.0), st.floats(0.05, 3.0))),
    min_size=1,
    max_size=10,
)


def _moment_field(amplitude: float, phase: float, cutoff: int) -> FieldState:
    # a cutoff too tight for the amplitude falls back to the automatic one
    alpha = amplitude * cmath.exp(1j * phase)
    fld = FieldState.coherent(alpha, cutoff)
    return fld if fld.captured_mass >= 0.99 else FieldState.coherent(alpha)


def _assert_point_is_row(row, point, where):
    # a point call gives numpy scalars with the bits of its row
    for x, y in zip(row, point):
        assert isinstance(y, np.generic) and np.ndim(y) == 0, where
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), where


def _assert_rows_equal_single_calls(batch, singles):
    for i, single in enumerate(singles):
        for name in ("gamma0", "gamma1", "gamma2"):
            b, one = getattr(batch, name), getattr(single, name)
            _assert_point_is_row((b.ee[i], b.gg[i], b.eg[i]), (one.ee, one.gg, one.eg), (i, name))


def _assert_states_are_rows(prior, g, scenario, fld, derivative):
    # reduced_state and the prior density at each scalar coupling are the
    # 0-d rows of their calls on the coupling array; a damped state keeps
    # the default eg = 0
    states = reduced_state(g, scenario, fld, derivative=derivative)
    states = states if derivative else (states,)
    names = ("ee", "gg", "eg") if scenario.is_unitary_transit else ("ee", "gg")
    densities = priors_mod.density(prior, g)
    for j, coupling in enumerate(g.tolist()):
        points = reduced_state(coupling, scenario, fld, derivative=derivative)
        for m, one in zip(states, points if derivative else (points,)):
            m, one = getattr(m, "matrix", m), getattr(one, "matrix", one)
            _assert_point_is_row([getattr(m, k)[j] for k in names], [getattr(one, k) for k in names], j)
        _assert_point_is_row((densities[j],), (priors_mod.density(prior, coupling),), j)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "uniform"]),
    sigma=st.floats(0.1, 2.0),
    points=_POINTS,
    field_size=_FIELD_SIZES,
    budget=st.sampled_from([8192, 300, 1]),
)
def test_batch_rows_equal_batch_of_one(kind, sigma, points, field_size, budget):
    # every row of a batched moment call, resonant and detuned points mixed
    # and split over one or many chunks, is its point call bit for bit, and
    # the point call gives 0-d entries; so is every row of the quadrature
    # oracle, and a point's state at each scalar coupling
    prior = Prior(kind, 1.0, sigma)
    fld = _moment_field(*field_size)
    taus, us, deltas = zip(*points)
    column = Scenario(tau_c=taus, tau_f_gamma=us, delta=deltas)
    singles = [Scenario(tau_c=t, tau_f_gamma=u, delta=d) for t, u, d in points]
    with mock.patch.object(mmse_mod, "_CHUNK_ELEMENTS", budget):
        batch = mmse_mod.gamma_moments(prior, column, fld)
        quadrature = gamma_moments_quadrature(prior, column, fld)
    _assert_rows_equal_single_calls(batch, [mmse_mod.gamma_moments(prior, sc, fld) for sc in singles])
    _assert_rows_equal_single_calls(quadrature, [gamma_moments_quadrature(prior, sc, fld) for sc in singles])
    # the ladder sums are matrix-vector products, whose last bit may depend
    # on how many couplings one call holds, so each coupling is its own array
    for coupling in (0.0, 0.4, 1.3):
        _assert_states_are_rows(prior, np.array([coupling]), singles[0], fld, derivative=True)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "uniform"]),
    sigma=st.floats(0.1, 2.0),
    taus=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=10),
    rates=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
    budget=st.sampled_from([8192, 600, 1]),
)
def test_dissipative_batch_rows_equal_batch_of_one(kind, sigma, taus, rates, budget):
    # the damped twin, through gamma_moments and gamma_moments_dissipative alike
    prior, (gamma, kappa) = Prior(kind, 1.0, sigma), rates
    column = Scenario(tau_c=tuple(taus), gamma_cav=gamma, kappa=kappa)
    singles = [Scenario(tau_c=t, gamma_cav=gamma, kappa=kappa) for t in taus]
    with mock.patch.object(mmse_mod, "_CHUNK_ELEMENTS", budget):
        batch = mmse_mod.gamma_moments(prior, column, FieldState.vacuum())
        direct = mmse_mod.gamma_moments_dissipative(prior, np.array(taus), gamma, kappa)
    _assert_rows_equal_single_calls(
        batch, [mmse_mod.gamma_moments(prior, sc, FieldState.vacuum()) for sc in singles])
    _assert_rows_equal_single_calls(
        direct, [mmse_mod.gamma_moments_dissipative(prior, t, gamma, kappa) for t in taus])
    _assert_states_are_rows(prior, np.array([0.0, 0.4, 1.3]), singles[0], FieldState.vacuum(),
                            derivative=False)


@pytest.mark.parametrize("quantity", ["mmse_cost", "dissipative_cost"])
def test_sweep_from_zero_time_is_degenerate(quantity, tmp_path, capsys):
    scenario = Scenario(tau_c=0.6)
    spec = SweepSpec(quantity, "tau_c", 0.0, 1.0, 6, PRIORS["gaussian"], scenario)
    with pytest.raises(DegenerateGamma0):
        run_sweep(spec)

    cfg = tmp_path / "zero.ini"
    cfg.write_text(
        "[scenario]\ngamma_tau_f = 0.0\n"
        f"[sweep]\nquantity = {quantity}\naxis = tau_c\nlo = 0.0\nhi = 1.0\nn_points = 6\n"
    )
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numeric error:")


def test_pinned_estimator_resolved_once_per_g_sweep(monkeypatch):
    calls = []
    real = mmse_mod.gamma_moments

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mmse_mod, "gamma_moments", spy)
    scenario = Scenario(tau_c=0.9, **FIELDS["coherent"])
    run_sweep(SweepSpec("mmse_cr_bound", "g_over_g0", 0.3, 1.7, 6, PRIORS["gaussian"], scenario))
    assert len(calls) == 1


@pytest.mark.parametrize("field_kind", ["vacuum", "coherent_detuned"])
@pytest.mark.parametrize("quantity", ["mmse_avg_estimate", "mmse_cr_bound"])
def test_g_sweep_evaluates_state_once(quantity, field_kind, monkeypatch):
    # every row of a g_over_g0 sweep within one chunk comes from one
    # state-kernel call, with the derivative only where the bound needs it
    from cavbayes import dynamics

    calls = []
    real = dynamics.detector_matrix_elements

    def spy(g_values, *args, derivative=False, **kwargs):
        calls.append((len(g_values), derivative))
        return real(g_values, *args, derivative=derivative, **kwargs)

    monkeypatch.setattr(dynamics, "detector_matrix_elements", spy)
    scenario = Scenario(tau_c=0.9, tau_f_gamma=0.2, **FIELDS[field_kind])
    spec = SweepSpec(quantity, "g_over_g0", 0.3, 1.7, 11, PRIORS["gaussian"], scenario)
    assert len(run_sweep(spec).rows) == 11
    assert calls == [(11, quantity == "mmse_cr_bound")]


def test_long_g_sweep_evaluates_states_in_chunks(monkeypatch):
    # a g_over_g0 sweep past one chunk evaluates its states chunk by chunk,
    # each (couplings x ladder) grid within the budget, and its rows agree
    # with one evaluation over all couplings
    from cavbayes import dynamics

    scenario = Scenario(tau_c=0.9, tau_f_gamma=0.2, **FIELDS["coherent_detuned"])
    spec = SweepSpec("mmse_cr_bound", "g_over_g0", 0.3, 1.7, 400, PRIORS["gaussian"], scenario)
    with mock.patch.object(mmse_mod, "_CHUNK_ELEMENTS", 10**9):
        whole = run_sweep(spec).rows
    calls = _spy_batches(monkeypatch, dynamics, "detector_matrix_elements", lambda g, *a: len(g))
    _assert_rows_close(run_sweep(spec).rows, whole)
    levels = len(field_for(scenario).coefficients)
    assert sum(calls) == 400 and len(calls) > 2 and max(calls) * levels <= mmse_mod._CHUNK_ELEMENTS


def _spy_povm_and_rule_calls(monkeypatch) -> list:
    """Record every POVM build and every quadrature rule, by name."""
    from cavbayes import ml as ml_mod

    calls = []
    for module, name in (
        (ml_mod, "gaussian_ml_povm"),
        (ml_mod, "uniform_ml_povm"),
        (priors_mod, "quadrature"),
    ):
        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("prior_kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("quantity", ["ml_avg_estimate", "ml_cr_bound"])
def test_ml_g_sweep_builds_one_povm_and_one_rule(quantity, prior_kind, monkeypatch):
    # the POVM does not depend on the true coupling: every row of a
    # g_over_g0 sweep comes from one POVM, and the exact f_z moments need
    # no quadrature rule at all
    calls = _spy_povm_and_rule_calls(monkeypatch)
    scenario = Scenario(tau_c=0.9, tau_f_gamma=0.2)
    spec = SweepSpec(quantity, "g_over_g0", 0.3, 1.7, 11, PRIORS[prior_kind], scenario)
    assert len(run_sweep(spec).rows) == 11
    assert calls == [f"{prior_kind}_ml_povm"]


_ML_SWEEPS = [
    ("ml_cost", "tau_c", 0.05, 2.5),
    ("ml_cost", "gamma_tau_f", 0.0, 2.0),
    ("ml_avg_estimate", "tau_c", 0.05, 2.5),
    ("ml_avg_estimate", "g_over_g0", 0.3, 1.7),
    ("ml_cr_bound", "g_over_g0", 0.3, 1.7),
]


@pytest.mark.parametrize("prior_kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("quantity,axis,lo,hi", _ML_SWEEPS)
def test_ml_sweeps_build_no_quadrature_rule(quantity, axis, lo, hi, prior_kind, monkeypatch):
    # every axis takes one POVM: along tau_c and gamma_tau_f its column
    calls = _spy_povm_and_rule_calls(monkeypatch)
    scenario = Scenario(tau_c=0.9, tau_f_gamma=0.2)
    spec = SweepSpec(quantity, axis, lo, hi, 7, PRIORS[prior_kind], scenario)
    assert len(run_sweep(spec).rows) == 7
    assert calls == [f"{prior_kind}_ml_povm"]


@pytest.mark.parametrize("prior_kind", ["gaussian", "uniform"])
def test_ml_command_builds_no_quadrature_rule(prior_kind, monkeypatch, tmp_path, capsys):
    calls = _spy_povm_and_rule_calls(monkeypatch)
    cfg = tmp_path / "ml.ini"
    cfg.write_text(f"[prior]\nkind = {prior_kind}\n[scenario]\ng0_tau_c = 0.9\n")
    assert main(["ml", "--config", str(cfg)]) == 0
    assert calls == [f"{prior_kind}_ml_povm"]


_RESONANT_RUNS = {
    "mmse_vacuum": ("mmse", "[scenario]\ng0_tau_c = 0.9\ngamma_tau_f = 0.2\n"),
    "mmse_coherent": ("mmse", "[prior]\nkind = uniform\n[scenario]\nalpha_abs = 1.5\n"),
    "sweep_mmse_cost": (
        "sweep",
        "[scenario]\nalpha_abs = 1.0\n"
        "[sweep]\nquantity = mmse_cost\naxis = tau_c\nlo = 0.1\nhi = 2\nn_points = 6\n",
    ),
    "sweep_mmse_eigenvalues": (
        "sweep",
        "[prior]\nkind = uniform\n"
        "[sweep]\nquantity = mmse_eigenvalues\naxis = gamma_tau_f\nlo = 0\nhi = 1\nn_points = 6\n",
    ),
    "tau_star_vacuum": ("tau-star", "[scenario]\ngamma_tau_f = 0.3\n"),
    "tau_star_coherent": ("tau-star", "[prior]\nkind = uniform\n[scenario]\nalpha_abs = 1.2\n"),
}


@pytest.mark.parametrize("name", sorted(_RESONANT_RUNS))
def test_resonant_mmse_runs_build_no_quadrature_rule(name, monkeypatch, tmp_path, capsys):
    # at Delta = 0 the moment operators are exact ladder sums of the prior's
    # characteristic moments, for any field
    calls = _spy_povm_and_rule_calls(monkeypatch)
    command, text = _RESONANT_RUNS[name]
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg)]) == 0
    assert calls == []


# ---------------------------------------------------------------------------
# dissipative populations


def _excited_fraction_reference(g: float, t: float, gamma: float, kappa: float) -> float:
    """The damped-Rabi excited population for one coupling value, in 50-digit
    arithmetic from the textbook grouping (cosh s - 1)/s^2 and sinh(s)/s."""
    with mpmath.workdps(50):
        g, t, gamma, kappa = (mpmath.mpf(x) for x in (g, t, gamma, kappa))
        s = mpmath.sqrt(mpmath.mpc((gamma - kappa) ** 2 - 16 * g**2)) * t / 2
        c2, s1 = ((mpmath.cosh(s) - 1) / s**2, mpmath.sinh(s) / s) if s else (0.5, 1)
        val = mpmath.exp(-(gamma + kappa) * t / 2) * (
            mpmath.cosh(s) + 2 * g**2 * t**2 * c2 + (kappa - gamma) * (t / 2) * s1
        )
        return float(val.real)


@pytest.mark.parametrize("gamma,kappa,t", [(0.9, 0.1, 1.3), (0.2, 0.6, 2.5), (0.5, 0.5, 0.7), (3.0, 0.2, 4.0)])
def test_dissipative_populations_match_scalar_formula(gamma, kappa, t):
    g_crit = abs(gamma - kappa) / 4.0  # Omega = 0: the series branch
    nodes = np.concatenate(
        [
            np.linspace(-2.0, 3.0, 101),
            [g_crit, g_crit * (1 + 1e-12), g_crit * (1 - 1e-12), g_crit + 1e-9, 0.0],
        ]
    )
    pops = dissipative_populations(nodes, t, gamma, kappa)
    ref = np.array([_excited_fraction_reference(float(g), t, gamma, kappa) for g in nodes])
    assert pops.shape == nodes.shape
    np.testing.assert_allclose(pops, ref, rtol=1e-14, atol=1e-15)
    # the single-coupling state reads the same formula
    damped = Scenario(tau_c=t, gamma_cav=gamma, kappa=kappa)
    f = reduced_state(float(nodes[3]), damped, FieldState.vacuum()).matrix.ee
    assert f == pytest.approx(min(max(ref[3], 0.0), 1.0), abs=1e-15)
    # a column of times gives one row per time, each equal to its own call
    times = np.array([[0.0], [t / 3.0], [t]])
    grid = dissipative_populations(nodes, times, gamma, kappa)
    assert grid.shape == (3, len(nodes))
    for row, tt in zip(grid, times[:, 0]):
        assert np.array_equal(row, dissipative_populations(nodes, tt, gamma, kappa))


@pytest.mark.parametrize("gamma,kappa,t", [(1.2, 0.2, 3.0), (0.9, 0.1, 1.3), (0.2, 0.6, 2.5), (3.0, 0.2, 4.0)])
@pytest.mark.parametrize("regime", [1.0, -1.0])  # overdamped: Omega real; underdamped: imaginary
def test_excited_fraction_near_critical_damping(gamma, kappa, t, regime):
    # |s| = |Omega| t / 2 from 1e-6 to 1 on either side of critical damping,
    # where (cosh s - 1)/s^2 would cancel: hold f to 1e-15 absolute
    s = np.geomspace(1e-6, 1.0, 25)
    g2 = ((gamma - kappa) ** 2 - regime * (2.0 * s / t) ** 2) / 16.0
    g = np.sqrt(g2[g2 >= 0.0])
    pops = dissipative_populations(g, t, gamma, kappa)
    ref = np.array([_excited_fraction_reference(float(x), t, gamma, kappa) for x in g])
    assert np.max(np.abs(pops - ref)) <= 1e-15


@pytest.mark.parametrize("kappa", [0.5, 5.0, 20.0, 60.0, 200.0])
@pytest.mark.parametrize("gamma", [0.0, 0.7, 30.0])
def test_long_damped_transit_state_is_finite(kappa, gamma, tmp_path):
    # past Omega t / 2 ~ 709 the hyperbolic terms alone overflow; folded with
    # the decay envelope, every damped state is the 50-digit population
    times = [1.0, 10.0, 30.0, 80.0] + ([40.0, 50.0] if (kappa, gamma) == (60.0, 0.0) else [])
    for t in times:
        cfg, out = tmp_path / "run.ini", tmp_path / "out.csv"
        cfg.write_text(f"[scenario]\ng0_tau_c = {t!r}\nkappa_over_g0 = {kappa!r}\n"
                       f"gamma_over_g0 = {gamma!r}\n")
        assert main(["state", "--config", str(cfg), "--out", str(out)]) == 0, t
        rho_ee = float(out.read_text().splitlines()[1].split(",")[1])
        ref = _excited_fraction_reference(1.0, t, gamma, kappa)
        assert rho_ee == pytest.approx(ref, rel=1e-13, abs=1e-15), t
    if (kappa, gamma) == (60.0, 0.0):
        for t, f in ((30.0, 0.135335), (40.0, 0.069432), (50.0, 0.035621)):
            assert _excited_fraction_reference(1.0, t, gamma, kappa) == pytest.approx(f, abs=1e-6)


# ---------------------------------------------------------------------------
# batched 2x2 kernel


def _hermitian_batches(min_size=1, max_size=12):
    # subnormal entries included: such matrices are rescaled before their
    # eigenvalues are taken
    entry = st.floats(-3.0, 3.0, allow_subnormal=True)
    return st.lists(st.tuples(entry, entry, entry, entry), min_size=min_size, max_size=max_size)


def _stack(items) -> Hermitian2:
    """The batch holding the single matrices ``items`` in order."""
    return Hermitian2(
        ee=np.array([m.ee for m in items], dtype=float),
        gg=np.array([m.gg for m in items], dtype=float),
        eg=np.array([m.eg for m in items], dtype=complex),
    )


def _row(m: Hermitian2, i: int) -> Hermitian2:
    """Matrix ``i`` of the batch ``m``."""
    eg = m.eg[i] if np.ndim(m.eg) else m.eg
    return Hermitian2(ee=float(m.ee[i]), gg=float(m.gg[i]), eg=complex(eg))


def _batch(entries) -> Hermitian2:
    return _stack([Hermitian2(a, b, complex(c, d)) for a, b, c, d in entries])


@settings(max_examples=60, deadline=None)
@given(_hermitian_batches())
def test_batched_eigendecomposition_matches_eigh(entries):
    m = _batch(entries)
    w, v = eigendecompose(m)
    dense = m.as_array()
    ref = np.linalg.eigvalsh(dense)
    scale = 1.0 + np.max(np.abs(dense), axis=(1, 2))
    assert np.all(np.abs(w - ref) <= 1e-12 * scale[:, None])
    eye = np.eye(2)
    for i in range(len(entries)):
        assert np.allclose(v[i].conj().T @ v[i], eye, atol=1e-12)
        recon = v[i] @ np.diag(w[i]) @ v[i].conj().T
        assert np.max(np.abs(recon - dense[i])) <= 1e-12 * scale[i]
        # every batch entry is the single-matrix call, bit for bit
        w1, v1 = eigendecompose(_row(m, i))
        assert np.array_equal(w1, w[i]) and np.array_equal(v1, v[i])


@settings(max_examples=60, deadline=None)
@given(_hermitian_batches(), st.floats(0.05, 2.0))
def test_batched_solve_satisfies_operator_equation(entries, shift):
    x = _batch(entries).as_array()
    g0_dense = x @ np.conj(np.swapaxes(x, -1, -2)) + shift * np.eye(2)
    g1_dense = _batch(entries[::-1]).as_array()
    g0 = Hermitian2(ee=g0_dense[:, 0, 0].real, gg=g0_dense[:, 1, 1].real, eg=g0_dense[:, 0, 1])
    g1 = Hermitian2(ee=g1_dense[:, 0, 0].real, gg=g1_dense[:, 1, 1].real, eg=g1_dense[:, 0, 1])
    m = solve_symmetric_product(g0, g1)
    m_dense = m.as_array()
    residual = g0_dense @ m_dense + m_dense @ g0_dense - 2.0 * g1_dense
    scale = 1.0 + np.max(np.abs(g1_dense), axis=(1, 2)) * (
        1.0 + np.max(np.abs(g0_dense), axis=(1, 2)) / shift
    )
    assert np.all(np.max(np.abs(residual), axis=(1, 2)) <= 1e-11 * scale)
    for i in range(len(entries)):
        single = solve_symmetric_product(_row(g0, i), _row(g1, i))
        assert (single.ee, single.gg, single.eg) == (_row(m, i).ee, _row(m, i).gg, _row(m, i).eg)


@pytest.mark.parametrize("split", [0.0, 1e-18, 1e-12, 1e-6, 5e-4, 2e-3])
@pytest.mark.parametrize("coupling", [1e-18j, 3e-13 + 1e-13j, 2e-9])
def test_near_degenerate_weight_keeps_orthonormal_basis(split, coupling):
    # the eigenvalue split sits at or below the rounding of the mean, or a
    # little below and above 1e-3 of the trace
    g0 = Hermitian2(0.5 + split, 0.5 - split, coupling)
    w, v = eigendecompose(g0)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)
    assert np.allclose(v @ np.diag(w) @ v.conj().T, g0.as_array(), atol=1e-15)
    g1 = Hermitian2(0.3, -0.1, 0.2 + 0.4j)
    m = solve_symmetric_product(g0, g1).as_array()
    g0_arr = g0.as_array()
    residual = g0_arr @ m + m @ g0_arr - 2.0 * g1.as_array()
    assert np.max(np.abs(residual)) < 1e-14


@pytest.mark.parametrize(
    "m",
    [
        Hermitian2(0.0, 0.0, 5e-324 * (1 + 1j)),
        Hermitian2(1e-310, -3e-310, 2e-310 - 1e-311j),
        Hermitian2(2.0**-600, 0.0, 1j * 2.0**-601),
        Hermitian2(1e300, -3e300, 2e300 + 1e299j),
        Hermitian2(1e300, 1e300, -1e300j),
        Hermitian2(1.0, 0.5, 5e-324 * (1 + 1j)),
    ],
)
def test_subnormal_matrix_keeps_orthonormal_basis(m):
    # entries far below or above unit scale, whose squares under- or overflow,
    # and a subnormal coherence beside unit-scale populations
    w, v = eigendecompose(m)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-15)
    scale = np.max(np.abs(m.as_array()))
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m.as_array())) <= 1e-15 * scale + 5e-324
    if scale < 2.0**-500:
        # rescaled exactly first: the basis of the matrix at unit scale, bit for bit
        k = -np.frexp(scale)[1]
        eg = complex(np.ldexp(m.eg.real, k), np.ldexp(m.eg.imag, k))
        unit = Hermitian2(np.ldexp(m.ee, k), np.ldexp(m.gg, k), eg)
        assert np.array_equal(eigendecompose(unit)[1], v)
    # the rescale touches that row only: its neighbours keep their bits
    batch = _stack([Hermitian2(0.3, 0.7, 0.2j), m, Hermitian2(1.0, -1.0, 0.5)])
    wb, vb = eigendecompose(batch)
    for i, row in enumerate([Hermitian2(0.3, 0.7, 0.2j), m, Hermitian2(1.0, -1.0, 0.5)]):
        w1, v1 = eigendecompose(row)
        assert np.array_equal(w1, wb[i]) and np.array_equal(v1, vb[i])


def test_mixed_batch_rows_equal_single_calls():
    # diagonal, near-degenerate, generic and tiny-scale rows side by side
    rows = [
        Hermitian2(0.7, 0.3),
        Hermitian2(0.5, 0.5),
        Hermitian2(0.5 + 1e-17, 0.5, 2e-18j),
        Hermitian2(0.2, 0.9, 0.3 - 0.1j),
        Hermitian2(3e-160, 1e-160, 2e-160 + 1e-160j),
    ]
    w, v = eigendecompose(_stack(rows))
    for i, m in enumerate(rows):
        w1, v1 = eigendecompose(m)
        assert np.array_equal(w1, w[i]) and np.array_equal(v1, v[i])
        assert np.allclose(v1.conj().T @ v1, np.eye(2), atol=1e-14)
        scale = np.max(np.abs(m.as_array()))
        assert np.allclose(v1 @ np.diag(w1) @ v1.conj().T, m.as_array(), atol=1e-14 * scale)


def test_batched_solve_names_first_degenerate_entry():
    g0 = _stack([Hermitian2(0.5, 0.5), Hermitian2(1.0, 0.0), Hermitian2(0.7, 0.3)])
    g1 = _stack([Hermitian2(0.2, 0.3)] * 3)
    with pytest.raises(DegenerateGamma0, match="pair sums 0.0 <= 1e-14"):
        solve_symmetric_product(g0, g1)
    # per-entry floors
    ok = solve_symmetric_product(_row(g0, 0), _row(g1, 0), pair_floor=np.array([0.5]))
    assert ok.ee == pytest.approx(0.4)
    with pytest.raises(DegenerateGamma0):
        solve_symmetric_product(
            _stack([_row(g0, 0), _row(g0, 2)]),
            _stack([_row(g1, 0), _row(g1, 2)]),
            pair_floor=np.array([0.5, 0.7]),
        )


@pytest.mark.parametrize("field_kind", ["detuned", "coherent", "coherent_detuned"])
def test_batched_sld_rows_equal_single_calls(field_kind):
    # the SLD of a batch of states is the 0-d call on each state, bit for bit,
    # at pure-state edges (rank-deficient rho) as well
    sc = Scenario(tau_c=0.9, tau_f_gamma=0.2, **FIELDS[field_kind])
    g = np.concatenate([np.linspace(0.0, 3.0, 37), [math.pi / 1.8, 1e-9]])
    rho, drho = reduced_state(g, sc, field_for(sc), derivative=True)
    batch = bounds_mod.sld_general(rho, drho)
    for i in range(len(g)):
        single = bounds_mod.sld_general(QubitState(_row(rho.matrix, i)), _row(drho, i))
        assert (single.ee, single.gg, single.eg) == (batch.ee[i], batch.gg[i], batch.eg[i])


def test_estimator_and_sld_make_no_matrix_products(monkeypatch):
    # the solve and the cost are elementwise real arithmetic: no stacked
    # (2, 2) product and no dense matrix is formed, for a batch or a point
    calls = []
    real_matmul, real_as_array = np.matmul, Hermitian2.as_array

    def matmul(*args, **kwargs):
        calls.append("matmul")
        return real_matmul(*args, **kwargs)

    def as_array(self):
        calls.append("as_array")
        return real_as_array(self)

    sc = Scenario(tau_c=(0.3, 0.9, 1.7), tau_f_gamma=0.2, **FIELDS["coherent_detuned"])
    point = dataclasses.replace(sc, tau_c=0.9)
    fld = field_for(sc)
    triples = [mmse_mod.gamma_moments(PRIORS["gaussian"], s, fld) for s in (sc, point)]
    states = [reduced_state(g, point, fld, derivative=True) for g in (np.linspace(0.3, 1.7, 5), 0.8)]
    monkeypatch.setattr(np, "matmul", matmul)
    monkeypatch.setattr(Hermitian2, "as_array", as_array)
    for triple in triples:
        mmse_mod.mmse_estimator(triple, 0.2)
    for rho, drho in states:
        bounds_mod.sld_general(rho, drho)
    assert calls == []


def test_batched_estimator_rows_equal_single_solves():
    prior = Prior.uniform(1.0, 0.7)
    us = [0.0, 0.5, 1.2]
    column = Scenario(tau_c=(0.3, 0.9, 1.7), tau_f_gamma=tuple(us))
    triples = mmse_mod.gamma_moments(prior, column, FieldState.vacuum())
    batch = mmse_mod.mmse_estimator(triples, us)
    for i, u in enumerate(us):
        row = mmse_mod.GammaTriple(*(_row(m, i) for m in (triples.gamma0, triples.gamma1, triples.gamma2)))
        single = mmse_mod.mmse_estimator(row, u)
        assert (batch.estimates[0][i], batch.estimates[1][i]) == single.estimates
        assert batch.c_min[i] == single.c_min
        assert np.array_equal(batch.projectors[i], single.projectors)


# ---------------------------------------------------------------------------
# cached Legendre base rule


def test_cached_base_rule_is_read_only():
    base_x, base_w = priors_mod._legendre_base()
    assert base_x is priors_mod._legendre_base()[0]
    with pytest.raises(ValueError):
        base_x[0] = 0.0
    with pytest.raises(ValueError):
        base_w[0] = 0.0


def test_rules_never_share_writable_arrays():
    prior = Prior.gaussian(1.0, 0.5)
    a = priors_mod.quadrature(prior, 256)
    b = priors_mod.quadrature(prior, 256)
    for x in (a.nodes, a.weights):
        for y in (b.nodes, b.weights):
            assert not np.shares_memory(x, y)
    a.nodes[0] += 1.0  # writing one rule leaves the other and the base intact
    assert b.nodes[0] == priors_mod.quadrature(prior, 256).nodes[0]
    base_x, _ = priors_mod._legendre_base()
    assert not np.shares_memory(a.nodes, base_x)


def test_field_captured_mass_computed_once():
    fld = FieldState.coherent(2.3, 25)
    assert "captured_mass" in vars(fld)  # filled by the norm check on creation
    assert fld.captured_mass == float(sum(abs(c) ** 2 for c in fld.coefficients))
    twin = FieldState.coherent(2.3, 25)
    assert twin == fld and hash(twin) == hash(fld)
