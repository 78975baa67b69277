"""The batched evaluation path: sweeps, tau-star scan, 2x2 kernel, node rules.

Sweeps over tau_c, delta and gamma_tau_f and the tau-star coarse scan solve
all points in one batched call; these tests hold them to the point-by-point
scalar path, and the batched 2x2 kernel to numpy's dense eigensolver.
"""

import cmath
import math

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
    dissipative_state,
    field_for,
)
from cavbayes.errors import DegenerateGamma0
from cavbayes.priors import Prior
from cavbayes.qubit import Hermitian2, eigendecompose, solve_symmetric_product

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
        if spec.quantity == "dissipative_cost":
            gammas = mmse_mod.gamma_moments_dissipative(prior, v, sc.gamma_cav, sc.kappa)
            rows.append([v, mmse_mod.mmse_estimator(gammas).c_min])
            continue
        res = mmse_mod.mmse_estimator(
            mmse_mod.gamma_moments(prior, sc, fld), sc.tau_f_gamma
        )
        row = [v, res.estimates[0], res.estimates[1], res.c_min]
        if spec.axis == "g_over_g0":
            g = v * prior.g0
            row.append(mmse_mod.average_estimate(res, g, sc, fld))
            if spec.quantity == "mmse_cr_bound":
                rep = bounds_mod.cr_bound_mmse(res, g, sc, fld)
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


# tau* of these scenarios before the scan was batched, to the last digit
_TAU_STAR = [
    (Prior.gaussian(1.0, 0.8), Scenario(tau_c=0.6, tau_f_gamma=0.4), 0.72541970763822716),
    (
        Prior.uniform(1.0, 0.5),
        Scenario(
            tau_c=0.6,
            tau_f_gamma=0.2,
            alpha=2.0 * complex(math.cos(0.5), math.sin(0.5)),
            fock_cutoff=16,
        ),
        0.55934343204126180,
    ),
    (Prior.gaussian(1.0, 1.0), Scenario(tau_c=0.6, kappa=0.4, gamma_cav=0.7), 0.55856465468445005),
]


@pytest.mark.parametrize("prior,scenario,expected", _TAU_STAR, ids=["vacuum", "coherent", "dissipative"])
def test_tau_star_unchanged(prior, scenario, expected):
    assert find_tau_star(prior, scenario) == pytest.approx(expected, rel=REL_TOL)


def test_tau_star_coarse_scan_is_one_batch(monkeypatch):
    # the coarse scan makes one solve over all its points, the golden
    # section one solve per refinement step
    sizes = []
    real = mmse_mod.mmse_estimator

    def spy(gammas, gamma_tau_f=0.0):
        sizes.append(np.size(gammas.gamma0.ee))
        return real(gammas, gamma_tau_f)

    monkeypatch.setattr(mmse_mod, "mmse_estimator", spy)
    find_tau_star(Prior.gaussian(1.0, 0.8), Scenario(tau_c=0.6), coarse_points=300)
    assert sizes[0] == 300
    assert set(sizes[1:]) == {1}


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
    # every row of a g_over_g0 sweep comes from one state-kernel call, with
    # the derivative only where the bound needs it
    from cavbayes import dynamics

    calls = []
    real = dynamics.detector_matrix_elements

    def spy(g_values, *args, derivative=False):
        calls.append((len(g_values), derivative))
        return real(g_values, *args, derivative=derivative)

    monkeypatch.setattr(dynamics, "detector_matrix_elements", spy)
    scenario = Scenario(tau_c=0.9, tau_f_gamma=0.2, **FIELDS[field_kind])
    spec = SweepSpec(quantity, "g_over_g0", 0.3, 1.7, 11, PRIORS["gaussian"], scenario)
    assert len(run_sweep(spec).rows) == 11
    assert calls == [(11, quantity == "mmse_cr_bound")]


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
    calls = _spy_povm_and_rule_calls(monkeypatch)
    scenario = Scenario(tau_c=0.9, tau_f_gamma=0.2)
    spec = SweepSpec(quantity, axis, lo, hi, 7, PRIORS[prior_kind], scenario)
    assert len(run_sweep(spec).rows) == 7
    assert "quadrature" not in calls and calls


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


def _scalar_excited_fraction(g: float, t: float, gamma: float, kappa: float) -> float:
    """The damped-Rabi excited population for one coupling value."""
    omega = np.sqrt(complex((gamma - kappa) ** 2 - 16.0 * g**2))
    s = omega * t / 2.0
    if abs(s) < 1e-4:
        s2 = s * s
        c2 = 0.5 + s2 / 24.0 + s2 * s2 / 720.0
        s1 = 1.0 + s2 / 6.0 + s2 * s2 / 120.0
        cosh_s = 1.0 + s2 / 2.0 + s2 * s2 / 24.0
    else:
        c2 = (np.cosh(s) - 1.0) / (s * s)
        s1 = np.sinh(s) / s
        cosh_s = np.cosh(s)
    val = np.exp(-(gamma + kappa) * t / 2.0) * (
        cosh_s + 2.0 * g**2 * t**2 * c2 + (kappa - gamma) * (t / 2.0) * s1
    )
    assert abs(val.imag) < 1e-12
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
    ref = np.array([_scalar_excited_fraction(float(g), t, gamma, kappa) for g in nodes])
    assert pops.shape == nodes.shape
    np.testing.assert_allclose(pops, ref, rtol=1e-14, atol=1e-15)
    # the single-coupling state reads the same formula
    f = dissipative_state(float(nodes[3]), t, gamma, kappa).excited_population
    assert f == pytest.approx(min(max(ref[3], 0.0), 1.0), abs=1e-15)


def test_dissipative_populations_reject_imaginary_residue(monkeypatch):
    real_cosh = np.cosh
    monkeypatch.setattr(np, "cosh", lambda s: real_cosh(s) + 1e-6j)
    with pytest.raises(ArithmeticError):
        dissipative_populations(np.linspace(0.5, 1.5, 9), 1.0, 0.3, 0.2)


# ---------------------------------------------------------------------------
# batched 2x2 kernel


def _hermitian_batches(min_size=1, max_size=12):
    # subnormal entries included: such matrices are rescaled before their
    # eigenvalues are taken
    entry = st.floats(-3.0, 3.0, allow_subnormal=True)
    return st.lists(st.tuples(entry, entry, entry, entry), min_size=min_size, max_size=max_size)


def _batch(entries) -> Hermitian2:
    return Hermitian2.stack([Hermitian2(a, b, complex(c, d)) for a, b, c, d in entries])


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
        w1, v1 = eigendecompose(m.row(i))
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
        single = solve_symmetric_product(g0.row(i), g1.row(i))
        assert (single.ee, single.gg, single.eg) == (m.row(i).ee, m.row(i).gg, m.row(i).eg)


@pytest.mark.parametrize("split", [0.0, 1e-18, 1e-12, 1e-6])
@pytest.mark.parametrize("coupling", [1e-18j, 3e-13 + 1e-13j, 2e-9])
def test_near_degenerate_weight_keeps_orthonormal_basis(split, coupling):
    # the eigenvalue split sits at or below the rounding of the mean
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
    ],
)
def test_subnormal_matrix_keeps_orthonormal_basis(m):
    w, v = eigendecompose(m)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-15)
    scale = np.max(np.abs(m.as_array()))
    assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m.as_array())) <= 1e-15 * scale + 5e-324
    # the rescale touches that row only: its neighbours keep their bits
    batch = Hermitian2.stack([Hermitian2(0.3, 0.7, 0.2j), m, Hermitian2(1.0, -1.0, 0.5)])
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
    w, v = eigendecompose(Hermitian2.stack(rows))
    for i, m in enumerate(rows):
        w1, v1 = eigendecompose(m)
        assert np.array_equal(w1, w[i]) and np.array_equal(v1, v[i])
        assert np.allclose(v1.conj().T @ v1, np.eye(2), atol=1e-14)
        scale = np.max(np.abs(m.as_array()))
        assert np.allclose(v1 @ np.diag(w1) @ v1.conj().T, m.as_array(), atol=1e-14 * scale)


def test_batched_solve_names_first_degenerate_entry():
    g0 = Hermitian2.stack([Hermitian2(0.5, 0.5), Hermitian2(1.0, 0.0), Hermitian2(0.7, 0.3)])
    g1 = Hermitian2.stack([Hermitian2(0.2, 0.3)] * 3)
    with pytest.raises(DegenerateGamma0, match="pair sums 0.0 <= 1e-14"):
        solve_symmetric_product(g0, g1)
    # per-entry floors
    ok = solve_symmetric_product(g0.row(0), g1.row(0), pair_floor=np.array([0.5]))
    assert ok.ee == pytest.approx(0.4)
    with pytest.raises(DegenerateGamma0):
        solve_symmetric_product(
            Hermitian2.stack([g0.row(0), g0.row(2)]),
            Hermitian2.stack([g1.row(0), g1.row(2)]),
            pair_floor=np.array([0.5, 0.7]),
        )


def test_batched_estimator_rows_equal_single_solves():
    prior = Prior.uniform(1.0, 0.7)
    triples = [mmse_mod.gamma_moments(prior, Scenario(tau_c=tc, tau_f_gamma=u), FieldState.vacuum()) for tc, u in ((0.3, 0.0), (0.9, 0.5), (1.7, 1.2))]
    us = [0.0, 0.5, 1.2]
    batch = mmse_mod.mmse_estimator(mmse_mod.GammaTriple.stack(triples), us)
    for i, (gammas, u) in enumerate(zip(triples, us)):
        single = mmse_mod.mmse_estimator(gammas, u)
        row = batch.row(i)
        assert row.estimates == single.estimates
        assert row.c_min == single.c_min
        assert np.array_equal(row.projectors, single.projectors)


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
