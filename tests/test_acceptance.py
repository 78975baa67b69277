"""Acceptance suite: one test per release criterion, then the model's exact
invariants as properties over a box of priors and scenarios.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Every tolerance is pinned here; measured values are printed for
the record.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import branch_estimates

from cavbayes.bounds import cr_bound_ml, cr_bound_mmse
from cavbayes.cli import find_tau_star
from cavbayes.dynamics import (
    FieldState,
    Scenario,
    dissipative_populations,
    field_for,
    reduced_state,
)
from cavbayes.ml import (
    gaussian_cost_max,
    gaussian_ml_povm,
    interval_audit,
    uniform_cmax,
    uniform_cost_max,
    uniform_ml_povm,
)
from cavbayes.mmse import (
    gamma_moments,
    limit_eigenvalue_tau0,
    mmse_estimator,
)
from cavbayes.oracle import (average_cost_quadrature, gamma_moments_quadrature, mc_estimate_distribution,
                             mc_quadratic_cost)
from cavbayes.priors import Prior

VACUUM = FieldState.vacuum()
GAUSS = Prior.gaussian(1.0, 1.0)
UNIF = Prior.uniform(1.0, 1.0)
SEED = 20260810


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


def cost_unitary(prior, tau_c, alpha=0.0, delta=0.0, u=0.0):
    sc = Scenario(tau_c=tau_c, delta=delta, alpha=alpha, tau_f_gamma=u)
    return mmse_estimator(gamma_moments(prior, sc, field_for(sc))).c_min


def test_criterion_01_full_swap_anchor():
    res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 2.0), VACUUM))
    assert res.estimates[0] == pytest.approx(1.0, abs=1e-12)
    assert res.estimates[1] == pytest.approx(1.0, abs=1e-12)
    assert abs(res.m_min.eg) < 1e-12
    assert res.c_min == pytest.approx(1.0, abs=1e-12)

    res_q = mmse_estimator(gamma_moments_quadrature(GAUSS, Scenario(tau_c=math.pi / 2.0), VACUUM))
    assert res_q.estimates[0] == pytest.approx(1.0, abs=1e-8)
    assert res_q.estimates[1] == pytest.approx(1.0, abs=1e-8)
    assert res_q.c_min == pytest.approx(1.0, abs=1e-8)
    report("01 full-swap anchor", f"closed c_min={res.c_min!r}, quad c_min={res_q.c_min!r}")


def test_criterion_02_half_swap_anchor():
    k = (math.pi / 2.0) * math.exp(-math.pi**2 / 8.0)
    c_ref = 1.0 - (math.pi**2 / 4.0) * math.exp(-math.pi**2 / 4.0)
    res_c = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 4.0), VACUUM))
    res_q = mmse_estimator(gamma_moments_quadrature(GAUSS, Scenario(tau_c=math.pi / 4.0), VACUUM))
    for res, tol in ((res_c, 1e-12), (res_q, 1e-8)):
        assert res.estimates[0] == pytest.approx(1.0 - k, abs=tol)
        assert res.estimates[1] == pytest.approx(1.0 + k, abs=tol)
        assert res.c_min == pytest.approx(c_ref, abs=tol)
    assert res_q.c_min == pytest.approx(res_c.c_min, abs=1e-8)
    report("02 half-swap anchor", f"eigenvalues 1 -/+ {k:.6f}, c_min={c_ref:.6f}")


def test_criterion_03_short_time_limit():
    details = []
    for prior in (GAUSS, UNIF):
        res = mmse_estimator(gamma_moments(prior, Scenario(tau_c=1e-5), VACUUM))
        _, ground = branch_estimates(res)
        limit = limit_eigenvalue_tau0(prior)
        assert ground == pytest.approx(limit, abs=1e-3 * prior.g0)
        details.append(f"{prior.kind}: {ground:.6f} vs {limit:.6f}")
    report("03 short-time limit", "; ".join(details))


def test_criterion_04_recommended_time():
    tau, _ = find_tau_star(UNIF, Scenario(tau_c=1.0))
    assert 0.6 <= tau * UNIF.g0 <= 0.7
    report("04 recommended time", f"uniform prior g0*tau = {tau:.4f}")


def test_criterion_05_detuning_and_decay():
    details = []
    for prior in (GAUSS, UNIF):
        tau, _ = find_tau_star(prior, Scenario(tau_c=1.0))
        costs = [cost_unitary(prior, tau, delta=float(d)) for d in np.linspace(-3, 3, 21)]
        assert int(np.argmin(costs)) == 10  # the resonant row
        details.append(f"{prior.kind} detuning min at 0")

    tau, _ = find_tau_star(GAUSS, Scenario(tau_c=1.0))
    decay = [cost_unitary(GAUSS, tau, u=float(u)) for u in np.linspace(0.0, 10.0, 21)]
    assert np.all(np.diff(decay) >= -1e-12)
    assert abs(decay[-1] - GAUSS.sigma**2) <= 1e-3 * GAUSS.sigma**2
    details.append(f"decay approaches variance: gap {GAUSS.sigma**2 - decay[-1]:.2e}")
    report("05 detuning/decay behavior", "; ".join(details))


def test_criterion_06_coherent_field_ordering():
    # vacuum optimality at each amplitude's own recommended time, and a
    # strict cost increase with amplitude at the shared vacuum optimum
    per_alpha = {}
    for alpha in (0.0, 1.0, 2.0):
        sc = Scenario(tau_c=1.0, alpha=alpha)
        tau, _ = find_tau_star(GAUSS, sc)
        per_alpha[alpha] = cost_unitary(GAUSS, tau, alpha=alpha)
    assert per_alpha[0.0] < per_alpha[1.0]
    assert per_alpha[0.0] < per_alpha[2.0]

    tau0, _ = find_tau_star(GAUSS, Scenario(tau_c=1.0))
    fixed = [cost_unitary(GAUSS, tau0, alpha=a) for a in (0.0, 1.0, 2.0)]
    assert fixed[0] < fixed[1] < fixed[2]
    report(
        "06 coherent-field ordering",
        f"own-optimum costs {per_alpha}, shared-time costs {[round(c, 4) for c in fixed]}",
    )


def test_criterion_07_ml_uniform_special_case():
    prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    tc = math.pi / 4.0
    c_ref = 2.0 * tc / math.pi

    c_num = uniform_cmax(prior, tc)
    assert c_num == pytest.approx(c_ref, abs=1e-10)
    for u in (0.0, 0.7):
        povm = uniform_ml_povm(prior, tc, u)
        cost_ref = (2.0 + math.exp(-u)) / 4.0
        assert uniform_cost_max(povm) == pytest.approx(cost_ref, abs=1e-10)
        assert average_cost_quadrature(povm) == pytest.approx(cost_ref, abs=1e-6)
    report("07 ml uniform special case", f"c_max={c_num!r} vs {c_ref!r}")


def test_criterion_08_ml_gaussian_cost_structure():
    taus = np.linspace(0.05, 7.9, 100)
    worst = 0.0
    costs = []
    for tc in taus:
        povm = gaussian_ml_povm(GAUSS, float(tc), 0.0)
        closed = gaussian_cost_max(povm)
        worst = max(worst, abs(closed - average_cost_quadrature(povm)))
        costs.append(closed)
    assert worst < 1e-8

    fine = np.linspace(0.05, 4.8, 2000)
    fine_costs = np.array(
        [gaussian_cost_max(gaussian_ml_povm(GAUSS, float(t), 0.0)) for t in fine]
    )
    maxima = [
        fine[i]
        for i in range(1, len(fine) - 1)
        if fine_costs[i] > fine_costs[i - 1] and fine_costs[i] >= fine_costs[i + 1]
    ]
    for k in (0, 1):
        target = math.pi / 4.0 + k * math.pi
        assert min(abs(m - target) for m in maxima) <= 0.1
    report(
        "08 ml gaussian cost structure",
        f"closed-vs-quadrature worst {worst:.2e}; maxima {[round(m, 3) for m in maxima[:4]]}",
    )


def test_criterion_09_povm_validity():
    rng = np.random.default_rng(SEED)
    n_draws = 100
    for kind in ("gaussian", "uniform"):
        detected = 0
        for i in range(n_draws):
            g0 = rng.uniform(0.5, 2.0)
            sigma = rng.uniform(0.4, 1.2) * g0
            tc = rng.uniform(0.5, 2.5) / g0
            prior = Prior(kind, g0, sigma)
            povm = (
                gaussian_ml_povm(prior, tc, 0.0)
                if kind == "gaussian"
                else uniform_ml_povm(prior, tc, 0.0)
            )
            tot_i, tot_z = povm.completeness()
            assert abs(tot_i - 1.0) < 1e-9
            assert abs(tot_z) < 1e-9
            assert interval_audit(povm, 500, seed=SEED + i).passed
            if not interval_audit(povm, 500, seed=SEED + i, scale=1.05).passed:
                detected += 1
        assert detected >= 95
        report(f"09 povm validity ({kind})", f"inflation detected in {detected}/100 draws")


def test_criterion_10_cramer_rao_consistency():
    grid = np.linspace(0.2, 1.8, 50)
    worst_gap = math.inf
    for prior in (GAUSS, UNIF):
        sc = Scenario(tau_c=math.pi / 4.0, tau_f_gamma=0.2)
        res = mmse_estimator(gamma_moments(prior, sc, VACUUM))
        povm = (
            gaussian_ml_povm(prior, sc.tau_c, sc.tau_f_gamma)
            if prior.kind == "gaussian"
            else uniform_ml_povm(prior, sc.tau_c, sc.tau_f_gamma)
        )
        for g in grid:
            rho, drho = reduced_state(float(g), sc, VACUUM, derivative=True)
            rep_m = cr_bound_mmse(res, float(g), rho, drho)
            rep_l = cr_bound_ml(povm, float(g))
            for rep in (rep_m, rep_l):
                assert rep.mse >= rep.lower_bound - 1e-9
                worst_gap = min(worst_gap, rep.mse - rep.lower_bound)

    for tc in (math.pi / 2.0, math.pi):
        sc = Scenario(tau_c=tc, tau_f_gamma=0.3)
        res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
        for g in grid[::5]:
            rho, drho = reduced_state(float(g), sc, VACUUM, derivative=True)
            assert cr_bound_mmse(res, float(g), rho, drho).lower_bound < 1e-12
    report("10 cramer-rao consistency", f"smallest mse-bound gap {worst_gap:.3e}")


def test_criterion_11_monte_carlo_concordance():
    z_scores = []
    for tc in (math.pi / 4.0, 0.6, 1.0):
        sc = Scenario(tau_c=tc)
        res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
        [rep] = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
        [again] = mc_quadratic_cost(res, GAUSS, sc, VACUUM, 10**5, SEED)
        assert rep == again  # deterministic under the seed
        z_scores.append(rep.z_score)
    for g in (0.7, 1.0, 1.3):
        povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
        [rep] = mc_estimate_distribution(povm, g, 10**5, SEED)
        z_scores.append(rep.z_score)
    assert max(z_scores) < 4.0
    report("11 monte-carlo concordance", f"z-scores {[round(z, 2) for z in z_scores]}")


def test_criterion_12_dissipative_behavior():
    for gt in np.linspace(0.0, 10.0, 101):
        pop = float(dissipative_populations(1.0, float(gt), 0.0, 0.0)[0])
        assert pop == pytest.approx(math.cos(gt) ** 2, abs=1e-10)

    details = []
    for prior in (GAUSS, UNIF):
        tau, _ = find_tau_star(prior, Scenario(tau_c=1.0))
        ideal = mmse_estimator(gamma_moments(prior, Scenario(tau_c=tau), VACUUM)).c_min
        strong = mmse_estimator(
            gamma_moments(prior, Scenario(tau_c=tau, gamma_cav=0.014, kappa=0.246), VACUUM)
        ).c_min
        intermediate = mmse_estimator(
            gamma_moments(prior, Scenario(tau_c=tau, gamma_cav=0.6, kappa=0.6), VACUUM)
        ).c_min
        assert ideal <= strong <= intermediate
        details.append(
            f"{prior.kind}: {ideal:.4f} <= {strong:.4f} <= {intermediate:.4f}"
        )
    report("12 dissipative behavior", "; ".join(details))


# ---------------------------------------------------------------------------
# Exact invariants of the model, as properties over the box: both priors,
# sigma in [0.2, 1.5] (g0 = 1), |Delta| <= 2, |alpha| <= 2, g0 tau_c in
# [0.1, 3] and u = gamma tau_f in [0, 1].

_INVARIANT_BOX = {
    "kind": st.sampled_from(["gaussian", "uniform"]),
    "sigma": st.floats(0.2, 1.5),
    "delta": st.floats(-2.0, 2.0),
    "amplitude": st.floats(0.0, 2.0),
    "phase": st.floats(0.0, 2.0 * math.pi),
    "tau_c": st.floats(0.1, 3.0),
    "u": st.floats(0.0, 1.0),
}
_INVARIANT_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _c_min(prior, tau_c, delta, alpha, u):
    sc = Scenario(tau_c=tau_c, delta=delta, alpha=alpha, tau_f_gamma=u)
    return mmse_estimator(gamma_moments(prior, sc, field_for(sc)), u).c_min


@_INVARIANT_SETTINGS
@given(**_INVARIANT_BOX)
def test_invariant_detuning_sign(kind, sigma, delta, amplitude, phase, tau_c, u):
    # c_min(Delta) = c_min(-Delta): bit for bit for every real alpha, whose
    # detuning flip is the sign of Re a_eg; a complex alpha mirrors it only
    # with its own conjugate, so there it holds to the field-phase tolerance
    prior = Prior(kind, 1.0, sigma)
    for real in (amplitude, -amplitude):
        assert _c_min(prior, tau_c, delta, real, u) == _c_min(prior, tau_c, -delta, real, u)
    alpha = amplitude * cmath.exp(1j * phase)
    mirrored, cost = _c_min(prior, tau_c, -delta, alpha, u), _c_min(prior, tau_c, delta, alpha, u)
    assert abs(mirrored - cost) <= 1e-13 * abs(cost)


@_INVARIANT_SETTINGS
@given(**_INVARIANT_BOX)
def test_invariant_field_phase(kind, sigma, delta, amplitude, phase, tau_c, u):
    # c_min does not depend on the phase of alpha, to 1e-13 relative
    prior = Prior(kind, 1.0, sigma)
    phased = _c_min(prior, tau_c, delta, amplitude * cmath.exp(1j * phase), u)
    real = _c_min(prior, tau_c, delta, amplitude, u)
    assert abs(phased - real) <= 1e-13 * abs(real)


@_INVARIANT_SETTINGS
@given(**_INVARIANT_BOX)
def test_invariant_prior_bound(kind, sigma, delta, amplitude, phase, tau_c, u):
    # the prior mean is an estimator, so the optimal cost is at most sigma^2
    prior = Prior(kind, 1.0, sigma)
    assert _c_min(prior, tau_c, delta, amplitude * cmath.exp(1j * phase), u) <= sigma**2
