"""Optimal quadratic-cost estimator: exact moments, quadrature oracle, limits."""

import itertools
import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import branch_estimates

from cavbayes import priors as priors_mod
from cavbayes.bounds import cr_bound_mmse
from cavbayes.dynamics import (CUTOFF_MARGIN, FieldState, Scenario, _auto_cutoff, field_for,
                               reduced_state)
from cavbayes.errors import DegenerateGamma0
from cavbayes.mmse import (
    average_estimate,
    gamma_moments,
    gamma_moments_dissipative,
    limit_eigenvalue_tau0,
    mmse_estimator,
    mse_of_estimator,
)
from cavbayes.oracle import gamma_moments_quadrature
from cavbayes.priors import Prior
from cavbayes.qubit import eigendecompose

VACUUM = FieldState.vacuum()
GAUSS = Prior.gaussian(1.0, 1.0)
UNIF = Prior.uniform(1.0, 1.0)
MOMENTS = ("gamma0", "gamma1", "gamma2")


def _vacuum_abc(prior: Prior, tau_c: float) -> tuple[float, float, float]:
    """The paper's excited-row entries (a, b, c) for a resonant vacuum field:
    prior integrals of cos^2(g tau_c) weighted by 1, g, g^2, expanded by hand.

    Gaussian, with E = exp(-2 sigma^2 t^2):

        a = [1 + E cos(2 g0 t)]/2,
        b = [g0 + E(g0 cos(2 g0 t) - 2 sigma^2 t sin(2 g0 t))]/2,
        c = (g0^2+sigma^2) a - 2 g0 sigma^2 t E sin(2 g0 t)
            - 2 sigma^4 t^2 E cos(2 g0 t).

    Uniform on [g0 - w, g0 + w], w = sqrt(3) sigma, A = 2 w t, B = 2 g0 t:

        a = 1/2 + sin(A) cos(B) / (2 A),
        b = g0/2 - sin(B) sin(A)/(8 w t^2)
            + [w sin(B) cos(A) + g0 cos(B) sin(A)]/(4 w t),
        c = (g0^2+sigma^2)/2 + (g0^2+3 sigma^2) sin(A) cos(B)/(4 w t)
            + [w cos(A) cos(B) - g0 sin(A) sin(B)]/(4 w t^2)
            - sin(A) cos(B)/(8 w t^3) + g0 sin(B) cos(A)/(2 t).
    """
    g0, sig, t = prior.g0, prior.sigma, tau_c
    if prior.kind == "gaussian":
        e = math.exp(-2.0 * sig**2 * t**2)
        cb, sb = math.cos(2.0 * g0 * t), math.sin(2.0 * g0 * t)
        a = (1.0 + e * cb) / 2.0
        b = (g0 + e * (g0 * cb - 2.0 * sig**2 * t * sb)) / 2.0
        c = (g0**2 + sig**2) * a - 2.0 * g0 * sig**2 * t * e * sb - 2.0 * sig**4 * t**2 * e * cb
        return a, b, c
    w = math.sqrt(3.0) * sig
    sa, ca = math.sin(2.0 * w * t), math.cos(2.0 * w * t)
    sb, cb = math.sin(2.0 * g0 * t), math.cos(2.0 * g0 * t)
    a = 0.5 + sa * cb / (4.0 * w * t)
    b = g0 / 2.0 - sb * sa / (8.0 * w * t**2) + (w * sb * ca + g0 * cb * sa) / (4.0 * w * t)
    c = (
        (g0**2 + sig**2) / 2.0
        + (g0**2 + 3.0 * sig**2) * sa * cb / (4.0 * w * t)
        + (w * ca * cb - g0 * sa * sb) / (4.0 * w * t**2)
        - sa * cb / (8.0 * w * t**3)
        + g0 * sb * ca / (2.0 * t)
    )
    return a, b, c


# ---------------------------------------------------------------------------
# moment operators


def test_gamma_traces_are_prior_moments():
    for prior in (GAUSS, UNIF):
        sc = Scenario(tau_c=0.8, tau_f_gamma=0.3)
        g = gamma_moments(prior, sc, VACUUM)
        assert g.gamma0.trace == pytest.approx(1.0, abs=1e-9)
        assert g.gamma1.trace == pytest.approx(prior.g0, abs=1e-9)
        assert g.gamma2.trace == pytest.approx(prior.g0**2 + prior.sigma**2, abs=1e-9)


@pytest.mark.parametrize("prior", [GAUSS, UNIF, Prior.uniform(1.3, 0.4)], ids=["gaussian", "uniform", "uniform_narrow"])
def test_gamma_moments_match_closed_entries(prior):
    # the exact path against the paper's hand-expanded vacuum entries, with
    # the ground row from the trace identities Tr G_k = mu_k
    mu = (1.0, prior.g0, prior.g0**2 + prior.sigma**2)
    for tc, u in itertools.product((0.3, 0.9, 1.7, 3.2), (0.0, 0.4)):
        got = gamma_moments(prior, Scenario(tau_c=tc, tau_f_gamma=u), VACUUM)
        for name, entry, mu_k in zip(MOMENTS, _vacuum_abc(prior, tc), mu):
            gam = getattr(got, name)
            assert gam.ee == pytest.approx(entry * math.exp(-u), abs=1e-14 * mu_k)
            assert gam.gg == pytest.approx(mu_k - entry * math.exp(-u), abs=1e-14 * mu_k)
            assert gam.eg == 0


def _mp_char(prior: Prior, omega) -> list:
    """M_k(omega) = int z(g) g^k e^{i omega g} dg, k = 0, 1, 2, in mpmath:
    the Gaussian characteristic function and its derivatives, and for the
    uniform law the elementary primitive of g^k e^{i omega g}."""
    g0, sig = mp.mpf(prior.g0), mp.mpf(prior.sigma)
    if prior.kind == "gaussian":
        base = mp.exp(1j * omega * g0 - sig**2 * omega**2 / 2)
        m = g0 + 1j * sig**2 * omega
        return [base, base * m, base * (m * m + sig**2)]
    h = mp.sqrt(3) * sig

    def primitive(g, k):
        return mp.exp(1j * omega * g) * sum(
            (-1) ** j * mp.factorial(k) / mp.factorial(k - j) * g ** (k - j) / (1j * omega) ** (j + 1)
            for j in range(k + 1)
        )

    return [(primitive(g0 + h, k) - primitive(g0 - h, k)) / (2 * h) for k in range(3)]


def _mp_moments(prior: Prior, sc: Scenario, field: FieldState):
    """Entries (ee, gg, eg) of G0, G1, G2 at 60 digits from the photon-ladder
    sums over the field's own (double) amplitudes, and for each off-diagonal
    entry the sum of the magnitudes of its terms."""
    mp.mp.dps = 60
    mu = [mp.mpf(1), mp.mpf(prior.g0), mp.mpf(prior.g0) ** 2 + mp.mpf(prior.sigma) ** 2]
    tau, damp = mp.mpf(sc.tau_c), mp.exp(-mp.mpf(sc.tau_f_gamma))
    amps = [mp.mpc(c.real, c.imag) for c in map(complex, field.coefficients)]
    weights = [abs(a) ** 2 for a in amps]
    ee = [mp.mpf(0)] * 3
    gg = [mu_k * (1 - damp * sum(weights)) for mu_k in mu]
    eg, eg_scale = [mp.mpc(0)] * 3, [mp.mpf(0)] * 3
    for n, w in enumerate(weights, start=1):
        moments = _mp_char(prior, 2 * mp.sqrt(n) * tau)
        for k in range(3):
            ee[k] += damp * w * (mu[k] + moments[k].real) / 2
            gg[k] += damp * w * (mu[k] - moments[k].real) / 2
    for m in range(1, len(amps)):
        pair = amps[m] * mp.conj(amps[m - 1])
        plus = _mp_char(prior, (mp.sqrt(m + 1) + mp.sqrt(m)) * tau)
        minus = _mp_char(prior, (mp.sqrt(m + 1) - mp.sqrt(m)) * tau)
        for k in range(3):
            eg[k] += 0.5j * mp.sqrt(damp) * pair * (plus[k].imag - minus[k].imag)
            eg_scale[k] += mp.sqrt(damp) * abs(pair) * (abs(plus[k].imag) + abs(minus[k].imag)) / 2
    return ee, gg, eg, eg_scale


_MP_FIELDS = {"vacuum": {}, "coherent": {"alpha": 2.0}, "truncated": {"alpha": 0.8 * 1j, "fock_cutoff": 5}}


@pytest.mark.parametrize("field_kind", sorted(_MP_FIELDS))
@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_exact_moments_match_high_precision_reference(kind, field_kind):
    # every entry of G0, G1, G2 within 4e-15 of a 60-digit reference; the
    # ground row holds that relative to itself even at g0 tau = 1e-6, where
    # it is ~1e-12 of the prior moment.  A truncated ladder's lost mass
    # 1 - W enters the ground row through the rounded double weights, so
    # there the ground row carries (cutoff + 1) ulps of mu_k on top.
    for sig, log_tau, u in itertools.product((0.2, 1.0, 1.5), np.linspace(-6.0, math.log10(3.0), 9), (0.0, 0.3)):
        prior = Prior(kind, 1.0, sig)
        sc = Scenario(tau_c=10.0**log_tau, tau_f_gamma=u, **_MP_FIELDS[field_kind])
        fld = field_for(sc)
        got = gamma_moments(prior, sc, fld)
        ee, gg, eg, eg_scale = _mp_moments(prior, sc, fld)
        ulps = len(fld.coefficients) * 2.2e-16 * math.exp(-u) if fld.captured_mass < 1.0 else 0.0
        for k, name in enumerate(MOMENTS):
            gam = getattr(got, name)
            mu_k = (1.0, 1.0, 1.0 + sig * sig)[k]
            for value, ref, scale, budget in (
                (gam.ee, ee[k], abs(ee[k]), 0.0),
                (gam.gg, gg[k], abs(gg[k]), ulps * mu_k),
                (gam.eg, eg[k], eg_scale[k], 0.0),
            ):
                err = abs(mp.mpc(value) - ref)
                assert err <= 4e-15 * scale + budget, (name, sig, sc, value, ref)


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_exact_moments_match_quadrature_oracle(kind):
    for sig, alpha, u in itertools.product((0.2, 1.0, 1.5), (0.0, 2.0, 3.0), (0.0, 0.3)):
        prior = Prior(kind, 1.0, sig)
        for tc in np.linspace(0.01, 3.0, 12):
            sc = Scenario(tau_c=float(tc), tau_f_gamma=u, alpha=alpha)
            fld = field_for(sc)
            exact = gamma_moments(prior, sc, fld)
            quad = gamma_moments_quadrature(prior, sc, fld)
            for name in MOMENTS:
                a, b = getattr(exact, name), getattr(quad, name)
                assert max(abs(a.ee - b.ee), abs(a.gg - b.gg), abs(a.eg - b.eg)) <= 1e-12


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "uniform"]),
    sigma=st.floats(0.1, 2.0),
    log_tau=st.floats(-3.0, math.log10(3.0)),
    u=st.floats(0.0, 2.0),
    delta=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
    alpha=st.one_of(st.just(0.0), st.floats(0.2, 2.5)),
    extra_levels=st.one_of(st.none(), st.integers(0, 6)),
)
def test_mmse_invariants_across_scenarios(kind, sigma, log_tau, u, delta, alpha, extra_levels):
    # Tr G_k = mu_k, 0 <= c_min <= sigma^2 and the Cramer-Rao inequality on a
    # grid of couplings, on both moment paths (Delta = 0 exact, else
    # quadrature) and for automatic or tight Fock cutoffs
    prior = Prior(kind, 1.0, sigma)
    cutoff = None if extra_levels is None else max(0, _auto_cutoff(alpha) - CUTOFF_MARGIN) + extra_levels
    sc = Scenario(tau_c=10.0**log_tau, tau_f_gamma=u, delta=delta, alpha=alpha, fock_cutoff=cutoff)
    fld = field_for(sc)
    gammas = gamma_moments(prior, sc, fld)
    for name, mu_k in zip(MOMENTS, (1.0, 1.0, 1.0 + sigma**2)):
        assert getattr(gammas, name).trace == pytest.approx(mu_k, abs=1e-12 * mu_k)
    res = mmse_estimator(gammas, u)
    assert -1e-12 <= res.c_min <= sigma**2 * (1.0 + 1e-12)
    g = np.linspace(0.1, 2.0, 9)
    rep = cr_bound_mmse(res, g, *reduced_state(g, sc, fld, derivative=True))
    assert np.all(rep.mse >= rep.lower_bound - 1e-9)


# detuned and dissipative moments over the benchmark ranges: sigma in
# [0.2, 1.5], g0 tau <= 3, Delta <= 3, Fock cutoff <= 27
_QUADRATURE_FIELDS = [FieldState.vacuum(), FieldState.coherent(1.5, 12), FieldState.coherent(3.0, 27)]
_DETUNED = Scenario(
    tau_c=tuple(t for t in (0.05, 0.7, 1.6, 3.0) for d in (0.3, 1.5, 3.0)),
    tau_f_gamma=0.3,
    delta=(0.3, 1.5, 3.0) * 4,
)
_DAMPED_TIMES = np.array([0.05, 0.7, 1.6, 3.0])
_DAMPED_RATES = [(0.05, 1.0), (1.0, 0.05), (0.5, 0.5)]


def _quadrature_entries(prior: Prior) -> np.ndarray:
    """Every entry of every detuned and dissipative moment operator above."""
    triples = [gamma_moments_quadrature(prior, _DETUNED, fld) for fld in _QUADRATURE_FIELDS]
    triples += [gamma_moments_dissipative(prior, _DAMPED_TIMES, *rates) for rates in _DAMPED_RATES]
    return np.concatenate(
        [getattr(getattr(t, name), e) for t in triples for name in MOMENTS for e in ("ee", "gg", "eg")]
    )


@pytest.mark.parametrize("sigma", [0.2, 0.7, 1.5])
def test_gaussian_window_budget(sigma, monkeypatch):
    # the +-8 sigma window drops the tail mass 2 Q(8) and, weighted by g^2,
    # 2 (g0^2 Q(8) + sigma^2 (8 phi(8) + Q(8))); a 12 sigma window moves no
    # entry by more than that: under 1e-13 absolute up to sigma = 1, and
    # 1.9e-13 at sigma = 1.5
    prior = Prior.gaussian(1.0, sigma)
    base = _quadrature_entries(prior)
    monkeypatch.setattr(priors_mod, "GAUSSIAN_TAIL_SIGMAS", 12.0)
    wide = _quadrature_entries(prior)
    tail, phi = math.erfc(8.0 / math.sqrt(2.0)) / 2.0, math.exp(-32.0) / math.sqrt(2.0 * math.pi)
    budget = 2.0 * (tail + sigma**2 * (8.0 * phi + tail)) + 1e-15 * (1.0 + sigma**2)
    assert np.max(np.abs(wide - base)) <= budget
    assert np.max(np.abs(wide - base)) <= (1e-13 if sigma <= 1.0 else 2e-13)


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("sigma", [0.2, 0.7, 1.5])
def test_panel_rule_budget(kind, sigma):
    # 8 nodes per period of the fastest oscillation, 16 Gauss-Legendre points
    # per panel: the same panels with 32 points each move no entry by 1e-12
    prior = Prior(kind, 1.0, sigma)
    base = _quadrature_entries(prior)
    real = priors_mod.quadrature
    priors_mod._legendre_base.cache_clear()
    try:
        with mock.patch.object(priors_mod, "_PANEL_POINTS", 32), mock.patch.object(
            priors_mod, "quadrature", lambda p, n: real(p, 2 * n)
        ):
            fine = _quadrature_entries(prior)
    finally:
        priors_mod._legendre_base.cache_clear()
    assert np.max(np.abs(fine - base)) <= 1e-12


@pytest.mark.parametrize("prior", [Prior.gaussian(1.0, 0.6), Prior.gaussian(1.0, 1.5),
                                   Prior.uniform(1.0, 0.6), Prior.uniform(1.0, 1.5)],
                         ids=["gaussian-0.6", "gaussian-1.5", "uniform-0.6", "uniform-1.5"])
def test_dissipative_moments_match_exact_at_zero_rates(prior):
    # zero rates make a scenario unitary, so production takes the exact
    # resonant moments there; the damped quadrature is held to them here.
    # The Gaussian window's g^2-weighted tail costs up to 1.8e-13 at 1.5 g0
    taus = np.linspace(0.1, 3.0, 59)
    damped = gamma_moments_dissipative(prior, taus, 0.0, 0.0)
    exact = gamma_moments(prior, Scenario(tau_c=tuple(taus.tolist())), VACUUM)
    for name in MOMENTS:
        d, e = getattr(damped, name), getattr(exact, name)
        np.testing.assert_allclose(d.ee, e.ee, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(d.gg, e.gg, rtol=0.0, atol=1e-12)
        assert not np.any(d.eg) and not np.any(e.eg)


def test_gamma_moments_near_delta_prior():
    prior = Prior.gaussian(1.0, 1e-8)
    sc = Scenario(tau_c=0.7)
    g = gamma_moments(prior, sc, VACUUM)
    p = math.cos(1.0 * 0.7) ** 2
    for k, gam in enumerate((g.gamma0, g.gamma1, g.gamma2)):
        assert gam.ee == pytest.approx(1.0**k * p, abs=1e-6)
        assert gam.gg == pytest.approx(1.0**k * (1 - p), abs=1e-6)


def test_closed_form_entries_special_values():
    got = gamma_moments(GAUSS, Scenario(tau_c=math.pi / 2.0), VACUUM)
    assert got.gamma0.ee == pytest.approx((1 - math.exp(-math.pi**2 / 2)) / 2, abs=1e-14)
    got = gamma_moments(GAUSS, Scenario(tau_c=0.0), VACUUM)
    assert (got.gamma0.ee, got.gamma1.ee, got.gamma2.ee) == (1.0, 1.0, 2.0)
    assert (got.gamma0.gg, got.gamma1.gg, got.gamma2.gg) == (0.0, 0.0, 0.0)
    got = gamma_moments(UNIF, Scenario(tau_c=1e-9), VACUUM)
    assert got.gamma0.ee == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# estimator and cost


def test_full_swap_time_reinforces_prior():
    res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 2.0), VACUUM))
    assert res.estimates == pytest.approx((1.0, 1.0), abs=1e-12)
    assert res.c_min == pytest.approx(1.0, abs=1e-12)


def test_half_swap_time_closed_values():
    for u in (0.0, 0.5):
        res = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=math.pi / 4.0, tau_f_gamma=u), VACUUM))
        k = (math.pi / 2.0) * math.exp(-math.pi**2 / 8.0)
        branch = 1.0 / (2.0 * math.exp(u) - 1.0)
        exc, gnd = branch_estimates(res)
        assert exc == pytest.approx(1.0 - k, abs=1e-12)
        assert gnd == pytest.approx(1.0 + k * branch, abs=1e-12)
        cost = 1.0 - (math.pi**2 / 4.0) * branch * math.exp(-math.pi**2 / 4.0)
        assert res.c_min == pytest.approx(cost, abs=1e-12)


def test_cost_never_beats_variance_bound():
    rng = np.random.default_rng(11)
    for _ in range(50):
        prior = Prior.gaussian(rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.5))
        tc = rng.uniform(0.05, 4.0)
        u = rng.uniform(0.0, 2.0)
        res = mmse_estimator(gamma_moments(prior, Scenario(tau_c=tc, tau_f_gamma=u), VACUUM))
        assert -1e-9 <= res.c_min <= prior.sigma**2 + 1e-9


def test_closed_and_quadrature_paths_agree():
    rng = np.random.default_rng(77)
    for _ in range(200):
        g0 = rng.uniform(0.5, 2.0)
        sig = rng.uniform(0.3, 1.5) * g0
        tc = rng.uniform(0.05, 5.0) / g0
        u = rng.uniform(0.0, 2.0)
        prior = Prior.gaussian(g0, sig) if rng.random() < 0.5 else Prior.uniform(g0, sig)
        res_c = mmse_estimator(gamma_moments(prior, Scenario(tau_c=tc, tau_f_gamma=u), VACUUM))
        res_q = mmse_estimator(gamma_moments_quadrature(prior, Scenario(tau_c=tc, tau_f_gamma=u), VACUUM))
        assert res_q.c_min == pytest.approx(res_c.c_min, abs=1e-8)
        assert res_q.estimates[0] == pytest.approx(res_c.estimates[0], abs=1e-8)
        assert res_q.estimates[1] == pytest.approx(res_c.estimates[1], abs=1e-8)


def test_zero_time_cost_is_prior_variance():
    # exactly zero interaction time is regular once flight decay acts
    for prior in (GAUSS, UNIF):
        res = mmse_estimator(gamma_moments(prior, Scenario(tau_c=0.0, tau_f_gamma=0.3), VACUUM))
        assert res.c_min == pytest.approx(prior.sigma**2, abs=1e-12)
        # and the short-time limit approaches it smoothly
        res = mmse_estimator(gamma_moments(prior, Scenario(tau_c=1e-5), VACUUM))
        assert res.c_min == pytest.approx(prior.sigma**2, abs=1e-9)


def test_zero_time_without_decay_is_degenerate():
    with pytest.raises(DegenerateGamma0):
        mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=0.0), VACUUM))


@pytest.mark.parametrize("kappa,tau_c", [(0.4, 100.0), (5.0, 60.0)])
@pytest.mark.parametrize("prior", [GAUSS, UNIF, Prior.gaussian(1.0, 0.5)])
def test_long_damped_transit_solves_its_diagonal_gamma0(kappa, tau_c, prior):
    # the excited weight of a long damped transit lies far below the 1e-14
    # floor of a non-diagonal Gamma0, but a diagonal Gamma0 has exact
    # eigenvalues: each branch is the ratio G1_ii / G0_ii, and the cost
    # stays within [0, sigma^2] to rounding (G0_gg rounds to 1 for the
    # uniform prior, which leaves c_min an ulp above sigma^2)
    g = gamma_moments(prior, Scenario(tau_c=tau_c, kappa=kappa, gamma_cav=0.7), VACUUM)
    assert 0.0 < g.gamma0.ee < 1e-18 and g.gamma0.eg == 0.0
    res = mmse_estimator(g)
    assert res.m_min.ee == g.gamma1.ee / g.gamma0.ee
    assert res.m_min.gg == g.gamma1.gg / g.gamma0.gg
    assert res.m_min.eg == 0.0
    assert 0.0 <= res.c_min <= prior.sigma**2 * (1.0 + 1e-15)


@pytest.mark.parametrize("kappa,tau_c", [(0.4, 100.0), (5.0, 60.0)])
def test_long_damped_sweep_exits_zero(kappa, tau_c, tmp_path):
    from cavbayes.cli import main

    cfg = tmp_path / "damped.ini"
    cfg.write_text(
        f"[scenario]\nkappa_over_g0 = {kappa}\ngamma_over_g0 = 0.7\n"
        f"[sweep]\nquantity = dissipative_cost\naxis = tau_c\nlo = 1.0\nhi = {tau_c}\nn_points = 12\n"
    )
    out = tmp_path / "out.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    c_min = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert np.all((0.0 <= c_min) & (c_min <= 1.0))


def test_ground_branch_short_time_limit():
    assert limit_eigenvalue_tau0(GAUSS) == pytest.approx(2.0)
    assert limit_eigenvalue_tau0(Prior.gaussian(1.0, 1e-6)) == pytest.approx(1.0, abs=1e-9)
    for prior in (GAUSS, UNIF):
        res = mmse_estimator(
            gamma_moments(prior, Scenario(tau_c=1e-5), VACUUM)
        )
        _, gnd = branch_estimates(res)
        assert gnd == pytest.approx(limit_eigenvalue_tau0(prior), abs=1e-3)


def test_long_time_estimates_collapse_to_prior_mean():
    res_g = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=50.0), VACUUM))
    dev_g = max(abs(e - 1.0) for e in res_g.estimates)
    assert dev_g < 0.05
    res_u = mmse_estimator(gamma_moments(UNIF, Scenario(tau_c=50.0), VACUUM))
    dev_u = max(abs(e - 1.0) for e in res_u.estimates)
    assert dev_u < 0.05
    assert dev_u > dev_g  # uniform prior converges more slowly


def test_coherent_field_short_time_branches():
    # measured short-time behavior with photons present: the excited branch
    # emerges from g0, while the ground branch tends to an interior limit
    # between g0 and the vacuum-ladder value g0(3s^2+g0^2)/(s^2+g0^2)
    # (5/3 at |alpha| = 1 with s = g0); only the excited branch matches the
    # "both start at g0" reading of the eigenvalue plots
    sc = Scenario(tau_c=1e-3, alpha=1.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, field_for(sc)))
    exc, gnd = branch_estimates(res)
    assert exc == pytest.approx(1.0, abs=1e-3)
    assert gnd == pytest.approx(5.0 / 3.0, abs=5e-3)
    assert 1.0 < gnd < limit_eigenvalue_tau0(GAUSS)


# ---------------------------------------------------------------------------
# conditional averages


def test_average_estimate_unbiased_at_prior_mean():
    sc = Scenario(tau_c=math.pi / 4.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    assert average_estimate(res, reduced_state(1.0, sc, VACUUM)) == pytest.approx(1.0, abs=1e-12)


def test_average_estimate_long_flight_reinforces_prior():
    sc = Scenario(tau_c=math.pi / 4.0, tau_f_gamma=50.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM), sc.tau_f_gamma)
    for g in (0.3, 0.9, 1.6):
        assert average_estimate(res, reduced_state(g, sc, VACUUM)) == pytest.approx(1.0, abs=1e-9)


def test_average_estimate_uniform_closed_form():
    for u in (0.0, 0.4):
        sc = Scenario(tau_c=math.pi / 4.0, tau_f_gamma=u)
        res = mmse_estimator(gamma_moments(UNIF, sc, VACUUM))
        arg = math.sqrt(3.0) * math.pi / 2.0
        x = (2.0 / math.pi) * math.cos(arg) - (4.0 / (math.sqrt(3.0) * math.pi**2)) * math.sin(arg)
        for g in (0.5, 1.0, 1.4):
            expected = 1.0 + x * (2.0 * math.cos(math.pi * g / 4.0) ** 2 - 1.0) / (
                2.0 * math.exp(u) - 1.0
            )
            avg = average_estimate(res, reduced_state(g, sc, VACUUM))
            assert avg == pytest.approx(expected, abs=1e-12)


def test_mse_vanishes_for_perfect_estimator():
    sc = Scenario(tau_c=math.pi / 2.0)
    res = mmse_estimator(gamma_moments(GAUSS, sc, VACUUM))
    # estimator is g0 I; zero error when the true coupling equals g0
    assert mse_of_estimator(res, 1.0, reduced_state(1.0, sc, VACUUM)) == pytest.approx(0.0, abs=1e-12)


def test_mse_matches_spectral_decomposition():
    sc = Scenario(tau_c=1.3, tau_f_gamma=0.2, delta=0.6, alpha=1.0)
    fld = field_for(sc)
    res = mmse_estimator(gamma_moments(GAUSS, sc, fld))
    g = 1.2
    state = reduced_state(g, sc, fld)
    rho = state.as_array()
    w, v = eigendecompose(res.m_min)
    expected = sum(
        (w[k] - g) ** 2 * float(np.real(v[:, k].conj() @ rho @ v[:, k]))
        for k in range(2)
    )
    assert mse_of_estimator(res, g, state) == pytest.approx(expected, abs=1e-12)
