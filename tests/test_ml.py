"""Likelihood-optimal POVMs: constants, costs, positivity."""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from cavbayes import ml as ml_mod
from cavbayes import oracle as oracle_mod
from cavbayes.bounds import cr_bound_ml
from cavbayes import priors as priors_mod
from cavbayes.errors import SinVanishes
from cavbayes.ml import (
    f_z_moments,
    gaussian_bound_constants,
    gaussian_cmax,
    gaussian_cost_max,
    gaussian_ml_povm,
    interval_audit,
    ml_average_estimate,
    ml_mse,
    ml_povm,
    uniform_cmax,
    uniform_cost_max,
    uniform_ml_povm,
)
from cavbayes.oracle import (
    average_cost_quadrature,
    conditional_pdf,
    f_z_moments_quadrature,
    gaussian_bound_constants_erf,
)
from cavbayes.priors import Prior
from conftest import odd_factorial_series

GAUSS = Prior.gaussian(1.0, 1.0)


def special_case_prior():
    # support exactly [0, 2 g0]; half-swap time makes both phases quarter-period
    return Prior.uniform(1.0, 1.0 / math.sqrt(3.0))


# ---------------------------------------------------------------------------
# Gaussian constants


def test_unconstrained_when_sine_vanishes():
    with pytest.raises(SinVanishes):
        gaussian_cmax(GAUSS, math.pi / 2.0)  # 2 g0 tau_c = pi
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)
    assert povm.c_max == math.inf
    assert np.all(povm.f_z(np.linspace(-5, 7, 50)) == 0.0)


@pytest.mark.parametrize(
    "g0,sigma,tc", [(1.0, 1.0, math.pi / 4.0), (1.0, 0.5, 0.9), (2.0, 0.7, 0.33)]
)
def test_bound_constants_quadrature_vs_erf(g0, sigma, tc):
    p = Prior.gaussian(g0, sigma)
    c1q, c2q = gaussian_bound_constants(p, tc)
    c1e, c2e = gaussian_bound_constants_erf(p, tc)
    assert c1q == pytest.approx(c1e, abs=1e-8)
    assert c2q == pytest.approx(c2e, abs=1e-8)


def test_cmax_respects_interval_positivity_everywhere():
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
    audit = interval_audit(povm, n_intervals=10**4, seed=3)
    assert audit.passed
    inflated = interval_audit(povm, n_intervals=10**4, seed=3, scale=1.05)
    assert inflated.n_violations > 0


def test_cmax_never_exceeds_fixed_interval_constants():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = Prior.gaussian(rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2))
        tc = rng.uniform(0.3, 2.0)
        try:
            c = gaussian_cmax(p, tc)
        except SinVanishes:
            continue
        c1, c2 = gaussian_bound_constants(p, tc)
        assert c < min(c1, c2)


# ---------------------------------------------------------------------------
# Gaussian densities and cost


def test_gaussian_densities_shape():
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
    assert povm.f_i(1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    assert povm.f_z(1.0) == pytest.approx(0.0, abs=1e-15)
    tot_i, tot_z = povm.completeness()
    assert tot_i == pytest.approx(1.0, abs=1e-9)
    assert tot_z == pytest.approx(0.0, abs=1e-9)


def test_gaussian_cost_reduces_to_base_when_uninformative():
    base = 1.0 / math.sqrt(4.0 * math.pi)
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)
    assert gaussian_cost_max(povm) == pytest.approx(base)
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 50.0)
    assert gaussian_cost_max(povm) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("tc,u", [(math.pi / 4.0, 0.0), (0.6, 0.3), (1.9, 0.8)])
def test_gaussian_cost_closed_vs_quadrature(tc, u):
    povm = gaussian_ml_povm(GAUSS, tc, u)
    assert gaussian_cost_max(povm) == pytest.approx(
        average_cost_quadrature(povm), abs=1e-8
    )


def test_average_cost_increases_with_scale():
    for build, tc in ((gaussian_ml_povm, 0.7), (uniform_ml_povm, 0.7)):
        prior = GAUSS if build is gaussian_ml_povm else Prior.uniform(1.0, 1.0)
        povm = build(prior, tc, 0.0)
        costs = []
        for frac in np.linspace(0.0, 1.0, 10):
            scaled = dataclasses.replace(povm, _fz_scale=povm._fz_scale * frac)
            costs.append(average_cost_quadrature(scaled))
        assert np.all(np.diff(costs) > 0)


# ---------------------------------------------------------------------------
# uniform prior


def test_uniform_special_case_constant():
    p = special_case_prior()
    tc = math.pi / 4.0
    assert uniform_cmax(p, tc) == pytest.approx(2.0 * tc / math.pi, abs=1e-12)


def test_uniform_cmax_rejects_zero_interaction_time():
    with pytest.raises(SinVanishes):
        uniform_cmax(special_case_prior(), 0.0)
    with pytest.raises(ValueError):
        uniform_cmax(GAUSS, 0.5)


def test_uniform_zero_time_convention_differs_from_the_short_time_limit():
    # at tau_c = 0 every f_z within |f_z| <= f_I costs the same, and
    # f_z == 0 is taken, so the mean estimate is g0; the optimal POVM's
    # tau_c -> 0 limit keeps f_z != 0 (c_max ~ 1/tau^2, f_z ~ tau^2) and its
    # mean at sigma = g = g0 is (3 - sqrt(3))/2: the jump is deliberate
    unif = Prior.uniform(1.0, 1.0)
    assert ml_average_estimate(uniform_ml_povm(unif, 0.0), 1.0) == 1.0
    for tc in (1e-145, 1e-100, 1e-8):
        avg = ml_average_estimate(uniform_ml_povm(unif, tc), 1.0)
        assert avg == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0, rel=1e-15), tc


def test_uniform_povm_takes_one_transform_pass(monkeypatch):
    # the cap, f_z, cost, moments and interval masses all read the one
    # s(x) transform that the POVM keeps, and a build with its cost and MSE
    # sums the sinc series once, in that transform
    calls, sums = [], []
    transform, series = priors_mod._centered_transform, priors_mod._sinc_series
    monkeypatch.setattr(priors_mod, "_centered_transform",
                        lambda *args: calls.append(args) or transform(*args))
    monkeypatch.setattr(priors_mod, "_sinc_series", lambda *args: sums.append(args) or series(*args))
    prior = Prior.uniform(1.0, 0.5)
    povm = uniform_ml_povm(prior, np.linspace(0.0, 3.0, 7), 0.2)  # 2 entries below A = 1
    uniform_cost_max(povm)
    ml_mse(povm, 0.9)
    assert len(sums) == 1
    point = uniform_ml_povm(prior, 0.4, 0.2)
    point.f_z(0.7)
    point.interval_parts(0.5, 1.2)
    assert len(calls) == 2


def _former_y_minus_sin(y):
    # y - sin(y) as the likelihood POVM summed it before the sinc series
    # took one coefficient matrix: its own series below |y| = 1
    small = np.abs(y) < 1.0
    y_small = np.where(small, y, 0.0)
    series = y_small * odd_factorial_series(y_small, lambda k: (-1) ** (k + 1), 1)
    return np.where(small, series, y - np.sin(y))


def test_y_minus_sin_keeps_the_former_bits():
    rng = np.random.default_rng(29)
    edge = np.array([0.0, 5e-324, 1e-300, 1e-160, np.nextafter(priors_mod._SERIES_ARG, 0.0),
                     priors_mod._SERIES_ARG, np.nextafter(priors_mod._SERIES_ARG, 2.0), 3.0, 1e6])
    y = np.concatenate([edge, -edge, rng.uniform(-2.0, 2.0, 200), 10.0 ** rng.uniform(-9.0, 0.3, 100)])
    assert ml_mod._y_minus_sin(y).tobytes() == _former_y_minus_sin(y).tobytes()
    for v in y[:18]:
        assert ml_mod._y_minus_sin(v).tobytes() == _former_y_minus_sin(v).tobytes()


@pytest.mark.parametrize("prior", [GAUSS, Prior.uniform(1.0, 0.5)], ids=["gaussian", "uniform"])
@pytest.mark.parametrize("tc", [-0.7, -1e-300, math.nan, np.array([0.3, -0.7]), np.array([0.3, math.nan])],
                         ids=["negative", "tiny_negative", "nan", "column_negative", "column_nan"])
def test_negative_or_nan_time_refused_by_both_priors(prior, tc):
    # one check ahead of the prior kind: a Gaussian build must not return
    # the POVM of |tau_c|, and NaN fails it too
    build, cmax = ((gaussian_ml_povm, gaussian_cmax) if prior.kind == priors_mod.GAUSSIAN
                   else (uniform_ml_povm, uniform_cmax))
    with pytest.raises(ValueError, match="tau_c must be nonnegative"):
        build(prior, tc, 0.0)
    with pytest.raises(ValueError, match="tau_c must be nonnegative"):
        ml_povm(prior, tc, 0.0)
    if np.ndim(tc) == 0:
        with pytest.raises(ValueError, match="tau_c must be nonnegative"):
            cmax(prior, tc)


@pytest.mark.parametrize("tc", [0.0, 1e-160, 1e-300])
def test_uniform_povm_unconstrained_where_the_peak_vanishes(tc):
    # at tau_c = 0, and where the O(tau^2) peak of |cos(2 x tau_c) - K|
    # underflows, the POVM is the Gaussian one at sin(2 g0 tau_c) = 0:
    # c_max = inf, f_z == 0, the prior term as cost and g0 as mean estimate
    unif = Prior.uniform(1.0, 1.0)
    povm = uniform_ml_povm(unif, tc, 0.3)
    assert povm.c_max == math.inf and f_z_moments(povm) == (0.0, 0.0)
    assert uniform_cost_max(povm) == 1.0 / (2.0 * math.sqrt(3.0))
    assert ml_average_estimate(povm, 0.7) == 1.0
    assert ml_mse(povm, 0.7) == pytest.approx(1.0 + 0.3**2, rel=1e-15)


def _uniform_cmax_enumerated(p, tc):
    # the cap by evaluating every stationary point j pi / (2 tau_c) of the
    # cosine inside the support, one by one
    k_excess = uniform_ml_povm(p, tc)._sinc[0]  # K - 1
    lo, hi = p.support
    k_lo = math.ceil(2.0 * tc * lo / math.pi)
    k_hi = math.floor(2.0 * tc * hi / math.pi)
    xs = [lo, hi] + [j * math.pi / (2.0 * tc) for j in range(k_lo, k_hi + 1)]
    peak = max(abs(2.0 * math.sin(tc * x) ** 2 + k_excess) for x in xs)
    return 1.0 / (2.0 * math.sqrt(3.0) * p.sigma * peak)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    g0=st.floats(0.2, 3.0),
    sigma=st.floats(0.05, 2.0),
    log_tau=st.floats(-8.0, 3.0),
)
def test_uniform_cmax_matches_stationary_point_enumeration(g0, sigma, log_tau):
    p, tc = Prior.uniform(g0, sigma), 10.0**log_tau
    assert uniform_cmax(p, tc) == pytest.approx(_uniform_cmax_enumerated(p, tc), rel=1e-14)


def test_uniform_ml_at_long_interaction_time_returns_promptly():
    # about 2e12 stationary points lie in the support at g0 tau = 1e12;
    # the cap must not visit them one by one
    p = Prior.uniform(1.0, 0.5)
    start = time.perf_counter()
    povm = ml_povm(p, 1e12, 0.0)
    cost, avg = uniform_cost_max(povm), ml_average_estimate(povm, 1.0)
    assert time.perf_counter() - start < 1.0
    # the support holds many periods, so K -> 0 and the cap is 1/(2 sqrt(3) sigma)
    assert povm.c_max == pytest.approx(1.0 / (2.0 * math.sqrt(3.0) * p.sigma), rel=1e-9)
    assert math.isfinite(cost) and math.isfinite(avg)


def test_uniform_small_spread_loosens_constraint():
    # shrinking sigma cancels the oscillatory term and the admissible scale
    # grows past the special-case value
    tc = math.pi / 4.0
    ref = 2.0 * tc / math.pi
    p = Prior.uniform(1.0, 0.05)
    narrow = uniform_cmax(p, tc)
    assert narrow > ref
    # independent cap: dense-grid maximum of |cos(2 x tau_c) - mean|
    xs = np.linspace(*p.support, 200001)
    cosine = np.cos(2.0 * tc * xs)
    peak = np.max(np.abs(cosine - integrate.trapezoid(cosine, xs) / (xs[-1] - xs[0])))
    assert narrow == pytest.approx(1.0 / (2.0 * math.sqrt(3.0) * p.sigma * peak), rel=1e-6)


def _interval_violations(p, tc, c, n, seed):
    # interval-endpoint inequalities 0 <= x +- c h(x, y) <= 1 at random
    # scaled width x and midpoint y over every interval inside the support
    big_a = 2.0 * math.sqrt(3.0) * p.sigma * tc
    big_b = 2.0 * p.g0 * tc
    ratio = math.sqrt(3.0) * p.sigma / p.g0
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = 1.0 + ratio * (1.0 - x) * rng.uniform(-1.0, 1.0, n)
    h = (np.sin(big_a * x) * np.cos(big_b * y) - x * math.sin(big_a) * math.cos(big_b)) / tc
    lower = x - c * np.abs(h)
    upper = x + c * np.abs(h)
    return int(np.sum((lower < -1e-12) | (upper > 1.0 + 1e-12)))


def test_uniform_random_constraint_scan():
    p = special_case_prior()
    tc = math.pi / 4.0
    c_max = uniform_cmax(p, tc)
    assert _interval_violations(p, tc, c_max, 10**5, 21) == 0
    assert _interval_violations(p, tc, 1.02 * c_max, 10**5, 21) > 0


@pytest.mark.parametrize(
    "sigma,tc",
    [(0.54, 2.423), (1.258, 0.781), (0.98, 5.842), (0.444, 0.488), (0.931, 1.243)],
)
def test_uniform_random_constraint_scan_random_draws(sigma, tc):
    p = Prior.uniform(1.0, sigma)
    c_max = uniform_cmax(p, tc)
    assert _interval_violations(p, tc, c_max, 10**5, 21) == 0
    assert _interval_violations(p, tc, 1.02 * c_max, 10**5, 21) > 0


def test_uniform_densities_and_completeness():
    p = Prior.uniform(1.0, 0.8)
    povm = uniform_ml_povm(p, 1.1, 0.0)
    tot_i, tot_z = povm.completeness()
    assert tot_i == pytest.approx(1.0, abs=1e-12)
    assert tot_z == pytest.approx(0.0, abs=1e-12)
    audit = interval_audit(povm, n_intervals=2000, seed=4)
    assert audit.passed


def test_uniform_special_case_cost():
    p = special_case_prior()
    tc = math.pi / 4.0
    for u, expected in ((0.0, 0.75), (math.log(2.0), 0.625)):
        povm = uniform_ml_povm(p, tc, u)
        assert uniform_cost_max(povm) == pytest.approx(expected, abs=1e-10)
        assert average_cost_quadrature(povm) == pytest.approx(expected, abs=1e-8)


def test_uniform_generic_cost_closed_vs_quadrature():
    p = Prior.uniform(1.0, 0.4)
    povm = uniform_ml_povm(p, 1.3, 0.25)
    assert uniform_cost_max(povm) == pytest.approx(
        average_cost_quadrature(povm), abs=1e-8
    )


def _uniform_cap_reference(sig, t):
    """c_max of the uniform prior, in the working precision of ``sig``, ``t``."""
    big_a, big_b = 2 * mp.sqrt(3) * sig * t, 2 * t
    k = mp.sin(big_a) * mp.cos(big_b) / big_a
    lo, hi = 1 - mp.sqrt(3) * sig, 1 + mp.sqrt(3) * sig
    xs = [lo, hi] + [
        j * mp.pi / (2 * t)
        for j in range(int(mp.ceil(2 * t * lo / mp.pi)), int(mp.floor(2 * t * hi / mp.pi)) + 1)
    ]
    return 1 / (2 * mp.sqrt(3) * sig * max(abs(mp.cos(2 * t * x) - k) for x in xs))


def _uniform_cost_reference(sigma: float, tc: float, u: float) -> float:
    """The uniform-prior cost in 50-digit arithmetic, cap and bracket alike."""
    with mp.workdps(50):
        sig, t = mp.mpf(sigma), mp.mpf(tc)
        big_a, big_b = 2 * mp.sqrt(3) * sig * t, 2 * t
        c_max = _uniform_cap_reference(sig, t)
        bracket = (
            mp.mpf(1) / 2
            - (mp.sin(big_a) * mp.cos(big_b)) ** 2 / big_a**2
            + mp.sin(2 * big_a) * mp.cos(2 * big_b) / (4 * big_a)
        )
        return float(1 / (2 * mp.sqrt(3) * sig) + c_max * mp.exp(-mp.mpf(u)) * bracket)


@pytest.mark.parametrize("sigma", [0.2, 0.55, 1.0, 1.5])
def test_uniform_cmax_matches_high_precision_reference(sigma):
    # cos(2 x tau) - K is O(tau^2) while both terms are near one; the cap
    # must hold full relative precision down to g0 tau = 1e-8
    for tc in np.geomspace(1e-8, 3.0, 40):
        tc = float(tc)
        with mp.workdps(50):
            ref = float(_uniform_cap_reference(mp.mpf(sigma), mp.mpf(tc)))
        assert uniform_cmax(Prior.uniform(1.0, sigma), tc) == pytest.approx(ref, rel=1e-12), tc


@pytest.mark.parametrize("sigma", [0.2, 0.55, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("u", [0.0, 0.6])
def test_uniform_cost_matches_high_precision_reference(sigma, u):
    # the closed-form bracket cancels to O(tau^4) while c_max grows as
    # 1/tau^2; the cost must hold full precision down to g0 tau = 1e-8
    for tc in np.geomspace(1e-8, 3.0, 40):
        tc = float(tc)
        cost = uniform_cost_max(uniform_ml_povm(Prior.uniform(1.0, sigma), tc, u))
        ref = _uniform_cost_reference(sigma, tc, u)
        assert cost == pytest.approx(ref, rel=1e-12), tc


def _uniform_mean_reference(povm, g: float, u: float) -> float:
    """Mean estimate of a uniform-prior POVM with its own c_max, 50 digits.

    int x f_z dx is taken from the primitive of x (cos(2 x tau) - K).
    """
    p = povm.prior
    with mp.workdps(50):
        c, t, sig = mp.mpf(povm.c_max), mp.mpf(povm.tau_c), mp.mpf(p.sigma)
        big_a = 2 * mp.sqrt(3) * sig * t
        k = mp.sin(big_a) * mp.cos(2 * mp.mpf(p.g0) * t) / big_a
        lo, hi = (mp.mpf(x) for x in p.support)

        def primitive(x):
            y = 2 * t * x
            return x * mp.sin(y) / (2 * t) + mp.cos(y) / (4 * t * t) - k * x * x / 2

        contrast = 2 * mp.cos(mp.mpf(g) * t) ** 2 * mp.exp(-mp.mpf(u)) - 1
        return float((lo + hi) / 2 + contrast * c * (primitive(hi) - primitive(lo)))


@pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 1.5])
def test_uniform_fz_matches_high_precision_reference(sigma):
    # cos(2 x tau) - K is O(tau^2) while c_max grows as 1/tau^2; f_z and the
    # mean estimate must hold full precision down to g0 tau = 1e-8
    p = Prior.uniform(1.0, sigma)
    xs = np.linspace(*p.support, 41)
    f_i = 1.0 / (2.0 * math.sqrt(3.0) * sigma)
    for tc in np.geomspace(1e-8, 3.0, 40):
        povm = uniform_ml_povm(p, float(tc), 0.3)
        with mp.workdps(50):
            c, t = mp.mpf(povm.c_max), mp.mpf(povm.tau_c)
            big_a = 2 * mp.sqrt(3) * mp.mpf(sigma) * t
            k = mp.sin(big_a) * mp.cos(2 * t) / big_a
            ref = np.array([float(c * (mp.cos(2 * t * mp.mpf(x)) - k)) for x in xs])
        assert np.max(np.abs(povm.f_z(xs) - ref)) <= 1e-14 * f_i, tc
        mean = ml_average_estimate(povm, 0.7)
        assert mean == pytest.approx(_uniform_mean_reference(povm, 0.7, 0.3), rel=1e-13), tc


@pytest.mark.parametrize("tc", [1e-4, 1e-6, 1e-8])
def test_uniform_povm_valid_at_short_interaction_times(tc):
    # the interval masses of f_z cancel to O(tau^2) against c_max ~ 1/tau^2:
    # completeness and the audit must not report rounding as a violation
    povm = uniform_ml_povm(Prior.uniform(1.0, 0.5), tc, 0.0)
    tot_i, tot_z = povm.completeness()
    assert tot_i == pytest.approx(1.0, abs=1e-12)
    assert abs(tot_z) <= 1e-12
    assert interval_audit(povm, n_intervals=2000, seed=0).passed
    assert not interval_audit(povm, n_intervals=2000, seed=0, scale=1.05).passed


def _conditional_quadrature(povm, g: float, weight) -> float:
    """int weight(x) p(x|g) dx on a rule of 64 nodes per oscillation period."""
    n = priors_mod.nodes_for_oscillation(povm.prior, 16.0 * povm.tau_c)
    rule = priors_mod.quadrature(povm.prior, n)
    return rule.integrate(weight(rule.nodes) * conditional_pdf(povm, g, rule.nodes))


def _fz_moments_reference(povm) -> tuple[float, float]:
    """(int x f_z, int x^2 f_z) in high precision, rounded to floats.

    The uniform prior integrates c x^j (cos(2 x tau) - K) from its exact
    primitives; the Gaussian prior integrates -k (y + g0)^j sin(2 tau y)
    e^{-y^2 / (2 sigma^2)} by 20-digit tanh-sinh quadrature over +-12 sigma,
    split at least once per half period.
    """
    p = povm.prior
    with mp.workdps(60):
        t, sig, g0 = mp.mpf(povm.tau_c), mp.mpf(p.sigma), mp.mpf(p.g0)
        a = 2 * t
        if p.kind == "uniform":
            c, h = mp.mpf(povm.c_max), mp.sqrt(3) * sig
            lo, hi = g0 - h, g0 + h
            k = mp.sin(a * h) * mp.cos(a * g0) / (a * h)

            def prim1(x):
                return x * mp.sin(a * x) / a + mp.cos(a * x) / a**2

            def prim2(x):
                return (
                    x**2 * mp.sin(a * x) / a
                    + 2 * x * mp.cos(a * x) / a**2
                    - 2 * mp.sin(a * x) / a**3
                )

            m1 = c * (prim1(hi) - prim1(lo) - k * (hi**2 - lo**2) / 2)
            m2 = c * (prim2(hi) - prim2(lo) - k * (hi**3 - lo**3) / 3)
            return float(m1), float(m2)
        k = mp.mpf(povm._fz_scale)
        pts = mp.linspace(-12 * sig, 12 * sig, max(8, int(24 * sig * a / mp.pi) + 2))
        with mp.workdps(20):

            def fz(y):
                return -k * mp.sin(a * y) * mp.exp(-(y**2) / (2 * sig**2))

            m1 = mp.quad(lambda y: (y + g0) * fz(y), pts)
            m2 = mp.quad(lambda y: (y + g0) ** 2 * fz(y), pts)
        return float(m1), float(m2)


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 1.5, 3.0])
def test_fz_moments_match_high_precision_reference(kind, sigma):
    # the uniform brackets vanish as x^2 while c_max grows as 1/tau^2: both
    # moments must hold full relative precision down to g0 tau = 1e-8, with
    # no absolute floor (at sigma = 3 the second bracket taken as a
    # difference throughout reads 1.2e-14); the Gaussian reference resolves
    # moments of order e^{-2 sigma^2 tau^2} only to 1e-12 absolute
    n_tau = 25 if kind == "uniform" else 8
    floor = 0.0 if kind == "uniform" else 1e-12
    for tc in np.geomspace(1e-8, 3.0, n_tau):
        povm = ml_povm(Prior(kind, 1.0, sigma), float(tc), 0.3)
        got, want = f_z_moments(povm), _fz_moments_reference(povm)
        for m, ref in zip(got, want):
            assert m == pytest.approx(ref, rel=1e-14, abs=floor), tc


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
def test_fz_moments_match_quadrature_oracle(kind):
    for tc in (0.3, math.pi / 4.0, 1.1, 2.0):
        povm = ml_povm(Prior(kind, 1.0, 1.0), tc, 0.0)
        for m, q in zip(f_z_moments(povm), f_z_moments_quadrature(povm)):
            assert m == pytest.approx(q, abs=1e-12)


# ---------------------------------------------------------------------------
# conditional law and mean estimate


@pytest.mark.parametrize("prior", [GAUSS, Prior.uniform(1.0, 0.6)], ids=["gaussian", "uniform"])
def test_batched_likelihood_rows_equal_scalar_calls(prior):
    # an array of couplings is the scalar call entry by entry
    u = 0.35
    povm = ml_povm(prior, 0.9, u)
    g = np.linspace(0.2, 1.8, 7)
    for fn in (ml_average_estimate, ml_mse):
        batch = fn(povm, g)
        assert batch.shape == g.shape
        for gi, row in zip(g, batch):
            single = fn(povm, float(gi))
            assert isinstance(single, float)
            assert row == pytest.approx(single, rel=1e-14)
    xs = np.linspace(*povm.window, 50)
    assert conditional_pdf(povm, g, xs).shape == (7, 50)


def _close_entries(column, points, rel=4e-15):
    """Each entry of ``column`` against its point call: equal (inf and zeros
    included) or within ``rel`` relative."""
    column = np.broadcast_to(column, (len(points),))
    for x, y in zip(column, points):
        assert x == y or abs(x - y) <= rel * max(abs(x), abs(y)), (x, y)


def _times(g0: float):
    # generic times, tau = 0, times at and below the uniform peak's underflow
    # (tau <= 1e-150) and multiples of pi/(2 g0), where sin(2 g0 tau) = 0
    return st.one_of(st.floats(0.0, 4.0), st.sampled_from([0.0, 1e-300, 1e-200, 1e-150]),
                     st.integers(0, 8).map(lambda j: j * math.pi / (2.0 * g0)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["gaussian", "uniform", "special"]), g0=st.floats(0.3, 3.0),
       sigma=st.floats(0.05, 3.0), g=st.floats(0.0, 3.0), data=st.data())
def test_time_and_decay_columns_match_point_calls(kind, g0, sigma, g, data):
    # one POVM over a column of times, or of decay exponents, is the point
    # POVM entry by entry: constants, cost, f_z moments and mean estimate;
    # "special" is the uniform prior on [0, 2 g0] at its quarter-period time
    if kind == "special":
        prior, extra = Prior.uniform(g0, g0 / math.sqrt(3.0)), [math.pi / (4.0 * g0)]
    else:
        prior, extra = Prior(kind, g0, sigma), []
    taus = data.draw(st.lists(_times(g0), min_size=1, max_size=12)) + extra
    us = data.draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
    column = ml_povm(prior, np.array(taus), us[0])
    points = [ml_povm(prior, tc, us[0]) for tc in taus]
    _close_entries(column.c_max, [p.c_max for p in points])
    _close_entries(ml_mod.cost_max(column), [ml_mod.cost_max(p) for p in points])
    for k, moment in enumerate(f_z_moments(column)):
        _close_entries(moment, [f_z_moments(p)[k] for p in points])
    _close_entries(ml_average_estimate(column, g), [ml_average_estimate(p, g) for p in points])
    decays = ml_povm(prior, taus[0], np.array(us))
    points = [ml_povm(prior, taus[0], u) for u in us]
    _close_entries(ml_mod.cost_max(decays), [ml_mod.cost_max(p) for p in points])
    _close_entries(ml_average_estimate(decays, g), [ml_average_estimate(p, g) for p in points])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["gaussian", "uniform"]),
    sigma=st.floats(0.1, 2.0),
    log_tau=st.floats(-8.0, math.log10(4.0)),
    u=st.floats(0.0, 2.0),
    g=st.floats(0.0, 2.5),
)
def test_likelihood_rows_match_quadrature_and_respect_the_bound(kind, sigma, log_tau, u, g):
    # the exact mean and MSE against quadrature of the conditional density,
    # the Braunstein-Caves inequality mse >= x'^2 / F, and a valid POVM:
    # complete, with every sampled interval mass of f_I +- f_z in [0, 1]
    tc = 10.0**log_tau
    povm = ml_povm(Prior(kind, 1.0, sigma), tc, u)
    if math.isfinite(povm.c_max):
        tot_i, tot_z = povm.completeness()
        assert tot_i == pytest.approx(1.0, abs=1e-12)
        assert tot_z == pytest.approx(0.0, abs=1e-12)
        assert interval_audit(povm, n_intervals=300).passed
    scale = 1.0 + sigma**2
    mean = ml_average_estimate(povm, g)
    assert mean == pytest.approx(_conditional_quadrature(povm, g, lambda x: x), abs=1e-12 * scale)
    mse = ml_mse(povm, g)
    quad = _conditional_quadrature(povm, g, lambda x: (x - g) ** 2)
    assert mse == pytest.approx(quad, abs=1e-12 * scale**2)
    rep = cr_bound_ml(povm, g)
    assert rep.mse == mse
    assert rep.mse >= rep.lower_bound * (1.0 - 1e-12)


def test_conditional_pdf_prior_recovery_when_uninformative():
    povm = gaussian_ml_povm(GAUSS, math.pi / 2.0, 0.0)  # f_z == 0
    xs = np.linspace(-4.0, 6.0, 200)
    from cavbayes.priors import density

    for g in (0.4, 1.0, 1.7):
        assert np.max(np.abs(conditional_pdf(povm, g, xs) - density(GAUSS, xs))) < 1e-15
    assert ml_average_estimate(povm, 0.3) == pytest.approx(1.0, abs=1e-9)


def test_conditional_pdf_normalization():
    rng = np.random.default_rng(13)
    for build, prior in ((gaussian_ml_povm, GAUSS), (uniform_ml_povm, Prior.uniform(1.0, 1.0))):
        povm = build(prior, 0.9, 0.2)
        lo, hi = povm.window
        for g in rng.uniform(0.2, 1.8, 10):
            total = integrate.quad(
                lambda x: conditional_pdf(povm, float(g), x), lo, hi, limit=300
            )[0]
            assert total == pytest.approx(1.0, abs=1e-8)


def test_conditional_pdf_is_biased():
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
    g = 0.7
    # not an even function of (estimate - true value)
    left = conditional_pdf(povm, g, g - 0.5)
    right = conditional_pdf(povm, g, g + 0.5)
    assert abs(left - right) > 1e-3


def test_uniform_special_case_average_estimate():
    p = special_case_prior()
    povm = uniform_ml_povm(p, math.pi / 4.0, 0.0)
    assert ml_average_estimate(povm, 1.0) == pytest.approx(1.0, abs=1e-10)
    # generic g reproduces g0 + (4 g0/pi^2)(1 - 2 cos^2(pi g/(4 g0)))
    for g in (0.4, 1.3):
        expected = 1.0 + (4.0 / math.pi**2) * (
            1.0 - 2.0 * math.cos(math.pi * g / 4.0) ** 2
        )
        assert ml_average_estimate(povm, g) == pytest.approx(expected, abs=1e-9)


def test_gaussian_mean_estimate_closed_form_matches_quadrature():
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 0.0)
    for g in (0.6, 1.0, 1.5):
        quad = _conditional_quadrature(povm, g, lambda x: x)
        assert ml_average_estimate(povm, g) == pytest.approx(quad, abs=1e-12)
        # the display variant deviates; it is reported, never asserted
        display = oracle_mod._gaussian_average_estimate_display(povm, g)
        assert math.isfinite(display)


def test_mean_estimate_reinforces_prior_at_long_interaction_times():
    # the bias envelope e^{-2 sigma^2 tau_c^2} dies with interaction time,
    # pinning the mean estimate to the prior mean for every true coupling
    # and any flight decay
    for u in (0.0, 10.0):
        povm = gaussian_ml_povm(GAUSS, 3.0, u)
        for g in (0.3, 1.0, 1.8):
            assert ml_average_estimate(povm, g) == pytest.approx(1.0, abs=1e-3)


def test_mean_estimate_bias_survives_long_flight():
    # heavy flight decay pins the arriving qubit to its ground state, so the
    # estimate distribution collapses onto f_I - f_z: a g-independent law
    # whose mean keeps a constant offset from the prior mean
    povm = gaussian_ml_povm(GAUSS, math.pi / 4.0, 10.0)
    means = [ml_average_estimate(povm, g) for g in (0.3, 1.0, 1.8)]
    assert max(means) - min(means) < 1e-3  # no dependence on the true value
    assert abs(means[0] - 1.0) > 0.1  # but a persistent offset


# ---------------------------------------------------------------------------
# POVM property sweep


def test_povm_validity_on_random_draws():
    rng = np.random.default_rng(20260810)
    detected = 0
    n_draws = 40
    for i in range(n_draws):
        g0 = rng.uniform(0.5, 2.0)
        sigma = rng.uniform(0.4, 1.2) * g0
        tc = rng.uniform(0.5, 2.5) / g0
        for build, prior in (
            (gaussian_ml_povm, Prior.gaussian(g0, sigma)),
            (uniform_ml_povm, Prior.uniform(g0, sigma)),
        ):
            povm = build(prior, tc, 0.0)
            tot_i, tot_z = povm.completeness()
            assert abs(tot_i - 1.0) < 1e-9 and abs(tot_z) < 1e-9
            assert interval_audit(povm, 500, seed=1000 + i).passed
            if not interval_audit(povm, 500, seed=1000 + i, scale=1.05).passed:
                detected += 1
    assert detected >= int(0.95 * 2 * n_draws)
