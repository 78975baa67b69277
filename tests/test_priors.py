"""Prior densities, moments, and quadrature accuracy."""

import functools
import math

import mpmath as mp
import numpy as np
import pytest

from cavbayes.errors import UnsupportedCombination
from cavbayes.priors import (_SERIES_ARG, _TABLE_PANELS, MAX_QUADRATURE_NODES, MIN_NODES, QUADRATURE_BUDGET,
                             Prior, _centered_transform, _heights, _log_panel_sums, _sinc_series, _window_tail,
                             characteristic_moments, cosine_deficits, density, moments, nodes_for_oscillation,
                             quadrature)
from conftest import odd_factorial_series


def test_gaussian_density_at_mode():
    p = Prior.gaussian(1.0, 0.7)
    assert density(p, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi * 0.49))


def test_uniform_density_inside_and_outside():
    p = Prior.uniform(1.0, 0.5)
    assert density(p, 1.0) == pytest.approx(1.0 / (2 * math.sqrt(3.0) * 0.5))
    assert density(p, 1.0 + 2 * 0.5) == 0.0  # 2 sigma > sqrt(3) sigma


def test_moments_by_construction():
    assert moments(Prior.gaussian(1.0, 1.0)) == (1.0, 1.0)
    assert moments(Prior.uniform(2.0, 0.5)) == (2.0, 0.25)


def test_uniform_variance_by_quadrature():
    p = Prior.uniform(2.0, 0.5)
    rule = quadrature(p, 128)
    var = rule.expect(p, (rule.nodes - 2.0) ** 2)
    assert var == pytest.approx(0.25, abs=1e-10)


def test_gaussian_normalization_and_mean():
    p = Prior.gaussian(1.0, 1.0)
    rule = quadrature(p, 128)
    assert rule.expect(p, np.ones_like(rule.nodes)) == pytest.approx(1.0, abs=1e-10)
    assert rule.expect(p, rule.nodes) == pytest.approx(1.0, abs=1e-10)


def test_gaussian_oscillatory_moment():
    p = Prior.gaussian(1.0, 1.0)
    rule = quadrature(p, 256)
    tau = 0.7
    got = rule.expect(p, np.cos(2 * rule.nodes * tau))
    assert got == pytest.approx(
        math.exp(-2 * tau**2) * math.cos(2 * tau), abs=1e-9
    )


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("n_points", [64, 128, 256])
def test_closed_form_integrals_across_sizes(kind, n_points):
    # each time on a rule of at least ``n_points`` nodes, sized for its
    # oscillation cos(2 g tau) as every oscillatory caller sizes its rule
    g0 = 1.0
    p = Prior(kind, g0, 1.0)
    w = math.sqrt(3.0) * p.sigma
    for tau in (0.1, 1.0, 5.0):
        rule = quadrature(p, max(n_points, nodes_for_oscillation(p, 2 * tau)))
        if kind == "gaussian":
            ref_c = math.exp(-2 * p.sigma**2 * tau**2) * math.cos(2 * g0 * tau)
            ref_s = math.exp(-2 * p.sigma**2 * tau**2) * math.sin(2 * g0 * tau)
        else:
            ref_c = math.cos(2 * g0 * tau) * math.sin(2 * w * tau) / (2 * w * tau)
            ref_s = math.sin(2 * g0 * tau) * math.sin(2 * w * tau) / (2 * w * tau)
        checks = {
            1.0: rule.expect(p, np.ones_like(rule.nodes)),
            g0: rule.expect(p, rule.nodes),
            g0**2 + p.sigma**2: rule.expect(p, rule.nodes**2),
            ref_c: rule.expect(p, np.cos(2 * rule.nodes * tau)),
            ref_s: rule.expect(p, np.sin(2 * rule.nodes * tau)),
        }
        for ref, got in checks.items():
            assert got == pytest.approx(ref, abs=1e-9)
        # the exact transforms at a scalar omega: 0-d, like every point result
        moments_k, deficits = characteristic_moments(p, 2 * tau), cosine_deficits(p, 2 * tau)
        assert [np.shape(m) for m in (*moments_k, *deficits)] == [()] * 6
        assert moments_k[0] == pytest.approx(complex(ref_c, ref_s), abs=1e-9)
        assert deficits[0] == pytest.approx(1.0 - ref_c, abs=1e-9)


# ---------------------------------------------------------------------------
# the uniform law's sinc series and the likelihood bracket T(x)

# the three coefficient rows of s - 1, x s' and x^2 (s'' + 1/3) before the
# fourth row joined them
_FORMER_SINC_COEF = [(-1) ** k * np.c_[[1.0, 2 * k, 2 * k * (2 * k - 1) * (k > 1)]]
                     for k in range(1, 17)]
_NEXT_TO_SWITCH = [np.nextafter(_SERIES_ARG, 0.0), _SERIES_ARG, np.nextafter(_SERIES_ARG, 2.0)]


def _series_arguments():
    # seeded arguments, the zero and underflow edges and the floats at the switch
    rng = np.random.default_rng(29)
    edge = np.array([0.0, 5e-324, 1e-300, 1e-160, *_NEXT_TO_SWITCH])
    return np.concatenate([edge, -edge, rng.uniform(-1.0, 1.0, 200), 10.0 ** rng.uniform(-9.0, 0.3, 100)])


def test_sinc_series_rows_keep_the_former_bits():
    x = _series_arguments()
    rows = _sinc_series(x)
    former = odd_factorial_series(x, lambda k: _FORMER_SINC_COEF[k - 1], 1)
    assert rows.shape == (4, len(x)) and rows[:3].tobytes() == former.tobytes()
    # r = x s' - 2 (s - 1) has no x^2 term to cancel; its own coefficients
    assert rows[3].tobytes() == odd_factorial_series(x, lambda k: (-1) ** k * (2 * k - 2), 1).tobytes()
    # any shape: a point gives a column, a grid a grid per row
    assert _sinc_series(x[5]).tobytes() == rows[:, 5].tobytes()
    assert _sinc_series(x[:300].reshape(20, 15)).tobytes() == rows[:, :300].tobytes()


def _former_cost_bracket_t(big_a):
    # T(A) = 1/2 + sin(2A)/(4A) - s^2 as the likelihood cost summed it before
    # the transform did: its own series in 2A below A = 1, the direct form above
    small = big_a < 1.0
    series = odd_factorial_series(2.0 * np.where(small, big_a, 0.5),
                                  lambda m: (-1) ** m * (m - 1) / (2 * m + 2), 2)
    a = np.where(small, 1.0, big_a)
    s = np.sin(a) / a
    return np.where(small, series, 0.5 + np.sin(2.0 * a) / (4.0 * a) - s * s)


def test_cost_bracket_from_the_transform_against_mpmath():
    # T vanishes as x^4/45; from the series rows it keeps 1e-15 relative below
    # the switch.  Above it T is the former direct form, whose terms of order
    # one cancel: it reads up to 6e-15 relative next to x = 1, and no bound
    # against mpmath is claimed for it here
    p = Prior.uniform(1.0, 0.5)
    h = math.sqrt(3.0) * p.sigma
    rng = np.random.default_rng(29)
    omega = np.concatenate([10.0 ** rng.uniform(-8.0, math.log10(2.0), 1000),
                            rng.uniform(0.5, 2.0, 1000), _NEXT_TO_SWITCH, [2.0]]) / h
    x = h * omega
    t_part = _centered_transform(p, omega)[5]
    assert _centered_transform(Prior.gaussian(1.0, 0.5), omega)[5] is None
    with mp.workdps(80):
        ref = np.array([float(0.5 + mp.sin(2 * a) / (4 * a) - (mp.sin(a) / a) ** 2)
                        for a in map(mp.mpf, x.tolist())])
    small = x < _SERIES_ARG
    assert small.sum() > 500 and (~small).sum() > 500
    assert np.all(np.abs(t_part - ref)[small] <= 1e-15 * ref[small])
    # against the former sums: the direct form keeps its bits, the series
    # moves by less than 1e-15 relative
    former = _former_cost_bracket_t(x)
    assert t_part[~small].tobytes() == former[~small].tobytes()
    assert np.all(np.abs(t_part - former)[small] <= 1e-15 * former[small])


def test_parameter_validation():
    with pytest.raises(ValueError):
        Prior.gaussian(-1.0, 1.0)
    with pytest.raises(ValueError):
        Prior.uniform(1.0, 0.0)
    with pytest.raises(ValueError):
        Prior("lognormal", 1.0, 1.0)
    with pytest.raises(ValueError):
        quadrature(Prior.gaussian(1.0, 1.0), 32)
    with pytest.raises(ValueError):
        quadrature(Prior.gaussian(1.0, 1.0), 256, kind="gauss_hermite_mapped")


@functools.lru_cache(maxsize=None)
def _reaches(kind: str, half: float) -> tuple:
    """Top rate (times sigma) of 1 .. _TABLE_PANELS panels under the budget,
    each from that rule's own panel sums."""
    return tuple(float(np.max((math.log(QUADRATURE_BUDGET) - _log_panel_sums(kind, half, p)) / _heights(half, p)))
                 for p in range(1, _TABLE_PANELS + 1))


def _nodes_reference(prior: Prior, angular_rate: float, levels: int) -> int:
    """The node-count rule one rate at a time, without the table: the first
    panel count from 4 up whose own bound admits the rate, and past the
    table the least m P0 over its top half, whose rate is m times P0's."""
    reach = _reaches(prior.kind, prior.window_sigmas)
    rate = math.nan if math.isnan(angular_rate) else max(angular_rate, 0.0) * prior.sigma
    panels = next((p for p in range(MIN_NODES // 16, _TABLE_PANELS + 1) if reach[p - 1] >= rate), None)
    if panels is None:  # past the table, or NaN
        top = range(_TABLE_PANELS // 2 + 1, _TABLE_PANELS + 1)
        panels = min(p0 * math.ceil(rate / reach[p0 - 1]) if math.isfinite(rate) else rate for p0 in top)
    need = 16 * panels
    if not need * levels <= MAX_QUADRATURE_NODES:
        raise UnsupportedCombination(f"{need:.3g} nodes x {levels} levels pass {MAX_QUADRATURE_NODES}")
    return need


def _passes(prior, rate, levels) -> bool:
    try:
        _nodes_reference(prior, float(rate), levels)
    except UnsupportedCombination:
        return False
    return True


def _node_edge(prior: Prior, levels: int) -> float:
    """The rate past which the counts pass MAX_QUADRATURE_NODES, to an ulp."""
    lo, hi = 0.0, 1.0
    while _passes(prior, hi, levels):
        lo, hi = hi, 2.0 * hi
    while np.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if _passes(prior, mid, levels) else (lo, mid)
    return hi


@pytest.mark.parametrize("levels", [1, 7])
@pytest.mark.parametrize("prior", [Prior.gaussian(1.0, 0.3), Prior.uniform(2.0, 1.5)], ids=["gauss", "uniform"])
def test_node_counts_of_an_array_match_each_rate(prior, levels):
    # the array form is the scalar rule elementwise: rate 0 and negative
    # rates take the fewest panels of a non-oscillatory integrand, the rates
    # at the MAX_QUADRATURE_NODES edge pass where the scalar rule passes,
    # and a refused rate (inf, past the edge, NaN) raises the scalar rule's
    # message
    edge = _node_edge(prior, levels)
    near = edge * (1.0 + np.arange(-4, 5) * np.finfo(float).eps)
    fits = np.array([_passes(prior, r, levels) for r in near])
    assert fits.any() and not fits.all()  # the edge lies among them
    rates = np.array([0.0, -0.0, -3.0, -np.inf, 1e-300, 0.1, 2.0, 7.3, 40.0, 613.0, *near[fits]])
    counts = nodes_for_oscillation(prior, rates, levels)
    expected = [_nodes_reference(prior, float(r), levels) for r in rates]
    assert counts.dtype.kind == "i" and counts.tolist() == expected
    assert [nodes_for_oscillation(prior, r, levels) for r in rates] == expected
    grid = nodes_for_oscillation(prior, rates[:10].reshape(2, 5), levels)
    assert grid.tolist() == [expected[:5], expected[5:10]]
    past = 2.0 * edge  # two refused rates: the message names the first
    for bad in (np.inf, past, np.nan):
        with pytest.raises(UnsupportedCombination) as scalar:
            _nodes_reference(prior, bad, levels)
        with pytest.raises(UnsupportedCombination) as array:
            nodes_for_oscillation(prior, np.array([1.0, bad, 3.0 * edge, 0.0]), levels)
        assert str(array.value) == str(scalar.value)
