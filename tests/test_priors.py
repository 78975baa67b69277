"""Prior densities, moments, and quadrature accuracy."""

import math

import numpy as np
import pytest

from cavbayes.errors import UnsupportedCombination
from cavbayes.priors import (DEFAULT_NODES, MAX_QUADRATURE_NODES, Prior, characteristic_moments,
                             cosine_deficits, density, moments, nodes_for_oscillation, quadrature)


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
    g0 = 1.0
    p = Prior(kind, g0, 1.0)
    rule = quadrature(p, n_points)
    w = math.sqrt(3.0) * p.sigma
    for tau in (0.1, 1.0, 5.0):
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


def _nodes_reference(prior: Prior, angular_rate: float, levels: int) -> int:
    """The scalar node-count rule in Python floats, one rate at a time."""
    lo, hi = prior.window
    if angular_rate <= 0:
        return DEFAULT_NODES
    period = 2 * math.pi / angular_rate
    need = 8.0 * (hi - lo) / period if period else math.inf
    if not need * levels <= MAX_QUADRATURE_NODES:
        raise UnsupportedCombination(f"{need:.3g} nodes x {levels} levels pass {MAX_QUADRATURE_NODES}")
    return max(DEFAULT_NODES, math.ceil(need))


def _passes(prior, rate, levels) -> bool:
    try:
        _nodes_reference(prior, float(rate), levels)
    except UnsupportedCombination:
        return False
    return True


@pytest.mark.parametrize("levels", [1, 7])
@pytest.mark.parametrize("prior", [Prior.gaussian(1.0, 0.3), Prior.uniform(2.0, 1.5)], ids=["gauss", "uniform"])
def test_node_counts_of_an_array_match_each_rate(prior, levels):
    # the array form is the scalar rule elementwise: rate 0 and negative
    # rates take DEFAULT_NODES, the rates at the MAX_QUADRATURE_NODES edge
    # pass where the scalar rule passes, and a refused rate (inf, past the
    # edge, NaN) raises the scalar rule's message
    lo, hi = prior.window
    edge = MAX_QUADRATURE_NODES / levels * (2 * math.pi) / (8.0 * (hi - lo))
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
