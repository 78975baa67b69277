"""Prior densities, moments, and quadrature accuracy."""

import math

import numpy as np
import pytest

from cavbayes.priors import (Prior, characteristic_moments, cosine_deficits, density, moments,
                             quadrature)


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
