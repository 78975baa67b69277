"""2x2 Hermitian algebra: eigendecomposition and the symmetric solve."""

import math

import numpy as np
import pytest

from cavbayes.errors import DegenerateGamma0
from cavbayes.qubit import (
    Hermitian2,
    QubitState,
    eigendecompose,
    solve_symmetric_product,
)
from conftest import matrix_exp_product_integral


def reconstruct(w, v):
    return sum(w[k] * np.outer(v[:, k], v[:, k].conj()) for k in range(2))


def assert_phase_convention(v):
    # the first component above 1e-300 of each eigenvector is real positive
    for k in range(2):
        lead = v[np.flatnonzero(np.abs(v[:, k]) > 1e-300)[0], k]
        assert lead.imag == pytest.approx(0.0, abs=1e-14)
        assert lead.real > 0


def test_identity_eigendecomposition():
    w, v = eigendecompose(Hermitian2(1.0, 1.0))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-14)
    assert_phase_convention(v)


def test_diagonal_case_orders_ascending():
    w, v = eigendecompose(Hermitian2(0.7, 0.3))
    assert np.allclose(w, [0.3, 0.7])
    assert np.allclose(np.abs(v[:, 0]), [0.0, 1.0])
    assert np.allclose(np.abs(v[:, 1]), [1.0, 0.0])
    # the phase sits on the second component where the first is zero or,
    # for a coherence far below the split, below 1e-300
    for m in (Hermitian2(0.7, 0.3), Hermitian2(0.3, 0.7), Hermitian2(0.7, 0.3, -1e-310j)):
        assert_phase_convention(eigendecompose(m)[1])


def test_off_diagonal_spectrum():
    w, _ = eigendecompose(Hermitian2(0.0, 0.0, 1.0 + 0j))
    assert np.allclose(w, [-1.0, 1.0])


def test_reconstruction_on_random_matrices():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(1000):
        m = Hermitian2(
            ee=rng.normal(),
            gg=rng.normal(),
            eg=complex(rng.normal(), rng.normal()),
        )
        w, v = eigendecompose(m)
        assert w[0] <= w[1]
        assert abs(np.vdot(v[:, 0], v[:, 1])) < 1e-12
        assert abs(np.linalg.norm(v[:, 0]) - 1) < 1e-12
        worst = max(worst, np.max(np.abs(reconstruct(w, v) - m.as_array())))
    assert worst < 1e-12


def test_solve_with_scalar_weight():
    g1 = Hermitian2(0.4, -0.2, 0.3 + 0.1j)
    m = solve_symmetric_product(Hermitian2(0.5, 0.5), g1)
    assert np.allclose(m.as_array(), 2.0 * g1.as_array(), atol=1e-14)


def test_solve_diagonal_estimator_form():
    # diagonal weights reproduce the ratio form of the optimal estimator
    a, b, g0, u = 0.62, 0.31, 1.3, 0.4
    eu = math.exp(-u)
    gamma0 = Hermitian2(a * eu, 1 - a * eu)
    gamma1 = Hermitian2(b * eu, g0 - b * eu)
    m = solve_symmetric_product(gamma0, gamma1)
    assert m.ee == pytest.approx(b / a, abs=1e-14)
    assert m.gg == pytest.approx((g0 - b * eu) / (1 - a * eu), abs=1e-14)
    assert abs(m.eg) < 1e-15


@pytest.mark.parametrize("trial", range(5))
def test_solve_matches_integral_oracle(trial):
    rng = np.random.default_rng(300 + trial)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g0_arr = x @ x.conj().T + 0.05 * np.eye(2)  # PSD, min eigenvalue > 1e-6
    y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    g1_arr = 0.5 * (y + y.conj().T)

    m = solve_symmetric_product(
        Hermitian2(ee=g0_arr[0, 0].real, gg=g0_arr[1, 1].real, eg=g0_arr[0, 1]),
        Hermitian2(ee=g1_arr[0, 0].real, gg=g1_arr[1, 1].real, eg=g1_arr[0, 1]),
    ).as_array()
    residual = g0_arr @ m + m @ g0_arr - 2 * g1_arr
    assert np.max(np.abs(residual)) < 1e-10
    assert np.max(np.abs(m - matrix_exp_product_integral(g0_arr, g1_arr))) < 1e-8


def test_degenerate_weight_rejected():
    with pytest.raises(DegenerateGamma0):
        solve_symmetric_product(Hermitian2(1.0, 0.0), Hermitian2(0.5, 0.5))


def test_qubit_state_validation():
    QubitState(Hermitian2(0.25, 0.75))
    with pytest.raises(ValueError):
        QubitState(Hermitian2(0.5, 0.6))
    with pytest.raises(ValueError):
        QubitState(Hermitian2(1.2, -0.2))
