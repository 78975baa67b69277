"""2x2 Hermitian algebra: eigendecomposition and the symmetric solve."""

import math

import mpmath
import numpy as np
import pytest

from cavbayes.dynamics import Scenario, field_for
from cavbayes.errors import DegenerateGamma0
from cavbayes.mmse import GammaTriple, gamma_moments, mmse_estimator
from cavbayes.priors import Prior
from cavbayes.qubit import (
    Hermitian2,
    QubitState,
    eigendecompose,
    solve_symmetric_product,
)
from conftest import matmul_solve, matrix_exp_product_integral


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


def _mp_matrix(m: Hermitian2):
    eg = mpmath.mpc(complex(m.eg))
    return mpmath.matrix([[mpmath.mpf(float(m.ee)), eg], [eg.conjugate(), mpmath.mpf(float(m.gg))]])


def _mp_solve(gamma0: Hermitian2, gamma1: Hermitian2, gamma2=None):
    """M from the vectorized 4x4 system (I (x) G0 + G0^T (x) I) vec M = 2 vec G1
    at 50 digits, and Tr{G2 - M G0 M} when ``gamma2`` is given."""
    with mpmath.workdps(50):
        a, b = _mp_matrix(gamma0), _mp_matrix(gamma1)
        system = mpmath.matrix(4, 4)
        for i, j, k, l in np.ndindex(2, 2, 2, 2):
            # (G0 M + M G0)_ij = sum_k G0_ik M_kj + M_ik G0_kj
            system[2 * i + j, 2 * k + l] = (a[i, k] if l == j else 0) + (a[l, j] if k == i else 0)
        x = mpmath.lu_solve(system, mpmath.matrix([2 * b[i, j] for i, j in np.ndindex(2, 2)]))
        m = mpmath.matrix([[x[0], x[1]], [x[2], x[3]]])
        if gamma2 is None:
            return m, None
        c = _mp_matrix(gamma2) - m * a * m
        return m, (c[0, 0] + c[1, 1]).real


def _relative_error(m: Hermitian2, ref) -> float:
    """Largest entry error of ``m`` against the mpmath ``ref``, relative to
    the largest entry of ``ref``."""
    dense = m.as_array()
    entries = [(complex(dense[i, j]), ref[i, j]) for i, j in np.ndindex(2, 2)]
    return float(max(abs(x - r) for x, r in entries) / max(abs(r) for _, r in entries))


def _moment_triples():
    """(triple, u) of seeded sweep columns: both priors, vacuum, coherent,
    coherent detuned and damped fields, ten points each."""
    rng = np.random.default_rng(20261021)
    for kind in ("gaussian", "uniform"):
        for family in ("vacuum", "coherent", "detuned", "damped"):
            taus = tuple(rng.uniform(0.05, 3.0, 10).tolist())
            us = tuple(rng.uniform(0.0, 1.0, 10).tolist())
            alpha = rng.uniform(0.2, 2.0) * complex(math.cos(1.0), math.sin(1.0))
            if family == "damped":
                rates = rng.uniform(0.1, 2.0, 2)
                sc, us = Scenario(tau_c=taus, kappa=rates[0], gamma_cav=rates[1]), (0.0,) * 10
            elif family == "vacuum":
                sc = Scenario(tau_c=taus, tau_f_gamma=us)
            else:
                delta = tuple(rng.uniform(0.1, 2.0, 10).tolist()) if family == "detuned" else 0.0
                sc = Scenario(tau_c=taus, tau_f_gamma=us, delta=delta, alpha=alpha, fock_cutoff=16)
            gammas = gamma_moments(Prior(kind, 1.0, rng.uniform(0.2, 1.5)), sc, field_for(sc))
            for i in range(10):
                yield tuple(Hermitian2(g.ee[i], g.gg[i], g.eg[i]) for g in (
                    gammas.gamma0, gammas.gamma1, gammas.gamma2)), us[i]


# near-degenerate, diagonal, subnormal and 1e300-scale weights, each with a
# G1 of its own scale
_EDGE_PAIRS = [
    (Hermitian2(0.5 + split, 0.5 - split, coupling), Hermitian2(0.3, -0.1, 0.2 + 0.4j))
    for split in (0.0, 1e-18, 1e-12, 5e-4) for coupling in (1e-18j, 3e-13 + 1e-13j, 2e-9)
] + [
    (Hermitian2(0.7, 0.3), Hermitian2(0.2, 0.9, 0.3 - 0.1j)),
    (Hermitian2(0.5, 0.5), Hermitian2(0.4, -0.2, 0.3 + 0.1j)),
    (Hermitian2(5.4e-23, 1.0), Hermitian2(4.9e-23, 1.1)),
    (Hermitian2(3e-310, 1e-310, 1e-310 + 5e-311j), Hermitian2(2e-310, -1e-310, 3e-311j)),
    (Hermitian2(2.0**-600, 2.0**-601, 1j * 2.0**-602), Hermitian2(2.0**-601, 2.0**-600, 2.0**-603)),
    (Hermitian2(3e300, 1e300, 1e300 + 5e299j), Hermitian2(1e300, -2e300, 2e300 - 1e300j)),
]


def test_solve_against_mpmath_is_no_worse_than_matmul():
    # the Bloch solve and the eigenbasis matmul solve it replaced, both held
    # to the 50-digit solve of the vectorized equation: entries of M relative
    # to the largest one, and c_min of the estimator over the moment triples
    m_err, c_err = [], []  # (new, old) pairs
    for (g0, g1, g2), u in _moment_triples():
        ref, c_ref = _mp_solve(g0, g1, g2)
        res = mmse_estimator(GammaTriple(g0, g1, g2), u)
        old = matmul_solve(g0, g1, pair_floor=0.0)
        dense = old.as_array()
        c_old = np.trace(g2.as_array() - dense @ g0.as_array() @ dense).real
        m_err.append((_relative_error(res.m_min, ref), _relative_error(old, ref)))
        c_err.append(tuple(float(abs(c - c_ref) / abs(c_ref)) for c in (res.c_min, c_old)))
    for g0, g1 in _EDGE_PAIRS:
        ref, _ = _mp_solve(g0, g1)
        m_err.append(tuple(_relative_error(solve(g0, g1, pair_floor=0.0), ref)
                           for solve in (solve_symmetric_product, matmul_solve)))
    (m_new, m_old), (c_new, c_old) = np.max(m_err, axis=0), np.max(c_err, axis=0)
    assert m_new <= m_old and m_new <= 1e-15
    assert c_new <= c_old and c_new <= 1e-14


def test_degenerate_weight_rejected():
    with pytest.raises(DegenerateGamma0):
        solve_symmetric_product(Hermitian2(1.0, 0.0), Hermitian2(0.5, 0.5))


def test_qubit_state_validation():
    QubitState(Hermitian2(0.25, 0.75))
    with pytest.raises(ValueError):
        QubitState(Hermitian2(0.5, 0.6))
    with pytest.raises(ValueError):
        QubitState(Hermitian2(1.2, -0.2))
