"""Exact 2x2 complex Hermitian algebra for the two-level system.

Matrices are stored by their three independent real degrees of freedom
(both diagonal entries and the upper off-diagonal entry), so Hermiticity
holds by construction.  Basis order is fixed as (|e>, |g>).

The eigendecomposition uses the closed trace/determinant formulas rather
than an iterative solver, and the symmetric operator equation

    G0 M + M G0 = 2 G1

is solved exactly in the eigenbasis of G0 via M_ij = 2 G1_ij / (l_i + l_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGamma0

__all__ = [
    "Hermitian2",
    "QubitState",
    "eigendecompose",
    "solve_symmetric_product",
]

_PHASE_TOL = 1e-300


@dataclass(frozen=True)
class Hermitian2:
    """2x2 Hermitian matrix; ``ee``/``gg`` diagonal, ``eg`` upper entry."""

    ee: float
    gg: float
    eg: complex = 0j

    def as_array(self) -> np.ndarray:
        return np.array(
            [[self.ee, self.eg], [np.conj(self.eg), self.gg]], dtype=complex
        )

    @staticmethod
    def from_array(m: np.ndarray, tol: float = 1e-10) -> "Hermitian2":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected 2x2 matrix, got shape {m.shape}")
        if abs(m[0, 1] - np.conj(m[1, 0])) > tol or max(
            abs(m[0, 0].imag), abs(m[1, 1].imag)
        ) > tol:
            raise ValueError("matrix is not Hermitian within tolerance")
        return Hermitian2(ee=m[0, 0].real, gg=m[1, 1].real, eg=m[0, 1])

    @property
    def trace(self) -> float:
        return self.ee + self.gg


@dataclass(frozen=True)
class QubitState:
    """Unit-trace, positive-semidefinite 2x2 density matrix."""

    matrix: Hermitian2

    def __post_init__(self):
        if abs(self.matrix.trace - 1.0) > 1e-12:
            raise ValueError(f"trace {self.matrix.trace!r} differs from 1")
        lo, _ = _eigenvalues(self.matrix)
        if lo < -1e-12:
            raise ValueError(f"state not positive semidefinite (min eigenvalue {lo})")

    def as_array(self) -> np.ndarray:
        return self.matrix.as_array()

    @property
    def excited_population(self) -> float:
        return self.matrix.ee


def _eigenvalues(m: Hermitian2) -> tuple[float, float]:
    half_diff = 0.5 * (m.ee - m.gg)
    mean = 0.5 * (m.ee + m.gg)
    r = math.hypot(half_diff, abs(m.eg))
    return mean - r, mean + r


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # first component of magnitude above threshold is rotated to the
    # positive real axis; deterministic for any input phase
    for comp in v:
        if abs(comp) > _PHASE_TOL:
            return v * (np.conj(comp) / abs(comp))
    return v


def eigendecompose(m: Hermitian2) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of ``m``.

    Returns ``(w, v)`` with ``w`` shape (2,) ascending and ``v`` shape (2, 2),
    eigenvector ``v[:, k]`` belonging to ``w[k]``.  The phase convention makes
    the first nonzero component of each eigenvector real and positive.
    """
    if abs(m.eg) == 0.0:
        # diagonal: exact eigenvalues straight from the entries (the
        # trace/radius formula would cancel a tiny entry against a large
        # one), basis vectors ordered to match ascending eigenvalues
        if m.ee <= m.gg:
            return np.array([m.ee, m.gg]), np.eye(2, dtype=complex)
        return np.array([m.gg, m.ee]), np.array([[0, 1], [1, 0]], dtype=complex)
    lo, hi = _eigenvalues(m)
    w = np.array([lo, hi])

    vecs = []
    for lam in w:
        # (m - lam) annihilates (eg, lam - ee) and (lam - gg, conj(eg));
        # pick the better-conditioned construction
        cand_a = np.array([m.eg, lam - m.ee], dtype=complex)
        cand_b = np.array([lam - m.gg, np.conj(m.eg)], dtype=complex)
        v = cand_a if np.linalg.norm(cand_a) >= np.linalg.norm(cand_b) else cand_b
        v = v / np.linalg.norm(v)
        vecs.append(_fix_phase(v))
    return w, np.column_stack(vecs)


def solve_symmetric_product(
    gamma0: Hermitian2, gamma1: Hermitian2, pair_floor: float = 1e-14
) -> Hermitian2:
    """Solve G0 M + M G0 = 2 G1 for Hermitian M, with G0 >= 0.

    Worked in the eigenbasis of ``gamma0``: with G0 = V diag(l) V† the
    transformed solution is M_ij = 2 (V† G1 V)_ij / (l_i + l_j).  Raises
    :class:`DegenerateGamma0` when any needed pair sum l_i + l_j falls at or
    below ``pair_floor``.
    """
    w, v = eigendecompose(gamma0)
    pair = w[:, None] + w[None, :]
    if np.any(pair <= pair_floor):
        raise DegenerateGamma0(
            f"eigenvalue pair sums {pair.min()} <= {pair_floor}: "
            "operator equation is ill posed"
        )
    g1t = v.conj().T @ gamma1.as_array() @ v
    mt = 2.0 * g1t / pair
    m = v @ mt @ v.conj().T
    m = 0.5 * (m + m.conj().T)  # scrub roundoff asymmetry
    return Hermitian2(ee=m[0, 0].real, gg=m[1, 1].real, eg=m[0, 1])
