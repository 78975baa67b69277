"""Exact 2x2 complex Hermitian algebra for the two-level system.

Matrices are stored by their three independent real degrees of freedom
(both diagonal entries and the upper off-diagonal entry), so Hermiticity
holds by construction.  Basis order is fixed as (|e>, |g>).  An array of
matrices stores the same three entries as arrays of one shape S, and every
routine here works elementwise over S; a single matrix is the shape-()
case of the same numpy expressions, and its scalar results come back as
numpy scalars.

The eigenvalues come from the closed trace/radius formulas and the
eigenvectors from one Jacobi rotation of the traceless part, with no
iterative solver.  The symmetric operator equation

    A X + X A = 2 B,   A >= 0,

has the eigenbasis solution X_ij = 2 B_ij / (l_i + l_j), which
:func:`solve_symmetric_product` writes out in Bloch form (A = a0 I + a.sigma)
on the real entry arrays, with no eigenvectors and no matrix products.
One solver serves both places the equation appears: the MMSE estimator
(G0 M + M G0 = 2 G1) and the symmetrized logarithmic derivative
(rho L + L rho = 2 d rho/dg).  The solve and Tr{A B} are real arithmetic on
the entry arrays, and every routine here gives each matrix of a batch the
bits of its single call.
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
    "square",
    "trace_product",
]

_PHASE_TOL = 1e-300
#: a matrix whose largest entry lies below this is rescaled by a power of
#: two before it is decomposed, so its entries keep their bits
_TINY_SCALE = 2.0**-500


@dataclass(frozen=True)
class Hermitian2:
    """2x2 Hermitian matrix; ``ee``/``gg`` diagonal, ``eg`` upper entry.

    With array entries of one shape S it holds one matrix per element of S;
    an ``eg`` left at its default zero broadcasts against them.
    """

    ee: float
    gg: float
    eg: complex = 0j

    def as_array(self) -> np.ndarray:
        """The (2, 2) complex matrix, or the S + (2, 2) array of entries of shape S."""
        ee = np.asarray(self.ee)
        out = np.empty(ee.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = ee
        out[..., 0, 1] = self.eg
        out[..., 1, 0] = np.conj(self.eg)
        out[..., 1, 1] = self.gg
        return out

    @property
    def trace(self) -> float:
        return self.ee + self.gg


@dataclass(frozen=True)
class QubitState:
    """Unit-trace, positive-semidefinite 2x2 density matrix.

    Over an array :class:`Hermitian2` it is an array of states, and every
    entry is checked; a single matrix takes the scalar ``math`` check.
    """

    matrix: Hermitian2

    def __post_init__(self):
        m = self.matrix
        trace = m.trace
        if getattr(m.ee, "ndim", 0):  # the entry farthest from unit trace stands for all
            lo = np.min(0.5 * trace - np.hypot(0.5 * (m.ee - m.gg), np.abs(m.eg)))
            trace = trace.flat[np.argmax(np.abs(trace - 1.0))]
        else:
            lo = 0.5 * trace - math.hypot(0.5 * (m.ee - m.gg), abs(m.eg))
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"trace {float(trace)!r} differs from 1")
        if lo < -1e-12:
            raise ValueError(f"state not positive semidefinite (min eigenvalue {lo})")

    def as_array(self) -> np.ndarray:
        return self.matrix.as_array()


def trace_product(a: Hermitian2, b: Hermitian2):
    """Tr{A B}, real for Hermitian A and B; elementwise over arrays."""
    return a.ee * b.ee + a.gg * b.gg + 2.0 * (a.eg.real * b.eg.real + a.eg.imag * b.eg.imag)


def square(m: Hermitian2) -> Hermitian2:
    """M^2 of a Hermitian matrix (or of each matrix of an array)."""
    eg2 = m.eg.real**2 + m.eg.imag**2
    return Hermitian2(ee=m.ee**2 + eg2, gg=m.gg**2 + eg2, eg=m.eg * (m.ee + m.gg))


def _lift(top):
    """Exponents that lift each matrix whose largest entry ``top`` lies
    below ``_TINY_SCALE`` to unit order by an exact power of two (0 for the
    others), or None when no matrix needs it: subnormal entries keep too
    few bits for the eigenvalue split."""
    tiny = top < _TINY_SCALE
    return np.where(tiny, -np.frexp(top)[1], 0) if tiny.any() else None


def _spectrum(ee, gg, eg_abs):
    """Half split (ee - gg)/2, radius r = hypot((ee - gg)/2, |eg|) and the
    ascending eigenvalues (lo, hi) = mean -+ r of the matrices with entries
    ``ee``, ``gg`` and |eg|.  A diagonal matrix takes its entries exactly,
    where mean -+ r would cancel a tiny entry against a large one."""
    half = 0.5 * (ee - gg)
    r = np.hypot(half, eg_abs)
    mean = 0.5 * (ee + gg)
    diag = eg_abs == 0.0
    lo = np.where(diag, np.minimum(ee, gg), mean - r)
    return half, r, lo, np.where(diag, np.maximum(ee, gg), mean + r)


def eigendecompose(m: Hermitian2) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of ``m``.

    Returns ``(w, v)`` with ``w`` shape (2,) ascending and ``v`` shape (2, 2),
    eigenvector ``v[:, k]`` belonging to ``w[k]``; entries of shape S give
    shapes S + (2,) and S + (2, 2).  The phase convention makes the first
    component above ``_PHASE_TOL`` of each eigenvector real and positive.

    The eigenvalues are mean -+ r with r = hypot((ee - gg)/2, |eg|), and
    those of a diagonal matrix are its entries.  The eigenvectors are one
    Jacobi rotation of the traceless part: with t = |eg| / (|ee - gg|/2 + r)
    in [0, 1], c = 1/sqrt(1 + t^2), s = t c and e^{-i phi} = conj(eg)/|eg|,

        v- = (s, -c e^{-i phi}),   v+ = (c, s e^{-i phi})   for ee > gg,

    with s and c swapped otherwise, so they are orthonormal to rounding at
    any eigenvalue split.
    """
    ee, gg = np.asarray(m.ee, dtype=float), np.asarray(m.gg, dtype=float)
    eg = np.asarray(m.eg, dtype=complex)
    up = _lift(np.maximum(np.maximum(np.abs(ee), np.abs(gg)), np.abs(eg)))
    if up is not None:  # eigenvalues are scaled back at the end
        ee, gg = np.ldexp(ee, up), np.ldexp(gg, up)
        eg = np.ldexp(eg.real, up) + 1j * np.ldexp(eg.imag, up)
    eg_abs = np.abs(eg)
    half_diff, r, lo, hi = _spectrum(ee, gg, eg_abs)
    diag = eg_abs == 0.0
    w = np.stack([lo, hi], axis=-1)

    t = eg_abs / np.where(diag, 1.0, np.abs(half_diff) + r)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # e^{-i phi} from eg scaled to unit order, so a subnormal eg keeps its angle
    k = -np.frexp(np.maximum(np.abs(eg.real), np.abs(eg.imag)))[1]
    unit = np.where(diag, 1.0, np.ldexp(eg.real, k) - 1j * np.ldexp(eg.imag, k))
    phase = unit / np.abs(unit)
    above = ee > gg
    lead = np.where(above, s, c)  # v- = (lead, -other e^{-i phi})
    other = np.where(above, c, s)  # v+ = (other, lead e^{-i phi})
    v = np.empty(np.shape(lead) + (2, 2), dtype=complex)  # v[..., component, k]
    v[..., 0, 0], v[..., 0, 1] = lead, other
    v[..., 1, 0], v[..., 1, 1] = -other * phase, lead * phase
    # a first component at or below _PHASE_TOL hands the phase to the second
    low = v[..., 0, :].real <= _PHASE_TOL
    if low.any():
        flipped = v * (np.conj(phase)[..., None] * np.array([-1.0, 1.0]))[..., None, :]
        v = np.where(low[..., None, :], flipped, v)
    if up is not None:
        w = np.ldexp(w, -up[..., None])
    return w, v


def solve_symmetric_product(
    gamma0: Hermitian2, gamma1: Hermitian2, pair_floor=1e-14
) -> Hermitian2:
    """Solve G0 M + M G0 = 2 G1 for Hermitian M, with G0 >= 0.

    The eigenbasis solution M_ij = 2 (V† G1 V)_ij / (l_i + l_j), written out
    in Bloch form.  With G0 = a0 I + a.sigma, G1 = b0 I + b.sigma, the
    eigenvalues l_lo,hi = a0 -+ |a| (the entries of a diagonal G0, exactly),
    the axis n = a/|a| of the upper eigenvector and its projectors
    P_lo,hi = (I -+ n.sigma)/2,

        M = sum_k (b'_k / l_k) P_k + 2 (b - (n.b) n).sigma / (l_lo + l_hi),
        b'_k = Tr{P_k G1} = b0 -+ n.b,

    in the coordinates ((ee - gg)/2, Re eg, Im eg), in which dot products
    are the Bloch ones.  The diagonal weights (1 -+ n_z)/2 of the projectors
    are formed free of cancellation, so a diagonal G0 gives
    M_ii = G1_ii / G0_ii exactly; the form x0 I + x.sigma would lose a
    small diagonal entry beside a large one.  Everything is real arithmetic
    on the entry arrays, with no eigenvectors, complex products or matrix
    products, so each matrix of a batch has the bits of its single call.
    Rounding enters through n and the eigenvalues: against a 50-digit solve
    the entries of M hold 1e-15 of the largest one over the moment
    operators of every transit model.  A G0 whose largest entry lies below
    ``_TINY_SCALE`` is solved with G0 and G1 lifted by the same exact power
    of two, which leaves M unchanged.

    Raises :class:`DegenerateGamma0` when any of the pair sums 2 l_lo,
    l_lo + l_hi and 2 l_hi falls at or below ``pair_floor``.  The terms
    whose pair sum is not positive, which only a negative floor lets
    through, are set to zero.  Arrays of matrices are solved elementwise;
    ``pair_floor`` may then hold one floor per matrix.
    """
    ee, gg, re, im = gamma0.ee, gamma0.gg, gamma0.eg.real, gamma0.eg.imag
    b_ee, b_gg, b_re, b_im = gamma1.ee, gamma1.gg, gamma1.eg.real, gamma1.eg.imag
    eg_abs = np.hypot(re, im)
    up = _lift(np.maximum(np.maximum(np.abs(ee), np.abs(gg)), eg_abs))
    if up is not None:
        ee, gg, re, im, b_ee, b_gg, b_re, b_im = (
            np.ldexp(x, up) for x in (ee, gg, re, im, b_ee, b_gg, b_re, b_im))
        eg_abs = np.hypot(re, im)
    half, r, lo, hi = _spectrum(ee, gg, eg_abs)
    low = 2.0 * (lo if up is None else np.ldexp(lo, -up))  # the smallest pair sum
    bad = low <= pair_floor
    if bad.any():
        low, floor = np.broadcast_arrays(low, pair_floor)
        i = np.flatnonzero(bad)[0]
        raise DegenerateGamma0(
            f"eigenvalue pair sums {low.flat[i]} <= {floor.flat[i]}: operator equation is ill posed"
        )
    # n is +z for G0 = a0 I; the weights <e|P_lo,hi|e> take the smaller
    # (1 - |nz|)/2 as t^2 / (2 (1 + |nz|)), 0 and 1 exactly for a diagonal G0
    scalar = r == 0.0
    unit = np.where(scalar, 1.0, r)
    nz, n_re, n_im, t = (half + scalar) / unit, re / unit, im / unit, eg_abs / unit
    small = 0.5 * t * t / (1.0 + np.abs(nz))
    e_lo, e_hi = small - np.minimum(nz, 0.0), small + np.maximum(nz, 0.0)
    bz = 0.5 * (b_ee - b_gg)
    nb_t = n_re * b_re + n_im * b_im
    nb = nz * bz + nb_t
    # a pair sum that is not positive divides by inf, so its term is zero
    q_lo = (e_lo * b_ee + e_hi * b_gg - nb_t) / np.where(lo > 0.0, lo, np.inf)
    q_hi = (e_hi * b_ee + e_lo * b_gg + nb_t) / np.where(hi > 0.0, hi, np.inf)
    half_pair = 0.5 * (lo + hi)
    half_pair = np.where(half_pair > 0.0, half_pair, np.inf)
    x_z = (bz - nb * nz) / half_pair
    dq = 0.5 * (q_hi - q_lo)
    eg = np.empty(np.shape(q_lo), dtype=complex)
    eg.real = dq * n_re + (b_re - nb * n_re) / half_pair
    eg.imag = dq * n_im + (b_im - nb * n_im) / half_pair
    return Hermitian2(
        ee=(e_lo * q_lo + e_hi * q_hi + x_z)[()], gg=(e_hi * q_lo + e_lo * q_hi - x_z)[()], eg=eg[()]
    )
