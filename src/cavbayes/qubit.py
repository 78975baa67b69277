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

is solved exactly in the eigenbasis of A via X_ij = 2 B_ij / (l_i + l_j).
One solver serves both places the equation appears: the MMSE estimator
(G0 M + M G0 = 2 G1) and the symmetrized logarithmic derivative
(rho L + L rho = 2 d rho/dg).
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
    return a.ee * b.ee + a.gg * b.gg + 2.0 * (a.eg * np.conj(b.eg)).real


def square(m: Hermitian2) -> Hermitian2:
    """M^2 of a Hermitian matrix (or of each matrix of an array)."""
    eg2 = m.eg.real**2 + m.eg.imag**2
    return Hermitian2(ee=m.ee**2 + eg2, gg=m.gg**2 + eg2, eg=m.eg * (m.ee + m.gg))


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
    top = np.maximum(np.maximum(np.abs(ee), np.abs(gg)), np.abs(eg))
    # subnormal entries keep too few bits for the split and the rotation:
    # such matrices are scaled up exactly, their eigenvalues scaled back
    tiny = top < _TINY_SCALE
    if tiny.any():
        up = np.where(tiny, -np.frexp(top)[1], 0)
        ee, gg = np.ldexp(ee, up), np.ldexp(gg, up)
        eg = np.ldexp(eg.real, up) + 1j * np.ldexp(eg.imag, up)
    half_diff = 0.5 * (ee - gg)
    eg_abs = np.abs(eg)
    r = np.hypot(half_diff, eg_abs)
    diag = eg_abs == 0.0
    w = np.stack([0.5 * (ee + gg) - r, 0.5 * (ee + gg) + r], axis=-1)
    # the trace/radius formula would cancel a tiny entry against a large one
    w[diag] = np.stack([np.minimum(ee, gg), np.maximum(ee, gg)], axis=-1)[diag]

    t = eg_abs / np.where(diag, 1.0, np.abs(half_diff) + r)
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # e^{-i phi} from eg scaled to unit order, so a subnormal eg keeps its angle
    k = -np.frexp(np.maximum(np.abs(eg.real), np.abs(eg.imag)))[1]
    unit = np.where(diag, 1.0, np.ldexp(eg.real, k) - 1j * np.ldexp(eg.imag, k))
    phase = unit / np.abs(unit)
    lead = np.where(ee > gg, s, c)  # v- = (lead, -other e^{-i phi})
    other = np.where(ee > gg, c, s)  # v+ = (other, lead e^{-i phi})
    v = np.stack(
        [np.stack([lead, other], axis=-1), np.stack([-other, lead], axis=-1) * phase[..., None]],
        axis=-2,
    )  # v[..., component, k]
    # a first component at or below _PHASE_TOL hands the phase to the second
    low = v[..., 0, :].real <= _PHASE_TOL
    if low.any():
        flipped = v * (np.conj(phase)[..., None] * np.array([-1.0, 1.0]))[..., None, :]
        v = np.where(low[..., None, :], flipped, v)
    if tiny.any():
        w = np.ldexp(w, -up[..., None])
    return w, v


def solve_symmetric_product(
    gamma0: Hermitian2, gamma1: Hermitian2, pair_floor=1e-14
) -> Hermitian2:
    """Solve G0 M + M G0 = 2 G1 for Hermitian M, with G0 >= 0.

    Worked in the eigenbasis of ``gamma0``: with G0 = V diag(l) V† the
    transformed solution is M_ij = 2 (V† G1 V)_ij / (l_i + l_j).  Raises
    :class:`DegenerateGamma0` when any needed pair sum l_i + l_j falls at or
    below ``pair_floor``.  Entries whose pair sum is not positive, which only
    a negative floor lets through, are set to zero.  The real and imaginary
    parts are divided as reals: complex division takes 1/(l_i + l_j), which
    overflows for a subnormal pair sum.  Arrays of matrices are solved
    elementwise; ``pair_floor`` may then hold one floor per matrix.
    """
    w, v = eigendecompose(gamma0)
    pair = w[..., :, None] + w[..., None, :]
    floor = np.asarray(pair_floor, dtype=float)
    bad = np.flatnonzero((pair <= floor[..., None, None]).any(axis=(-2, -1)))
    if bad.size:
        i = bad[0]
        raise DegenerateGamma0(
            f"eigenvalue pair sums {pair.reshape(-1, 2, 2)[i].min()} <= "
            f"{floor.reshape(-1)[i] if floor.ndim else floor}: operator equation is ill posed"
        )
    vh = v.swapaxes(-1, -2).conj()
    keep = pair > 0.0
    mt = np.where(keep, 2.0 * (vh @ gamma1.as_array() @ v), 0.0)
    safe = np.where(keep, pair, 1.0)
    mt.real /= safe
    mt.imag /= safe
    m = v @ mt @ vh
    eg = 0.5 * (m[..., 0, 1] + np.conj(m[..., 1, 0]))  # scrub roundoff asymmetry
    return Hermitian2(ee=m[..., 0, 0].real[()], gg=m[..., 1, 1].real[()], eg=eg[()])
