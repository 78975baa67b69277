"""Exact 2x2 complex Hermitian algebra for the two-level system.

Matrices are stored by their three independent real degrees of freedom
(both diagonal entries and the upper off-diagonal entry), so Hermiticity
holds by construction.  Basis order is fixed as (|e>, |g>).  A batch of
matrices stores the same three entries as 1-D arrays with a leading batch
axis; every routine here works on batches, and a single matrix is handled
as a batch of one.

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
    "square",
    "trace_product",
]

_PHASE_TOL = 1e-300
#: a matrix whose largest entry lies below this range is rescaled by a power
#: of two before its eigenvalues are taken, and one above it before its
#: eigenvectors are normalized, so squares neither under- nor overflow
_SAFE_SCALE = (2.0**-500, 2.0**500)
_EYE = np.eye(2, dtype=complex)
_SWAP = _EYE[::-1].copy()
_EYE.flags.writeable = False
_SWAP.flags.writeable = False
#: eigenvalue half-split, relative to |ee| + |gg|, below which eigenvectors
#: are built from the exact split rather than the rounded eigenvalues
_SPLIT_RESOLUTION = 1e-3


@dataclass(frozen=True)
class Hermitian2:
    """2x2 Hermitian matrix; ``ee``/``gg`` diagonal, ``eg`` upper entry.

    With 1-D array entries of one length it is a batch of matrices (see
    :meth:`stack` and :meth:`row`).
    """

    ee: float
    gg: float
    eg: complex = 0j

    def as_array(self) -> np.ndarray:
        """The (2, 2) complex matrix, or the (N, 2, 2) stack of a batch."""
        ee = np.asarray(self.ee)
        out = np.empty(ee.shape + (2, 2), dtype=complex)
        out[..., 0, 0] = ee
        out[..., 0, 1] = self.eg
        out[..., 1, 0] = np.conj(self.eg)
        out[..., 1, 1] = self.gg
        return out

    @staticmethod
    def stack(items) -> "Hermitian2":
        """Batch holding the single matrices ``items`` in order."""
        return Hermitian2(
            ee=np.array([m.ee for m in items], dtype=float),
            gg=np.array([m.gg for m in items], dtype=float),
            eg=np.array([m.eg for m in items], dtype=complex),
        )

    @property
    def is_batch(self) -> bool:
        return getattr(self.ee, "ndim", 0) > 0

    def row(self, i: int) -> "Hermitian2":
        """Matrix ``i`` of a batch."""
        eg = self.eg[i] if np.ndim(self.eg) else self.eg
        return Hermitian2(ee=float(self.ee[i]), gg=float(self.gg[i]), eg=complex(eg))

    @property
    def trace(self) -> float:
        return self.ee + self.gg


def _as_batch(m: Hermitian2) -> Hermitian2:
    """``m`` as a batch whose three entries are 1-D arrays of one length."""
    if not m.is_batch:
        return Hermitian2.stack([m])
    if np.ndim(m.eg) == 0:  # a batch left at the default zero coherence
        return Hermitian2(m.ee, m.gg, np.full(np.shape(m.ee), m.eg, dtype=complex))
    return m


@dataclass(frozen=True)
class QubitState:
    """Unit-trace, positive-semidefinite 2x2 density matrix.

    Over a batch :class:`Hermitian2` it is a batch of states, and every
    entry is checked.
    """

    matrix: Hermitian2

    def __post_init__(self):
        m = self.matrix
        trace = m.trace
        if m.is_batch:  # the entry farthest from unit trace stands for all
            lo = np.min(0.5 * trace - np.hypot(0.5 * (m.ee - m.gg), np.abs(m.eg)))
            trace = trace[np.argmax(np.abs(trace - 1.0))]
        else:
            lo = 0.5 * trace - math.hypot(0.5 * (m.ee - m.gg), abs(m.eg))
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"trace {float(trace)!r} differs from 1")
        if lo < -1e-12:
            raise ValueError(f"state not positive semidefinite (min eigenvalue {lo})")

    def as_array(self) -> np.ndarray:
        return self.matrix.as_array()

    @property
    def excited_population(self) -> float:
        return self.matrix.ee


def trace_product(a: Hermitian2, b: Hermitian2):
    """Tr{A B}, real for Hermitian A and B; elementwise over batches."""
    return a.ee * b.ee + a.gg * b.gg + 2.0 * (a.eg * np.conj(b.eg)).real


def square(m: Hermitian2) -> Hermitian2:
    """M^2 of a Hermitian matrix (or of each matrix of a batch)."""
    eg2 = m.eg.real**2 + m.eg.imag**2
    return Hermitian2(ee=m.ee**2 + eg2, gg=m.gg**2 + eg2, eg=m.eg * (m.ee + m.gg))


def _split(ee, gg, eg_abs):
    """(mean, half_diff, r): the eigenvalues are mean - r and mean + r."""
    half_diff = 0.5 * (ee - gg)
    mean = 0.5 * (ee + gg)
    # math.hypot, not numpy.hypot: the two differ in the last bit, and the
    # estimator outputs are pinned to the former
    r = np.fromiter(
        map(math.hypot, np.ravel(half_diff), np.ravel(eg_abs)), dtype=float
    ).reshape(np.shape(half_diff))
    return mean, half_diff, r


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, bit for bit numpy.linalg.norm.

    Row-times-column products take the same BLAS dot as the norm of a
    single vector, which rounds differently from an elementwise sum.
    """
    re, im = vectors.real[..., None, :], vectors.imag[..., None, :]
    return np.sqrt(
        (re @ re.swapaxes(-1, -2))[..., 0, 0] + (im @ im.swapaxes(-1, -2))[..., 0, 0]
    )


def eigendecompose(m: Hermitian2) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of ``m``.

    Returns ``(w, v)`` with ``w`` shape (2,) ascending and ``v`` shape (2, 2),
    eigenvector ``v[:, k]`` belonging to ``w[k]``; a batch gets shapes (N, 2)
    and (N, 2, 2).  The phase convention makes the first nonzero component of
    each eigenvector real and positive.
    """
    b = _as_batch(m)
    ee, gg, eg = b.ee, b.gg, b.eg
    eg_abs = np.hypot(eg.real, eg.imag)  # = abs() of each entry, bit for bit
    top = np.maximum(np.maximum(np.abs(ee), np.abs(gg)), eg_abs)
    # subnormal entries keep too few bits for the split and the vectors:
    # such matrices are scaled up exactly, their eigenvalues scaled back
    tiny = top < _SAFE_SCALE[0]
    if tiny.any():
        up = np.where(tiny, -np.frexp(top)[1], 0)
        ee, gg = np.ldexp(ee, up), np.ldexp(gg, up)
        eg = np.ldexp(eg.real, up) + 1j * np.ldexp(eg.imag, up)
        eg_abs = np.hypot(eg.real, eg.imag)
        top = np.ldexp(top, up)
    # diagonal: exact eigenvalues straight from the entries (the trace/radius
    # formula would cancel a tiny entry against a large one), basis vectors
    # ordered to match ascending eigenvalues
    diag = eg_abs == 0.0
    w_diag = np.stack([np.minimum(ee, gg), np.maximum(ee, gg)], axis=-1)
    v_diag = np.where((ee > gg)[:, None, None], _SWAP, _EYE)
    if diag.all():
        if tiny.any():
            w_diag = np.ldexp(w_diag, -up[:, None])
        return (w_diag, v_diag) if m.is_batch else (w_diag[0], v_diag[0])

    mean, half_diff, r = _split(ee, gg, eg_abs)
    w = np.stack([mean - r, mean + r], axis=-1)
    # (m - lam) annihilates (eg, lam - ee) and (lam - gg, conj(eg)); per
    # eigenvalue lam = w[:, k] pick the better-conditioned construction
    cand = np.empty((2,) + w.shape + (2,), dtype=complex)  # [a|b, n, k, component]
    cand[0, ..., 0] = eg[:, None]
    cand[0, ..., 1] = w - ee[:, None]
    cand[1, ..., 0] = w - gg[:, None]
    cand[1, ..., 1] = np.conj(eg)[:, None]

    # Rounding lam = mean -+ r costs lam - ee an absolute ulp of the mean,
    # which swamps a split r small against the entries.  There the vectors
    # come from the traceless part alone, with lam - ee = -half_diff -+ r
    # exactly; it is scaled by a power of two first so r stays exact when the
    # off-diagonal entry is tiny.
    near = r < _SPLIT_RESOLUTION * (np.abs(ee) + np.abs(gg))
    if near.any():
        shift = -np.frexp(np.maximum(np.abs(half_diff[near]), eg_abs[near]))[1]
        hd_s = np.ldexp(half_diff[near], shift)[:, None]
        eg_near = eg[near]
        eg_s = (np.ldexp(eg_near.real, shift) + 1j * np.ldexp(eg_near.imag, shift))[:, None]
        r_s = np.array([-1.0, 1.0]) * np.hypot(hd_s, np.abs(eg_s))
        cand[0, near, :, 0] = eg_s
        cand[0, near, :, 1] = r_s - hd_s
        cand[1, near, :, 0] = hd_s + r_s
        cand[1, near, :, 1] = np.conj(eg_s)

    if top.max() > _SAFE_SCALE[1]:
        # a power-of-two rescale changes no bit of the unit vectors
        shift = -np.frexp(np.abs(cand).max(axis=(0, 2, 3)))[1][:, None, None]
        cand.real, cand.imag = np.ldexp(cand.real, shift), np.ldexp(cand.imag, shift)
    norms = _norms(cand)
    use_a = norms[0] >= norms[1]
    norm = np.where(use_a, norms[0], norms[1])
    norm[diag] = 1.0  # both candidates may vanish there; those rows are reset
    vec = np.where(use_a[..., None], cand[0], cand[1]) / norm[..., None]
    # rotate the first component above threshold to the positive real axis (a
    # unit vector always has one)
    mag = np.hypot(vec.real, vec.imag)
    lead = mag[..., 0] > _PHASE_TOL
    pivot_mag = np.where(lead, mag[..., 0], mag[..., 1])
    pivot_mag[diag] = 1.0
    vec *= (np.conj(np.where(lead, vec[..., 0], vec[..., 1])) / pivot_mag)[..., None]
    v = vec.swapaxes(-1, -2)  # v[n, component, k]
    w[diag] = w_diag[diag]
    v[diag] = v_diag[diag]
    if tiny.any():
        w = np.ldexp(w, -up[:, None])
    return (w, v) if m.is_batch else (w[0], v[0])


def solve_symmetric_product(
    gamma0: Hermitian2, gamma1: Hermitian2, pair_floor=1e-14
) -> Hermitian2:
    """Solve G0 M + M G0 = 2 G1 for Hermitian M, with G0 >= 0.

    Worked in the eigenbasis of ``gamma0``: with G0 = V diag(l) V† the
    transformed solution is M_ij = 2 (V† G1 V)_ij / (l_i + l_j).  Raises
    :class:`DegenerateGamma0` when any needed pair sum l_i + l_j falls at or
    below ``pair_floor``.  Batches are solved elementwise; ``pair_floor`` may
    then hold one floor per matrix.
    """
    g0 = _as_batch(gamma0)
    w, v = eigendecompose(g0)
    pair = w[:, :, None] + w[:, None, :]
    floor = np.asarray(pair_floor, dtype=float)
    bad = np.flatnonzero((pair <= floor[..., None, None]).any(axis=(1, 2)))
    if bad.size:
        i = bad[0]
        floor_i = floor[i] if floor.ndim else floor
        raise DegenerateGamma0(
            f"eigenvalue pair sums {pair[i].min()} <= {floor_i}: "
            "operator equation is ill posed"
        )
    vh = v.swapaxes(-1, -2).conj()
    g1t = vh @ _as_batch(gamma1).as_array() @ v
    mt = 2.0 * g1t / pair
    m = v @ mt @ vh
    m = 0.5 * (m + m.swapaxes(-1, -2).conj())  # scrub roundoff asymmetry
    out = Hermitian2(ee=m[:, 0, 0].real, gg=m[:, 1, 1].real, eg=m[:, 0, 1])
    return out if gamma0.is_batch else out.row(0)
