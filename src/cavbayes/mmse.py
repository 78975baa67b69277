"""Minimum mean-square error estimation of the coupling strength.

The optimal quadratic-cost estimator is the Hermitian operator solving

    G0 M + M G0 = 2 G1,      G_k = int g^k z(g) rho(g) dg,

measured in its own eigenbasis; the eigenvalues are the estimates and the
attained average cost is  Tr{G2 - M G0 M}.  The moment operators G_k are
built from the detector-time state, so flight damping is already folded in;
the conditional mean and MSE of an estimator take that state rho(g) itself.

Every moment call takes a whole sweep axis: :func:`gamma_moments` reads a
column :class:`Scenario` and returns the batch of triples, one per point,
that :func:`mmse_estimator` solves in one call.  A point scenario is the
0-d case of the same code, and its triple holds numpy scalars.  The
scenario picks its transit model: at
resonance every entry of G_k is a finite photon-ladder sum of the prior's
exact moments M_k(omega) = int z(g) g^k e^{i omega g} dg
(:func:`priors.characteristic_moments`), for any field, evaluated over one
(points x ladder) grid of omega.  Detuned moments integrate the state
against the prior by quadrature, and damped scenarios go in one call to
:func:`gamma_moments_dissipative`, which does the same for the damped
populations.  The node counts of all points come from one array call of
:func:`priors.nodes_for_oscillation`, and points whose counts agree share
one rule and one density-weighted moment matrix.  The detuned points of
one rule take one state-kernel call per chunk, on a column
:class:`Scenario` of them; every point of it is detuned, so of the kernel's
early-outs only the empty-ladder one is taken, for a vacuum field.
Every batch is processed in chunks of at most ``_CHUNK_ELEMENTS`` grid
elements (points x nodes x ladder levels on the detuned path), and never
less than one point, so a long sweep holds no larger arrays than a short one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import priors as priors_mod
from .dynamics import (
    FieldState,
    Scenario,
    _check_truncation,
    _check_vacuum,
    detector_matrix_elements,
    dissipative_populations,
    field_for,
)
from .priors import Prior, density
from .qubit import (
    Hermitian2,
    QubitState,
    eigendecompose,
    solve_symmetric_product,
    square,
    trace_product,
)

__all__ = [
    "GammaTriple",
    "MmseResult",
    "gamma_moments",
    "gamma_moments_dissipative",
    "mmse_estimator",
    "limit_eigenvalue_tau0",
    "average_estimate",
    "mse_of_estimator",
    "find_tau_star",
]

#: (points x columns) elements one chunk of a batched moment call evaluates
#: at once: ladder frequencies on the resonant path, nodes on the others
_CHUNK_ELEMENTS = 4096


@dataclass(frozen=True)
class GammaTriple:
    """Zeroth through second prior-moment operators of the detector state.

    With batch :class:`Hermitian2` entries it holds one triple per point of
    a sweep axis.
    """

    gamma0: Hermitian2
    gamma1: Hermitian2
    gamma2: Hermitian2


@dataclass(frozen=True)
class MmseResult:
    """Optimal estimator, its spectral data, and the attained average cost.

    ``estimates`` are the eigenvalues of the estimator in ascending order;
    ``projectors[..., :, k]`` is the measurement direction yielding
    estimate k.  The result of a batch of moment operators holds every field
    with the leading batch axis; that of one triple holds numpy scalars.
    """

    m_min: Hermitian2
    estimates: tuple[np.float64 | np.ndarray, np.float64 | np.ndarray]
    projectors: np.ndarray
    c_min: np.float64 | np.ndarray


def _chunks(count: int, width: int) -> list:
    """Slices of ``range(count)`` of at most max(1, _CHUNK_ELEMENTS // width) rows."""
    step = max(1, _CHUNK_ELEMENTS // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _entries(count: int) -> tuple:
    """Empty (3, count) ee, gg and eg arrays: entry k of G_k at every point."""
    return np.empty((3, count)), np.empty((3, count)), np.empty((3, count), dtype=complex)


def _triples(entries, shape: tuple) -> GammaTriple:
    """The triples from (3, points) entry arrays, with entries of ``shape``:
    () for a point (numpy scalars), (points,) for a column."""
    ee, gg, eg = (x.reshape(3, *shape) for x in entries)
    return GammaTriple(*(Hermitian2(ee=ee[k], gg=gg[k], eg=eg[k]) for k in range(3)))


def _integrate(prior: Prior, counts: np.ndarray, points: np.ndarray, states, out, levels: int) -> None:
    """Moment operators by prior quadrature, written to columns ``points`` of
    ``out``; ``counts`` holds the node count of each point.

    Points sharing a node count share one rule and its (3, nodes) weights
    w z(g) g^k.  ``states(nodes, cols)`` gives the (cols x nodes) excited
    populations and coherences (None for diagonal states) of one chunk of
    them, whose state grid holds ``levels`` ladder levels per node.  Each
    (k, point) sum runs along its own contiguous node axis, so a point's
    entries do not depend on the other points of its chunk.
    """
    ee, gg, eg = out
    for n in dict.fromkeys(counts.tolist()):
        rule = priors_mod.quadrature(prior, n)
        wz = rule.weights * density(prior, rule.nodes)
        wk = np.stack([wz * rule.nodes**k for k in (0, 1, 2)])[:, None, :]
        members = points[counts == n]
        for rows in _chunks(len(members), len(rule.nodes) * levels):
            cols = members[rows]
            a_ee, a_eg = states(rule.nodes, cols)
            ee[:, cols] = (wk * a_ee).sum(axis=-1)
            gg[:, cols] = (wk * (1.0 - a_ee)).sum(axis=-1)
            eg[:, cols] = 0.0 if a_eg is None else (wk * a_eg).sum(axis=-1)


def _resonant_moments(prior: Prior, columns: np.ndarray, points, field: FieldState, out) -> None:
    """Exact moment operators of the resonant unitary points (the mask
    ``points``) of the scenario ``columns``, written to those columns of ``out``.

    Sector n holds cos^2(g sqrt(n) tau) with weight w_n = |a_{n-1}|^2, and
    coherence pair m holds cos(g sqrt(m+1) tau) sin(g sqrt(m) tau) with
    amplitude p_m = a_m conj(a_{m-1}).  With u = gamma tau_f, W = sum w_n,
    D_k = mu_k - Re M_k free of cancellation (:func:`priors.cosine_deficits`)
    and omega_m^+- = (sqrt(m+1) +- sqrt(m)) tau, the entries are

        ee = e^{-u} sum_n w_n (mu_k - D_k(2 sqrt(n) tau) / 2),
        gg = mu_k (1 - e^{-u} W) + e^{-u} sum_n w_n D_k(2 sqrt(n) tau) / 2,
        eg = i e^{-u/2} sum_m p_m [Im M_k(omega_m^+) - Im M_k(omega_m^-)] / 2.

    The frequencies of all points form one (points x ladder) grid per chunk.
    """
    _check_truncation(field)
    tc, u = columns[:2, points]
    coeff = np.asarray(field.coefficients, dtype=complex)
    weight, pairs = np.abs(coeff) ** 2, coeff[1:] * np.conj(coeff[:-1])
    n_pairs = len(pairs)
    roots = np.sqrt(np.arange(1, len(coeff) + 1))
    pair_sum = roots[1:] + roots[:-1]  # omega^- = tau / pair_sum, free of cancellation
    mu, mass = np.array([[1.0], [prior.g0], [prior.g0**2 + prior.sigma**2]]), float(np.sum(weight))
    half_ladder = np.empty((3, len(tc)))
    coherence = np.empty((3, len(tc)), dtype=complex) if n_pairs else 0.0
    for rows in _chunks(len(tc), max(len(coeff), 2 * n_pairs)):
        t = tc[rows, None]
        deficits = np.array(priors_mod.cosine_deficits(prior, 2.0 * t * roots))
        half_ladder[:, rows] = (deficits * weight).sum(axis=-1) / 2.0
        if n_pairs:
            m_k = np.array(priors_mod.characteristic_moments(
                prior, np.concatenate([t * pair_sum, t / pair_sum], axis=1))).imag
            coherence[:, rows] = ((m_k[..., :n_pairs] - m_k[..., n_pairs:]) * pairs).sum(axis=-1)
    damp, decayed = np.exp(-u), -np.expm1(-u)
    rest = decayed + damp * (1.0 - mass)
    ee, gg, eg = out
    ee[:, points] = damp * (mu * mass - half_ladder)
    gg[:, points] = mu * rest + damp * half_ladder
    eg[:, points] = 0.5j * np.sqrt(damp) * coherence if n_pairs else 0.0


def _quadrature_moments(
    prior: Prior, scenario: Scenario, points: np.ndarray, field: FieldState, n_points, out
) -> None:
    """Moment operators by prior quadrature of the points ``points`` of
    ``scenario``, written to those columns of ``out``; the state kernel runs
    once per rule and chunk, on the chunk's sub-column of ``scenario``, or
    on ``scenario`` itself for a point."""
    columns = scenario.columns.reshape(3, -1)
    levels = len(field.coefficients)
    if n_points is None:
        counts = priors_mod.nodes_for_oscillation(prior, 2.0 * columns[0, points] * math.sqrt(levels), levels)
    else:
        counts = np.full(len(points), n_points)

    def states(nodes, cols):
        chunk = scenario if scenario.columns.ndim == 1 else Scenario(
            *map(tuple, columns[:, cols].tolist()), scenario.alpha, fock_cutoff=scenario.fock_cutoff)
        a_ee, a_eg = detector_matrix_elements(nodes, chunk, field)
        return a_ee, a_eg if levels > 1 else None  # a one-level field has no coherence

    _integrate(prior, counts, points, states, out, levels)


def gamma_moments(
    prior: Prior, scenario: Scenario, field: FieldState, n_points: int | None = None
) -> GammaTriple:
    """Moment operators of the detector-time state.

    A column ``scenario`` gives the batch of triples, one per point in
    column order, and a point scenario, its 0-d case, one triple of numpy
    scalars.  Resonant unitary transits
    take the exact ladder sums of the prior's characteristic moments, for
    any field and flight decay; detuned points integrate by quadrature, and
    ``n_points`` sizes only that quadrature.  A damped scenario goes to
    :func:`gamma_moments_dissipative` in one call over all its times, and
    ``field`` must then be the vacuum the damped transit starts in
    (``ValueError`` otherwise).
    """
    columns = scenario.columns
    if not scenario.is_unitary_transit:
        _check_vacuum(field)
        return gamma_moments_dissipative(prior, columns[0], scenario.gamma_cav, scenario.kappa)
    tc, _, delta = flat = columns.reshape(3, -1)
    out = _entries(len(tc))
    _resonant_moments(prior, flat, delta == 0.0, field, out)
    if delta.any():
        _quadrature_moments(prior, scenario, np.flatnonzero(delta), field, n_points, out)
    return _triples(out, columns.shape[1:])


def gamma_moments_dissipative(
    prior: Prior, tau_c, gamma: float, kappa: float
) -> GammaTriple:
    """Moment operators of the damped transit (diagonal states), the branch
    :func:`gamma_moments` takes for damped scenarios.

    ``tau_c`` is an array of interaction times, giving the batch of triples
    in order, or one time, its 0-d case, giving one triple.  Times sharing a
    node count share one rule, and each chunk of them one population grid.
    """
    taus = np.atleast_1d(np.asarray(tau_c, dtype=float))
    counts = priors_mod.nodes_for_oscillation(prior, 2.0 * taus)
    out = _entries(len(taus))
    _integrate(
        prior, counts, np.arange(len(taus)),
        lambda nodes, cols: (dissipative_populations(nodes, taus[cols, None], gamma, kappa), None),
        out, 1,
    )
    return _triples(out, np.shape(tau_c))


def mmse_estimator(gammas: GammaTriple, gamma_tau_f=0.0) -> MmseResult:
    """Solve for the optimal estimator and its average cost.

    The pair floor of the operator solve guards against rounding in the
    eigenvalues of G0.  A diagonal G0 (zero coherence: every resonant
    vacuum and damped triple) has exact eigenvalues, so its floor is 0 and
    M_ii = G1_ii / G0_ii is taken as is wherever G0_ii > 0.  Any other G0
    takes the floor 1e-14 min(1, exp(-gamma tau_f)): the flight damping is
    already folded into the moment operators, and ``gamma_tau_f`` only
    rescales this floor.  Heavy flight decay shrinks the excited-row entries
    of every moment operator by the same exp(-gamma tau_f), leaving their
    ratios (hence the estimator) well conditioned, so genuinely ill-posed
    inputs are flagged relative to that known scale rather than in absolute
    terms.  The cost Tr{G2 - M G0 M} is taken as Tr G2 - Tr{M G1}, equal
    for the solution M, with each diagonal product beside its own G2 entry:
    for a diagonal G0 each pair is the cost of one outcome.

    A batch of moment operators (from one moment call over a sweep axis) is
    solved in one call, with ``gamma_tau_f`` a scalar or one value per entry;
    a single triple is the shape-() case of the same expressions.
    """
    g0, g1, g2 = gammas.gamma0, gammas.gamma1, gammas.gamma2
    floor = np.where(
        np.asarray(g0.eg) == 0.0, 0.0,
        1e-14 * np.minimum(1.0, np.exp(-np.asarray(gamma_tau_f, dtype=float))),
    )
    m = solve_symmetric_product(g0, g1, pair_floor=floor)
    w, v = eigendecompose(m)
    c_min = (g2.ee - m.ee * g1.ee) + (g2.gg - m.gg * g1.gg) - 2.0 * (
        m.eg.real * g1.eg.real + m.eg.imag * g1.eg.imag)
    return MmseResult(
        m_min=m, estimates=(w[..., 0][()], w[..., 1][()]), projectors=v, c_min=c_min[()]
    )


def limit_eigenvalue_tau0(prior: Prior) -> float:
    """Ground-branch estimate in the zero-interaction-time limit.

    Both prior families share the limit g0 (3 sigma^2 + g0^2)/(sigma^2 + g0^2)
    even though the estimator itself is undefined at exactly zero time.
    """
    g0, var = priors_mod.moments(prior)
    return g0 * (3.0 * var + g0**2) / (var + g0**2)


def average_estimate(result: MmseResult, rho: QubitState):
    """Mean recorded estimate Tr{M rho(g)} in the detector state ``rho`` at
    the true coupling; a batch of states gives one mean per entry."""
    avg = trace_product(result.m_min, rho.matrix)
    return avg[()]


def mse_of_estimator(result: MmseResult, g, rho: QubitState):
    """Conditional mean-squared error Tr{(M - g I)^2 rho(g)}, with ``rho``
    the state at ``g`` and of its shape."""
    m = result.m_min
    dev = Hermitian2(ee=m.ee - g, gg=m.gg - g, eg=m.eg)
    mse = trace_product(square(dev), rho.matrix)
    return mse[()]


#: times of the coarse tau-star scan
_TAU_SCAN_POINTS = 300
#: ratio of the spacing of each vertex step's triple to the one before
_STEP_SHRINK = 32.0


def _vertex(taus: np.ndarray, c: np.ndarray) -> float:
    """Vertex of the parabola through the costs ``c`` at three equally
    spaced times ``taus``, moved at most one spacing from the centre; a flat
    or non-convex triple keeps its centre."""
    curvature = c[0] - 2.0 * c[1] + c[2]
    if not curvature > 0.0:
        return float(taus[1])
    shift = min(max((c[0] - c[2]) / (2.0 * curvature), -1.0), 1.0)
    return float(taus[1] + (taus[1] - taus[0]) * shift)


def find_tau_star(prior: Prior, scenario: Scenario) -> tuple[float, float]:
    """Interaction time minimizing the average minimum cost, and that cost.

    A coarse scan of ``_TAU_SCAN_POINTS`` times over
    [0.05, 3] / (g0 sqrt(1 + |alpha|^2)) guards against the oscillatory cost
    landscape at larger photon numbers; the window shrinks with the Rabi
    rate of the mean photon number |alpha|^2, not of the Fock cutoff, which
    may sit far above it.  Two vertex steps then refine the best scan point.
    Its triple (it and its neighbours) moves to its parabola's vertex, where
    a triple at 1/``_STEP_SHRINK`` of the spacing is evaluated; that triple's
    vertex centres a last triple at 1/``_STEP_SHRINK`` of the spacing again,
    whose centre and cost are returned.  Against a fine zoom the result lies
    within 2e-8 / g0 of the minimum and 4e-15 above its cost for vacuum,
    coherent (|alpha| up to 16), detuned and damped scenarios.  A minimum at
    a window edge is returned within 1/``_STEP_SHRINK`` of a scan spacing of
    that edge.  The scan and each step are one moment call on a ``tau_c``
    column of ``scenario`` and one batched solve, damped scenarios included.
    """
    fld = field_for(scenario)

    def costs(taus):
        column = replace(scenario, tau_c=tuple(taus.tolist()))
        return mmse_estimator(gamma_moments(prior, column, fld), scenario.tau_f_gamma).c_min

    scale = prior.g0 * math.sqrt(1.0 + abs(scenario.alpha) ** 2)
    taus = np.linspace(0.05 / scale, 3.0 / scale, _TAU_SCAN_POINTS)
    c = costs(taus)
    best = min(max(int(np.argmin(c)), 1), _TAU_SCAN_POINTS - 2)
    triple, c = taus[best - 1:best + 2], c[best - 1:best + 2]
    for _ in range(2):
        spacing = (triple[1] - triple[0]) / _STEP_SHRINK
        triple = _vertex(triple, c) + spacing * np.array([-1.0, 0.0, 1.0])
        c = costs(triple)
    return float(triple[1]), float(c[1])
