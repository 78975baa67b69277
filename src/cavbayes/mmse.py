"""Minimum mean-square error estimation of the coupling strength.

The optimal quadratic-cost estimator is the Hermitian operator solving

    G0 M + M G0 = 2 G1,      G_k = int g^k z(g) rho(g) dg,

measured in its own eigenbasis; the eigenvalues are the estimates and the
attained average cost is  Tr{G2 - M G0 M}.  The moment operators G_k are
built from the detector-time state, so flight damping is already folded in.

Every moment call takes a whole sweep axis: :func:`gamma_moments` a tuple of
scenarios and :func:`gamma_moments_dissipative` an array of interaction
times, each returning the batch of triples that :func:`mmse_estimator`
solves in one call.  A single scenario or time is the batch of one through
the same code.  At resonance every entry of G_k is a finite photon-ladder
sum of the prior's exact moments M_k(omega) = int z(g) g^k e^{i omega g} dg
(:func:`priors.characteristic_moments`), for any field, evaluated over one
(points x ladder) grid of omega.  Detuned moments and the in-cavity damped
variant integrate the state against the prior by quadrature; points whose
node counts agree share one rule and one density-weighted moment matrix.
Every batch is processed in chunks of at most ``_CHUNK_ELEMENTS`` grid
elements, so a long sweep holds no larger arrays than a short one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import priors as priors_mod
from .dynamics import (
    FieldState,
    Scenario,
    _check_truncation,
    detector_matrix_elements,
    dissipative_populations,
    reduced_state,
)
from .priors import Prior, density
from .qubit import (
    Hermitian2,
    eigendecompose,
    solve_symmetric_product,
    square,
    trace_product,
)

__all__ = [
    "GammaTriple",
    "MmseResult",
    "gamma_moments",
    "gamma_moments_quadrature",
    "gamma_moments_dissipative",
    "mmse_estimator",
    "limit_eigenvalue_tau0",
    "average_estimate",
    "mse_of_estimator",
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
    ``projectors[:, k]`` is the measurement direction yielding estimate k.
    The result of a batch of moment operators holds every field with a
    leading batch axis; :meth:`row` is the result of one batch entry.
    """

    m_min: Hermitian2
    estimates: tuple[float, float]
    projectors: np.ndarray
    c_min: float

    def row(self, i: int) -> "MmseResult":
        return MmseResult(
            m_min=self.m_min.row(i),
            estimates=(float(self.estimates[0][i]), float(self.estimates[1][i])),
            projectors=self.projectors[i],
            c_min=float(self.c_min[i]),
        )

    def branch_estimates(self) -> tuple[float, float]:
        """(excited-branch, ground-branch) estimates.

        Branches are identified by eigenvector overlap with |e> and |g>;
        meaningful for the diagonal (resonant, vacuum) case where the
        estimator commutes with the bare qubit basis.
        """
        overlap_e = abs(self.projectors[0, 0]) ** 2
        if overlap_e >= 0.5:
            return self.estimates[0], self.estimates[1]
        return self.estimates[1], self.estimates[0]


def _chunks(count: int, width: int) -> list:
    """Slices of ``range(count)`` of at most max(1, _CHUNK_ELEMENTS // width) rows."""
    step = max(1, _CHUNK_ELEMENTS // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _entries(count: int) -> tuple:
    """Empty (3, count) ee, gg and eg arrays: entry k of G_k at every point."""
    return np.empty((3, count)), np.empty((3, count)), np.empty((3, count), dtype=complex)


def _triples(entries, single: bool) -> GammaTriple:
    """The batch of triples from (3, points) entry arrays, or with ``single``
    the one triple of their only point."""
    ee, gg, eg = entries
    if single:
        return GammaTriple(
            *(Hermitian2(ee=float(ee[k, 0]), gg=float(gg[k, 0]), eg=complex(eg[k, 0]))
              for k in range(3))
        )
    return GammaTriple(*(Hermitian2(ee=ee[k], gg=gg[k], eg=eg[k]) for k in range(3)))


def _integrate(prior: Prior, counts: list, points, states, out) -> None:
    """Moment operators by prior quadrature, written to columns ``points`` of
    ``out``; ``counts`` holds the node count of each point.

    Points sharing a node count share one rule and its (3, nodes) weights
    w z(g) g^k.  ``states(nodes, cols)`` gives the (cols x nodes) excited
    populations and coherences (None for diagonal states) of one chunk of
    them.  Each (k, point) sum runs along its own contiguous node axis, so a
    point's entries do not depend on the other points of its chunk.
    """
    groups = {}
    for n, i in zip(counts, points):
        groups.setdefault(n, []).append(i)
    ee, gg, eg = out
    for n, members in groups.items():
        rule = priors_mod.quadrature(prior, n)
        wz = rule.weights * density(prior, rule.nodes)
        wk = np.stack([wz * rule.nodes**k for k in (0, 1, 2)])[:, None, :]
        members = np.array(members)
        for rows in _chunks(len(members), len(rule.nodes)):
            cols = members[rows]
            a_ee, a_eg = states(rule.nodes, cols)
            ee[:, cols] = (wk * a_ee).sum(axis=-1)
            gg[:, cols] = (wk * (1.0 - a_ee)).sum(axis=-1)
            eg[:, cols] = 0.0 if a_eg is None else (wk * a_eg).sum(axis=-1)


def _resonant_moments(prior: Prior, scenarios, field: FieldState) -> tuple:
    """(3, points) entry arrays of the exact moment operators of resonant
    unitary transits.

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
    coeff = np.asarray(field.coefficients, dtype=complex)
    weight, pairs = np.abs(coeff) ** 2, coeff[1:] * np.conj(coeff[:-1])
    n_pairs = len(pairs)
    roots = np.sqrt(np.arange(1, len(coeff) + 1))
    pair_sum = roots[1:] + roots[:-1]  # omega^- = tau / pair_sum, free of cancellation
    tc, u = np.array([(sc.tau_c, sc.tau_f_gamma) for sc in scenarios]).T
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
    ee = damp * (mu * mass - half_ladder)
    gg = mu * rest + damp * half_ladder
    eg = 0.5j * np.sqrt(damp) * coherence if n_pairs else np.zeros(ee.shape, dtype=complex)
    return ee, gg, eg


def _quadrature_moments(
    prior: Prior, scenarios: tuple, points: np.ndarray, field: FieldState, n_points, out
) -> None:
    """Moment operators by prior quadrature of the scenarios ``points``,
    written to those columns of ``out``; the state kernel runs point by
    point over the nodes of its rule."""
    roots = math.sqrt(len(field.coefficients))
    counts = [
        priors_mod.nodes_for_oscillation(prior, 2.0 * scenarios[i].tau_c * roots)
        if n_points is None else n_points
        for i in points
    ]

    def states(nodes, cols):
        elements = [detector_matrix_elements(nodes, scenarios[i], field) for i in cols]
        return np.array([a[0] for a in elements]), np.array([a[1] for a in elements])

    _integrate(prior, counts, points, states, out)


def gamma_moments(
    prior: Prior, scenario, field: FieldState, n_points: int | None = None
) -> GammaTriple:
    """Moment operators of the detector-time state.

    ``scenario`` is one :class:`Scenario`, giving one triple, or a tuple of
    them (a sweep axis), giving the batch of triples in order.  Resonant
    unitary transits take the exact ladder sums of the prior's
    characteristic moments, for any field and flight decay; detuned ones
    integrate by quadrature (:func:`gamma_moments_quadrature`), and
    ``n_points`` sizes only that quadrature.
    """
    single = not isinstance(scenario, tuple)
    scenarios = (scenario,) if single else scenario
    resonant = [sc.delta == 0.0 and sc.is_unitary_transit for sc in scenarios]
    if all(resonant):
        out = _resonant_moments(prior, scenarios, field)
    else:
        out = _entries(len(scenarios))
        detuned = np.flatnonzero(np.logical_not(resonant))
        _quadrature_moments(prior, scenarios, detuned, field, n_points, out)
        if any(resonant):
            points = np.flatnonzero(resonant)
            exact = _resonant_moments(prior, [scenarios[i] for i in points], field)
            for entry, part in zip(out, exact):
                entry[:, points] = part
    return _triples(out, single=single)


def gamma_moments_quadrature(prior: Prior, scenario, field: FieldState) -> GammaTriple:
    """Moment operators by prior quadrature of the detector-time state: the
    path at Delta != 0 and the oracle of the exact resonant path.

    ``scenario`` is one scenario or a tuple of them, as in
    :func:`gamma_moments`.  The node count is raised automatically so the
    fastest Rabi oscillation, cos(2 l tau_c) at the ladder top, is resolved.
    """
    single = not isinstance(scenario, tuple)
    scenarios = (scenario,) if single else scenario
    out = _entries(len(scenarios))
    _quadrature_moments(prior, scenarios, np.arange(len(scenarios)), field, None, out)
    return _triples(out, single=single)


def gamma_moments_dissipative(
    prior: Prior, tau_c, gamma: float, kappa: float
) -> GammaTriple:
    """Moment operators for the in-cavity damped variant (diagonal states).

    ``tau_c`` is one interaction time, giving one triple, or an array of
    them, giving the batch of triples in order.  Times sharing a node count
    share one rule, and each chunk of them one population grid.
    """
    taus = np.atleast_1d(np.asarray(tau_c, dtype=float))
    counts = [priors_mod.nodes_for_oscillation(prior, 2.0 * float(t)) for t in taus]
    out = _entries(len(taus))
    _integrate(
        prior, counts, range(len(taus)),
        lambda nodes, cols: (dissipative_populations(nodes, taus[cols, None], gamma, kappa), None),
        out,
    )
    return _triples(out, single=np.ndim(tau_c) == 0)


def mmse_estimator(gammas: GammaTriple, gamma_tau_f=0.0) -> MmseResult:
    """Solve for the optimal estimator and its average cost.

    The flight damping is already folded into the moment operators;
    ``gamma_tau_f`` only rescales the degeneracy floor of the operator
    solve.  Heavy flight decay shrinks the excited-row entries of every
    moment operator by the same exp(-gamma tau_f), leaving their ratios
    (hence the estimator) well conditioned, so genuinely ill-posed inputs
    are flagged relative to that known scale rather than in absolute terms.

    A batch of moment operators (from one moment call over a sweep axis) is
    solved in one call, with ``gamma_tau_f`` a scalar or one value per entry;
    a single triple is solved as a batch of one.
    """
    batch = gammas.gamma0.is_batch
    if not batch:
        gammas = GammaTriple(
            *(Hermitian2.stack([m]) for m in (gammas.gamma0, gammas.gamma1, gammas.gamma2))
        )
    floor = 1e-14 * np.minimum(1.0, np.exp(-np.asarray(gamma_tau_f, dtype=float)))
    m = solve_symmetric_product(gammas.gamma0, gammas.gamma1, pair_floor=floor)
    w, v = eigendecompose(m)
    m_arr = m.as_array()
    g0_arr = gammas.gamma0.as_array()
    c_min = np.trace(
        gammas.gamma2.as_array() - m_arr @ g0_arr @ m_arr, axis1=-2, axis2=-1
    ).real
    result = MmseResult(
        m_min=m, estimates=(w[:, 0], w[:, 1]), projectors=v, c_min=c_min
    )
    return result if batch else result.row(0)


def limit_eigenvalue_tau0(prior: Prior) -> float:
    """Ground-branch estimate in the zero-interaction-time limit.

    Both prior families share the limit g0 (3 sigma^2 + g0^2)/(sigma^2 + g0^2)
    even though the estimator itself is undefined at exactly zero time.
    """
    g0, var = priors_mod.moments(prior)
    return g0 * (3.0 * var + g0**2) / (var + g0**2)


def average_estimate(
    result: MmseResult, g, scenario: Scenario, field: FieldState, rho=None
):
    """Mean recorded estimate conditioned on the true coupling, Tr{M rho(g)}.

    ``g`` may be an array of couplings, one output per entry.  A caller
    holding the states rho(g) (of the same shape as ``g``) passes them as
    ``rho``.
    """
    if rho is None:
        rho = reduced_state(g, scenario, field)
    avg = trace_product(result.m_min, rho.matrix)
    return avg if np.ndim(g) else float(avg)


def mse_of_estimator(
    result: MmseResult, g, scenario: Scenario, field: FieldState, rho=None
):
    """Conditional mean-squared error Tr{(M - g I)^2 rho(g)}.

    ``g`` and ``rho`` as in :func:`average_estimate`.
    """
    if rho is None:
        rho = reduced_state(g, scenario, field)
    m = result.m_min
    dev = Hermitian2(ee=m.ee - g, gg=m.gg - g, eg=m.eg)
    mse = trace_product(square(dev), rho.matrix)
    return mse if np.ndim(g) else float(mse)

