"""Minimum mean-square error estimation of the coupling strength.

The optimal quadratic-cost estimator is the Hermitian operator solving

    G0 M + M G0 = 2 G1,      G_k = int g^k z(g) rho(g) dg,

measured in its own eigenbasis; the eigenvalues are the estimates and the
attained average cost is  Tr{G2 - M G0 M}.  The moment operators G_k are
built from the detector-time state, so flight damping is already folded in.

At resonance every entry of G_k is a finite photon-ladder sum of the prior's
exact moments M_k(omega) = int z(g) g^k e^{i omega g} dg
(:func:`priors.characteristic_moments`), for any field; detuned moments and
the in-cavity damped variant integrate the state against the prior by
quadrature.  Every path feeds the same operator solve.
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


@dataclass(frozen=True)
class GammaTriple:
    """Zeroth through second prior-moment operators of the detector state."""

    gamma0: Hermitian2
    gamma1: Hermitian2
    gamma2: Hermitian2

    @staticmethod
    def stack(triples) -> "GammaTriple":
        """Batch of the single triples ``triples``, in order."""
        return GammaTriple(
            *(
                Hermitian2.stack([getattr(t, name) for t in triples])
                for name in ("gamma0", "gamma1", "gamma2")
            )
        )


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


def _triple(ee, gg, eg) -> GammaTriple:
    """GammaTriple from the length-3 entry arrays of G0, G1, G2."""
    return GammaTriple(
        *(Hermitian2(ee=float(ee[k]), gg=float(gg[k]), eg=complex(eg[k])) for k in range(3))
    )


def _prior_moments(
    prior: Prior, rule: priors_mod.QuadratureRule, a_ee: np.ndarray, a_eg=None
) -> GammaTriple:
    """G_k = sum over nodes of w z(g) g^k rho(g), k = 0, 1, 2.

    ``a_ee`` and ``a_eg`` are the excited population and coherence of rho on
    the nodes (``a_eg=None`` for diagonal states).  The three moments of an
    entry are reduced together, row by row, in the same summation order as
    one reduction per moment.
    """
    wz = rule.weights * density(prior, rule.nodes)
    wk = np.stack([wz * rule.nodes**k for k in (0, 1, 2)])
    eg = np.zeros(3) if a_eg is None else np.sum(wk * a_eg, axis=1)
    return _triple(np.sum(wk * a_ee, axis=1), np.sum(wk * (1.0 - a_ee), axis=1), eg)


def _resonant_moments(prior: Prior, scenario: Scenario, field: FieldState) -> GammaTriple:
    """Exact moment operators of a resonant unitary transit.

    Sector n holds cos^2(g sqrt(n) tau) with weight w_n = |a_{n-1}|^2, and
    coherence pair m holds cos(g sqrt(m+1) tau) sin(g sqrt(m) tau) with
    amplitude p_m = a_m conj(a_{m-1}).  With u = gamma tau_f, W = sum w_n,
    D_k = mu_k - Re M_k free of cancellation (:func:`priors.cosine_deficits`)
    and omega_m^+- = (sqrt(m+1) +- sqrt(m)) tau, the entries are

        ee = e^{-u} sum_n w_n (mu_k - D_k(2 sqrt(n) tau) / 2),
        gg = mu_k (1 - e^{-u} W) + e^{-u} sum_n w_n D_k(2 sqrt(n) tau) / 2,
        eg = i e^{-u/2} sum_m p_m [Im M_k(omega_m^+) - Im M_k(omega_m^-)] / 2.
    """
    _check_truncation(field)
    coeff = np.asarray(field.coefficients, dtype=complex)
    weight, pairs = np.abs(coeff) ** 2, coeff[1:] * np.conj(coeff[:-1])
    roots = np.sqrt(np.arange(1, len(coeff) + 1))
    tc, damp = scenario.tau_c, math.exp(-scenario.tau_f_gamma)
    mu, mass = np.array([1.0, prior.g0, prior.g0**2 + prior.sigma**2]), float(np.sum(weight))
    half_ladder = np.stack(priors_mod.cosine_deficits(prior, 2.0 * tc * roots)) @ weight / 2.0
    eg = np.zeros(3, dtype=complex)
    if len(pairs):
        pair_sum = roots[1:] + roots[:-1]  # omega^- = tau / pair_sum, free of cancellation
        m_k = np.stack(priors_mod.characteristic_moments(
            prior, np.concatenate([tc * pair_sum, tc / pair_sum]))).imag
        eg = 0.5j * math.sqrt(damp) * ((m_k[:, : len(pairs)] - m_k[:, len(pairs) :]) @ pairs)
    rest = -math.expm1(-scenario.tau_f_gamma) + damp * (1.0 - mass)
    return _triple(damp * (mu * mass - half_ladder), mu * rest + damp * half_ladder, eg)


def gamma_moments(
    prior: Prior, scenario: Scenario, field: FieldState, n_points: int | None = None
) -> GammaTriple:
    """Moment operators of the detector-time state.

    Resonant unitary transits take the exact ladder sums of the prior's
    characteristic moments, for any field and flight decay; detuned ones
    integrate by quadrature (:func:`gamma_moments_quadrature`), and
    ``n_points`` sizes only that quadrature.
    """
    if scenario.delta == 0.0 and scenario.is_unitary_transit:
        return _resonant_moments(prior, scenario, field)
    return gamma_moments_quadrature(prior, scenario, field, n_points)


def gamma_moments_quadrature(
    prior: Prior, scenario: Scenario, field: FieldState, n_points: int | None = None
) -> GammaTriple:
    """Moment operators by prior quadrature of the detector-time state: the
    path at Delta != 0 and the oracle of the exact resonant path.

    The node count is raised automatically so the fastest Rabi oscillation,
    cos(2 l tau_c) at the ladder top, is resolved; ``n_points`` overrides it.
    """
    if n_points is None:
        rate = 2.0 * scenario.tau_c * math.sqrt(len(field.coefficients))
        n_points = priors_mod.nodes_for_oscillation(prior, rate)
    rule = priors_mod.quadrature(prior, n_points)
    a_ee, a_eg = detector_matrix_elements(rule.nodes, scenario, field)
    return _prior_moments(prior, rule, a_ee, a_eg)


def gamma_moments_dissipative(
    prior: Prior, tau_c: float, gamma: float, kappa: float
) -> GammaTriple:
    """Moment operators for the in-cavity damped variant (diagonal states)."""
    n_points = priors_mod.nodes_for_oscillation(prior, 2.0 * tau_c)
    rule = priors_mod.quadrature(prior, n_points)
    pops = dissipative_populations(rule.nodes, tau_c, gamma, kappa)
    return _prior_moments(prior, rule, pops)


def mmse_estimator(gammas: GammaTriple, gamma_tau_f=0.0) -> MmseResult:
    """Solve for the optimal estimator and its average cost.

    The flight damping is already folded into the moment operators;
    ``gamma_tau_f`` only rescales the degeneracy floor of the operator
    solve.  Heavy flight decay shrinks the excited-row entries of every
    moment operator by the same exp(-gamma tau_f), leaving their ratios
    (hence the estimator) well conditioned, so genuinely ill-posed inputs
    are flagged relative to that known scale rather than in absolute terms.

    A batch of moment operators (see :meth:`GammaTriple.stack`) is solved in
    one call, with ``gamma_tau_f`` a scalar or one value per entry; a single
    triple is solved as a batch of one.
    """
    batch = gammas.gamma0.is_batch
    if not batch:
        gammas = GammaTriple.stack([gammas])
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

