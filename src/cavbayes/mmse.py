"""Minimum mean-square error estimation of the coupling strength.

The optimal quadratic-cost estimator is the Hermitian operator solving

    G0 M + M G0 = 2 G1,      G_k = int g^k z(g) rho(g) dg,

measured in its own eigenbasis; the eigenvalues are the estimates and the
attained average cost is  Tr{G2 - M G0 M}.  The moment operators G_k are
built from the detector-time state, so flight damping is already folded in.

For resonant interaction with a vacuum field the moments are diagonal and
have closed-form entries (``closed_form_abc``); the general path integrates
the reduced state against the prior numerically.  Both paths feed the same
operator solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import priors as priors_mod
from .dynamics import (
    FieldState,
    Scenario,
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
    "gamma_moments_dissipative",
    "closed_form_abc",
    "closed_form_gammas",
    "mmse_estimator",
    "limit_eigenvalue_tau0",
    "average_estimate",
    "mse_of_estimator",
    "min_cost_closed_form",
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


def _oscillation_rate(scenario: Scenario, field: FieldState) -> float:
    # highest angular frequency in g of cos(2 l_n tau_c) across the ladder
    n_top = max(1, field.cutoff + 1)
    return 2.0 * scenario.tau_c * math.sqrt(n_top)


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
    ee = np.sum(wk * a_ee, axis=1)
    gg = np.sum(wk * (1.0 - a_ee), axis=1)
    eg = np.zeros(3) if a_eg is None else np.sum(wk * a_eg, axis=1)
    return GammaTriple(
        *(
            Hermitian2(ee=float(ee[k]), gg=float(gg[k]), eg=complex(eg[k]))
            for k in range(3)
        )
    )


def gamma_moments(
    prior: Prior,
    scenario: Scenario,
    field: FieldState,
    n_points: int | None = None,
) -> GammaTriple:
    """Moment operators by prior quadrature of the detector-time state.

    The node count is raised automatically so the fastest Rabi oscillation
    across the photon ladder is resolved; pass ``n_points`` to override.
    """
    if n_points is None:
        n_points = priors_mod.nodes_for_oscillation(
            prior, _oscillation_rate(scenario, field)
        )
    rule = priors_mod.quadrature(prior, n_points)
    a_ee, a_eg = detector_matrix_elements(rule.nodes, scenario, field)
    return _prior_moments(prior, rule, a_ee, a_eg)


def gamma_moments_dissipative(
    prior: Prior,
    tau_c: float,
    gamma: float,
    kappa: float,
    n_points: int | None = None,
) -> GammaTriple:
    """Moment operators for the in-cavity damped variant (diagonal states)."""
    if n_points is None:
        n_points = priors_mod.nodes_for_oscillation(prior, 2.0 * tau_c)
    rule = priors_mod.quadrature(prior, n_points)
    pops = dissipative_populations(rule.nodes, tau_c, gamma, kappa)
    return _prior_moments(prior, rule, pops)


def closed_form_abc(prior: Prior, tau_c: float) -> tuple[float, float, float]:
    """Excited-row entries (a, b, c) of the moment operators, resonant vacuum.

    These are the exact prior integrals of cos^2(g tau_c) weighted by
    1, g, g^2.  Gaussian prior:

        a = [1 + E cos(2 g0 t)]/2,                E = exp(-2 sigma^2 t^2),
        b = [g0 + E(g0 cos(2 g0 t) - 2 sigma^2 t sin(2 g0 t))]/2,
        c = (g0^2+sigma^2) a - 2 g0 sigma^2 t E sin(2 g0 t)
            - 2 sigma^4 t^2 E cos(2 g0 t).

    Uniform prior on [g0 - w, g0 + w], w = sqrt(3) sigma, with A = 2 w t and
    B = 2 g0 t:

        a = 1/2 + sin(A) cos(B) / (2 A),
        b = g0/2 - sin(B) sin(A)/(8 w t^2)
            + [w sin(B) cos(A) + g0 cos(B) sin(A)]/(4 w t),
        c = (g0^2+sigma^2)/2 + (g0^2+3 sigma^2) sin(A) cos(B)/(4 w t)
            + [w cos(A) cos(B) - g0 sin(A) sin(B)]/(4 w t^2)
            - sin(A) cos(B)/(8 w t^3) + g0 sin(B) cos(A)/(2 t).

    The ground-row entries follow from the moment identities
    Tr G0 = 1, Tr G1 = g0, Tr G2 = g0^2 + sigma^2.
    """
    g0, sig = prior.g0, prior.sigma
    t = tau_c
    if prior.kind == priors_mod.GAUSSIAN:
        e = math.exp(-2.0 * sig**2 * t**2)
        cb = math.cos(2.0 * g0 * t)
        sb = math.sin(2.0 * g0 * t)
        a = (1.0 + e * cb) / 2.0
        b = (g0 + e * (g0 * cb - 2.0 * sig**2 * t * sb)) / 2.0
        c = (
            (g0**2 + sig**2) * (1.0 + e * cb) / 2.0
            - 2.0 * g0 * sig**2 * t * e * sb
            - 2.0 * sig**4 * t**2 * e * cb
        )
        return a, b, c

    w = math.sqrt(3.0) * sig
    if t == 0.0:
        return 1.0, g0, g0**2 + sig**2
    big_a = 2.0 * w * t
    big_b = 2.0 * g0 * t
    sa, ca = math.sin(big_a), math.cos(big_a)
    sb, cb = math.sin(big_b), math.cos(big_b)
    a = 0.5 + sa * cb / (2.0 * big_a)
    b = (
        g0 / 2.0
        - sb * sa / (8.0 * w * t**2)
        + (w * sb * ca + g0 * cb * sa) / (4.0 * w * t)
    )
    c = (
        (g0**2 + sig**2) / 2.0
        + (g0**2 + 3.0 * sig**2) * sa * cb / (4.0 * w * t)
        + (w * ca * cb - g0 * sa * sb) / (4.0 * w * t**2)
        - sa * cb / (8.0 * w * t**3)
        + g0 * sb * ca / (2.0 * t)
    )
    return a, b, c


def closed_form_gammas(prior: Prior, tau_c: float, gamma_tau_f: float) -> GammaTriple:
    """Moment operators from the closed-form entries (resonant vacuum path)."""
    a, b, c = closed_form_abc(prior, tau_c)
    g0, var = priors_mod.moments(prior)
    damp = math.exp(-gamma_tau_f)
    return GammaTriple(
        gamma0=Hermitian2(ee=a * damp, gg=1.0 - a * damp),
        gamma1=Hermitian2(ee=b * damp, gg=g0 - b * damp),
        gamma2=Hermitian2(ee=c * damp, gg=g0**2 + var - c * damp),
    )


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


def min_cost_closed_form(prior: Prior, tau_c: float, gamma_tau_f: float) -> float:
    """Average minimum cost on the resonant-vacuum closed-form path.

    Equals g0^2 + sigma^2 - b^2 e^{-u}/a - m2^2 (1 - a e^{-u}) with
    m2 = (g0 - b e^{-u})/(1 - a e^{-u}) and u the flight exponent.
    """
    a, b, _ = closed_form_abc(prior, tau_c)
    g0, var = priors_mod.moments(prior)
    eu = math.exp(-gamma_tau_f)
    m2 = (g0 - b * eu) / (1.0 - a * eu)
    return g0**2 + var - b**2 * eu / a - m2**2 * (1.0 - a * eu)
