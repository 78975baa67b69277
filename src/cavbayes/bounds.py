"""Accuracy bound: the quantum Cramer-Rao bound on the conditional MSE.

For a state family rho(g) the symmetrized logarithmic derivative L solves
d rho/dg = (L rho + rho L)/2, and a biased estimation strategy with response
slope x'(g) = d E[estimate | g]/dg obeys

    E[(estimate - g)^2 | g]  >=  |x'(g)|^2 / Tr{rho L^2}.

Each report holds the conditional MSE, that bound, x' and Tr{rho L^2}, and
nothing else.  The MMSE bound and L take the state they measure, rho(g) and
d rho/dg from :func:`dynamics.reduced_state`, and the likelihood bound the
POVM, whose flight decay it reads; none rebuilds a state.  Every MMSE report
solves rho L + L rho = 2 d rho/dg for L (:func:`sld_general`) with the
estimator's solver, :func:`qubit.solve_symmetric_product`, for any field
or detuning, and stays exact as rho nears a pure state.  The likelihood
strategy is defined on the diagonal resonant vacuum family alone, so its
report takes P' and the Fisher entry in closed form.  The closed-form
diagonal L and the first-power variant |x'|/Tr{rho L^2} are test
references in :mod:`cavbayes.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ml as ml_mod
from .mmse import MmseResult, mse_of_estimator
from .qubit import Hermitian2, QubitState, solve_symmetric_product, square, trace_product

__all__ = ["BoundReport", "sld_general", "cr_bound_mmse", "cr_bound_ml"]


@dataclass(frozen=True)
class BoundReport:
    """Conditional MSE of a strategy at one coupling value, with its bound.

    The report of a batch of couplings holds one entry per coupling in every
    field; that of one coupling holds numpy scalars.
    """

    g: float
    mse: float
    lower_bound: float
    sensitivity: float  # x'(g)
    fisher: float  # Tr{rho L^2}


def _diagonal_family(g: np.ndarray, tau_c: float, gamma_tau_f: float):
    """P' and Tr{rho L^2} for the resonant vacuum family diag(P, 1-P).

    Over a g array, with c = cos(g tau_c), s = sin(g tau_c), u the flight
    exponent and P = c^2 e^{-u}:

        P'          = -2 tau_c s c e^{-u},
        Tr{rho L^2} = P'^2/P + P'^2/(1-P) = 4 tau_c^2 s^2 e^{-u} / (1 - c^2 e^{-u}).

    The ground denominator is formed as (1 - e^{-u}) + e^{-u} s^2, free of
    the cancellation of 1 - c^2 as g tau_c -> 0 at u = 0.  The Fisher entry
    stays finite where c or the denominator vanishes, though a branch of L
    diverges there.  Returns ``(dp, fisher)``.
    """
    c = np.cos(g * tau_c)
    s = np.sin(g * tau_c)
    eu = math.exp(-gamma_tau_f)
    denom = -math.expm1(-gamma_tau_f) + eu * s * s
    dp = -2.0 * tau_c * s * c * eu
    fisher = 4.0 * tau_c**2 * eu * s * s / np.where(denom > 0.0, denom, 1.0)
    return dp, fisher


def sld_general(rho: QubitState, drho: Hermitian2) -> Hermitian2:
    """L of the state rho(g): the solution of rho L + L rho = 2 d rho/dg.

    Solved by the estimator's solver, whose Bloch form gives the eigenbasis
    solution L_ij = 2 (d rho)_ij / (p_i + p_j) without diagonalizing rho,
    and with no degeneracy floor: only entries whose pair sum is not
    positive are set to zero (support convention at rank deficiency).  Near
    a pure state a small p_i still carries a finite Fisher term
    |d rho_ii|^2 / p_i, so no larger cut is safe: dropping it would shrink
    Tr{rho L^2} and lift the bound above the MSE.  ``drho`` is the exact derivative from the state kernel
    (:func:`dynamics.reduced_state` with ``derivative=True``).  A batch of
    states gives the batch of L.
    """
    return solve_symmetric_product(rho.matrix, drho, pair_floor=-np.inf)


def _report(g: np.ndarray, mse, xprime, fisher) -> BoundReport:
    """Report of the couplings ``g``; a zero Fisher entry gives a zero bound.

    On the resonant vacuum family a stationary state has x' = 0 as well, and
    where a branch of L diverges the Fisher entry, and so the bound, is the
    regular limit of the ratio.
    """
    informative = fisher > 0.0
    bound = np.where(informative, xprime**2 / np.where(informative, fisher, 1.0), 0.0)
    return BoundReport(g[()], mse, bound[()], xprime, fisher)


def cr_bound_mmse(result: MmseResult, g, rho: QubitState, drho: Hermitian2) -> BoundReport:
    """Bound report for the quadratic-cost estimator at true coupling g.

    ``rho`` and ``drho`` are the state and d rho/dg at ``g``, of its shape.
    The response slope is x'(g) = Tr{M d rho}, which for the traceless
    d rho is (m_ee - m_gg) d rho_ee + 2 Re(m_eg conj(d rho_eg)), free of the
    cancellation of the two diagonal products; the Fisher entry is
    Tr{rho L^2} with L from :func:`sld_general`.  An array ``g`` gives a
    batch report, a scalar the report of one coupling.
    """
    g = np.asarray(g, dtype=float)
    m = result.m_min
    xprime = (m.ee - m.gg) * drho.ee + 2.0 * (m.eg.real * drho.eg.real + m.eg.imag * drho.eg.imag)
    fisher = trace_product(square(sld_general(rho, drho)), rho.matrix)
    return _report(g, mse_of_estimator(result, g, rho), xprime, fisher)


def cr_bound_ml(povm: ml_mod.MlPovm, g) -> BoundReport:
    """Bound report for the likelihood strategy at true coupling g.

    The mean estimate is g0 + c(g) m1 with c(g) = 2 P(g) - 1, so the response
    slope is x'(g) = 2 P'(g) m1; m1 = int x f_z dx and the MSE come from the
    exact f_z moments of :func:`ml.f_z_moments`, with no quadrature, and the
    flight decay u is the POVM's own.  An array ``g`` gives a batch report,
    a scalar the report of one coupling.
    """
    g = np.asarray(g, dtype=float)
    mse = ml_mod.ml_mse(povm, g)
    m1, _ = ml_mod.f_z_moments(povm)
    dp, fisher = _diagonal_family(g, povm.tau_c, povm.gamma_tau_f)
    return _report(g, mse, 2.0 * m1 * dp, fisher)
