"""Accuracy bound: the quantum Cramer-Rao bound on the conditional MSE.

For a state family rho(g) the symmetrized logarithmic derivative L solves
d rho/dg = (L rho + rho L)/2, and a biased estimation strategy with response
slope x'(g) = d E[estimate | g]/dg obeys

    E[(estimate - g)^2 | g]  >=  |x'(g)|^2 / Tr{rho L^2}.

Each report holds the conditional MSE, that bound, x' and Tr{rho L^2}, and
nothing else.  The resonant vacuum family is diagonal and takes P' and the
Fisher entry in closed form; every other family builds L in the eigenbasis
of rho (:func:`sld_general`).  The closed-form diagonal L and the
first-power variant |x'|/Tr{rho L^2} are test references in
:mod:`cavbayes.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ml as ml_mod
from .dynamics import FieldState, Scenario, reduced_state
from .mmse import MmseResult, mse_of_estimator
from .qubit import Hermitian2, QubitState, eigendecompose, square, trace_product

__all__ = ["BoundReport", "sld_general", "cr_bound_mmse", "cr_bound_ml"]


@dataclass(frozen=True)
class BoundReport:
    """Conditional MSE of a strategy at one coupling value, with its bound.

    The report of a batch of couplings holds one entry per coupling in every
    field; :meth:`row` is the report of one coupling.
    """

    g: float
    mse: float
    lower_bound: float
    sensitivity: float  # x'(g)
    fisher: float  # Tr{rho L^2}

    def row(self, i: int) -> "BoundReport":
        return BoundReport(
            g=float(self.g[i]),
            mse=float(self.mse[i]),
            lower_bound=float(self.lower_bound[i]),
            sensitivity=float(self.sensitivity[i]),
            fisher=float(self.fisher[i]),
        )


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


def sld_general(
    g,
    scenario: Scenario,
    field: FieldState,
    rho: Optional[QubitState] = None,
    drho: Optional[Hermitian2] = None,
) -> Hermitian2:
    """L for a general scenario, built in the eigenbasis of rho(g).

    L_ij = 2 (d rho)_ij / (p_i + p_j); entries with p_i + p_j below 1e-12 are
    set to zero (support convention at rank deficiency).  d rho/dg is the
    exact derivative from the state kernel.  An array ``g`` gives the batch
    of L, one per coupling.  A caller holding rho(g) and d rho/dg (of the
    shape of ``g``) passes them in as ``rho`` / ``drho``.
    """
    if rho is None or drho is None:
        rho, drho = reduced_state(g, scenario, field, derivative=True)
    batch = np.ndim(g) > 0
    m, d = (rho.matrix, drho) if batch else (
        Hermitian2.stack([rho.matrix]),
        Hermitian2.stack([drho]),
    )
    w, v = eigendecompose(m)
    vh = v.conj().swapaxes(-1, -2)
    dr_eig = vh @ d.as_array() @ v
    pair = w[:, :, None] + w[:, None, :]
    keep = pair > 1e-12
    l_eig = np.where(keep, 2.0 * dr_eig / np.where(keep, pair, 1.0), 0.0)
    l_mat = v @ l_eig @ vh
    out = Hermitian2(
        ee=l_mat[:, 0, 0].real,
        gg=l_mat[:, 1, 1].real,
        eg=0.5 * (l_mat[:, 0, 1] + np.conj(l_mat[:, 1, 0])),  # scrub asymmetry
    )
    return out if batch else out.row(0)


def _report(g, mse, xprime, fisher) -> BoundReport:
    """Batch report; a zero Fisher entry gives a zero bound.

    On the resonant vacuum family a stationary state has x' = 0 as well, and
    where a branch of L diverges the Fisher entry, and so the bound, is the
    regular limit of the ratio.
    """
    informative = fisher > 0.0
    return BoundReport(
        g=g,
        mse=mse,
        lower_bound=np.where(informative, xprime**2 / np.where(informative, fisher, 1.0), 0.0),
        sensitivity=xprime,
        fisher=fisher,
    )


def cr_bound_mmse(
    result: MmseResult,
    g,
    scenario: Scenario,
    field: Optional[FieldState] = None,
    rho: Optional[QubitState] = None,
    drho: Optional[Hermitian2] = None,
) -> BoundReport:
    """Bound report for the quadratic-cost estimator at true coupling g.

    Resonant vacuum scenarios with a diagonal estimator use the analytic
    response slope x'(g) = (m_e - m_g) P'(g) and Fisher entry of the
    diagonal family; every other scenario takes the exact d rho/dg from the
    state kernel, x' = Tr{M d rho} and L from :func:`sld_general`.

    An array ``g`` gives a batch report (see :meth:`BoundReport.row`) from
    one state evaluation; a scalar is a batch of one.  A caller holding the
    batch states rho and d rho/dg at ``np.atleast_1d(g)`` passes them as
    ``rho`` / ``drho``.
    """
    if field is None:
        field = FieldState.vacuum()
    diagonal = (
        scenario.delta == 0.0
        and abs(scenario.alpha) == 0.0
        and abs(result.m_min.eg) < 1e-12
    )
    batch = np.ndim(g) > 0
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if rho is None or (drho is None and not diagonal):
        states = reduced_state(g, scenario, field, derivative=not diagonal)
        rho, drho = (states, None) if diagonal else states
    mse = mse_of_estimator(result, g, scenario, field, rho=rho)

    if diagonal:
        dp, fisher = _diagonal_family(g, scenario.tau_c, scenario.tau_f_gamma)
        xprime = (result.m_min.ee - result.m_min.gg) * dp
    else:
        xprime = trace_product(result.m_min, drho)
        l_op = sld_general(g, scenario, field, rho=rho, drho=drho)
        fisher = trace_product(square(l_op), rho.matrix)
    rep = _report(g, mse, xprime, fisher)
    return rep if batch else rep.row(0)


def cr_bound_ml(povm: ml_mod.MlPovm, g, gamma_tau_f: float) -> BoundReport:
    """Bound report for the likelihood strategy at true coupling g.

    The mean estimate is g0 + c(g) m1 with c(g) = 2 P(g) - 1, so the response
    slope is x'(g) = 2 P'(g) m1; m1 = int x f_z dx and the MSE come from the
    exact f_z moments of :func:`ml.f_z_moments`, with no quadrature.  An
    array ``g`` gives a batch report (see :meth:`BoundReport.row`); a scalar
    is a batch of one.
    """
    batch = np.ndim(g) > 0
    g = np.atleast_1d(np.asarray(g, dtype=float))
    mse = ml_mod.ml_mse(povm, g, gamma_tau_f)
    m1, _ = ml_mod.f_z_moments(povm)
    dp, fisher = _diagonal_family(g, povm.tau_c, gamma_tau_f)
    rep = _report(g, mse, 2.0 * m1 * dp, fisher)
    return rep if batch else rep.row(0)
