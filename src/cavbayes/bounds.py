"""Accuracy bounds: logarithmic derivative and lower bounds on the MSE.

For a state family rho(g) the symmetrized logarithmic derivative L solves
d rho/dg = (L rho + rho L)/2, and a biased estimation strategy with response
slope x'(g) = d E[estimate | g]/dg obeys

    E[(estimate - g)^2 | g]  >=  |x'(g)|^2 / Tr{rho L^2}.

``lower_bound`` reports that quadratic form.  A variant carrying |x'(g)| to
the first power has circulated for this system; it is computed alongside
(``bound_abs_sensitivity``) because several closed-form displays use it, but
numerical checks show it can exceed the conditional MSE, so it is reported
and never asserted.  For the likelihood strategy a second display variant
with a 2 sqrt(5 pi) sigma^2 prefactor is also surfaced (``bound_display``)
for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ml as ml_mod
from . import priors as priors_mod
from .dynamics import FieldState, Scenario, reduced_state
from .errors import SingularSLD
from .mmse import MmseResult, mse_of_estimator
from .priors import Prior
from .qubit import Hermitian2, QubitState, eigendecompose

__all__ = ["BoundReport", "sld", "sld_general", "cr_bound_mmse", "cr_bound_ml"]


@dataclass(frozen=True)
class BoundReport:
    """Conditional MSE of a strategy at one coupling value, with its bounds.

    ``sld_diag`` holds the eigenvalues of L, or None when the pure-state edge
    makes L singular and the bound was taken by one-sided limit.
    """

    g: float
    mse: float
    lower_bound: float
    sld_diag: Optional[tuple[float, float]]
    sensitivity: float  # x'(g)
    fisher: float  # Tr{rho L^2}
    bound_abs_sensitivity: float  # |x'| / Tr{rho L^2}, report-only
    bound_display: Optional[float] = None  # ML-Gaussian display variant


def _diagonal_sld_entries(
    g: float, tau_c: float, gamma_tau_f: float
) -> tuple[float, float]:
    """Diagonal L for the resonant vacuum family diag(P, 1-P).

    P = cos^2(g tau_c) e^{-u}; the entries are P'/P and -P'/(1-P):

        L_ee = -2 tau_c tan(g tau_c),
        L_gg = tau_c sin(2 g tau_c) e^{-u} / (1 - cos^2(g tau_c) e^{-u}).
    """
    c = math.cos(g * tau_c)
    eu = math.exp(-gamma_tau_f)
    denom = 1.0 - c * c * eu
    if abs(c) <= 1e-12:
        raise SingularSLD(f"cos(g tau_c) = {c}: excited branch of L diverges")
    if denom <= 1e-12:
        raise SingularSLD(f"1 - cos^2(g tau_c) e^(-u) = {denom}: ground branch of L diverges")
    l_ee = -2.0 * tau_c * math.tan(g * tau_c)
    l_gg = tau_c * math.sin(2.0 * g * tau_c) * eu / denom
    return l_ee, l_gg


def sld(g: float, tau_c: float, gamma_tau_f: float) -> Hermitian2:
    """Symmetrized logarithmic derivative for resonant vacuum interaction.

    Diagonal in the qubit basis.  Raises :class:`SingularSLD` at the
    pure-state edge cos(g tau_c) = 0 (and when the ground denominator
    underflows); bound evaluations there fall back to the regular limit of
    the bound itself.
    """
    l_ee, l_gg = _diagonal_sld_entries(g, tau_c, gamma_tau_f)
    return Hermitian2(ee=l_ee, gg=l_gg)


def _rho_derivative(
    g: float, scenario: Scenario, field: FieldState, step: Optional[float] = None
) -> np.ndarray:
    """d rho / dg by central differences with one Richardson refinement."""
    h = 1e-6 * max(abs(g), 1.0) if step is None else step

    def diff(hh: float) -> np.ndarray:
        hi = reduced_state(g + hh, scenario, field).as_array()
        lo = reduced_state(g - hh, scenario, field).as_array()
        return (hi - lo) / (2.0 * hh)

    d1 = diff(h)
    d2 = diff(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def sld_general(
    g: float,
    scenario: Scenario,
    field: FieldState,
    step: Optional[float] = None,
    rho: Optional[QubitState] = None,
    drho: Optional[np.ndarray] = None,
) -> Hermitian2:
    """L for a general scenario, built in the eigenbasis of rho(g).

    L_ij = 2 (d rho)_ij / (p_i + p_j); entries with p_i + p_j below 1e-12 are
    set to zero (support convention at rank deficiency).  A caller holding
    rho(g) or its derivative already passes them in as ``rho`` / ``drho``.
    """
    if rho is None:
        rho = reduced_state(g, scenario, field)
    w, v = eigendecompose(rho.matrix)
    if drho is None:
        drho = _rho_derivative(g, scenario, field, step)
    dr_eig = v.conj().T @ drho @ v
    pair = w[:, None] + w[None, :]
    l_eig = np.where(pair > 1e-12, 2.0 * dr_eig / np.where(pair > 1e-12, pair, 1.0), 0.0)
    l_mat = v @ l_eig @ v.conj().T
    l_mat = 0.5 * (l_mat + l_mat.conj().T)
    return Hermitian2(ee=l_mat[0, 0].real, gg=l_mat[1, 1].real, eg=l_mat[0, 1])


def _fisher_diagonal(g: float, tau_c: float, gamma_tau_f: float) -> float:
    """Tr{rho L^2} for the resonant vacuum family, in its regular form.

    Equals 4 tau_c^2 sin^2(g tau_c) e^{-u} / (1 - cos^2(g tau_c) e^{-u});
    finite at the pure-state edge even where L itself diverges.
    """
    eu = math.exp(-gamma_tau_f)
    s2 = math.sin(g * tau_c) ** 2
    denom = 1.0 - (1.0 - s2) * eu
    if denom <= 0.0:
        raise SingularSLD("state family stationary: no information in rho(g)")
    return 4.0 * tau_c**2 * s2 * eu / denom


def _report(
    g: float, mse: float, xprime: float, fisher: float, sld_diag, display=None
) -> BoundReport:
    if fisher <= 0.0:
        lower = 0.0
        first = 0.0
    else:
        lower = xprime**2 / fisher
        first = abs(xprime) / fisher
    return BoundReport(
        g=g,
        mse=mse,
        lower_bound=lower,
        sld_diag=sld_diag,
        sensitivity=xprime,
        fisher=fisher,
        bound_abs_sensitivity=first,
        bound_display=display,
    )


def cr_bound_mmse(
    result: MmseResult,
    g: float,
    prior: Prior,
    scenario: Scenario,
    field: Optional[FieldState] = None,
    method: str = "auto",
) -> BoundReport:
    """Bound report for the quadratic-cost estimator at true coupling g.

    Resonant vacuum scenarios use the analytic response slope
    x'(g) = (m_e - m_g) P'(g) of the diagonal estimator; general scenarios
    differentiate rho numerically and use x' = Tr{M d rho}.  ``method``
    forces one path ("closed" / "numeric") for cross-validation.
    """
    del prior  # the prior enters through the estimator itself
    if field is None:
        field = FieldState.vacuum()
    diagonal = (
        scenario.delta == 0.0
        and abs(scenario.alpha) == 0.0
        and abs(result.m_min.eg) < 1e-12
    )
    if method == "closed":
        if not diagonal:
            raise ValueError("closed path requires a resonant vacuum scenario")
    elif method == "numeric":
        diagonal = False
    elif method != "auto":
        raise ValueError(f"unknown method {method!r}")
    mse = mse_of_estimator(result, g, scenario, field)
    tc, u = scenario.tau_c, scenario.tau_f_gamma

    if diagonal:
        m_e, m_g = result.m_min.ee, result.m_min.gg
        dp = -tc * math.sin(2.0 * g * tc) * math.exp(-u)
        xprime = (m_e - m_g) * dp
        try:
            fisher = _fisher_diagonal(g, tc, u)
        except SingularSLD:
            # stationary family: x' vanishes identically there too
            return _report(g, mse, 0.0, 0.0, None)
        try:
            sld_diag = _diagonal_sld_entries(g, tc, u)
        except SingularSLD:
            sld_diag = None  # bound taken as the regular limit of the ratio
        return _report(g, mse, xprime, fisher, sld_diag)

    rho_state = reduced_state(g, scenario, field)
    drho = _rho_derivative(g, scenario, field)
    xprime = float(np.trace(result.m_min.as_array() @ drho).real)
    l_op = sld_general(g, scenario, field, rho=rho_state, drho=drho)
    rho = rho_state.as_array()
    l_arr = l_op.as_array()
    fisher = float(np.trace(rho @ l_arr @ l_arr).real)
    w, _ = eigendecompose(l_op)
    return _report(g, mse, xprime, fisher, (float(w[0]), float(w[1])))


def cr_bound_ml(povm: ml_mod.MlPovm, g: float, gamma_tau_f: float) -> BoundReport:
    """Bound report for the likelihood strategy at true coupling g.

    The response slope is x'(g) = 2 P'(g) int x f_z(x) dx with the first-
    moment integral of f_z taken by quadrature; the MSE is the quadrature of
    (x - g)^2 against the conditional density.  For the Gaussian prior the
    display variant 2 sqrt(5 pi) sigma^2 e^{-2 sigma^2 tau_c^2} |c sin| form
    is attached for comparison.
    """
    tc = povm.tau_c
    mse = ml_mod.ml_mse(povm, g, gamma_tau_f)

    rule = priors_mod.quadrature(
        povm.prior, priors_mod.nodes_for_oscillation(povm.prior, 2.0 * tc)
    )
    first_moment_fz = rule.integrate(rule.nodes * povm.f_z(rule.nodes))
    dp = -tc * math.sin(2.0 * g * tc) * math.exp(-gamma_tau_f)
    xprime = 2.0 * dp * first_moment_fz
    try:
        fisher = _fisher_diagonal(g, tc, gamma_tau_f)
    except SingularSLD:
        return _report(g, mse, 0.0, 0.0, None)
    try:
        sld_diag = _diagonal_sld_entries(g, tc, gamma_tau_f)
    except SingularSLD:
        sld_diag = None

    display = None
    if povm.prior.kind == priors_mod.GAUSSIAN and math.isfinite(povm.c_max):
        sig = povm.prior.sigma
        eu = math.exp(-gamma_tau_f)
        s2 = math.sin(g * tc) ** 2
        if s2 > 0.0:
            display = (
                (1.0 - (1.0 - s2) * eu)
                / s2
                * abs(math.sin(2.0 * g * tc))
                * 2.0
                * math.sqrt(5.0 * math.pi)
                * sig**2
                * math.exp(-2.0 * sig**2 * tc**2)
                * abs(povm._fz_scale)
            )
    return _report(g, mse, xprime, fisher, sld_diag, display)
