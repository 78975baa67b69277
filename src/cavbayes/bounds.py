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
from .qubit import Hermitian2, QubitState, eigendecompose, square, trace_product

__all__ = ["BoundReport", "sld", "sld_general", "cr_bound_mmse", "cr_bound_ml"]


@dataclass(frozen=True)
class BoundReport:
    """Conditional MSE of a strategy at one coupling value, with its bounds.

    ``sld_diag`` holds the eigenvalues of L, or None when the pure-state edge
    makes L singular and the bound was taken by one-sided limit.  The report
    of a batch of couplings holds one entry per coupling in every field (an
    array, or a tuple for ``sld_diag`` and ``bound_display``); :meth:`row`
    is the report of one coupling.
    """

    g: float
    mse: float
    lower_bound: float
    sld_diag: Optional[tuple[float, float]]
    sensitivity: float  # x'(g)
    fisher: float  # Tr{rho L^2}
    bound_abs_sensitivity: float  # |x'| / Tr{rho L^2}, report-only
    bound_display: Optional[float] = None  # ML-Gaussian display variant

    def row(self, i: int) -> "BoundReport":
        return BoundReport(
            g=float(self.g[i]),
            mse=float(self.mse[i]),
            lower_bound=float(self.lower_bound[i]),
            sld_diag=self.sld_diag[i],
            sensitivity=float(self.sensitivity[i]),
            fisher=float(self.fisher[i]),
            bound_abs_sensitivity=float(self.bound_abs_sensitivity[i]),
            bound_display=self.bound_display[i],
        )


def _diagonal_family(g: np.ndarray, tau_c: float, gamma_tau_f: float):
    """P', Tr{rho L^2} and L for the resonant vacuum family diag(P, 1-P).

    Over a g array, with c = cos(g tau_c), s = sin(g tau_c), u the flight
    exponent and P = c^2 e^{-u}:

        P'          = -2 tau_c s c e^{-u},
        L_ee        = P'/P       = -2 tau_c s / c,
        L_gg        = -P'/(1-P)  = 2 tau_c s c e^{-u} / (1 - c^2 e^{-u}),
        Tr{rho L^2} = 4 tau_c^2 s^2 e^{-u} / (1 - c^2 e^{-u}).

    The Fisher entry stays finite at the pure-state edge c = 0, where L_ee
    diverges.  Returns ``(dp, fisher, l_ee, l_gg, singular)``.  ``singular``
    marks the couplings where c or the ground denominator is within 1e-12 of
    zero, so a branch of L diverges and its entries mean nothing; where the
    denominator vanishes the family is stationary, and dp and the Fisher
    entry are zero.
    """
    c = np.cos(g * tau_c)
    s = np.sin(g * tau_c)
    eu = math.exp(-gamma_tau_f)
    c_eu = c * eu
    denom = 1.0 - c * c_eu
    singular = (np.abs(c) <= 1e-12) | (denom <= 1e-12)
    safe = np.where(singular, 1.0, denom)
    dp = -2.0 * tau_c * s * c_eu
    fisher = 4.0 * tau_c**2 * eu * s * s / safe
    stationary = denom <= 0.0
    if stationary.any():
        dp, fisher = np.where(stationary, 0.0, dp), np.where(stationary, 0.0, fisher)
    l_ee = -2.0 * tau_c * s / np.where(singular, 1.0, c)
    l_gg = -dp / safe
    return dp, fisher, l_ee, l_gg, singular


def sld(g: float, tau_c: float, gamma_tau_f: float) -> Hermitian2:
    """Symmetrized logarithmic derivative for resonant vacuum interaction.

    Diagonal in the qubit basis.  Raises :class:`SingularSLD` at the
    pure-state edge cos(g tau_c) = 0 (and when the ground denominator
    underflows); bound evaluations there fall back to the regular limit of
    the bound itself.
    """
    _, _, l_ee, l_gg, singular = _diagonal_family(np.array([g]), tau_c, gamma_tau_f)
    if singular[0]:
        raise SingularSLD(
            f"cos(g tau_c) or 1 - cos^2(g tau_c) e^(-u) vanishes at g tau_c = "
            f"{g * tau_c}: a branch of L diverges"
        )
    return Hermitian2(ee=float(l_ee[0]), gg=float(l_gg[0]))


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


def _report(g, mse, xprime, fisher, sld_diag, display=None) -> BoundReport:
    """Batch report; a zero Fisher entry gives zero bounds."""
    informative = fisher > 0.0
    safe = np.where(informative, fisher, 1.0)
    if display is None:
        display = (None,) * len(g)
    return BoundReport(
        g=g,
        mse=mse,
        lower_bound=np.where(informative, xprime**2 / safe, 0.0),
        sld_diag=sld_diag,
        sensitivity=xprime,
        fisher=fisher,
        bound_abs_sensitivity=np.where(informative, np.abs(xprime) / safe, 0.0),
        bound_display=display,
    )


def _diagonal_report(g, mse, slope, tau_c, gamma_tau_f, display=None) -> BoundReport:
    """Batch report on the resonant vacuum family, whose L is diagonal.

    The response slope is x'(g) = ``slope`` P'(g).  A stationary family has
    x' = 0 as well and gets zero bounds; where L diverges ``sld_diag`` is
    None and the bound is the regular limit of the ratio.
    """
    dp, fisher, l_ee, l_gg, singular = _diagonal_family(g, tau_c, gamma_tau_f)
    sld_diag = tuple(
        None if bad else (float(a), float(b)) for a, b, bad in zip(l_ee, l_gg, singular)
    )
    return _report(g, mse, slope * dp, fisher, sld_diag, display)


def cr_bound_mmse(
    result: MmseResult,
    g,
    prior: Prior,
    scenario: Scenario,
    field: Optional[FieldState] = None,
    method: str = "auto",
    rho: Optional[QubitState] = None,
    drho: Optional[Hermitian2] = None,
) -> BoundReport:
    """Bound report for the quadratic-cost estimator at true coupling g.

    Resonant vacuum scenarios use the analytic response slope
    x'(g) = (m_e - m_g) P'(g) of the diagonal estimator; general scenarios
    take the exact d rho/dg from the state kernel and use x' = Tr{M d rho}.
    ``method`` forces one path ("closed" / "numeric") for cross-validation.

    An array ``g`` gives a batch report (see :meth:`BoundReport.row`) from
    one state evaluation; a scalar is a batch of one.  A caller holding the
    batch states rho and d rho/dg at ``np.atleast_1d(g)`` passes them as
    ``rho`` / ``drho``.
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
    batch = np.ndim(g) > 0
    g = np.atleast_1d(np.asarray(g, dtype=float))
    if rho is None or (drho is None and not diagonal):
        states = reduced_state(g, scenario, field, derivative=not diagonal)
        rho, drho = (states, None) if diagonal else states
    mse = mse_of_estimator(result, g, scenario, field, rho=rho)
    tc, u = scenario.tau_c, scenario.tau_f_gamma

    if diagonal:
        rep = _diagonal_report(g, mse, result.m_min.ee - result.m_min.gg, tc, u)
    else:
        xprime = trace_product(result.m_min, drho)
        l_op = sld_general(g, scenario, field, rho=rho, drho=drho)
        fisher = trace_product(square(l_op), rho.matrix)
        w, _ = eigendecompose(l_op)
        sld_diag = tuple((float(lo), float(hi)) for lo, hi in w)
        rep = _report(g, mse, xprime, fisher, sld_diag)
    return rep if batch else rep.row(0)


def _display_bound(povm: ml_mod.MlPovm, g: float, gamma_tau_f: float) -> Optional[float]:
    """The Gaussian-prior display variant of the likelihood bound at one g."""
    if povm.prior.kind != priors_mod.GAUSSIAN or not math.isfinite(povm.c_max):
        return None
    tc, sig = povm.tau_c, povm.prior.sigma
    eu = math.exp(-gamma_tau_f)
    s2 = math.sin(g * tc) ** 2
    if s2 == 0.0:
        return None
    return (
        (1.0 - (1.0 - s2) * eu)
        / s2
        * abs(math.sin(2.0 * g * tc))
        * 2.0
        * math.sqrt(5.0 * math.pi)
        * sig**2
        * math.exp(-2.0 * sig**2 * tc**2)
        * abs(povm._fz_scale)
    )


def cr_bound_ml(povm: ml_mod.MlPovm, g, gamma_tau_f: float) -> BoundReport:
    """Bound report for the likelihood strategy at true coupling g.

    The response slope is x'(g) = 2 P'(g) int x f_z(x) dx with the first-
    moment integral of f_z taken by quadrature; the MSE is the quadrature of
    (x - g)^2 against the conditional density.  For the Gaussian prior the
    display variant 2 sqrt(5 pi) sigma^2 e^{-2 sigma^2 tau_c^2} |c sin| form
    is attached for comparison.  An array ``g`` gives a batch report (see
    :meth:`BoundReport.row`) sharing one first-moment integral; a scalar is
    a batch of one.
    """
    batch = np.ndim(g) > 0
    g = np.atleast_1d(np.asarray(g, dtype=float))
    tc = povm.tau_c
    mse = np.array([ml_mod.ml_mse(povm, x, gamma_tau_f) for x in g.tolist()])

    rule = priors_mod.quadrature(
        povm.prior, priors_mod.nodes_for_oscillation(povm.prior, 2.0 * tc)
    )
    first_moment_fz = rule.integrate(rule.nodes * povm.f_z(rule.nodes))
    display = tuple(_display_bound(povm, x, gamma_tau_f) for x in g.tolist())
    rep = _diagonal_report(g, mse, 2.0 * first_moment_fz, tc, gamma_tau_f, display)
    return rep if batch else rep.row(0)
