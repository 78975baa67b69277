"""Scenario runner: config-driven point evaluations, sweeps, verification.

All configuration values are dimensionless products in units of the prior
mean (g0 tau_c, Delta/g0, sigma/g0, gamma tau_f, kappa/g0, ...), which is the
scale used everywhere downstream; internally the prior mean is set to one.

Subcommands
    state     print the detector-time density matrix at one coupling value
    mmse      optimal quadratic-cost estimator at the configured scenario
    ml        likelihood-optimal POVM constants and cost
    sweep     one row per axis point of a configured quantity
    tau-star  cost-minimizing interaction time
    verify    run the full verification battery (exit 2 on failure)

Exit codes: 0 success, 1 config error, 2 verification failure,
3 numeric error (degenerate scenario).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import ml as ml_mod
from . import mmse as mmse_mod
from . import oracle as oracle_mod
from . import priors as priors_mod
from .dynamics import FieldState, Scenario, dissipative_state, field_for, reduced_state
from .errors import (
    CavbayesError,
    ConfigError,
    DegenerateGamma0,
    SingularSLD,
    UnsupportedCombination,
)
from .priors import Prior

__all__ = ["SweepSpec", "Table", "run_sweep", "find_tau_star", "verify_all", "main"]

QUANTITIES = (
    "mmse_eigenvalues",
    "mmse_cost",
    "mmse_avg_estimate",
    "mmse_cr_bound",
    "ml_cost",
    "ml_avg_estimate",
    "ml_cr_bound",
    "dissipative_cost",
)
AXES = ("tau_c", "g_over_g0", "delta", "gamma_tau_f")

_SUPPORTED_AXES = {
    "mmse_eigenvalues": ("tau_c", "delta", "gamma_tau_f"),
    "mmse_cost": ("tau_c", "delta", "gamma_tau_f"),
    "mmse_avg_estimate": ("g_over_g0",),
    "mmse_cr_bound": ("g_over_g0",),
    "ml_cost": ("tau_c", "gamma_tau_f"),
    "ml_avg_estimate": ("g_over_g0", "tau_c"),
    "ml_cr_bound": ("g_over_g0",),
    "dissipative_cost": ("tau_c",),
}
#: float scenario knobs: config key -> Scenario field
_SCENARIO_KEYS = {"g0_tau_c": "tau_c", "gamma_tau_f": "tau_f_gamma", "delta_over_g0": "delta",
                  "kappa_over_g0": "kappa", "gamma_over_g0": "gamma_cav"}
#: config keys each scenario family pins to zero, and their Scenario fields
_FAMILIES = {
    "unitary": ("kappa_over_g0", "gamma_over_g0"),
    "resonant vacuum": ("kappa_over_g0", "gamma_over_g0", "delta_over_g0", "alpha_abs"),
    "damped": ("delta_over_g0", "alpha_abs", "gamma_tau_f"),
}
_FAMILY_OF = {"mmse": "unitary", "ml": "resonant vacuum", "dissipative": "damped"}
_KNOBS = {**_SCENARIO_KEYS, "alpha_abs": "alpha"}


def _check_family(name: str, scenario: Scenario) -> None:
    """Raise :class:`UnsupportedCombination` unless ``scenario`` is in the family
    that ``name`` evaluates (``state`` and ``tau-star``: unitary or damped)."""
    if name in ("state", "tau-star"):
        family = "unitary" if scenario.is_unitary_transit else "damped"
    else:
        family = _FAMILY_OF.get(name.split("_")[0])
    set_keys = [k for k in _FAMILIES.get(family, ()) if getattr(scenario, _KNOBS[k])]
    if set_keys:
        raise UnsupportedCombination(
            f"{name} needs a {family} scenario: " + ", ".join(f"{k} must be 0" for k in set_keys)
        )


@dataclass(frozen=True)
class SweepSpec:
    """One axis, one quantity, everything else pinned."""

    quantity: str
    axis: str
    lo: float
    hi: float
    n_points: int
    prior: Prior
    scenario: Scenario
    field: Optional[FieldState] = None

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise UnsupportedCombination(f"unknown quantity {self.quantity!r}")
        if self.axis not in AXES:
            raise UnsupportedCombination(f"unknown axis {self.axis!r}")
        if self.axis not in _SUPPORTED_AXES[self.quantity]:
            raise UnsupportedCombination(
                f"quantity {self.quantity!r} does not support axis {self.axis!r}; "
                f"supported: {_SUPPORTED_AXES[self.quantity]}"
            )
        if not self.lo < self.hi:
            raise UnsupportedCombination("sweep range must satisfy lo < hi")
        if self.n_points < 2:
            raise UnsupportedCombination("sweep needs at least 2 points")
        _check_family(self.quantity, self.scenario)

    def resolved_field(self) -> FieldState:
        return self.field if self.field is not None else field_for(self.scenario)


@dataclass
class Table:
    columns: list
    rows: list = dc_field(default_factory=list)


def _mmse_results(prior: Prior, scenarios: list, field: FieldState):
    """Estimators at every scenario: moments point by point, one batched solve."""
    gammas = mmse_mod.GammaTriple.stack(
        [mmse_mod.gamma_moments(prior, sc, field) for sc in scenarios]
    )
    return mmse_mod.mmse_estimator(gammas, [sc.tau_f_gamma for sc in scenarios])


def _dissipative_costs(prior: Prior, scenario: Scenario, taus) -> np.ndarray:
    gammas = mmse_mod.GammaTriple.stack(
        [
            mmse_mod.gamma_moments_dissipative(
                prior, float(tau), scenario.gamma_cav, scenario.kappa
            )
            for tau in taus
        ]
    )
    return mmse_mod.mmse_estimator(gammas).c_min


_AXIS_FIELDS = {"tau_c": "tau_c", "delta": "delta", "gamma_tau_f": "tau_f_gamma"}


def _at(spec: SweepSpec, value: float) -> Scenario:
    """The pinned scenario with the sweep axis set to ``value``."""
    if spec.axis not in _AXIS_FIELDS:
        return spec.scenario
    return replace(spec.scenario, **{_AXIS_FIELDS[spec.axis]: value})


def _ml_rows(spec: SweepSpec, values: list) -> list:
    """Likelihood rows.  Along ``g_over_g0`` the POVM is fixed, so one POVM
    at the pinned scenario and one batched call serve every row; along
    ``tau_c`` and ``gamma_tau_f`` each row builds its own POVM."""
    prior, q = spec.prior, spec.quantity
    if spec.axis == "g_over_g0":
        u = spec.scenario.tau_f_gamma
        povm = ml_mod.ml_povm(prior, spec.scenario.tau_c, u)
        g = np.array(values) * prior.g0
        if q == "ml_cr_bound":
            rep = bounds_mod.cr_bound_ml(povm, g, u)
            columns = [rep.mse, rep.lower_bound]
        else:
            columns = [ml_mod.ml_average_estimate(povm, g, u)]
        return [[v, *(float(c[i]) for c in columns)] for i, v in enumerate(values)]
    rows = []
    for v in values:
        sc = _at(spec, v)
        povm = ml_mod.ml_povm(prior, sc.tau_c, sc.tau_f_gamma)
        if q == "ml_cost":
            rows.append([v, ml_mod.cost_max(povm)])
        else:
            rows.append([v, ml_mod.ml_average_estimate(povm, prior.g0, sc.tau_f_gamma)])
    return rows


def _mmse_rows(spec: SweepSpec, values: list) -> list:
    prior, q = spec.prior, spec.quantity
    scenarios = [_at(spec, v) for v in values]
    if q == "dissipative_cost":
        costs = _dissipative_costs(prior, spec.scenario, [sc.tau_c for sc in scenarios])
        return [[v, float(c)] for v, c in zip(values, costs)]

    fld = spec.resolved_field()
    if q in ("mmse_cost", "mmse_eigenvalues"):
        res = _mmse_results(prior, scenarios, fld)
        return [
            [v, float(lo), float(hi), float(c)]
            for v, lo, hi, c in zip(values, *res.estimates, res.c_min)
        ]

    # g_over_g0: one estimator at the pinned scenario serves every row
    scenario = spec.scenario
    result = _mmse_results(prior, [scenario], fld).row(0)
    g = np.array(values) * prior.g0
    columns = _conditional_columns(result, g, scenario, fld, bound=q == "mmse_cr_bound")
    head = [result.estimates[0], result.estimates[1], result.c_min]
    return [[v, *head, *(float(c[i]) for c in columns)] for i, v in enumerate(values)]


def _conditional_columns(
    result, g: np.ndarray, scenario: Scenario, fld: FieldState, bound: bool
) -> list:
    """avg_estimate at the couplings ``g`` and, with ``bound``, cr_bound and
    mse: every column from one state evaluation over all couplings."""
    if not bound:
        return [mmse_mod.average_estimate(result, g, scenario, fld)]
    rho, drho = reduced_state(g, scenario, fld, derivative=True)
    rep = bounds_mod.cr_bound_mmse(result, g, scenario, fld, rho=rho, drho=drho)
    avg = mmse_mod.average_estimate(result, g, scenario, fld, rho=rho)
    return [avg, rep.lower_bound, rep.mse]


_SWEEP_COLUMNS = {
    "mmse_eigenvalues": ["axis", "eig_lo", "eig_hi", "c_min"],
    "mmse_cost": ["axis", "eig_lo", "eig_hi", "c_min"],
    "mmse_avg_estimate": ["axis", "eig_lo", "eig_hi", "c_min", "avg_estimate"],
    "mmse_cr_bound": ["axis", "eig_lo", "eig_hi", "c_min", "avg_estimate", "cr_bound", "mse"],
    "ml_cost": ["axis", "cost_max"],
    "ml_avg_estimate": ["axis", "avg_estimate"],
    "ml_cr_bound": ["axis", "mse", "cr_bound"],
    "dissipative_cost": ["axis", "c_min"],
}


def run_sweep(spec: SweepSpec) -> Table:
    """Evaluate the configured quantity over the axis grid, in axis order.

    MMSE quantities over ``tau_c``, ``delta`` and ``gamma_tau_f`` and the
    dissipative cost take one batched solve over the whole axis; every
    quantity over ``g_over_g0`` takes one batched evaluation over all
    couplings; likelihood quantities over ``tau_c`` and ``gamma_tau_f``
    build one POVM per row.
    """
    values = [float(v) for v in np.linspace(spec.lo, spec.hi, spec.n_points)]
    if spec.quantity.startswith("ml_"):
        rows = _ml_rows(spec, values)
    else:
        rows = _mmse_rows(spec, values)
    return Table(columns=list(_SWEEP_COLUMNS[spec.quantity]), rows=rows)


# ---------------------------------------------------------------------------
# Recommended interaction time


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def _tau_costs(prior: Prior, scenario: Scenario, fld: FieldState, taus) -> np.ndarray:
    """Average minimum cost at each interaction time in ``taus``, the rest of
    ``scenario`` pinned: one batched solve."""
    if scenario.is_unitary_transit:
        scenarios = [replace(scenario, tau_c=float(t)) for t in taus]
        return _mmse_results(prior, scenarios, fld).c_min
    return _dissipative_costs(prior, scenario, taus)


def find_tau_star(
    prior: Prior,
    scenario: Scenario,
    field: Optional[FieldState] = None,
    coarse_points: int = 300,
    tol: float = 1e-4,
) -> float:
    """Interaction time minimizing the average minimum cost.

    Scans g0 tau_c in [0.05, 3] on a coarse grid, then refines the best
    bracket by golden-section search to ``tol`` (absolute, in units of
    1/g0).  The coarse scan guards against the oscillatory cost landscape at
    larger photon numbers.  Dissipative scenarios (kappa or in-cavity decay
    nonzero) are supported through the damped state family.
    """
    fld = field if field is not None else field_for(scenario)
    g0 = prior.g0
    taus = np.linspace(0.05 / g0, 3.0 / g0, coarse_points)
    best = int(np.argmin(_tau_costs(prior, scenario, fld, taus)))
    lo = taus[max(0, best - 1)]
    hi = taus[min(len(taus) - 1, best + 1)]
    return _golden_section(
        lambda tau: float(_tau_costs(prior, scenario, fld, [tau])[0]),
        float(lo),
        float(hi),
        tol / g0,
    )


# ---------------------------------------------------------------------------
# Verification battery


def _check(name: str, passed: bool, **details) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update({k: v for k, v in sorted(details.items())})
    return entry


def verify_all(seed: int = 0, corrupt_povm_scale: float = 1.0) -> dict:
    """Run the oracle and invariant suite; returns a machine-readable report.

    Deterministic for a fixed seed (byte-identical serialized report).
    Informational comparisons (closed-form variants that are reported rather
    than asserted) are emitted as notes and never fail the run.

    ``corrupt_povm_scale`` inflates the POVM traceless component before the
    positivity audit; values above one are a smoke test that must make the
    audit (and hence the run) fail.
    """
    checks = []
    notes = []
    gauss = Prior.gaussian(1.0, 1.0)
    unif = Prior.uniform(1.0, 1.0)
    vac = FieldState.vacuum()

    # quadrature reproduces the moments of both priors
    for prior in (gauss, unif):
        rule = priors_mod.quadrature(prior, 256)
        z = rule.expect(prior, np.ones_like(rule.nodes))
        m1 = rule.expect(prior, rule.nodes)
        m2 = rule.expect(prior, (rule.nodes - prior.g0) ** 2)
        err = max(abs(z - 1.0), abs(m1 - prior.g0), abs(m2 - prior.sigma**2))
        checks.append(_check(f"quadrature_moments_{prior.kind}", err < 1e-10, error=err))

    # exact resonant moments against quadrature: vacuum, and a coherent field on 8 draws
    rng = np.random.Generator(np.random.Philox(key=seed))
    coherent = FieldState.coherent(1.0, cutoff=5)
    worst = 0.0
    for draw in range(25):
        g0 = rng.uniform(0.5, 2.0)
        sig = rng.uniform(0.3, 1.5) * g0
        tc = rng.uniform(0.05, 4.0) / g0
        u = rng.uniform(0.0, 2.0)
        sc = Scenario(tau_c=tc, tau_f_gamma=u)
        for prior in (Prior.gaussian(g0, sig), Prior.uniform(g0, sig)):
            for fld in (vac, coherent) if draw < 8 else (vac,):
                exact = mmse_mod.gamma_moments(prior, sc, fld)
                quad = mmse_mod.gamma_moments_quadrature(prior, sc, fld)
                for name in ("gamma0", "gamma1", "gamma2"):
                    a, b = getattr(exact, name), getattr(quad, name)
                    worst = max(worst, abs(a.ee - b.ee), abs(a.gg - b.gg), abs(a.eg - b.eg))
    checks.append(_check("moments_closed_vs_quadrature", worst < 1e-11, error=worst))

    # anchors of the resonant vacuum Gaussian analysis: (estimates, c_min)
    shift = (math.pi / 2.0) * math.exp(-math.pi**2 / 8.0)
    quarter_cost = 1.0 - (math.pi**2 / 4.0) * math.exp(-math.pi**2 / 4.0)
    for name, tc, want in (
        ("anchor_half_period", math.pi / 2.0, (1.0, 1.0, 1.0)),
        ("anchor_quarter_period", math.pi / 4.0, (1.0 - shift, 1.0 + shift, quarter_cost)),
    ):
        res = _mmse_results(gauss, [Scenario(tau_c=tc)], vac).row(0)
        err = max(abs(x - w) for x, w in zip((*res.estimates, res.c_min), want))
        checks.append(_check(name, err < 1e-12, error=err))

    # POVM validity and the corrupted-constant smoke test
    for prior in (gauss, unif):
        povm = ml_mod.ml_povm(prior, math.pi / 4.0, 0.0)
        tot_i, tot_z = povm.completeness()
        ok = abs(tot_i - 1.0) < 1e-9 and abs(tot_z) < 1e-9
        audit = ml_mod.interval_audit(
            povm, n_intervals=2000, seed=seed, scale=corrupt_povm_scale
        )
        inflated = ml_mod.interval_audit(povm, n_intervals=2000, seed=seed, scale=1.05)
        checks.append(
            _check(
                f"povm_validity_{prior.kind}",
                ok and audit.passed,
                completeness_error=abs(tot_i - 1.0),
                worst_interval=audit.worst_low,
            )
        )
        checks.append(
            _check(
                f"povm_audit_detects_inflation_{prior.kind}",
                not inflated.passed,
                violations=inflated.n_violations,
            )
        )

    # likelihood special case, uniform prior
    sp_prior = Prior.uniform(1.0, 1.0 / math.sqrt(3.0))
    sp_tc = math.pi / 4.0
    c_num = ml_mod.uniform_cmax(sp_prior, sp_tc)
    cost_sp = ml_mod.cost_max(ml_mod.ml_povm(sp_prior, sp_tc, 0.0))
    err = max(abs(c_num - 2.0 * sp_tc / math.pi), abs(cost_sp - 0.75))
    checks.append(_check("ml_uniform_special_case", err < 1e-6, error=err))

    # Gaussian likelihood cost: closed form against direct quadrature
    worst = 0.0
    for tc in (0.3, math.pi / 4.0, 1.1, 2.0):
        povm = ml_mod.ml_povm(gauss, tc, 0.3)
        worst = max(
            worst, abs(ml_mod.cost_max(povm) - ml_mod.average_cost_quadrature(povm))
        )
    checks.append(_check("ml_gaussian_cost_quadrature", worst < 1e-8, error=worst))

    # the exact f_z moments behind every likelihood row, against quadrature
    worst = 0.0
    for prior in (gauss, unif):
        for tc in (0.3, math.pi / 4.0, 1.1, 2.0):
            povm = ml_mod.ml_povm(prior, tc, 0.3)
            (m1, m2), (q1, q2) = ml_mod.f_z_moments(povm), ml_mod.f_z_moments_quadrature(povm)
            worst = max(worst, abs(m1 - q1), abs(m2 - q2))
    checks.append(_check("ml_fz_moments_quadrature", worst < 1e-9, error=worst))

    # bound constants: quadrature against the error-function evaluation, and
    # the pointwise cap strictly below both fixed-interval constants
    worst = 0.0
    alt_gap = 0.0
    cap_ratio = math.inf
    for (g0, sig, tc) in ((1.0, 1.0, math.pi / 4.0), (1.0, 0.5, 0.9), (2.0, 0.7, 0.33)):
        p = Prior.gaussian(g0, sig)
        c1q, c2q = ml_mod.gaussian_bound_constants(p, tc)
        c1e, c2e = ml_mod.gaussian_bound_constants_erf(p, tc)
        worst = max(worst, abs(c1q - c1e), abs(c2q - c2e))
        cap_ratio = min(cap_ratio, min(c1q, c2q) / ml_mod.gaussian_cmax(p, tc))
        c1a, c2a = ml_mod._gaussian_bound_constants_erf_alt(p, tc)
        alt_gap = max(alt_gap, abs(c1q - c1a), abs(c2q - c2a))
    checks.append(
        _check(
            "ml_bound_constants_erf",
            worst < 1e-8 and cap_ratio > 1.0,
            error=worst,
            min_bound_over_cap=cap_ratio,
        )
    )
    notes.append(
        "real-part erf combination for (c1,c2) deviates from the defining "
        f"integrals by up to {alt_gap:.3e}; reported, not asserted"
    )

    # accuracy bounds hold for every strategy/prior pair
    violations = 0
    worst_gap = 0.0
    g_grid = np.linspace(0.2, 1.8, 25)
    for prior in (gauss, unif):
        sc = Scenario(tau_c=math.pi / 4.0, tau_f_gamma=0.2)
        result = _mmse_results(prior, [sc], vac).row(0)
        povm = ml_mod.ml_povm(prior, sc.tau_c, sc.tau_f_gamma)
        for rep in (
            bounds_mod.cr_bound_mmse(result, g_grid, sc, vac),
            bounds_mod.cr_bound_ml(povm, g_grid, sc.tau_f_gamma),
        ):
            gap = rep.mse - rep.lower_bound
            worst_gap = min(worst_gap, float(gap.min()))
            violations += int(np.count_nonzero(gap < -1e-9))
    checks.append(
        _check("cr_inequality_grid", violations == 0, worst_gap=worst_gap)
    )

    # Monte-Carlo concordance, deterministic under the seed
    z_max = 0.0
    for tc in (math.pi / 4.0, 0.6, 1.0):
        sc = Scenario(tau_c=tc)
        result = _mmse_results(gauss, [sc], vac).row(0)
        rep = oracle_mod.mc_quadratic_cost(result, gauss, sc, vac, 10**5, seed)
        rep2 = oracle_mod.mc_quadratic_cost(result, gauss, sc, vac, 10**5, seed)
        if rep != rep2:
            checks.append(_check("mc_determinism", False))
            break
        z_max = max(z_max, rep.z_score)
    else:
        checks.append(_check("mc_determinism", True))
    checks.append(_check("mc_quadratic_cost_z", z_max < 4.0, z_max=z_max))

    z_max = 0.0
    for g in (0.7, 1.0, 1.3):
        povm = ml_mod.ml_povm(gauss, math.pi / 4.0, 0.0)
        rep = oracle_mod.mc_estimate_distribution(
            povm, g, Scenario(tau_c=math.pi / 4.0), 10**5, seed
        )
        z_max = max(z_max, rep.z_score)
    checks.append(_check("mc_ml_estimate_z", z_max < 4.0, z_max=z_max))

    # dissipation-free limit agrees with the unitary path
    worst = 0.0
    for gt in np.linspace(0.0, 10.0, 41):
        pop = dissipative_state(1.0, float(gt), 0.0, 0.0).excited_population
        worst = max(worst, abs(pop - math.cos(gt) ** 2))
    checks.append(_check("dissipative_zero_rate_limit", worst < 1e-10, error=worst))

    # informational: display variant of the Gaussian mean estimate
    povm = ml_mod.ml_povm(gauss, math.pi / 4.0, 0.0)
    gap = abs(
        ml_mod.ml_average_estimate(povm, 0.7, 0.0)
        - ml_mod._gaussian_average_estimate_display(povm, 0.7, 0.0)
    )
    notes.append(
        "display variant of the mean-estimate closed form deviates from "
        f"the exact mean by {gap:.3e} at the reference point; reported, not asserted"
    )

    return {
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# Config handling and output


_DEFAULTS = {
    "prior": {"kind": "gaussian", "sigma_over_g0": "1.0"},
    "scenario": {
        "g0_tau_c": "0.6",
        "gamma_tau_f": "0.0",
        "delta_over_g0": "0.0",
        "alpha_abs": "0.0",
        "alpha_phase": "0.0",
        "kappa_over_g0": "0.0",
        "gamma_over_g0": "0.0",
        "fock_cutoff": "auto",
        "g_over_g0": "1.0",
    },
}


def load_config(path: Optional[str]) -> dict:
    """Flat key-value sections; unknown values raise :class:`ConfigError`."""
    parser = configparser.ConfigParser()
    parser.read_dict(_DEFAULTS)
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")

    try:
        prior_kind = parser.get("prior", "kind").strip().lower()
        if prior_kind not in (priors_mod.GAUSSIAN, priors_mod.UNIFORM):
            raise ConfigError(f"unknown prior kind {prior_kind!r}")
        sigma = parser.getfloat("prior", "sigma_over_g0")
        cutoff_raw = parser.get("scenario", "fock_cutoff").strip().lower()
        cutoff = None if cutoff_raw in ("auto", "") else int(cutoff_raw)
        alpha = parser.getfloat("scenario", "alpha_abs") * complex(
            math.cos(parser.getfloat("scenario", "alpha_phase")),
            math.sin(parser.getfloat("scenario", "alpha_phase")),
        )
        scenario = Scenario(
            alpha=alpha,
            fock_cutoff=cutoff,
            **{attr: parser.getfloat("scenario", key) for key, attr in _SCENARIO_KEYS.items()},
        )
        cfg = {
            "prior": Prior(prior_kind, 1.0, sigma),
            "scenario": scenario,
            "g": parser.getfloat("scenario", "g_over_g0"),
        }
        if parser.has_section("sweep"):
            cfg["sweep"] = SweepSpec(
                quantity=parser.get("sweep", "quantity").strip(),
                axis=parser.get("sweep", "axis").strip(),
                lo=parser.getfloat("sweep", "lo"),
                hi=parser.getfloat("sweep", "hi"),
                n_points=parser.getint("sweep", "n_points"),
                prior=cfg["prior"],
                scenario=scenario,
            )
        return cfg
    except (configparser.Error, ValueError, UnsupportedCombination) as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.16e}"
    return str(x)


def write_table(table: Table, fmt: str, out, config_echo: Optional[dict] = None):
    if fmt == "csv":
        out.write(",".join(table.columns) + "\n")
        for row in table.rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
    else:
        payload = {"columns": table.columns, "rows": table.rows}
        if config_echo is not None:
            payload["config"] = config_echo
        json.dump(payload, out, sort_keys=True, indent=2, default=str)
        out.write("\n")


def _config_echo(cfg: dict) -> dict:
    scenario = cfg["scenario"]
    echo = {
        "prior": {"kind": cfg["prior"].kind, "sigma_over_g0": cfg["prior"].sigma},
        "scenario": {
            **{key: getattr(scenario, attr) for key, attr in _SCENARIO_KEYS.items()},
            "alpha_abs": abs(scenario.alpha),
            "alpha_phase": float(np.angle(scenario.alpha)) if scenario.alpha else 0.0,
            "fock_cutoff": scenario.fock_cutoff if scenario.fock_cutoff is not None else "auto",
        },
    }
    if "sweep" in cfg:
        spec = cfg["sweep"]
        echo["sweep"] = {
            "quantity": spec.quantity,
            "axis": spec.axis,
            "lo": spec.lo,
            "hi": spec.hi,
            "n_points": spec.n_points,
        }
    return echo


def _cmd_state(cfg: dict, args) -> Table:
    scenario = cfg["scenario"]
    g = cfg["g"] * cfg["prior"].g0
    if scenario.is_unitary_transit:
        rho = reduced_state(g, scenario, field_for(scenario))
    else:
        rho = dissipative_state(g, scenario.tau_c, scenario.gamma_cav, scenario.kappa)
    m = rho.matrix
    table = Table(columns=["g_over_g0", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im"])
    table.rows.append([cfg["g"], m.ee, m.gg, m.eg.real, m.eg.imag])
    return table


def _cmd_mmse(cfg: dict, args) -> Table:
    prior, scenario = cfg["prior"], cfg["scenario"]
    fld = field_for(scenario)
    result = _mmse_results(prior, [scenario], fld).row(0)
    g = np.array([cfg["g"] * prior.g0])
    columns = _conditional_columns(result, g, scenario, fld, bound=True)
    table = Table(columns=["eig_lo", "eig_hi", "c_min", "avg_estimate", "cr_bound", "mse"])
    table.rows.append(
        [result.estimates[0], result.estimates[1], result.c_min, *(float(c[0]) for c in columns)]
    )
    return table


def _cmd_ml(cfg: dict, args) -> Table:
    prior, scenario = cfg["prior"], cfg["scenario"]
    povm = ml_mod.ml_povm(prior, scenario.tau_c, scenario.tau_f_gamma)
    g = cfg["g"] * prior.g0
    table = Table(columns=["c_max", "cost_max", "avg_estimate"])
    cost = ml_mod.cost_max(povm)
    avg = ml_mod.ml_average_estimate(povm, g, scenario.tau_f_gamma)
    table.rows.append([povm.c_max, cost, avg])
    return table


def _cmd_tau_star(cfg: dict, args) -> Table:
    prior, scenario = cfg["prior"], cfg["scenario"]
    fld = field_for(scenario)
    tau = find_tau_star(prior, scenario, fld)
    c_at = float(_tau_costs(prior, scenario, fld, [tau])[0])
    table = Table(columns=["g0_tau_star", "c_min_at_tau_star"])
    table.rows.append([tau * prior.g0, c_at])
    return table


_POINT_COMMANDS = {"state": _cmd_state, "mmse": _cmd_mmse, "ml": _cmd_ml, "tau-star": _cmd_tau_star}


def main(argv: Optional[list] = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="INI config file")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=int, default=0, help="seed for verify")
    parser = argparse.ArgumentParser(
        prog="cavbayes",
        description="Bayesian coupling-strength estimation for a driven qubit-cavity transit",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("state", "mmse", "ml", "sweep", "tau-star", "verify"):
        sub.add_parser(name, parents=[common])
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "verify":
            report = verify_all(args.seed)
            text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
            if args.out:
                with open(args.out, "w", newline="\n") as fh:
                    fh.write(text)
            for c in report["checks"]:
                print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}")
            return 0 if report["passed"] else 2

        if args.command == "sweep":
            if "sweep" not in cfg:
                print("config error: sweep section missing", file=sys.stderr)
                return 1
            table = run_sweep(cfg["sweep"])
        else:
            _check_family(args.command, cfg["scenario"])
            table = _POINT_COMMANDS[args.command](cfg, args)
    except UnsupportedCombination as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateGamma0, SingularSLD, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CavbayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    echo = _config_echo(cfg)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            write_table(table, args.format, fh, echo)
    else:
        write_table(table, args.format, sys.stdout, echo)
    return 0


if __name__ == "__main__":
    sys.exit(main())
