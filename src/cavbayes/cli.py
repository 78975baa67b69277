"""Scenario runner: the command-line front end for config, dispatch and output.

All configuration values are dimensionless products in units of the prior
mean (g0 tau_c, Delta/g0, sigma/g0, gamma tau_f, kappa/g0, ...), which is the
scale used everywhere downstream; internally the prior mean is set to one.

Commands
    state     print the detector-time density matrix at one coupling value
    mmse      optimal quadratic-cost estimator at the configured scenario
    ml        likelihood-optimal POVM constants and cost
    sweep     one row per axis point of a configured quantity
    tau-star  cost-minimizing interaction time
    verify    run the verification battery of :mod:`oracle` (exit 2 on failure)

Options (``--config``, ``--out``, ``--format``, ``--seed``) may come before
or after the command.  Exit codes: 0 success, 1 config error (a non-finite
config value, a negative ``tau_c`` or ``gamma_tau_f`` sweep range and a
``verify`` seed outside [0, 2**128) included), 2 verification failure,
3 numeric error (degenerate scenario, or a NaN result from an overflow).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import ml as ml_mod
from . import mmse as mmse_mod
from . import priors as priors_mod
from .dynamics import FieldState, Scenario, dissipative_state, field_for, reduced_state
from .errors import CavbayesError, ConfigError, DegenerateGamma0, UnsupportedCombination
from .oracle import verify_all
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
#: axes whose values are times or decay exponents, never negative
_NONNEGATIVE_AXES = ("tau_c", "gamma_tau_f")

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
        if self.axis in _NONNEGATIVE_AXES and self.lo < 0:
            raise UnsupportedCombination(f"sweep axis {self.axis!r} needs lo >= 0, got {self.lo!r}")
        if self.n_points < 2:
            raise UnsupportedCombination("sweep needs at least 2 points")
        _check_family(self.quantity, self.scenario)


@dataclass
class Table:
    columns: list
    rows: list


def _mmse_results(prior: Prior, scenarios: list, field: FieldState):
    """Estimators at every scenario: one moment call, one batched solve."""
    gammas = mmse_mod.gamma_moments(prior, tuple(scenarios), field)
    return mmse_mod.mmse_estimator(gammas, [sc.tau_f_gamma for sc in scenarios])


def _dissipative_costs(prior: Prior, scenario: Scenario, taus) -> np.ndarray:
    gammas = mmse_mod.gamma_moments_dissipative(
        prior, np.asarray(taus, dtype=float), scenario.gamma_cav, scenario.kappa
    )
    return mmse_mod.mmse_estimator(gammas).c_min


_AXIS_FIELDS = {"tau_c": "tau_c", "delta": "delta", "gamma_tau_f": "tau_f_gamma"}


def _along(scenario: Scenario, axis: str, values) -> list:
    """``scenario`` with the ``axis`` knob set to each of ``values``."""
    name, pinned = _AXIS_FIELDS[axis], vars(scenario)
    return [Scenario(**{**pinned, name: float(v)}) for v in values]


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
    for v, sc in zip(values, _along(spec.scenario, spec.axis, values)):
        povm = ml_mod.ml_povm(prior, sc.tau_c, sc.tau_f_gamma)
        if q == "ml_cost":
            rows.append([v, ml_mod.cost_max(povm)])
        else:
            rows.append([v, ml_mod.ml_average_estimate(povm, prior.g0, sc.tau_f_gamma)])
    return rows


def _mmse_rows(spec: SweepSpec, values: list) -> list:
    prior, q, scenario = spec.prior, spec.quantity, spec.scenario
    if q == "dissipative_cost":  # swept along tau_c only
        costs = _dissipative_costs(prior, scenario, values)
        return [[v, float(c)] for v, c in zip(values, costs)]
    if q in ("mmse_cost", "mmse_eigenvalues"):
        scenarios = _along(scenario, spec.axis, values)
        res = _mmse_results(prior, scenarios, field_for(scenario))
        return [
            [v, float(lo), float(hi), float(c)]
            for v, lo, hi, c in zip(values, *res.estimates, res.c_min)
        ]
    rows = _pinned_rows(prior, scenario, values, bound=q == "mmse_cr_bound")
    return [[v, *row] for v, row in zip(values, rows)]


def _pinned_rows(prior: Prior, scenario: Scenario, g_over_g0: list, bound: bool) -> list:
    """One row per coupling in ``g_over_g0`` of the estimator at the pinned
    scenario: eig_lo, eig_hi, c_min, avg_estimate and, with ``bound``,
    cr_bound and mse.  One estimator and one state evaluation over all
    couplings serve every row; the ``mmse`` command is its row at one g."""
    fld = field_for(scenario)
    result = _mmse_results(prior, [scenario], fld).row(0)
    g = np.array(g_over_g0) * prior.g0
    if bound:
        rho, drho = reduced_state(g, scenario, fld, derivative=True)
        rep = bounds_mod.cr_bound_mmse(result, g, scenario, fld, rho=rho, drho=drho)
        avg = mmse_mod.average_estimate(result, g, scenario, fld, rho=rho)
        columns = [avg, rep.lower_bound, rep.mse]
    else:
        columns = [mmse_mod.average_estimate(result, g, scenario, fld)]
    head = [result.estimates[0], result.estimates[1], result.c_min]
    return [[*head, *(float(c[i]) for c in columns)] for i in range(len(g))]


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
    dissipative cost take one moment call and one batched solve over the
    whole axis; every quantity over ``g_over_g0`` takes one batched
    evaluation over all couplings; likelihood quantities over ``tau_c`` and
    ``gamma_tau_f`` build one POVM per row.
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
    ``scenario`` pinned: one moment call and one batched solve."""
    if scenario.is_unitary_transit:
        return _mmse_results(prior, _along(scenario, "tau_c", taus), fld).c_min
    return _dissipative_costs(prior, scenario, taus)


_TAU_SCAN_POINTS = 300
_TAU_TOL = 1e-4


def find_tau_star(prior: Prior, scenario: Scenario) -> float:
    """Interaction time minimizing the average minimum cost.

    Scans g0 tau_c in [0.05, 3] on a coarse grid of ``_TAU_SCAN_POINTS``,
    then refines the best bracket by golden-section search to ``_TAU_TOL``
    (absolute, in units of 1/g0).  The coarse scan guards against the
    oscillatory cost landscape at larger photon numbers.  Dissipative
    scenarios (kappa or in-cavity decay nonzero) are supported through the
    damped state family.
    """
    fld = field_for(scenario)
    g0 = prior.g0
    taus = np.linspace(0.05 / g0, 3.0 / g0, _TAU_SCAN_POINTS)
    best = int(np.argmin(_tau_costs(prior, scenario, fld, taus)))
    lo = taus[max(0, best - 1)]
    hi = taus[min(len(taus) - 1, best + 1)]
    return _golden_section(
        lambda tau: float(_tau_costs(prior, scenario, fld, [tau])[0]),
        float(lo),
        float(hi),
        _TAU_TOL / g0,
    )


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
    """Flat key-value sections; unknown or non-finite values raise
    :class:`ConfigError`."""
    parser = configparser.ConfigParser()
    parser.read_dict(_DEFAULTS)
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path!r}")

    def number(section: str, key: str) -> float:
        value = parser.getfloat(section, key)
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value!r}")
        return value

    try:
        prior_kind = parser.get("prior", "kind").strip().lower()
        if prior_kind not in (priors_mod.GAUSSIAN, priors_mod.UNIFORM):
            raise ConfigError(f"unknown prior kind {prior_kind!r}")
        sigma = number("prior", "sigma_over_g0")
        cutoff_raw = parser.get("scenario", "fock_cutoff").strip().lower()
        cutoff = None if cutoff_raw in ("auto", "") else int(cutoff_raw)
        phase = number("scenario", "alpha_phase")
        alpha = number("scenario", "alpha_abs") * complex(math.cos(phase), math.sin(phase))
        scenario = Scenario(
            alpha=alpha,
            fock_cutoff=cutoff,
            **{attr: number("scenario", key) for key, attr in _SCENARIO_KEYS.items()},
        )
        cfg = {
            "prior": Prior(prior_kind, 1.0, sigma),
            "scenario": scenario,
            "g": number("scenario", "g_over_g0"),
        }
        if parser.has_section("sweep"):
            cfg["sweep"] = SweepSpec(
                quantity=parser.get("sweep", "quantity").strip(),
                axis=parser.get("sweep", "axis").strip(),
                lo=number("sweep", "lo"),
                hi=number("sweep", "hi"),
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


@contextlib.contextmanager
def _out_file(path: str):
    """Text stream writing ``path``.  An existing regular file is overwritten
    in place and cut at the end of what was written, not truncated when
    opened: on ext4 a truncation to zero makes the close start write-back
    (``auto_da_alloc``), a blocking wait on every rewrite of an output file
    whose cost follows the disk, not the computation."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="\n") as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


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


def _cmd_state(cfg: dict) -> Table:
    scenario = cfg["scenario"]
    g = cfg["g"] * cfg["prior"].g0
    if scenario.is_unitary_transit:
        rho = reduced_state(g, scenario, field_for(scenario))
    else:
        rho = dissipative_state(g, scenario.tau_c, scenario.gamma_cav, scenario.kappa)
    m = rho.matrix
    return Table(
        columns=["g_over_g0", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im"],
        rows=[[cfg["g"], m.ee, m.gg, m.eg.real, m.eg.imag]],
    )


def _cmd_mmse(cfg: dict) -> Table:
    rows = _pinned_rows(cfg["prior"], cfg["scenario"], [cfg["g"]], bound=True)
    return Table(columns=_SWEEP_COLUMNS["mmse_cr_bound"][1:], rows=rows)


def _cmd_ml(cfg: dict) -> Table:
    prior, scenario = cfg["prior"], cfg["scenario"]
    povm = ml_mod.ml_povm(prior, scenario.tau_c, scenario.tau_f_gamma)
    avg = ml_mod.ml_average_estimate(povm, cfg["g"] * prior.g0, scenario.tau_f_gamma)
    return Table(columns=["c_max", "cost_max", "avg_estimate"],
                 rows=[[povm.c_max, ml_mod.cost_max(povm), avg]])


def _cmd_tau_star(cfg: dict) -> Table:
    prior, scenario = cfg["prior"], cfg["scenario"]
    tau = find_tau_star(prior, scenario)
    c_at = float(_tau_costs(prior, scenario, field_for(scenario), [tau])[0])
    return Table(columns=["g0_tau_star", "c_min_at_tau_star"], rows=[[tau * prior.g0, c_at]])


_POINT_COMMANDS = {"state": _cmd_state, "mmse": _cmd_mmse, "ml": _cmd_ml, "tau-star": _cmd_tau_star}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cavbayes",
        description="Bayesian coupling-strength estimation for a driven qubit-cavity transit",
    )
    parser.add_argument("command", choices=("state", "mmse", "ml", "sweep", "tau-star", "verify"))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--seed", type=int, default=0, help="seed for verify")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "verify":
            if not 0 <= args.seed < 2**128:  # the range of a Philox key
                raise ConfigError(f"--seed must be in [0, 2**128), got {args.seed}")
            report = verify_all(args.seed)
            text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
            if args.out:
                with _out_file(args.out) as fh:
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
            table = _POINT_COMMANDS[args.command](cfg)
    except (ConfigError, UnsupportedCombination) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateGamma0, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CavbayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # NaN passes every range check (its comparisons are false), so it is
    # caught here; inf is a legal value (an unbounded c_max)
    if np.isnan(np.asarray(table.rows, dtype=float)).any():
        print("numeric error: the result holds NaN", file=sys.stderr)
        return 3

    echo = _config_echo(cfg)
    if args.out:
        with _out_file(args.out) as fh:
            write_table(table, args.format, fh, echo)
    else:
        write_table(table, args.format, sys.stdout, echo)
    return 0


if __name__ == "__main__":
    sys.exit(main())
