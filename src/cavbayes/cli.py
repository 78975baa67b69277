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

Each sweep quantity is one entry of ``_QUANTITIES``: the scenario family it
evaluates, the axes it sweeps and its table columns; a sweep over ``tau_c``,
``delta`` or ``gamma_tau_f`` sets that ``Scenario`` knob to the axis column.
The ``Scenario`` also picks the transit model, so ``state``, ``tau-star``
(:func:`mmse.find_tau_star`) and the MMSE sweeps make one library call
whether it is unitary or damped (kappa or in-cavity decay nonzero).

Options (``--config``, ``--out``, ``--format``, ``--seed``) may come before
or after the command; the one flat argument parser and the one config parser
are built when this module is imported, and each :func:`main` call reuses them,
so :func:`main` and :func:`load_config` are not thread-safe: a process runs
one call at a time.
:func:`load_config` gives every INI the meaning ``ConfigParser`` gives it over
the built-in defaults: a ``[DEFAULT]`` key never overrides a built-in default,
and ``%(key)s`` finds one.  A table is one float array, written in one write.
Exit codes: 0 success, 1 config error (a config file that cannot be read or
parsed, a non-finite config value, a negative ``tau_c`` or ``gamma_tau_f``
sweep range, a sweep past ``MAX_SWEEP_POINTS``, a Fock ladder past
``dynamics.MAX_FOCK_CUTOFF`` or an ``alpha_abs`` above it, an explicit
``fock_cutoff`` whose ladder misses more than 1% of the ``alpha_abs`` mass, a
prior quadrature past ``priors.MAX_QUADRATURE_NODES`` nodes times ladder
levels, a ``verify`` seed outside [0, 2**128), a usage error such as an
unknown command, a bad ``--format`` or a non-integer ``--seed``, and an
``--out`` path that cannot be opened or written included), 2 verification
failure, 3 numeric error (degenerate scenario, or a NaN result from an
overflow).  ``--help`` exits 0.
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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import ml as ml_mod
from . import mmse as mmse_mod
from . import priors as priors_mod
from .dynamics import (MAX_FOCK_CUTOFF, Scenario, _auto_cutoff, _check_truncation, field_for,
                       reduced_state)
from .errors import (CavbayesError, ConfigError, DegenerateGamma0, TruncationTooSmall,
                     UnsupportedCombination)
from .mmse import find_tau_star
from .oracle import verify_all
from .priors import Prior
from .qubit import Hermitian2, QubitState

__all__ = ["SweepSpec", "Table", "run_sweep", "find_tau_star", "verify_all", "main"]

AXES = ("tau_c", "g_over_g0", "delta", "gamma_tau_f")
#: most points one sweep may hold
MAX_SWEEP_POINTS = 10_000
#: axes whose values are times or decay exponents, never negative
_NONNEGATIVE_AXES = ("tau_c", "gamma_tau_f")
#: axis -> the Scenario field that an MMSE sweep along it sets as a column
_AXIS_FIELDS = {"tau_c": "tau_c", "delta": "delta", "gamma_tau_f": "tau_f_gamma"}

_MMSE_COLUMNS = ("axis", "eig_lo", "eig_hi", "c_min")
#: sweep quantity -> (scenario family, supported axes, table columns)
_QUANTITIES = {
    "mmse_eigenvalues": ("unitary", tuple(_AXIS_FIELDS), _MMSE_COLUMNS),
    "mmse_cost": ("unitary", tuple(_AXIS_FIELDS), _MMSE_COLUMNS),
    "mmse_avg_estimate": ("unitary", ("g_over_g0",), (*_MMSE_COLUMNS, "avg_estimate")),
    "mmse_cr_bound": ("unitary", ("g_over_g0",),
                      (*_MMSE_COLUMNS, "avg_estimate", "cr_bound", "mse")),
    "ml_cost": ("resonant vacuum", ("tau_c", "gamma_tau_f"), ("axis", "cost_max")),
    "ml_avg_estimate": ("resonant vacuum", ("g_over_g0", "tau_c"), ("axis", "avg_estimate")),
    "ml_cr_bound": ("resonant vacuum", ("g_over_g0",), ("axis", "mse", "cr_bound")),
    "dissipative_cost": ("damped", ("tau_c",), ("axis", "c_min")),
}
#: float scenario knobs: config key -> Scenario field
_SCENARIO_KEYS = {"g0_tau_c": "tau_c", "gamma_tau_f": "tau_f_gamma", "delta_over_g0": "delta",
                  "kappa_over_g0": "kappa", "gamma_over_g0": "gamma_cav"}
#: config keys each scenario family pins to zero; ``damped`` also admits zero
#: rates, which the damped ``Scenario`` itself does not cover
_FAMILIES = {
    "unitary": ("kappa_over_g0", "gamma_over_g0"),
    "resonant vacuum": ("kappa_over_g0", "gamma_over_g0", "delta_over_g0", "alpha_abs"),
    "damped": ("delta_over_g0", "alpha_abs", "gamma_tau_f"),
}
_KNOBS = {**_SCENARIO_KEYS, "alpha_abs": "alpha"}


def _check_family(name: str, family: Optional[str], scenario: Scenario) -> None:
    """Raise :class:`UnsupportedCombination` unless ``scenario`` is in
    ``family``, the one that ``name`` evaluates (None: every scenario)."""
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
        if self.quantity not in _QUANTITIES:
            raise UnsupportedCombination(f"unknown quantity {self.quantity!r}")
        family, axes, _ = _QUANTITIES[self.quantity]
        if self.axis not in AXES:
            raise UnsupportedCombination(f"unknown axis {self.axis!r}")
        if self.axis not in axes:
            raise UnsupportedCombination(
                f"quantity {self.quantity!r} does not support axis {self.axis!r}; "
                f"supported: {axes}"
            )
        if not self.lo < self.hi:
            raise UnsupportedCombination("sweep range must satisfy lo < hi")
        if self.axis in _NONNEGATIVE_AXES and self.lo < 0:
            raise UnsupportedCombination(f"sweep axis {self.axis!r} needs lo >= 0, got {self.lo!r}")
        if not 2 <= self.n_points <= MAX_SWEEP_POINTS:
            raise UnsupportedCombination(f"sweep needs 2 to {MAX_SWEEP_POINTS} points")
        _check_family(self.quantity, family, self.scenario)


@dataclass
class Table:
    """Named columns over rows: ``rows`` is the 2-D float array of the cells,
    one row per output line (nested sequences of floats are taken as one)."""

    columns: list
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)


def _ml_rows(spec: SweepSpec, values: list) -> np.ndarray:
    """Likelihood rows from one POVM: along ``tau_c`` or ``gamma_tau_f`` the axis
    is its column, and along ``g_over_g0`` the pinned POVM serves every coupling."""
    prior, q, pinned = spec.prior, spec.quantity, spec.scenario
    axis = np.array(values)
    knobs = {"tau_c": pinned.tau_c, "gamma_tau_f": pinned.tau_f_gamma, spec.axis: axis}
    povm = ml_mod.ml_povm(prior, knobs["tau_c"], knobs["gamma_tau_f"])
    g = axis * prior.g0 if spec.axis == "g_over_g0" else prior.g0
    if q == "ml_cr_bound":
        rep = bounds_mod.cr_bound_ml(povm, g)
        columns = [rep.mse, rep.lower_bound]
    else:
        columns = [ml_mod.cost_max(povm) if q == "ml_cost" else ml_mod.ml_average_estimate(povm, g)]
    return np.column_stack([values, *columns])


def _mmse_rows(spec: SweepSpec, values: list) -> np.ndarray:
    """Estimator rows.  Along ``g_over_g0`` one estimator at the pinned
    scenario serves every row; along the other axes the axis is a column of
    the scenario, and one moment call and one batched solve give an
    estimator per row, of which the quantity's columns are printed."""
    prior, scenario = spec.prior, spec.scenario
    if spec.axis == "g_over_g0":
        return np.column_stack(
            [values, _pinned_rows(prior, scenario, values, bound=spec.quantity == "mmse_cr_bound")])
    column = replace(scenario, **{_AXIS_FIELDS[spec.axis]: tuple(values)})
    gammas = mmse_mod.gamma_moments(prior, column, field_for(scenario))
    res = mmse_mod.mmse_estimator(gammas, column.columns[1])
    named = {"eig_lo": res.estimates[0], "eig_hi": res.estimates[1], "c_min": res.c_min}
    columns = [named[c] for c in _QUANTITIES[spec.quantity][2][1:]]
    return np.column_stack([values, *columns])


def _joined(parts) -> Hermitian2:
    """The batches ``parts`` of 2x2 matrices as one batch, in order."""
    return Hermitian2(*(np.concatenate([getattr(m, k) for m in parts]) for k in ("ee", "gg", "eg")))


def _pinned_rows(prior: Prior, scenario: Scenario, g_over_g0: list, bound: bool) -> np.ndarray:
    """One row per coupling in ``g_over_g0`` of the estimator at the pinned
    scenario: eig_lo, eig_hi, c_min, avg_estimate and, with ``bound``,
    cr_bound and mse.  One estimator serves every row; the states are
    evaluated in chunks of couplings (:func:`mmse._chunks` over the ladder),
    so a long sweep holds no larger state grid than a short one, and the
    means and bounds run once over all of them.  The ``mmse`` command is
    its row at one g."""
    fld = field_for(scenario)
    result = mmse_mod.mmse_estimator(mmse_mod.gamma_moments(prior, scenario, fld),
                                     scenario.tau_f_gamma)
    g = np.array(g_over_g0) * prior.g0
    states = [reduced_state(g[rows], scenario, fld, derivative=bound)
              for rows in mmse_mod._chunks(len(g), len(fld.coefficients))]
    if bound:
        states, slopes = zip(*states)
    rho = QubitState(_joined([s.matrix for s in states]))
    columns = [mmse_mod.average_estimate(result, rho)]
    if bound:
        rep = bounds_mod.cr_bound_mmse(result, g, rho, _joined(slopes))
        columns += [rep.lower_bound, rep.mse]
    head = [result.estimates[0], result.estimates[1], result.c_min]
    return np.column_stack(np.broadcast_arrays(*head, *columns))


def run_sweep(spec: SweepSpec) -> Table:
    """Evaluate the configured quantity over the axis grid, in axis order.

    MMSE quantities over ``tau_c``, ``delta`` and ``gamma_tau_f``, the
    damped ``dissipative_cost`` included, take one moment call on the axis
    column and one batched solve; every quantity over ``g_over_g0``
    takes one batched evaluation over all couplings; likelihood quantities
    over ``tau_c`` and ``gamma_tau_f`` build one POVM over the axis column.
    """
    family, _, columns = _QUANTITIES[spec.quantity]
    values = np.linspace(spec.lo, spec.hi, spec.n_points).tolist()
    rows = (_ml_rows if family == "resonant vacuum" else _mmse_rows)(spec, values)
    return Table(columns=list(columns), rows=rows)


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


class _Interpolation(configparser.BasicInterpolation):
    """``BasicInterpolation`` for the values that hold a ``%``.  It leaves a
    value without one as it is, so such a value is passed on without its
    lookups."""

    def before_get(self, parser, section, option, value, defaults):
        if "%" not in value:
            return value
        return super().before_get(parser, section, option, value, defaults)

    def before_set(self, parser, section, option, value):
        if "%" not in value:
            return value
        return super().before_set(parser, section, option, value)


#: the one config parser of the process, emptied and refilled by each load_config
_INI = configparser.ConfigParser(interpolation=_Interpolation())


def load_config(path: Optional[str]) -> dict:
    """Flat key-value sections; unknown or non-finite values and a file that
    cannot be read or parsed raise :class:`ConfigError` with a one-line message.

    The built-in defaults are read into their own sections before the file,
    so a file's key overrides its default, a ``[DEFAULT]`` key does not, and
    ``%(key)s`` finds a default in its section.  Every value keeps
    ``ConfigParser``'s grammar, interpolation and messages; only a value
    holding a ``%`` goes through the interpolation, which would return any
    other value unchanged.  The one parser is emptied first, so no call sees
    an earlier one's keys; it is shared, so calls must not overlap (not
    thread-safe)."""
    parser = _INI
    parser.clear()
    parser.defaults().clear()  # clear() keeps the [DEFAULT] keys
    parser.read_dict(_DEFAULTS)

    def number(section: str, key: str) -> float:
        value = float(parser.get(section, key))
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value!r}")
        return value

    try:
        if path is not None and not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
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
        # a ladder past MAX_FOCK_CUTOFF is refused before any run; no explicit
        # cutoff holds a larger |alpha| either, whose |alpha|^2 may overflow
        if cutoff is None or abs(alpha) > MAX_FOCK_CUTOFF:
            try:
                _auto_cutoff(alpha)
            except ValueError as exc:
                raise ConfigError(f"[scenario] alpha_abs: {exc}") from exc
        else:
            try:
                _check_truncation(field_for(scenario))
            except TruncationTooSmall as exc:
                raise ConfigError(f"[scenario] fock_cutoff: {exc}") from exc
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
                n_points=int(parser.get("sweep", "n_points")),
                prior=cfg["prior"],
                scenario=scenario,
            )
        return cfg
    except (configparser.Error, ValueError, UnsupportedCombination) as exc:
        # a parse error names its file and line on lines of their own
        raise ConfigError(" ".join(map(str.strip, str(exc).splitlines()))) from exc


@contextlib.contextmanager
def _out_file(path: str):
    """Text stream writing ``path``.  An existing regular file is overwritten
    in place and cut at the end of what was written, not truncated when
    opened: on ext4 a truncation to zero makes the close start write-back
    (``auto_da_alloc``), a blocking wait on every rewrite of an output file
    whose cost follows the disk, not the computation.  An ``OSError`` from
    opening or writing ``path`` is raised as a :class:`ConfigError` naming it."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="\n") as fh:
            yield fh
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path!r}: {exc.strerror or exc}") from exc


def write_table(table: Table, fmt: str, out, config_echo: Optional[dict] = None):
    """Write ``table`` to ``out`` in one write: CSV cells as ``%.16e`` (17
    significant digits), or indented JSON with ``config_echo`` beside it."""
    rows = table.rows
    if fmt == "csv":
        line = ",".join(["%.16e"] * rows.shape[1]) + "\n"
        text = ",".join(table.columns) + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist())
    else:
        payload = {"columns": table.columns, "rows": rows.tolist()}
        if config_echo is not None:
            payload["config"] = config_echo
        text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    out.write(text)


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
    m = reduced_state(cfg["g"] * cfg["prior"].g0, scenario, field_for(scenario)).matrix
    return Table(
        columns=["g_over_g0", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im"],
        rows=[[cfg["g"], m.ee, m.gg, m.eg.real, m.eg.imag]],
    )


def _cmd_mmse(cfg: dict) -> Table:
    rows = _pinned_rows(cfg["prior"], cfg["scenario"], [cfg["g"]], bound=True)
    return Table(columns=list(_QUANTITIES["mmse_cr_bound"][2][1:]), rows=rows)


def _cmd_ml(cfg: dict) -> Table:
    prior, scenario = cfg["prior"], cfg["scenario"]
    povm = ml_mod.ml_povm(prior, scenario.tau_c, scenario.tau_f_gamma)
    avg = ml_mod.ml_average_estimate(povm, cfg["g"] * prior.g0)
    return Table(columns=["c_max", "cost_max", "avg_estimate"],
                 rows=[[povm.c_max, ml_mod.cost_max(povm), avg]])


def _cmd_tau_star(cfg: dict) -> Table:
    prior = cfg["prior"]
    tau, c_min = find_tau_star(prior, cfg["scenario"])
    return Table(columns=["g0_tau_star", "c_min_at_tau_star"], rows=[[tau * prior.g0, c_min]])


#: point command -> (scenario family, None for every scenario; handler)
_POINT_COMMANDS = {"state": (None, _cmd_state), "mmse": ("unitary", _cmd_mmse),
                   "ml": ("resonant vacuum", _cmd_ml), "tau-star": (None, _cmd_tau_star)}


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a :class:`ConfigError`, so it exits 1 with one
    line instead of argparse's exit 2, which ``verify`` uses for a failure."""

    def error(self, message):
        raise ConfigError(message)


#: the one parser of the process; parsing leaves it unchanged, so every
#: ``main`` call reuses it
_PARSER = _ArgumentParser(
    prog="cavbayes",
    description="Bayesian coupling-strength estimation for a driven qubit-cavity transit",
)
_PARSER.add_argument("command", choices=("state", "mmse", "ml", "sweep", "tau-star", "verify"))
_PARSER.add_argument("--config", default=None, help="INI config file")
_PARSER.add_argument("--out", default=None, help="output path (default stdout)")
_PARSER.add_argument("--format", choices=("csv", "json"), default="csv")
_PARSER.add_argument("--seed", type=int, default=0, help="seed for verify")


def main(argv: Optional[list] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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

        if args.command == "sweep" and "sweep" not in cfg:
            print("config error: sweep section missing", file=sys.stderr)
            return 1
        # no overflow warnings: a NaN result is refused below, and inf is legal
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "sweep":
                table = run_sweep(cfg["sweep"])
            else:
                family, command = _POINT_COMMANDS[args.command]
                _check_family(args.command, family, cfg["scenario"])
                table = command(cfg)
        # NaN passes every range check (its comparisons are false), so it is
        # caught here; inf is a legal value (an unbounded c_max)
        if np.isnan(table.rows).any():
            print("numeric error: the result holds NaN", file=sys.stderr)
            return 3
        echo = _config_echo(cfg) if args.format == "json" else None
        if args.out:
            with _out_file(args.out) as fh:
                write_table(table, args.format, fh, echo)
        else:
            write_table(table, args.format, sys.stdout, echo)
        return 0
    except (ConfigError, UnsupportedCombination) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateGamma0, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CavbayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
