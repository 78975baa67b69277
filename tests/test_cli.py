"""Scenario runner: sweeps, config handling, output formats, exit codes."""

import argparse
import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cavbayes import oracle
from cavbayes.cli import (
    SweepSpec,
    find_tau_star,
    load_config,
    main,
    run_sweep,
    verify_all,
)
from cavbayes.dynamics import FieldState, Scenario
from cavbayes.errors import ConfigError, UnsupportedCombination
from cavbayes.priors import Prior

GAUSS = Prior.gaussian(1.0, 1.0)
UNIF = Prior.uniform(1.0, 1.0)
VACUUM = FieldState.vacuum()


def spec(quantity, axis, lo, hi, n, prior=GAUSS, **scenario_kwargs):
    return SweepSpec(
        quantity=quantity,
        axis=axis,
        lo=lo,
        hi=hi,
        n_points=n,
        prior=prior,
        scenario=Scenario(tau_c=scenario_kwargs.pop("tau_c", 0.6), **scenario_kwargs),
    )


def test_cost_sweep_starts_at_variance_with_interior_minimum():
    table = run_sweep(spec("mmse_cost", "tau_c", 0.01, 3.0, 300, prior=UNIF))
    i_cost = table.columns.index("c_min")
    costs = np.array([row[i_cost] for row in table.rows])
    assert costs[0] == pytest.approx(1.0, abs=1e-3)
    arg = float(np.linspace(0.01, 3.0, 300)[int(np.argmin(costs))])
    assert 0.6 <= arg <= 0.7
    assert costs.min() < costs[0] and costs.min() < costs[-1]


def test_detuning_sweep_minimized_at_resonance():
    table = run_sweep(spec("mmse_cost", "delta", -3.0, 3.0, 21))
    i_cost = table.columns.index("c_min")
    costs = [row[i_cost] for row in table.rows]
    assert int(np.argmin(costs)) == 10  # the Delta = 0 row


def test_dissipative_sweep_matches_unitary_at_zero_rates():
    t_unitary = run_sweep(spec("mmse_cost", "tau_c", 0.1, 2.0, 40))
    t_damped = run_sweep(spec("dissipative_cost", "tau_c", 0.1, 2.0, 40))
    iu = t_unitary.columns.index("c_min")
    idd = t_damped.columns.index("c_min")
    for row_u, row_d in zip(t_unitary.rows, t_damped.rows):
        assert row_u[0] == row_d[0]
        assert row_u[iu] == pytest.approx(row_d[idd], abs=1e-9)


def test_eigenvalue_sweep_columns():
    table = run_sweep(spec("mmse_eigenvalues", "tau_c", 0.2, 2.0, 10))
    assert table.columns == ["axis", "eig_lo", "eig_hi", "c_min"]
    for row in table.rows:
        assert row[1] <= row[2]


def test_bound_sweep_reports_inequality():
    table = run_sweep(
        spec("mmse_cr_bound", "g_over_g0", 0.2, 1.8, 15, tau_c=math.pi / 4.0)
    )
    i_bound = table.columns.index("cr_bound")
    i_mse = table.columns.index("mse")
    for row in table.rows:
        assert row[i_mse] >= row[i_bound] - 1e-9


def test_ml_sweep_requires_resonant_vacuum():
    with pytest.raises(UnsupportedCombination):
        spec("ml_cost", "tau_c", 0.1, 2.0, 10, alpha=1.0)
    with pytest.raises(UnsupportedCombination):
        spec("ml_cost", "tau_c", 0.1, 2.0, 10, delta=0.5)
    with pytest.raises(UnsupportedCombination):
        spec("mmse_cost", "g_over_g0", 0.1, 2.0, 10)
    with pytest.raises(UnsupportedCombination):
        spec("mmse_cost", "tau_c", 2.0, 0.1, 10)


def test_ml_cost_sweep_header():
    table = run_sweep(spec("ml_cost", "tau_c", 0.1, 2.0, 5, prior=UNIF))
    assert table.columns == ["axis", "cost_max"]


def test_tau_star_examples():
    tau = find_tau_star(UNIF, Scenario(tau_c=1.0))
    assert 0.6 <= tau <= 0.7
    from cavbayes.mmse import gamma_moments, mmse_estimator

    c_star = mmse_estimator(gamma_moments(UNIF, Scenario(tau_c=tau), VACUUM)).c_min
    c_short = mmse_estimator(gamma_moments(UNIF, Scenario(tau_c=0.01), VACUUM)).c_min
    assert c_star < c_short and c_star < UNIF.sigma**2

    sc1 = Scenario(tau_c=1.0, alpha=1.0)
    tau1 = find_tau_star(GAUSS, sc1)
    from cavbayes.dynamics import field_for

    c0 = mmse_estimator(gamma_moments(GAUSS, Scenario(tau_c=find_tau_star(GAUSS, Scenario(tau_c=1.0))), VACUUM)).c_min
    c1 = mmse_estimator(gamma_moments(GAUSS, dataclasses.replace(sc1, tau_c=tau1), field_for(sc1))).c_min
    assert c1 > c0


# ---------------------------------------------------------------------------
# config and process-level behavior


GOOD_CONFIG = """
[prior]
kind = uniform
sigma_over_g0 = 1.0

[scenario]
gamma_tau_f = 0.0

[sweep]
quantity = mmse_cost
axis = tau_c
lo = 0.1
hi = 1.5
n_points = 8
"""


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(GOOD_CONFIG)
    cfg = load_config(str(path))
    assert cfg["prior"].kind == "uniform"
    assert cfg["sweep"].quantity == "mmse_cost"


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


def test_sweep_csv_output_is_deterministic(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(GOOD_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(out2)]) == 0
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    text = data.decode()
    assert text.splitlines()[0] == "axis,eig_lo,eig_hi,c_min"
    assert "\r" not in text
    # scientific notation with 17 significant digits
    first_value = text.splitlines()[1].split(",")[0]
    assert "e" in first_value and len(first_value.split("e")[0].replace("-", "").replace(".", "")) == 17


def test_out_rewrites_an_existing_file_exactly(tmp_path, monkeypatch):
    # --out overwrites in place and cuts at the end, so a longer old file
    # leaves no tail, and a non-regular target such as /dev/null still works;
    # a truncating open would make ext4 flush the file on every close
    path = tmp_path / "run.ini"
    path.write_text(GOOD_CONFIG)
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert main(["sweep", "--config", str(path), "--out", str(fresh)]) == 0
    reused.write_bytes(b"stale\n" * 10_000)
    flags, real_open = [], os.open
    monkeypatch.setattr(os, "open", lambda p, f, *a: flags.append(f) or real_open(p, f, *a))
    assert main(["sweep", "--config", str(path), "--out", str(reused)]) == 0
    monkeypatch.undo()
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert reused.read_bytes() == fresh.read_bytes()
    assert main(["verify", "--seed", "7", "--out", str(reused)]) == 0
    assert json.loads(reused.read_text())["passed"]
    assert main(["sweep", "--config", str(path), "--out", os.devnull]) == 0


def test_sweep_json_embeds_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(GOOD_CONFIG)
    out = tmp_path / "run.json"
    assert main(["sweep", "--config", str(path), "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["sweep"]["quantity"] == "mmse_cost"
    assert payload["columns"] == ["axis", "eig_lo", "eig_hi", "c_min"]
    assert len(payload["rows"]) == 8


def test_point_subcommands_run(tmp_path, capsys):
    assert main(["state"]) == 0
    assert main(["mmse"]) == 0
    assert main(["ml"]) == 0
    out = capsys.readouterr().out
    assert "rho_ee" in out and "c_min" in out and "c_max" in out


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[sweep]\nquantity = mmse_cost\naxis = g_over_g0\nlo = 0\nhi = 1\nn_points = 4\n")
    assert main(["sweep", "--config", str(bad)]) == 1  # unsupported combination

    degenerate = tmp_path / "degenerate.ini"
    degenerate.write_text("[scenario]\ng0_tau_c = 0.0\ngamma_tau_f = 0.0\n")
    assert main(["mmse", "--config", str(degenerate)]) == 3

    missing = tmp_path / "nope.ini"
    assert main(["mmse", "--config", str(missing)]) == 1

    # uniform-prior likelihood POVM at zero interaction time: unbounded scale
    zero_ml = tmp_path / "zero_ml.ini"
    zero_ml.write_text("[prior]\nkind = uniform\n[scenario]\ng0_tau_c = 0.0\n")
    zero_sweep = tmp_path / "zero_sweep.ini"
    zero_sweep.write_text(
        "[prior]\nkind = uniform\n"
        "[sweep]\nquantity = ml_cost\naxis = tau_c\nlo = 0\nhi = 1\nn_points = 4\n"
    )
    capsys.readouterr()
    for argv in (["ml", "--config", str(zero_ml)], ["sweep", "--config", str(zero_sweep)]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # every command and sweep quantity accepts only its scenario family
    for name, (command, text) in _FAMILY_VIOLATIONS.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, (name, err)


# every option parses the same before and after the command:
# case -> (command, arguments after the command, option, exit code, check)
_OPTION_CASES = {
    "config": (
        "state", [], ["--config", "{tmp}/point.ini"], 0,
        lambda out, err, file: out.splitlines()[1].startswith("5.0000000000000000e-01,"),
    ),
    "config_missing": (
        "state", [], ["--config", "{tmp}/missing.ini"], 1,
        lambda out, err, file: out == "" and err.startswith("config error: "),
    ),
    "out": (
        "state", [], ["--out", "{tmp}/out"], 0,
        lambda out, err, file: out == "" and file.startswith(b"g_over_g0,rho_ee,"),
    ),
    "format": (
        "state", [], ["--format", "json"], 0,
        lambda out, err, file: json.loads(out)["columns"][0] == "g_over_g0",
    ),
    "seed": (
        "verify", ["--out", "{tmp}/out"], ["--seed", "7"], 0,
        lambda out, err, file: json.loads(file)["seed"] == 7,
    ),
}


@pytest.mark.parametrize("position", ["before", "after"])
@pytest.mark.parametrize("case", sorted(_OPTION_CASES))
def test_options_parse_before_or_after_command(case, position, tmp_path, capsys):
    command, rest, option, rc, check = _OPTION_CASES[case]
    (tmp_path / "point.ini").write_text("[scenario]\ng0_tau_c = 0.9\ng_over_g0 = 0.5\n")
    out = tmp_path / "out"

    def run(argv):
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        streams = capsys.readouterr()
        written = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
        return code, streams.out, streams.err, written

    argv = [*option, command, *rest] if position == "before" else [command, *rest, *option]
    got = run(argv)
    assert got[0] == rc and check(*got[1:])
    assert got == run([command, *rest, *option])


def test_one_argument_parser_per_request(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["state"]) == 0
    assert len(built) == 1


_FLOAT_KEYS = [
    ("prior", "sigma_over_g0"),
    *(("scenario", key) for key in ("g0_tau_c", "gamma_tau_f", "delta_over_g0", "alpha_abs",
                                    "alpha_phase", "kappa_over_g0", "gamma_over_g0", "g_over_g0")),
    ("sweep", "lo"),
    ("sweep", "hi"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", _FLOAT_KEYS)
def test_non_finite_config_value_is_a_config_error(section, key, value, tmp_path, capsys):
    sections = {"prior": {}, "scenario": {}}
    command = "state"
    if section == "sweep":
        sections["sweep"] = {"quantity": "mmse_cost", "axis": "tau_c", "lo": "0.1", "hi": "1.5",
                             "n_points": "4"}
        command = "sweep"
    sections[section][key] = value
    path = tmp_path / "run.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
        for name, body in sections.items()
    ))
    capsys.readouterr()
    assert main([command, "--config", str(path)]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err.startswith(f"config error: [{section}] {key} must be finite")
    assert streams.err.count("\n") == 1


_OVERFLOWING_RUNS = {
    # g^2 n overflows in the state kernel
    "state_huge_g": ("state", "[scenario]\ng_over_g0 = 1e160\n"),
    "mmse_huge_g": ("mmse", "[scenario]\ng_over_g0 = 1e160\n"),
    # (g t)^2 overflows in the dissipative populations
    "dissipative_state_huge_tau": (
        "state", "[scenario]\ng0_tau_c = 1e300\nkappa_over_g0 = 0.5\ngamma_over_g0 = 0.1\n"),
    "mmse_avg_estimate_sweep_to_huge_g": (
        "sweep", "[sweep]\nquantity = mmse_avg_estimate\naxis = g_over_g0\nlo = 1\n"
                 "hi = 1e200\nn_points = 3\n"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_OVERFLOWING_RUNS))
def test_nan_result_is_a_numeric_error(case, tmp_path, capsys):
    # NaN passes every range check, so the finished table is checked for it
    command, body = _OVERFLOWING_RUNS[case]
    path = tmp_path / "run.ini"
    path.write_text("[prior]\nkind = gaussian\nsigma_over_g0 = 0.5\n" + body)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err.startswith("numeric error:")
    assert streams.err.count("\n") == 1
    assert not out.exists()


def test_infinite_result_is_written(tmp_path, capsys):
    # c_max = inf is the documented value where sin(2 g0 tau_c) vanishes
    path = tmp_path / "run.ini"
    path.write_text("[prior]\nkind = gaussian\nsigma_over_g0 = 0.5\n"
                    f"[scenario]\ng0_tau_c = {math.pi / 2.0!r}\n")
    capsys.readouterr()
    assert main(["ml", "--config", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "c_max,cost_max,avg_estimate"
    assert row.startswith("inf,")


_NONNEGATIVE_AXIS_SWEEPS = [
    ("mmse_eigenvalues", "tau_c"),
    ("mmse_cost", "tau_c"),
    ("ml_cost", "tau_c"),
    ("ml_avg_estimate", "tau_c"),
    ("dissipative_cost", "tau_c"),
    ("mmse_eigenvalues", "gamma_tau_f"),
    ("mmse_cost", "gamma_tau_f"),
    ("ml_cost", "gamma_tau_f"),
]


@pytest.mark.parametrize("quantity,axis", _NONNEGATIVE_AXIS_SWEEPS)
def test_negative_time_sweep_range_is_a_config_error(quantity, axis, tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(f"[sweep]\nquantity = {quantity}\naxis = {axis}\nlo = -1\nhi = 1\n"
                    "n_points = 5\n")
    capsys.readouterr()
    assert main(["sweep", "--config", str(path)]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err.startswith(f"config error: sweep axis '{axis}' needs lo >= 0")
    assert streams.err.count("\n") == 1


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
@pytest.mark.parametrize("position", ["before", "after"])
def test_verify_seed_out_of_range_is_a_config_error(seed, position, tmp_path, capsys):
    out = tmp_path / "report.json"
    options = ["--seed", seed, "--out", str(out)]
    argv = [*options, "verify"] if position == "before" else ["verify", *options]
    capsys.readouterr()
    assert main(argv) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert streams.err.startswith("config error: --seed must be in [0, 2**128)")
    assert streams.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed,position", [(0, "before"), (2**128 - 1, "after")])
def test_verify_seed_range_ends_pass(seed, position, tmp_path, capsys):
    out = tmp_path / "report.json"
    options = ["--seed", str(seed), "--out", str(out)]
    argv = [*options, "verify"] if position == "before" else ["verify", *options]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and report["seed"] == seed


_PRODUCTION_RUNS = {
    "state": "",
    "mmse": "[scenario]\nalpha_abs = 0.8\n",
    "ml": "",
    "tau-star": "[prior]\nkind = uniform\n",
    **{
        f"sweep_{quantity}": f"[sweep]\nquantity = {quantity}\naxis = {axis}\nlo = 0.2\n"
        "hi = 1.4\nn_points = 4\n"
        for quantity, axis in (
            ("mmse_eigenvalues", "delta"), ("mmse_cost", "tau_c"),
            ("mmse_avg_estimate", "g_over_g0"), ("mmse_cr_bound", "g_over_g0"),
            ("ml_cost", "gamma_tau_f"), ("ml_avg_estimate", "tau_c"),
            ("ml_cr_bound", "g_over_g0"), ("dissipative_cost", "tau_c"),
        )
    },
}


def test_production_commands_do_not_call_oracle(tmp_path, monkeypatch, capsys):
    # spy on every public oracle function at every binding site in the package
    calls = []
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cavbayes"]
    for name in oracle.__all__:
        fn = getattr(oracle, name)
        if not inspect.isfunction(fn):
            continue

        def spy(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is fn]:
                monkeypatch.setattr(module, attr, spy)

    for name, text in _PRODUCTION_RUNS.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        command = name.split("_")[0]
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
        assert calls == [], (name, calls)
    assert main(["verify", "--out", str(tmp_path / "report.json")]) == 0
    assert "verify_all" in calls
    capsys.readouterr()


_DAMPED = "[scenario]\nkappa_over_g0 = 0.3\n"
_FAMILY_VIOLATIONS = {
    "mmse_damped": ("mmse", _DAMPED),
    "mmse_decaying_qubit": ("mmse", "[scenario]\ngamma_over_g0 = 0.2\n"),
    "sweep_mmse_cost_damped": (
        "sweep",
        _DAMPED + "[sweep]\nquantity = mmse_cost\naxis = tau_c\nlo = 0.1\nhi = 1\nn_points = 4\n",
    ),
    "sweep_mmse_eigenvalues_decaying_qubit": (
        "sweep",
        "[scenario]\ngamma_over_g0 = 0.2\n"
        "[sweep]\nquantity = mmse_eigenvalues\naxis = delta\nlo = 0\nhi = 1\nn_points = 4\n",
    ),
    "ml_detuned": ("ml", "[scenario]\ndelta_over_g0 = 0.5\n"),
    "ml_coherent": ("ml", "[scenario]\nalpha_abs = 1.0\n"),
    "ml_damped": ("ml", _DAMPED),
    "sweep_ml_cost_damped": (
        "sweep",
        _DAMPED + "[sweep]\nquantity = ml_cost\naxis = tau_c\nlo = 0.1\nhi = 1\nn_points = 4\n",
    ),
    "sweep_ml_cr_bound_decaying_qubit": (
        "sweep",
        "[scenario]\ngamma_over_g0 = 0.2\n"
        "[sweep]\nquantity = ml_cr_bound\naxis = g_over_g0\nlo = 0.3\nhi = 1.7\nn_points = 4\n",
    ),
    "state_damped_flight_decay": ("state", _DAMPED + "gamma_tau_f = 0.5\n"),
    "tau_star_damped_flight_decay": ("tau-star", _DAMPED + "gamma_tau_f = 0.5\n"),
    "tau_star_damped_detuned": ("tau-star", _DAMPED + "delta_over_g0 = 0.5\n"),
    "state_damped_coherent": ("state", _DAMPED + "alpha_abs = 1.0\n"),
    "sweep_dissipative_cost_flight_decay": (
        "sweep",
        "[scenario]\ngamma_tau_f = 0.5\n"
        "[sweep]\nquantity = dissipative_cost\naxis = tau_c\nlo = 0.1\nhi = 1\nn_points = 4\n",
    ),
}


_NO_SCIPY_RUNS = {
    "state_coherent": "[scenario]\ng0_tau_c = 0.9\nalpha_abs = 1.5\n",
    "state_dissipative": "[scenario]\ng0_tau_c = 0.9\nkappa_over_g0 = 0.3\n",
    "mmse": "[prior]\nkind = uniform\n[scenario]\ng0_tau_c = 0.9\nalpha_abs = 1.2\n"
    "delta_over_g0 = 0.3\n",
    "ml_gaussian": "[scenario]\ng0_tau_c = 0.9\n",
    "ml_uniform": "[prior]\nkind = uniform\n[scenario]\ng0_tau_c = 0.9\n",
    "sweep_ml_cr_bound": "[sweep]\nquantity = ml_cr_bound\naxis = g_over_g0\nlo = 0.3\n"
    "hi = 1.7\nn_points = 5\n",
    "sweep_ml_avg_estimate": "[prior]\nkind = uniform\n[sweep]\nquantity = ml_avg_estimate\n"
    "axis = tau_c\nlo = 0.1\nhi = 2\nn_points = 5\n",
    "sweep_mmse_cost": "[scenario]\nalpha_abs = 1.0\n[sweep]\nquantity = mmse_cost\n"
    "axis = delta\nlo = 0\nhi = 1\nn_points = 5\n",
    "sweep_dissipative_cost": "[scenario]\nkappa_over_g0 = 0.2\n[sweep]\n"
    "quantity = dissipative_cost\naxis = tau_c\nlo = 0.1\nhi = 2\nn_points = 5\n",
    "tau-star": "[scenario]\nkappa_over_g0 = 0.2\n",
}


def test_import_skips_scipy_integrate(tmp_path):
    # scipy serves the verification battery only: importing the CLI and
    # running every production command loads no scipy module
    import cavbayes

    runs = []
    for name, text in _NO_SCIPY_RUNS.items():
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        command = name.split("_")[0]
        runs.append([command, "--config", str(cfg), "--out", str(tmp_path / f"{name}.csv")])
    src = os.path.dirname(os.path.dirname(cavbayes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, sys\n"
        "import cavbayes, cavbayes.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cavbayes.cli.main(argv) == 0, argv\n"
        "    assert not scipy_modules(), (argv, scipy_modules())\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], env=env, check=True, timeout=120
    )
    assert len(list(tmp_path.glob("*.csv"))) == len(_NO_SCIPY_RUNS)


def test_verify_all_passes_and_is_deterministic():
    rep1 = verify_all(seed=123)
    rep2 = verify_all(seed=123)
    assert rep1["passed"]
    assert json.dumps(rep1, sort_keys=True, default=str) == json.dumps(
        rep2, sort_keys=True, default=str
    )
    names = [c["name"] for c in rep1["checks"]]
    assert any("detects_inflation" in n for n in names)


def test_verify_subcommand_exit_zero(capsys):
    assert main(["verify", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
