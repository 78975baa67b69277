"""Scenario runner: sweeps, config handling, output formats, exit codes."""

import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavbayes import oracle
from cavbayes.cli import (
    SweepSpec,
    Table,
    find_tau_star,
    load_config,
    main,
    run_sweep,
    verify_all,
    write_table,
)
from cavbayes.dynamics import FieldState, Scenario, field_for
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
    tau, c_min = find_tau_star(UNIF, Scenario(tau_c=1.0))
    assert 0.6 <= tau <= 0.7
    from cavbayes.mmse import gamma_moments, mmse_estimator

    c_star = mmse_estimator(gamma_moments(UNIF, Scenario(tau_c=tau), VACUUM)).c_min
    c_short = mmse_estimator(gamma_moments(UNIF, Scenario(tau_c=0.01), VACUUM)).c_min
    assert c_min == pytest.approx(c_star, rel=1e-12)
    assert c_star < c_short and c_star < UNIF.sigma**2

    _, c0 = find_tau_star(GAUSS, Scenario(tau_c=1.0))
    _, c1 = find_tau_star(GAUSS, Scenario(tau_c=1.0, alpha=1.0))
    assert c1 > c0


@pytest.mark.parametrize("alpha", [12.0, 16.0])
def test_tau_star_follows_the_field(alpha):
    # the scan window shrinks with the Rabi rate of |alpha|^2 photons; a
    # fixed [0.05, 3]/g0 window returned its lower edge here
    from cavbayes.mmse import gamma_moments, mmse_estimator

    scenario = Scenario(tau_c=1.0, alpha=alpha)
    _, c_min = find_tau_star(GAUSS, scenario)
    taus = np.linspace(0.005, 0.3, 3000)
    column = dataclasses.replace(scenario, tau_c=tuple(taus.tolist()))
    scan = mmse_estimator(gamma_moments(GAUSS, column, field_for(scenario))).c_min
    assert c_min <= scan.min()


def test_tau_star_flat_cost_is_finite(tmp_path, capsys):
    # at gamma tau_f = 40 the cost equals sigma^2 to rounding at every time,
    # so the vertex steps meet flat or non-convex triples
    cfg = tmp_path / "flat.ini"
    cfg.write_text("[scenario]\ngamma_tau_f = 40\n")
    assert main(["tau-star", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "g0_tau_star,c_min_at_tau_star"
    assert np.all(np.isfinite([float(x) for x in out[1].split(",")]))


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


# INI bodies -> (section, Scenario or SweepSpec field, value load_config reads):
# a built-in default sits in its own section, so a [DEFAULT] key never
# overrides it, and %(key)s in that section resolves to it
_CONFIG_SEMANTICS = {
    "default_section_under_empty_scenario": (
        "[DEFAULT]\ng0_tau_c = 2.0\n[scenario]\n", "scenario", "tau_c", 0.6),
    "default_section_under_set_scenario": (
        "[DEFAULT]\ng0_tau_c = 2.0\n[scenario]\ngamma_tau_f = 0.1\n", "scenario", "tau_c", 0.6),
    "default_section_without_scenario": ("[DEFAULT]\ng0_tau_c = 2.0\n", "scenario", "tau_c", 0.6),
    "default_section_prior": ("[DEFAULT]\nsigma_over_g0 = 3.0\n[prior]\n", "prior", "sigma", 1.0),
    "interpolated_builtin_default": (
        "[scenario]\ndelta_over_g0 = %(g0_tau_c)s\n", "scenario", "delta", 0.6),
    "interpolated_set_value": (
        "[scenario]\ng0_tau_c = 0.9\ndelta_over_g0 = %(g0_tau_c)s\n", "scenario", "delta", 0.9),
    "interpolated_default_section": (
        "[DEFAULT]\nshift = 0.25\n[scenario]\ndelta_over_g0 = %(shift)s\n", "scenario", "delta",
        0.25),
    "default_section_fills_sweep": (
        "[DEFAULT]\nn_points = 5\n[sweep]\nquantity = mmse_cost\naxis = tau_c\nlo = 0.1\n"
        "hi = 1.5\n", "sweep", "n_points", 5),
    "escaped_percent_unread_key": (
        "[scenario]\nnote = 5%% off\nbad = %\ng0_tau_c = 0.7\n", "scenario", "tau_c", 0.7),
}


@pytest.mark.parametrize("case", sorted(_CONFIG_SEMANTICS))
def test_config_defaults_and_interpolation(case, tmp_path):
    body, section, field, value = _CONFIG_SEMANTICS[case]
    path = tmp_path / "run.ini"
    path.write_text(body)
    assert getattr(load_config(str(path))[section], field) == value


# INI bodies whose interpolation fails -> the one stderr line of ``state``
_INTERPOLATION_ERRORS = {
    "bare_percent": ("[scenario]\ng0_tau_c = %\n",
                     "config error: '%' must be followed by '%' or '(', found: '%'\n"),
    "trailing_percent": ("[scenario]\ng0_tau_c = 0.5%\n",
                         "config error: '%' must be followed by '%' or '(', found: '%'\n"),
    "escaped_percent": ("[scenario]\ng0_tau_c = 0.5%%\n",
                        "config error: could not convert string to float: '0.5%'\n"),
    "missing_reference": (
        "[scenario]\ng0_tau_c = %(kind)s\n",
        "config error: Bad value substitution: option 'g0_tau_c' in section 'scenario' contains "
        "an interpolation key 'kind' which is not a valid option name. Raw value: '%(kind)s'\n"),
}


@pytest.mark.parametrize("case", sorted(_INTERPOLATION_ERRORS))
def test_config_interpolation_error_is_one_line(case, tmp_path, capsys):
    body, err = _INTERPOLATION_ERRORS[case]
    path = tmp_path / "run.ini"
    path.write_text(body)
    capsys.readouterr()
    assert main(["state", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", err)


# a first INI, then a probe whose result must not depend on it: a [DEFAULT]
# key, a [sweep] section and an interpolation target of the first read are
# gone from the reused parser; each probe fails in a fresh process, where a
# leak would let it pass
_LEAK_PROBES = {
    "default_key": ("[DEFAULT]\nn_points = 5\n", "sweep",
                    "[sweep]\nquantity = ml_cost\naxis = tau_c\nlo = 0.1\nhi = 1\n"),
    "sweep_section": (
        "[sweep]\nquantity = ml_cost\naxis = tau_c\nlo = 0.1\nhi = 1\nn_points = 3\n", "sweep",
        "[scenario]\ng0_tau_c = 0.7\n"),
    "interpolation_target": ("[prior]\nwidth = 0.3\n", "ml",
                             "[prior]\nsigma_over_g0 = %(width)s\n"),
}


@pytest.mark.parametrize("case", sorted(_LEAK_PROBES))
def test_reused_config_parser_keeps_nothing_between_calls(case, tmp_path, capsys):
    first, command, probe = _LEAK_PROBES[case]
    (tmp_path / "first.ini").write_text(first)
    (tmp_path / "probe.ini").write_text(probe)
    argv = [command, "--config", str(tmp_path / "probe.ini")]
    fresh = _run_cli(argv)
    assert fresh.returncode == 1 and fresh.stderr.startswith("config error: ")
    main([command, "--config", str(tmp_path / "first.ini")])
    capsys.readouterr()
    assert main(argv) == fresh.returncode
    assert capsys.readouterr() == (fresh.stdout, fresh.stderr)


# files the INI reader itself refuses
_MALFORMED_INI = {
    "no_section_header": b"garbage\n",
    "duplicate_section": b"[prior]\nsigma_over_g0 = 0.3\n[prior]\nkind = uniform\n",
    "not_utf8": b"\xff\xfe[prior]\n",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INI))
def test_malformed_config_is_one_config_error_line(case, tmp_path, capsys):
    bad, good = tmp_path / "bad.ini", tmp_path / "good.ini"
    bad.write_bytes(_MALFORMED_INI[case])
    good.write_text("[prior]\nkind = uniform\n[scenario]\ng0_tau_c = 0.9\n")
    capsys.readouterr()
    assert main(["state", "--config", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and err.count("\n") == 1, err
    # a valid call on the reused parser holds nothing of the failed read
    fresh = _run_cli(["ml", "--config", str(good)])
    assert main(["ml", "--config", str(good)]) == fresh.returncode == 0
    assert capsys.readouterr() == (fresh.stdout, fresh.stderr)


_CELLS = st.one_of(st.floats(allow_nan=False),
                   st.floats(allow_nan=False).map(np.float64),
                   st.sampled_from([math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                                    2.2250738585072014e-308, 1e308, -1e308]),
                   st.sampled_from([np.float64(x) for x in (math.inf, -math.inf, -0.0, 5e-324)]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(_CELLS, min_size=k, max_size=k), min_size=1, max_size=4)))
def test_csv_lines_are_sixteen_digit_floats(rows):
    out = io.StringIO()
    columns = [f"c{i}" for i in range(len(rows[0]))]
    write_table(Table(columns=columns, rows=rows), "csv", out)
    lines = out.getvalue().split("\n")
    assert lines[0] == ",".join(columns) and lines[-1] == ""
    assert lines[1:-1] == [",".join(f"{x:.16e}" for x in row) for row in rows]


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

    capsys.readouterr()
    # an explicit Fock ladder too short for the amplitude is a config choice
    short = tmp_path / "short.ini"
    short.write_text("[scenario]\nalpha_abs = 3\nfock_cutoff = 5\n")
    assert main(["state", "--config", str(short)]) == 1
    assert capsys.readouterr().err == (
        "config error: [scenario] fock_cutoff: field ladder captures only 0.115691 of the mass\n")
    # a sweep past the point ceiling is refused before its grid is built
    many = tmp_path / "many.ini"
    many.write_text(
        "[sweep]\nquantity = mmse_cost\naxis = tau_c\nlo = 0.1\nhi = 1\nn_points = 1000000000000\n"
    )
    assert main(["sweep", "--config", str(many)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1

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


def test_one_argument_parser_per_request():
    # one flat parser, no subparsers, built once per process: importing
    # ``cli`` builds exactly one ArgumentParser, and no request, failing or
    # not, builds another
    import cavbayes

    code = textwrap.dedent("""
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = spy
        from cavbayes import cli
        assert len(built) == 1, built
        codes = [cli.main(argv) for argv in (["state"], ["ml"], ["bogus"])]
        assert codes == [0, 0, 1], codes
        assert len(built) == 1, built
    """)
    src = os.path.dirname(os.path.dirname(cavbayes.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr


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
    "mmse_avg_estimate_sweep_to_huge_g": (
        "sweep", "[sweep]\nquantity = mmse_avg_estimate\naxis = g_over_g0\nlo = 1\n"
                 "hi = 1e200\nn_points = 3\n"),
}


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


_HUGE_TAU_RATES = [(0.5, 0.1, 1.0), (5.0, 0.7, 1.0), (0.1, 0.5, 1.0), (60.0, 0.0, 1.0),
                   (0.0, 60.0, 1.0), (8.0, 0.0, 2.0), (0.0, 8.0, 2.0), (0.1, 0.1, 3.0)]


@pytest.mark.parametrize("kappa,gamma,g", _HUGE_TAU_RATES,
                         ids=[f"{k}-{r}" + ("-critical" if abs(k - r) == 4 * g else "")
                              for k, r, g in _HUGE_TAU_RATES])
def test_damped_state_at_huge_tau_is_ground(kappa, gamma, g, tmp_path, capsys):
    # the damped amplitude holds no t^2 term and forms b S and (|b| - r) S
    # free of t, so g0 tau = 1e300, and the float maximum, decay to the
    # ground state instead of overflowing into NaN; two pairs sit at
    # critical damping, |kappa - gamma| = 4 g, where b S = (kappa - gamma) t/4,
    # and the last is underdamped, with r = sqrt|D| t/4 past the float
    # maximum at 1.7e308
    path = tmp_path / "run.ini"
    for tau in ("1e300", "1.7e308"):
        path.write_text("[prior]\nkind = gaussian\nsigma_over_g0 = 0.5\n[scenario]\n"
                        f"g_over_g0 = {g}\ng0_tau_c = {tau}\n"
                        f"kappa_over_g0 = {kappa}\ngamma_over_g0 = {gamma}\n")
        capsys.readouterr()
        assert main(["state", "--config", str(path)]) == 0, tau
        streams = capsys.readouterr()
        assert streams.err == ""
        header, row = streams.out.splitlines()
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values["rho_ee"] == 0.0 and values["rho_gg"] == 1.0, tau


def _run_cli(argv, timeout=60):
    """The CLI in a fresh interpreter, with the default warning filters."""
    import cavbayes

    src = os.path.dirname(os.path.dirname(cavbayes.__file__))
    return subprocess.run([sys.executable, "-m", "cavbayes.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=timeout)


def test_nan_refusal_writes_one_stderr_line(tmp_path):
    # with the default warning filters, no numpy overflow warning may
    # precede the refusal on stderr
    for case, (command, body) in sorted(_OVERFLOWING_RUNS.items()):
        path = tmp_path / f"{case}.ini"
        path.write_text("[prior]\nkind = gaussian\nsigma_over_g0 = 0.5\n" + body)
        proc = _run_cli([command, "--config", str(path)])
        assert (proc.returncode, proc.stdout) == (3, ""), case
        assert proc.stderr == "numeric error: the result holds NaN\n", case


# the Fock ladder: scenario section -> exit code of ``state``
_LADDER_RUNS = {
    "alpha_30": ("alpha_abs = 30\n", 0),
    "alpha_40": ("alpha_abs = 40\n", 1),
    "alpha_1e160": ("alpha_abs = 1e160\n", 1),  # |alpha|^2 overflows
    "alpha_1e160_cutoff_5": ("alpha_abs = 1e160\nfock_cutoff = 5\n", 1),
    "huge_cutoff": ("fock_cutoff = 1000000000\n", 1),
}


@pytest.mark.parametrize("case", sorted(_LADDER_RUNS))
def test_fock_ladder_ceiling(case, tmp_path):
    # the automatic ladder of |alpha| = 30 is found within seconds; a ladder
    # past the ceiling is refused before it is built.  Each run has its own
    # interpreter and a timeout, so a ladder search that never ends fails
    body, rc = _LADDER_RUNS[case]
    path = tmp_path / "run.ini"
    path.write_text("[scenario]\n" + body)
    proc = _run_cli(["state", "--config", str(path)], timeout=30)
    assert proc.returncode == rc, proc.stderr
    if rc == 0:
        header, row = proc.stdout.splitlines()
        assert all(math.isfinite(float(x)) for x in row.split(","))
    else:
        assert proc.stdout == "" and proc.stderr.startswith("config error: ")
        assert proc.stderr.count("\n") == 1
        assert ("alpha_abs" in proc.stderr) == case.startswith("alpha")


# runs whose prior quadrature or likelihood phases would pass what a double
# or the memory holds: case -> (command, config, exit code)
_UNBOUNDED_RUNS = {
    "tau_star_damped_wide_prior": (
        "tau-star", "[prior]\nsigma_over_g0 = 1e9\n[scenario]\nkappa_over_g0 = 1\n", 1),
    "tau_star_detuned_wide_prior": (
        "tau-star", "[prior]\nsigma_over_g0 = 1e9\n[scenario]\ndelta_over_g0 = 0.3\n", 1),
    "detuned_sweep_past_the_ceiling": (
        "sweep", "[scenario]\ndelta_over_g0 = 0.3\nalpha_abs = 30\n"
                 "[sweep]\nquantity = mmse_cost\naxis = tau_c\nlo = 0.1\nhi = 5\nn_points = 3\n", 1),
    "ml_huge_tau": ("ml", "[scenario]\ng0_tau_c = 1.7e308\n", 3),
    "ml_cost_to_huge_tau": (
        "sweep", "[sweep]\nquantity = ml_cost\naxis = tau_c\nlo = 1\nhi = 1.7e308\nn_points = 3\n", 3),
}


@pytest.mark.parametrize("case", sorted(_UNBOUNDED_RUNS))
def test_unbounded_run_is_refused_in_one_line(case, tmp_path, capsys):
    # unguarded, the wide priors ask numpy for 15 GiB (MemoryError) and the
    # likelihood phases reach math.sin(inf) (ValueError)
    command, text, code = _UNBOUNDED_RUNS[case]
    path = tmp_path / "run.ini"
    path.write_text(text)
    capsys.readouterr()
    assert main([command, "--config", str(path)]) == code
    streams = capsys.readouterr()
    assert streams.out == "" and streams.err.count("\n") == 1
    assert streams.err.startswith("config error: " if code == 1 else "numeric error: ")


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


# likelihood runs that start at zero interaction time: case -> (command, config)
_ZERO_TIME_RUNS = {
    "ml": ("ml", "[scenario]\ng0_tau_c = 0.0\n"),
    **{q: ("sweep", f"[sweep]\nquantity = {q}\naxis = tau_c\nlo = 0\nhi = 1\nn_points = 4\n")
       for q in ("ml_cost", "ml_avg_estimate")},
}


@pytest.mark.parametrize("kind", ["gaussian", "uniform"])
@pytest.mark.parametrize("case", sorted(_ZERO_TIME_RUNS))
def test_zero_interaction_time_likelihood_rows(case, kind, tmp_path, capsys):
    # at tau_c = 0 the traceless component is unconstrained for either
    # prior: c_max = inf and f_z == 0, so the cost is the prior term alone
    # and the mean estimate is the prior mean
    command, text = _ZERO_TIME_RUNS[case]
    path = tmp_path / "run.ini"
    path.write_text(f"[prior]\nkind = {kind}\nsigma_over_g0 = 0.5\n" + text)
    capsys.readouterr()
    assert main([command, "--config", str(path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    first = dict(zip(header.split(","), map(float, rows[0].split(","))))
    prior_term = 1.0 / math.sqrt(4.0 * math.pi * 0.25) if kind == "gaussian" else 1.0 / math.sqrt(3.0)
    assert first.get("axis", 0.0) == 0.0
    assert first.get("c_max", math.inf) == math.inf
    assert first.get("cost_max", prior_term) == pytest.approx(prior_term, rel=1e-15)
    assert first.get("avg_estimate", 1.0) == 1.0
    assert all(math.isfinite(float(x)) for row in rows[1:] for x in row.split(","))


@pytest.mark.parametrize("tau", ["1e-170", "1e-300"])
def test_uniform_mmse_where_the_phase_squared_underflows(tau, tmp_path, capsys):
    # (sqrt(3) sigma omega)^2 underflows to 0 at these times while the phase
    # itself does not: the transform's series terms are 0 there, not 0/0, so
    # the state carries no information and c_min is the prior variance
    path = tmp_path / "run.ini"
    path.write_text("[prior]\nkind = uniform\nsigma_over_g0 = 0.5\n[scenario]\n"
                    f"g0_tau_c = {tau}\nalpha_abs = 1\nfock_cutoff = 5\n")
    capsys.readouterr()
    assert main(["mmse", "--config", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert values["c_min"] == pytest.approx(0.25, rel=1e-14)


def test_mmse_bound_stays_below_mse_at_a_pure_state(tmp_path, capsys):
    # Delta = 1.2 g0 and g = 0.8 g0 give l = g0, so l tau = pi leaves the
    # qubit excited: the state is pure up to rounding, and the bound of
    # the eigenbasis L must keep the ground Fisher term to stay below the MSE
    path = tmp_path / "run.ini"
    path.write_text("[prior]\nkind = gaussian\nsigma_over_g0 = 0.5\n[scenario]\n"
                    f"delta_over_g0 = 1.2\ng0_tau_c = {math.pi!r}\ng_over_g0 = 0.8\n")
    capsys.readouterr()
    assert main(["mmse", "--config", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    values = dict(zip(header.split(","), map(float, row.split(","))))
    assert 0.0 <= values["cr_bound"] <= values["mse"]


@pytest.mark.parametrize("u", [0.0, 1e-13, 0.5])
def test_state_ground_population_keeps_its_digits(u, tmp_path, capsys):
    # at g tau_c = 1e-6 the ground population is ~1e-12 + u; formed as
    # 1 - rho_ee it would keep only ~4 of its digits
    import mpmath

    path = tmp_path / "run.ini"
    path.write_text(f"[scenario]\ng0_tau_c = 1e-6\ngamma_tau_f = {u!r}\n")
    capsys.readouterr()
    assert main(["state", "--config", str(path)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    rho_gg = float(row.split(",")[header.split(",").index("rho_gg")])
    with mpmath.workdps(50):
        ref = float(1 - mpmath.cos(mpmath.mpf(1e-6)) ** 2 * mpmath.exp(-mpmath.mpf(u)))
    assert abs(rho_gg - ref) <= 1e-14 * ref


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


# usage errors exit 1 with one line, like every config error, so exit 2
# keeps meaning a failed verification: case -> (arguments, message)
_USAGE_ERRORS = {
    "bad_format": (["state", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
    "non_integer_seed": (["verify", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    "unknown_command": (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
}


@pytest.mark.parametrize("case", sorted(_USAGE_ERRORS))
def test_usage_error_is_a_config_error(case, capsys):
    argv, message = _USAGE_ERRORS[case]
    capsys.readouterr()
    assert main(argv) == 1
    streams = capsys.readouterr()
    assert streams.out == "" and streams.err.startswith(f"config error: {message}")
    assert streams.err.count("\n") == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0 and capsys.readouterr().out.startswith("usage: cavbayes")


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
@pytest.mark.parametrize("command", ["mmse", "verify"])
def test_unwritable_out_is_a_config_error(command, target, tmp_path, capsys):
    # a table and the verify report alike: one line naming the path, no traceback
    path = str(tmp_path if target == "directory" else tmp_path / "missing" / "x.csv")
    capsys.readouterr()
    assert main([command, "--out", path]) == 1
    streams = capsys.readouterr()
    assert streams.out == "" and streams.err.count("\n") == 1
    assert streams.err.startswith(f"config error: cannot write --out {path!r}: ")


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
