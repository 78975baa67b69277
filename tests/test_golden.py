"""Regression guard: CLI outputs against stored reference CSVs.

Each ``tests/data/golden/<name>.ini`` is run through the CLI (``tau-star``
for names starting with ``tau_star``, the point command ``<command>`` for
names starting with ``point_<command>_``, ``sweep`` otherwise) and must
reproduce ``<name>.csv`` to 1e-12 relative in every number, with identical
headers and row counts.  The references cover every MMSE sweep quantity and
axis, both priors, vacuum, detuned, coherent and dissipative fields, five
likelihood sweeps (``ml_cost`` over ``tau_c`` with the uniform
prior, ``ml_avg_estimate`` over ``g_over_g0`` with the uniform and over
``tau_c`` with the Gaussian prior, ``ml_cr_bound`` with both priors),
``tau-star`` for the three field kinds, and the point commands: ``mmse``
on a Gaussian vacuum with flight decay and on a uniform coherent detuned
field with an explicit Fock cutoff, ``state`` coherent detuned and damped,
and ``ml`` with both priors.  ``verify_seed_<s>.json`` is the
report of ``verify --seed <s>`` for s = 0, 7 and 63: its check names and
order, pass flags and notes must match exactly, and every number to 1e-12
relative.  ``point_<command>_<case>.json`` is the ``--format json`` output of each
point golden; it and the point CSV are compared byte for byte.  Regenerate
them only for a change that is meant to move the numbers, and say why in
the change log.
"""

import configparser
import csv
import json
import math
import pathlib

import pytest

from cavbayes import cli
from cavbayes.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
CASES = sorted(p.stem for p in GOLDEN.glob("*.ini"))
REL_TOL = 1e-12


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def test_golden_set_is_complete():
    assert len(CASES) >= 10
    for name in CASES:
        assert (GOLDEN / f"{name}.csv").exists(), name


def test_golden_set_covers_every_sweep_quantity():
    # a sweep quantity added without a reference CSV fails here
    quantities = set()
    for name in CASES:
        parser = configparser.ConfigParser()
        parser.read(GOLDEN / f"{name}.ini")
        if parser.has_section("sweep"):
            quantities.add(parser.get("sweep", "quantity").strip())
    assert quantities == set(cli._QUANTITIES)


def _command(name: str) -> str:
    if name.startswith("tau_star"):
        return "tau-star"
    if name.startswith("point_"):
        return name.split("_")[1]
    return "sweep"


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path):
    command = _command(name)
    out = tmp_path / "out.csv"
    rc = main([command, "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out)])
    assert rc == 0
    header, rows = _read(out)
    ref_header, ref_rows = _read(GOLDEN / f"{name}.csv")
    assert header == ref_header
    assert len(rows) == len(ref_rows)
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        assert len(row) == len(ref)
        for x, y in zip(row, ref):
            if x != y:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    assert worst <= REL_TOL


def test_point_json_rows_are_numbers(tmp_path):
    # a 0-d array in a row would reach json.dump's default=str as a string
    name = "point_mmse_vacuum_gaussian"
    out = tmp_path / "out.json"
    rc = main(["mmse", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out),
               "--format", "json"])
    assert rc == 0
    payload = json.loads(out.read_text())
    ref_header, ref_rows = _read(GOLDEN / f"{name}.csv")
    assert payload["columns"] == ref_header
    assert len(payload["rows"]) == len(ref_rows)
    for row, ref in zip(payload["rows"], ref_rows):
        assert all(type(x) is float for x in row), row
        assert row == pytest.approx(ref, rel=REL_TOL, abs=0.0)


POINTS = sorted(name for name in CASES if name.startswith("point_"))


def test_every_point_golden_has_json_bytes():
    assert POINTS and sorted(p.stem for p in GOLDEN.glob("*.json")
                             if p.stem.startswith("point_")) == POINTS


@pytest.mark.parametrize("name", POINTS)
def test_point_json_matches_golden_bytes(name, tmp_path):
    out = tmp_path / "out.json"
    rc = main([_command(name), "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out),
               "--format", "json"])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", POINTS)
def test_point_csv_matches_golden_bytes(name, tmp_path):
    out = tmp_path / "out.csv"
    rc = main([_command(name), "--config", str(GOLDEN / f"{name}.ini"), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("seed", [0, 7, 63])
def test_verify_report_matches_golden(seed, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    ref = json.loads((GOLDEN / f"verify_seed_{seed}.json").read_text())
    assert report.keys() == ref.keys()
    assert (report["seed"], report["passed"]) == (ref["seed"], ref["passed"])
    assert report["notes"] == ref["notes"]
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        (c["name"], c["passed"]) for c in ref["checks"]
    ]
    for check, ref_check in zip(report["checks"], ref["checks"]):
        assert check.keys() == ref_check.keys(), check["name"]
        for key in check.keys() - {"name", "passed"}:
            assert math.isclose(check[key], ref_check[key], rel_tol=REL_TOL, abs_tol=0.0), (
                check["name"], key, check[key], ref_check[key])
