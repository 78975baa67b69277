"""Regression guard: CLI outputs against stored reference CSVs.

Each ``tests/data/golden/<name>.ini`` is run through the CLI (``tau-star``
for names starting with ``tau_star``, ``sweep`` otherwise) and must
reproduce ``<name>.csv`` to 1e-12 relative in every number, with identical
headers and row counts.  The references cover every MMSE sweep quantity and
axis, both priors, vacuum, detuned, coherent and dissipative fields, one
``ml_cost`` and one ``ml_cr_bound`` sweep, and ``tau-star`` for the three
field kinds.  Regenerate them only for a change that is meant to move the
numbers, and say why in the change log.
"""

import csv
import pathlib

import pytest

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


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path):
    command = "tau-star" if name.startswith("tau_star") else "sweep"
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
