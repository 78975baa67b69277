"""Config and option fuzz of the command-line front end.

Every command runs on drawn ``[prior]``, ``[scenario]`` and ``[sweep]``
values: finite, NaN, +-inf, negative, zero, huge and non-numeric ones, for
every sweep quantity and axis, and on drawn ``--format``, ``--seed`` and
``--out`` options, valid or not, the last a new file, a directory or a file
under a missing directory.  Each run either exits 0 with no NaN in its
output, or exits 1 (config) or 3 (numeric) with exactly one line on stderr,
counting any warning it raises; it never raises.  ``verify`` may also exit
2, a failed check, with nothing on stderr.  A valid sweep holds at most 64
points and a valid explicit Fock cutoff at most 40 levels, so that no draw
runs long.
"""

import contextlib
import io
import warnings

from hypothesis import given, settings, strategies as st

from cavbayes import cli

#: sweeps weigh most, for their quantity x axis pairs
_COMMANDS = ["state", "mmse", "ml", "tau-star", "verify", *["sweep"] * 5]
#: (section, key) -> strategy of its in-range values, as text
_IN_RANGE = {
    ("prior", "sigma_over_g0"): st.floats(0.05, 2.0),
    ("scenario", "g0_tau_c"): st.floats(0.0, 3.0),
    ("scenario", "gamma_tau_f"): st.floats(0.0, 2.0),
    ("scenario", "delta_over_g0"): st.floats(-3.0, 3.0),
    ("scenario", "alpha_abs"): st.floats(0.0, 3.0),
    ("scenario", "alpha_phase"): st.floats(-7.0, 7.0),
    ("scenario", "kappa_over_g0"): st.floats(0.0, 2.0),
    ("scenario", "gamma_over_g0"): st.floats(0.0, 2.0),
    ("scenario", "fock_cutoff"): st.one_of(st.just("auto"), st.integers(0, 40)),
    ("scenario", "g_over_g0"): st.floats(-1.0, 3.0),
    ("sweep", "n_points"): st.integers(2, 64),
}
#: scenario keys the draws for each family (see cli._FAMILIES) leave at their defaults
_RATES = ("kappa_over_g0", "gamma_over_g0")
_LEFT_AT_ZERO = {
    "unitary": _RATES,
    "resonant vacuum": (*_RATES, "delta_over_g0", "alpha_abs"),
    "damped": ("delta_over_g0", "alpha_abs", "alpha_phase", "gamma_tau_f", "fock_cutoff"),
}
_POINT_FAMILIES = {"mmse": ["unitary"], "ml": ["resonant vacuum"]}
_EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, -1e-3, 1e-300, 5e-324, 1e9, 1e160, 1e300, 1.7e308,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
).map(repr) | st.sampled_from(["", "abc", "1,5", "0x10", "1e999", "--1", "%", "None",
                                "1025", "10001", "2.5"])
#: option values, mostly valid; None leaves the option out
_FORMATS = st.sampled_from(["csv", "json", "csv", "json", "xml", "", "CSV"])
_SEEDS = st.none() | st.integers(0, 2**128 - 1).map(str) | st.sampled_from(
    ["-1", str(2**128), "abc", "1.5", "", "0x10", "1e3"])
#: --out relative to a fresh directory: a new file, the directory itself,
#: a file under a missing directory
_OUTS = st.sampled_from([None, "out.txt", ".", "missing/out.txt"])


@st.composite
def _runs(draw) -> tuple:
    """A command and its config sections.  The values are mostly in range
    for the scenario family the command evaluates, and up to two keys (the
    prior kind and the sweep's quantity and axis included) hold edge or
    non-numeric values; one draw in eight mixes the families."""
    command = draw(st.sampled_from(_COMMANDS))
    config = {"prior": {"kind": draw(st.sampled_from(["gaussian", "uniform"]))}, "scenario": {}}
    if draw(st.integers(0, 9)) < (9 if command == "sweep" else 2):
        quantity = draw(st.sampled_from(sorted(cli._QUANTITIES)))
        family, axes, _ = cli._QUANTITIES[quantity]
        axis = draw(st.sampled_from(axes) if draw(st.integers(0, 7)) else st.sampled_from(cli.AXES))
        lo = draw(st.floats(0.05, 3.0))
        hi = lo + draw(st.floats(0.01, 3.0))
        config["sweep"] = {"quantity": quantity, "axis": axis, "lo": repr(lo), "hi": repr(hi),
                           "n_points": str(draw(_IN_RANGE["sweep", "n_points"]))}
    else:
        family = draw(st.sampled_from(_POINT_FAMILIES.get(command, ["unitary", "damped"])))
    left = _LEFT_AT_ZERO[family] if draw(st.integers(0, 7)) else ()
    for (section, key), values in _IN_RANGE.items():
        if section == "prior" or (section == "scenario" and key not in left and draw(st.booleans())):
            config[section][key] = str(draw(values))
    keys = [(section, key) for section, body in config.items() for key in body]
    for section, key in draw(st.lists(st.sampled_from(sorted(keys + list(_IN_RANGE))),
                                      max_size=2, unique=True)):
        if section in config:
            config[section][key] = draw(_EDGE)
    return command, config


def _run(argv: list) -> tuple:
    """(exit code, stdout, stderr lines, warnings raised) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().splitlines(), caught


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(run=_runs(), fmt=_FORMATS, seed=_SEEDS, target=_OUTS)
def test_every_config_exits_cleanly(run, fmt, seed, target, tmp_path_factory):
    command, sections = run
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "run.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for name, body in sections.items()
    ))
    argv = [command, "--config", str(path), "--format", fmt]
    argv += [] if seed is None else ["--seed", seed]
    argv += [] if target is None else ["--out", str(folder / target)]
    code, out, err, caught = _run(argv)
    assert not caught, [str(w.message) for w in caught]  # a warning is one more stderr line
    written = (folder / target).read_text() if target and (folder / target).is_file() else ""
    if code in (0, 2):
        assert not err and "nan" not in (out + written).lower()
        assert code == 0 or command == "verify"
    else:
        assert code in (1, 3) and len(err) == 1, (code, err)
        assert err[0].startswith("config error:" if code == 1 else ("numeric error:", "error:"))
