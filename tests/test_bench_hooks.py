"""The benchmark's span tracer against the program, in tier 1.

``bench/layers.py`` wraps the functions it names and reads their arguments
and results in counter hooks; a renamed function, a moved binding or an
unhashable argument would show only in a traced benchmark run.  Here every
command and the batched sweep paths run in-process under the tracer, which
must find every name and lose no hook.
"""

import importlib
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

_RUNS = [
    ("state", "[scenario]\nalpha_abs = 1.0\ndelta_over_g0 = 0.4\n"),
    ("mmse", "[scenario]\nalpha_abs = 1.0\ngamma_tau_f = 0.2\n"),
    ("ml", "[prior]\nkind = uniform\n[scenario]\ng0_tau_c = 0.9\n"),
    ("tau-star", "[scenario]\ngamma_tau_f = 0.3\n"),
    ("tau-star", "[scenario]\nkappa_over_g0 = 0.4\ngamma_over_g0 = 0.7\n"),
    ("verify", ""),
    *(
        ("sweep", f"[scenario]\nalpha_abs = 1.0\n[sweep]\nquantity = mmse_cost\naxis = {axis}\n"
                  f"lo = 0.1\nhi = 1.5\nn_points = 7\n")
        for axis in ("tau_c", "delta", "gamma_tau_f")
    ),
    ("sweep", "[scenario]\nkappa_over_g0 = 0.3\ngamma_over_g0 = 0.6\n[sweep]\n"
              "quantity = dissipative_cost\naxis = tau_c\nlo = 0.1\nhi = 2\nn_points = 7\n"),
    ("state", "[scenario]\ng0_tau_c = 2.0\nkappa_over_g0 = 0.4\ngamma_over_g0 = 0.7\n"),
    ("sweep", "[scenario]\nalpha_abs = 1.0\ndelta_over_g0 = 0.4\n[sweep]\n"
              "quantity = mmse_cr_bound\naxis = g_over_g0\nlo = 0.5\nhi = 1.5\nn_points = 7\n"),
    ("sweep", "[scenario]\ng0_tau_c = 0.9\n[sweep]\n"
              "quantity = ml_cr_bound\naxis = g_over_g0\nlo = 0.5\nhi = 1.5\nn_points = 7\n"),
    *(
        ("sweep", f"[prior]\nkind = {kind}\n[scenario]\ngamma_tau_f = 0.2\n[sweep]\n"
                  f"quantity = ml_cost\naxis = {axis}\nlo = 0\nhi = 2\nn_points = 7\n")
        for kind in ("gaussian", "uniform") for axis in ("tau_c", "gamma_tau_f")
    ),
]


def test_tracer_finds_every_function_and_runs_every_hook(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    from cavbayes import cli

    tracer = layers.Tracer()
    tracer.install()
    try:
        for k, (command, text) in enumerate(_RUNS):
            tracer.begin_request(k)
            cfg = tmp_path / f"run{k}.ini"
            cfg.write_text(text)
            assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.hook_failures == set()
    metrics = tracer.metrics()
    assert metrics["cli.find_tau_star.calls"] == 2
    assert metrics["cli.find_tau_star.cost_evals"] == 6  # three moment calls per search
