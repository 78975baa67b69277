"""Host-speed calibration of the benchmark's timings.

On a shared host the speed of a core drifts: a fixed computation takes up
to 1.7 times its best time, in phases that last from a fraction of a second
to minutes.  A run that falls in a slow phase would read as a regression.

So the benchmark times a fixed reference burst (``burst``) right before
every timed piece of work and once after the last, and scales each timing
by ``REFERENCE_S`` over the local burst time (``scale``): a timing reads as
it would on a host where one burst takes ``REFERENCE_S``.  The burst is the
benchmark's own code and never calls ``cavbayes``, so a change to the
program moves the scaled timings and not the scale.  Kinds of work slow by
different factors in a slow phase (system calls least, numpy calls on short
arrays most), so the burst mixes the parts of one short CLI request in
about their shares.  Raw timings are kept beside the scaled ones in the
run's record.

Importing this module does not import ``cavbayes``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import time

import numpy as np
from scipy import integrate

#: burst time, in seconds, that scaled timings refer to (a typical burst
#: time on a 2-vCPU Xeon microVM with Python 3.11, numpy 2.4 and scipy 1.17)
REFERENCE_S = 1.0e-3
#: repetitions in one burst; the fastest counts, so an interrupt in one
#: repetition does not read as a slow host
REPEATS = 2

_HERE = os.path.dirname(os.path.abspath(__file__))
_INI = """[prior]
kind = gaussian
sigma_over_g0 = 0.75
[scenario]
g0_tau_c = 0.6
gamma_tau_f = 0.25
delta_over_g0 = 0.0
"""
_SMALL = np.linspace(0.1, 1.0, 16)


def _integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(3.0 * x)


def _kernel() -> float:
    """The parts of one CLI request, in about their shares of a short one:
    build and run an argument parser, parse an INI and format its values,
    look up absent files and read a present one, one adaptive quadrature of
    a Python integrand, and numpy calls on short arrays."""
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command")
    for name in ("point", "sweep"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config")
        cmd.add_argument("--out")
        cmd.add_argument("--format", choices=("csv", "json"))
        cmd.add_argument("--seed", type=int)
    args = parser.parse_args(["point", "--config", "c.ini", "--format", "csv"])
    ini = configparser.ConfigParser()
    ini.read_string(_INI)
    values = {f"{s}.{k}": v for s in ini.sections() for k, v in ini[s].items()}
    text = json.dumps({k: float(v) if v[0].isdigit() else v for k, v in values.items()})
    for i in range(10):
        os.path.exists(os.path.join(_HERE, f"absent-{i}.mo"))
    with open(__file__, "rb") as fh:
        size = len(fh.read())
    area, _ = integrate.quad(_integrand, -4.0, 4.0)
    v = _SMALL
    for _ in range(10):
        v = np.cos(v) * 0.5 + np.abs(v) * 0.25
    return area + float(v.sum()) + len(text) + size + len(args.command)


def burst() -> float:
    """Seconds of the fastest of ``REPEATS`` kernel calls."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(REPEATS):
        t0 = clock()
        _kernel()
        best = min(best, clock() - t0)
    return best


def scale(times: list, bursts: list) -> list:
    """Each time scaled to the reference speed.

    ``bursts[k]`` was timed right before ``times[k]`` and ``bursts[k + 1]``
    right after it; their mean is the local burst time.
    """
    if len(bursts) != len(times) + 1:
        raise ValueError("need one burst before each timing and one after the last")
    return [t * 2.0 * REFERENCE_S / (bursts[k] + bursts[k + 1]) for k, t in enumerate(times)]
