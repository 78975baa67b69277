"""Benchmark worker: one fresh interpreter serving CLI requests in a closed loop.

Usage: worker.py MANIFEST [--setup-only]

Imports ``cavbayes`` and ``cavbayes.cli``, runs the warm-up request, writes
``ready`` on stdout and then, unless ``--setup-only``, calls
``cavbayes.cli.main(argv)`` for the manifest's requests one after another.
CLI stdout and stderr go to /dev/null; every request writes through --out.

Untraced mode times requests until ``seconds`` have passed, at least
``min_requests`` have completed and the last round of the request template
is whole, and times a host-speed burst before each request and after the
last.  Traced mode runs the first ``trace_requests`` requests under the
span tracer, then replays the same requests untraced so the tracing
overhead can be reported.  ``cap_s`` bounds either loop.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _serve(cli_mod, requests: list, done, tracer=None, burst=None, bursts=None) -> tuple:
    """Run requests in order until ``done(completed, elapsed_s)``.

    With ``burst`` (a function timing a host-speed burst), one burst is
    timed before each request and once after the last, and appended to
    ``bursts``.

    Returns (latencies, exit codes, errors by request, elapsed seconds).
    """
    latencies, codes, errors = [], [], {}
    clock = time.perf_counter
    start = clock()
    k = 0
    while True:
        if tracer is not None:
            tracer.begin_request(k)
        if burst is not None:
            bursts.append(burst())
        t0 = clock()
        try:
            rc = cli_mod.main(requests[k % len(requests)])
        except (Exception, SystemExit) as exc:  # a crash is a failed request
            rc = None
            errors[k] = repr(exc)
        t1 = clock()
        latencies.append(t1 - t0)
        codes.append(rc)
        k += 1
        if done(k, t1 - start):
            if burst is not None:
                bursts.append(burst())
            return latencies, codes, errors, clock() - start


def _measure(cli_mod, manifest: dict) -> dict:
    # beside this script, so first on sys.path; imported after set-up, so
    # its imports do not count toward setup_s
    import hostspeed

    with open(manifest["requests"], encoding="utf-8") as fh:
        requests = json.load(fh)
    cap = manifest["cap_s"]
    result = {}
    if manifest["trace"]:
        import layers  # beside this script, so first on sys.path

        count = manifest["trace_requests"]
        tracer = layers.Tracer()
        tracer.install()
        lat, codes, errors, elapsed = _serve(
            cli_mod, requests, lambda k, t: k >= count or t >= cap, tracer)
        tracer.uninstall()
        replay = _serve(cli_mod, requests, lambda k, t: k >= len(lat) or t >= cap)
        tracer.write_spans(manifest["spans"])
        result.update(layers=tracer.metrics(), absent=tracer.absent,
                      hook_failures=sorted(tracer.hook_failures),
                      spans=len(tracer.spans), replay_elapsed_s=replay[3])
    else:
        seconds, least, round_len = (
            manifest["seconds"], manifest["min_requests"], manifest["round"])
        bursts = []
        lat, codes, errors, elapsed = _serve(
            cli_mod, requests,
            lambda k, t: t >= cap or (t >= seconds and k >= least and k % round_len == 0),
            burst=hostspeed.burst, bursts=bursts)
        result["bursts_s"] = bursts

    import numpy
    import scipy

    result.update(
        latencies_s=lat,
        exit_codes=codes,
        errors={str(k): v for k, v in errors.items()},
        elapsed_s=elapsed,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    return result


def main(argv: list) -> int:
    setup_only = "--setup-only" in argv[1:]
    with open(argv[0], encoding="utf-8") as fh:
        manifest = json.load(fh)

    import cavbayes
    import cavbayes.cli as cli_mod

    src = os.path.realpath(manifest["src"])
    if not os.path.realpath(cavbayes.__file__).startswith(src + os.sep):
        print(f"cavbayes imported from {cavbayes.__file__}, not {src}", file=sys.stderr)
        return 2

    pipe = sys.stdout
    with open(os.devnull, "w") as devnull:
        sys.stdout = sys.stderr = devnull
        try:
            warm_rc = cli_mod.main(manifest["warmup"])
            if warm_rc != 0:
                print(f"warm-up request exited {warm_rc}", file=sys.__stderr__)
                return 2
            pipe.write("ready\n")
            pipe.flush()
            if setup_only:
                return 0
            result = _measure(cli_mod, manifest)
        finally:
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    with open(manifest["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
