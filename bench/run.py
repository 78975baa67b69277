"""cavbayes CLI benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a source checkout.  A seeded generator (``loadgen``)
writes INI configs for one workload; one fresh single-threaded worker
interpreter (``worker``) then calls ``cavbayes.cli.main(argv)`` on them in a
closed loop with one client.  After the timed window every output is checked
against the benchmark's own references (``refcheck``).

``--trace 0`` reports the end-to-end metrics, with every timing scaled to a
reference host speed (``hostspeed``); ``--trace 1`` runs a fixed
prefix of the requests under the span tracer (``layers``) and reports the
per-layer metrics.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with sample counts, an output digest and environment metadata, goes to
``bench/out/<workload>-seed<N>-trace<T>.json``.

Exits 2 without a result when the checkout holds no ``src/cavbayes``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import refcheck  # noqa: E402

#: (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: requests generated per run (whole rounds); the worker cycles through them
#: if it is faster
DECK = {"sweep_mmse": 240, "sweep_ml": 240, "cli_point": 2048}
#: requests in the traced prefix (whole rounds), so per-layer counts repeat
#: exactly
TRACE_REQUESTS = {"sweep_mmse": 48, "sweep_ml": 48, "cli_point": 128}


class Settings:
    """Run sizes; ``tiny`` shrinks them for the self-test."""

    def __init__(self, workload: str, tiny: bool):
        self.setup_launches = 1 if tiny else 6
        self.importtime_launches = 1 if tiny else 3
        # p90 needs at least 10 samples above it
        self.min_requests = 4 if tiny else 100
        self.trace_requests = 4 if tiny else TRACE_REQUESTS[workload]
        self.digest_requests = 4 if tiny else 32
        self.round = 1 if tiny else loadgen.round_length(workload)
        self.deck = 16 if tiny else DECK[workload]
        self.cap_s = 120.0  # hard cap on one worker's request loop


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


class Worker:
    """One worker interpreter; ``setup_s`` is launch-to-ready wall time."""

    def __init__(self, manifest: Path, log, setup_only: bool):
        cmd = [sys.executable, str(BENCH / "worker.py"), str(manifest)]
        if setup_only:
            cmd.append("--setup-only")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=log)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline() if ready else b""
        self.setup_s = time.perf_counter() - start
        if line.strip() != b"ready":
            self.stop()
            raise RuntimeError(f"worker did not start (see {log.name})")

    def wait(self, timeout: float) -> None:
        try:
            rc = self.proc.wait(timeout=timeout)
        finally:
            self.stop()
        if rc != 0:
            raise RuntimeError(f"worker exited {rc}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def import_times(launches: int) -> tuple:
    """Median ``-X importtime`` figures over ``launches`` (after one priming
    launch) and the sample count."""
    samples = []
    for i in range(launches + 1):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cavbayes, cavbayes.cli"],
            cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import of cavbayes failed: {proc.stderr[-500:]}")
        if i:
            samples.append(layers.parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}, len(samples)


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_meta() -> dict:
    files = sorted((SRC / "cavbayes").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[f"src/cavbayes/{path.name}"] = data.count(b"\n")
    lines["total"] = sum(lines.values())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(), "wc_l": lines}


def percentile_ms(latencies: list, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile, in ms: a weighted mean
    of all order statistics with Beta(p(n+1), (1-p)(n+1)) weights, which
    varies less from run to run than any single order statistic."""
    x = np.sort(np.asarray(latencies, dtype=float)) * 1e3
    n, p = len(x), q / 100.0
    cdf = special.betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def check_requests(deck: list, codes: list, errors: dict, out_paths: list) -> tuple:
    """(failed count, failure reasons) over the executed requests."""
    verdicts = {}
    reasons = []
    failed = 0
    for k, rc in enumerate(codes):
        e = k % len(deck)
        req = deck[e]
        if e not in verdicts:
            why = refcheck.check(req, out_paths[e])
            if why is None and req.expect_rc != 0 and os.path.exists(out_paths[e]):
                why = "a failing request wrote output"
            verdicts[e] = why
        why = verdicts[e]
        if str(k) in errors:
            why = f"raised {errors[str(k)]}"
        elif rc != req.expect_rc:
            why = f"exit code {rc}, expected {req.expect_rc}"
        if why:
            failed += 1
            if len(reasons) < 20:
                reasons.append(f"request {k} ({req.kind}): {why}")
    return failed, reasons


def output_digest(codes: list, out_paths: list, n: int) -> str:
    digest = hashlib.sha256()
    for k in range(min(n, len(codes))):
        digest.update(f"{k}:{codes[k]}:".encode())
        if os.path.exists(out_paths[k]):
            digest.update(Path(out_paths[k]).read_bytes())
    return digest.hexdigest()


def prepare(work: Path, workload: str, seed: int, trace: int, seconds: float,
            cfg: Settings) -> tuple:
    """Write configs, the request list and the worker manifest; returns
    (deck, output paths, manifest path)."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "cfg").mkdir(parents=True)
    (work / "res").mkdir()
    deck = loadgen.make_requests(workload, seed, cfg.deck)
    argvs, out_paths = [], []
    for req in deck:
        cfg_path = work / "cfg" / f"{req.index}.ini"
        cfg_path.write_text(req.ini, encoding="utf-8")
        out_paths.append(str(work / "res" / f"{req.index}.{req.fmt}"))
        argvs.append(req.argv(str(cfg_path), out_paths[-1]))
    (work / "requests.json").write_text(json.dumps(argvs), encoding="utf-8")
    warm = loadgen.warmup_request()
    (work / "cfg" / "warmup.ini").write_text(warm.ini, encoding="utf-8")
    manifest = {
        "src": str(SRC), "trace": bool(trace), "seconds": seconds,
        "min_requests": cfg.min_requests, "trace_requests": cfg.trace_requests,
        "round": cfg.round, "cap_s": cfg.cap_s,
        "warmup": warm.argv(str(work / "cfg" / "warmup.ini"), str(work / "warmup.csv")),
        "requests": str(work / "requests.json"),
        "result": str(work / "result.json"),
        "spans": str(work / "spans.tsv.gz"),
    }
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return deck, out_paths, manifest_path


def execute(work: Path, manifest_path: Path, trace: int, cfg: Settings) -> tuple:
    """Launch the workers; returns (worker result, setup samples, host-speed
    bursts around them, import times, import sample count)."""
    setup_samples, setup_bursts, imports, n_import = [], [], {}, 0
    with open(work / "worker.log", "wb") as log:
        if trace:
            imports, n_import = import_times(cfg.importtime_launches)
        else:
            # the first launch primes bytecode and file caches and is not timed
            for i in range(cfg.setup_launches + 1):
                if i:
                    setup_bursts.append(hostspeed.burst())
                w = Worker(manifest_path, log, setup_only=True)
                w.wait(60.0)
                if i:
                    setup_samples.append(w.setup_s)
            setup_bursts.append(hostspeed.burst())
        w = Worker(manifest_path, log, setup_only=False)
        w.wait(cfg.cap_s + 60.0)
    res = json.loads((work / "result.json").read_text(encoding="utf-8"))
    return res, setup_samples, setup_bursts, imports, n_import


def run(args) -> dict:
    cfg = Settings(args.workload, args.tiny)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = BENCH / "out" / tag
    deck, out_paths, manifest_path = prepare(work, args.workload, args.seed, args.trace,
                                             args.seconds, cfg)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "meta": source_meta()}
    res, setup_samples, setup_bursts, imports, n_import = execute(
        work, manifest_path, args.trace, cfg)
    record["meta"]["versions"] = res["versions"]

    lat, codes = res["latencies_s"], res["exit_codes"]
    failed, reasons = check_requests(deck, codes, res["errors"], out_paths)
    attempted = len(codes)
    record.update(attempted=attempted, failed=failed, failures=reasons,
                  digest=output_digest(codes, out_paths, cfg.digest_requests),
                  digest_requests=min(cfg.digest_requests, attempted))

    if args.trace:
        values = dict(res["layers"])
        values.update(imports)
        replay_rps = attempted / res["replay_elapsed_s"]
        traced_rps = attempted / res["elapsed_s"]
        values.update({
            "error_rate": failed / attempted,
            "trace.requests": attempted,
            "trace.throughput_rps": traced_rps,
            "trace.untraced_throughput_rps": replay_rps,
            "trace.overhead_ratio": replay_rps / traced_rps - 1.0,
        })
        units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
        samples = dict.fromkeys(units, attempted)
        samples.update(dict.fromkeys(layers.IMPORTS, n_import))
        record.update(absent=res["absent"], hook_failures=res["hook_failures"],
                      spans=res["spans"],
                      spans_file=str((work / "spans.tsv.gz").relative_to(ROOT)))
    else:
        scaled = hostspeed.scale(lat, res["bursts_s"])
        scaled_setup = hostspeed.scale(setup_samples, setup_bursts)
        values = {
            "throughput_rps": attempted / sum(scaled),
            "latency_p50_ms": percentile_ms(scaled, 50),
            "latency_p90_ms": percentile_ms(scaled, 90),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(scaled_setup),
        }
        units = dict(END_TO_END)
        samples = dict.fromkeys(units, attempted)
        samples.update(peak_rss_mb=1, setup_s=len(setup_samples))
        record["raw"] = {
            "throughput_rps": attempted / res["elapsed_s"],
            "latency_p50_ms": percentile_ms(lat, 50),
            "latency_p90_ms": percentile_ms(lat, 90),
            "setup_s": statistics.median(setup_samples),
            "burst_median_s": statistics.median(res["bursts_s"]),
        }
        record["setup_samples_s"] = setup_samples
        record["setup_bursts_s"] = setup_bursts
    record["metrics"] = {name: {"value": values[name], "unit": unit, "samples": samples[name]}
                         for name, unit in units.items()}
    if failed == 0:  # keep configs and outputs only to debug a failure
        shutil.rmtree(work / "cfg")
        shutil.rmtree(work / "res")
    (BENCH / "out" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                               encoding="utf-8")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=loadgen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few requests and launches only (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "cavbayes" / "cli.py").is_file():
        print(f"no cavbayes sources under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for reason in record["failures"]:
        print(f"FAIL {reason}")
    for name in record.get("hook_failures", []):
        print(f"counter hook of {name} no longer fits the function; its counts are lost")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(f"digest {record['digest']} over {record['digest_requests']} requests")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
