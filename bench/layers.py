"""Layer table, metric names and the span tracer of the benchmark.

The layers are the ``cavbayes`` modules.  ``Tracer.install`` wraps every
function named in ``TRACED`` at every binding site: it replaces the function
object by identity in each ``cavbayes.*`` module namespace, which also
catches ``from .x import f`` bindings.  A name that no longer exists is
recorded as absent and its metrics read zero; a counter hook that no longer
fits its function is recorded in ``hook_failures`` and never raises into
the program.

Importing this module does not import ``cavbayes``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

import refcheck

TRACED = {
    "priors": ("quadrature",),
    "dynamics": ("detector_matrix_elements", "dissipative_populations",
                 "reduced_state", "field_for"),
    "qubit": ("solve_symmetric_product", "eigendecompose"),
    "mmse": ("gamma_moments", "gamma_moments_dissipative", "mmse_estimator",
             "average_estimate", "mse_of_estimator"),
    "ml": ("gaussian_ml_povm", "uniform_ml_povm", "gaussian_bound_constants",
           "uniform_cmax", "ml_average_estimate", "ml_mse", "interval_audit"),
    "bounds": ("cr_bound_mmse", "cr_bound_ml", "sld_general"),
    "oracle": ("mc_quadratic_cost", "mc_estimate_distribution"),
    "cli": ("main", "load_config", "write_table", "run_sweep", "find_tau_star",
            "verify_all"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

COUNTS = (
    "priors.quadrature.nodes",
    "dynamics.detector_matrix_elements.sector_evals",
    "dynamics.dissipative_populations.nodes",
    "oracle.samples",
    "cli.run_sweep.rows",
    "cli.find_tau_star.cost_evals",
    "cli.write_table.bytes",
)
RATIOS = (
    "priors.quadrature.repeat_ratio",
    "mmse.gamma_moments.repeat_ratio",
    "ml.uniform_cmax.binding_ratio",
    "ml.gaussian_bound_constants.binding_ratio",
    "bounds.cr_bound_mmse.numeric_ratio",
)
IMPORTS = {
    "setup.import_cavbayes_s": "cavbayes",
    "setup.import_scipy_integrate_s": "scipy.integrate",
    "setup.import_scipy_special_s": "scipy.special",
}

#: relative margin below which a constant counts as binding under its cap
_BINDING_MARGIN = 1e-9


def per_layer_metrics() -> list:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower"),
                (f"{name}.errors", "count", "lower")]
    out += [(f"{mod}.self_s", "s", "lower") for mod in TRACED]
    out += [(name, "count", "higher" if name == "cli.run_sweep.rows" else "lower")
            for name in COUNTS]
    out += [(name, "ratio", "higher" if "binding" in name else "lower") for name in RATIOS]
    out += [(name, "s", "lower") for name in IMPORTS]
    out += [
        ("error_rate", "ratio", "lower"),
        ("trace.requests", "count", "higher"),
        ("trace.absent_functions", "count", "lower"),
        ("trace.throughput_rps", "1/s", "higher"),
        ("trace.untraced_throughput_rps", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of the modules in ``IMPORTS``, from the
    ``-X importtime`` report.

    A package loaded through a parent's lazy ``__getattr__`` (``from scipy
    import integrate``) gets no line of its own, only its submodules do; its
    time is then the sum over its shallowest submodule lines.  A module that
    was not imported reads 0.
    """
    entries = []  # (depth, name, cumulative seconds)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        try:
            cum_s = int(cum) * 1e-6
        except ValueError:
            continue  # the header line
        entries.append((len(name) - len(name.lstrip()), name.strip(), cum_s))
    out = {}
    for metric, module in IMPORTS.items():
        exact = [c for _, name, c in entries if name == module]
        if exact:
            out[metric] = exact[0]
            continue
        subs = [(d, c) for d, name, c in entries if name.startswith(module + ".")]
        top = min((d for d, _ in subs), default=None)
        out[metric] = sum(c for d, c in subs if d == top)
    return out


class Tracer:
    """Spans and counters for the wrapped functions, kept in memory."""

    def __init__(self):
        n = len(FUNCTIONS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.spans = []  # (id, function index, start, end, parent id, request)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.tallies = {name: [0, 0] for name in RATIOS}  # [hits, calls]
        self.absent = []
        self.hook_failures = set()
        self._stack = []  # frames: [span id, function index, child seconds, flag]
        self._next_id = 0
        self._request = -1
        self._seen = {}
        self._patches = []
        self._index = {name: i for i, name in enumerate(FUNCTIONS)}
        self._signatures = {}

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cavbayes" or name.startswith("cavbayes."))]
        hooks = self._hooks()
        for name in FUNCTIONS:
            mod_name, fn_name = name.split(".")
            module = sys.modules.get(f"cavbayes.{mod_name}")
            original = getattr(module, fn_name, None) if module is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            self._signatures[name] = inspect.signature(original)
            wrapper = self._wrap(self._index[name], original, hooks.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def begin_request(self, request: int) -> None:
        self._request = request
        self._seen = {}

    def _wrap(self, idx: int, fn, hook):
        stack, spans = self._stack, self.spans
        calls, self_s, errors = self.calls, self.self_s, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, idx, 0.0, False]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                calls[idx] += 1
                self_s[idx] += (end - start) - frame[2]
                if not ok:
                    errors[idx] += 1
                spans.append((span_id, idx, start, end, parent, self._request))
                if hook is not None and ok:
                    try:
                        hook(self._arguments(idx, args, kwargs), result, frame)
                    except (TypeError, KeyError, AttributeError, ValueError):
                        # the function's signature or result changed: keep
                        # the program running and report the counter as lost
                        self.hook_failures.add(FUNCTIONS[idx])
                if stack:
                    # the parent's self time excludes everything from this
                    # call's start on, the hook's bookkeeping included
                    stack[-1][2] += clock() - start
        return wrapper

    def _arguments(self, idx: int, args, kwargs) -> dict:
        bound = self._signatures[FUNCTIONS[idx]].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _parent_is(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][1] == self._index[name]

    def _repeat(self, ratio: str, key) -> None:
        """Count a call whose inputs repeat an earlier call of this request."""
        seen = self._seen.setdefault(ratio, set())
        tally = self.tallies[ratio]
        tally[1] += 1
        if key in seen:
            tally[0] += 1
        else:
            seen.add(key)

    def _hit(self, ratio: str, hit: bool) -> None:
        tally = self.tallies[ratio]
        tally[0] += bool(hit)
        tally[1] += 1

    def _count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def _hooks(self) -> dict:
        """Post-call hooks, keyed by function: hook(arguments, result, frame)."""

        def cost_eval():
            if self._parent_is("cli.find_tau_star"):
                self._count("cli.find_tau_star.cost_evals", 1)

        def quadrature(a, result, frame):
            self._count("priors.quadrature.nodes", len(result.nodes))
            self._repeat("priors.quadrature.repeat_ratio",
                         (a["prior"], a["n_points"], a["kind"]))

        def gamma_moments(a, result, frame):
            self._repeat("mmse.gamma_moments.repeat_ratio",
                         (a["prior"], a["scenario"], a["field"], a["n_points"]))
            cost_eval()

        def uniform_cmax(a, result, frame):
            p = a["prior"]
            cap, _ = refcheck.uniform_pointwise_cap(p.sigma, a["tau_c"], p.g0)
            self._hit("ml.uniform_cmax.binding_ratio",
                      result < cap * (1.0 - _BINDING_MARGIN))

        def bound_constants(a, result, frame):
            p = a["prior"]
            cap = refcheck.gaussian_pointwise_cap(p.sigma, a["tau_c"], p.g0)
            self._hit("ml.gaussian_bound_constants.binding_ratio",
                      min(result) < cap * (1.0 - _BINDING_MARGIN))

        def sld_general(a, result, frame):
            if self._parent_is("bounds.cr_bound_mmse"):
                self._stack[-1][3] = True  # the caller took the numeric path

        def write_table(a, result, frame):
            out = a["out"]
            try:
                out.flush()
                self._count("cli.write_table.bytes", out.tell())
            except (OSError, ValueError):
                pass  # an unseekable stream: nothing to count

        return {
            "priors.quadrature": quadrature,
            "dynamics.detector_matrix_elements": lambda a, r, f: self._count(
                "dynamics.detector_matrix_elements.sector_evals",
                len(r[0]) * len(a["field"].coefficients)),
            "dynamics.dissipative_populations": lambda a, r, f: self._count(
                "dynamics.dissipative_populations.nodes", len(r)),
            "mmse.gamma_moments": gamma_moments,
            "mmse.gamma_moments_dissipative": lambda a, r, f: cost_eval(),
            "oracle.mc_quadratic_cost": lambda a, r, f: self._count("oracle.samples", a["n"]),
            "oracle.mc_estimate_distribution": lambda a, r, f: self._count(
                "oracle.samples", a["n"]),
            "ml.uniform_cmax": uniform_cmax,
            "ml.gaussian_bound_constants": bound_constants,
            "bounds.sld_general": sld_general,
            "bounds.cr_bound_mmse": lambda a, r, f: self._hit(
                "bounds.cr_bound_mmse.numeric_ratio", f[3]),
            "cli.run_sweep": lambda a, r, f: self._count("cli.run_sweep.rows", len(r.rows)),
            "cli.write_table": write_table,
        }

    def metrics(self) -> dict:
        """Per-function, per-module, count and ratio values."""
        out = {}
        for i, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.errors"] = self.errors[i]
        for mod, fns in TRACED.items():
            out[f"{mod}.self_s"] = sum(self.self_s[self._index[f"{mod}.{fn}"]] for fn in fns)
        out.update(self.counts)
        for name, (hits, calls) in self.tallies.items():
            out[name] = hits / calls if calls else 0.0
        out["trace.absent_functions"] = len(self.absent)
        return out

    def write_spans(self, path: str) -> None:
        """Spans as gzipped TSV: id, function, start, end, parent, request."""
        with gzip.open(path, "wt", newline="\n") as fh:
            fh.write("id\tfunction\tstart_s\tend_s\tparent\trequest\n")
            for span_id, idx, start, end, parent, request in self.spans:
                fh.write(f"{span_id}\t{FUNCTIONS[idx]}\t{start:.9f}\t{end:.9f}"
                         f"\t{parent}\t{request}\n")
