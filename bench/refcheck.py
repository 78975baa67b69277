"""Correctness checks of CLI outputs against the benchmark's own references.

Nothing here imports ``cavbayes``: the references are written out from the
formulas (closed-form moment integrals, the pointwise POVM caps, direct
Gauss-Legendre quadrature), so a refactor of the package cannot move them.
All quantities are in units of the prior mean, g0 = 1.

``check(request, path)`` returns None when the output at ``path`` is right
and a one-line reason otherwise.

Known defect, documented rather than fixed: the ``ml_cost`` sweep column is
labelled ``c_max`` but holds the maximized average cost.  The check compares
that column against the cost reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

SQ3 = math.sqrt(3.0)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

#: resonant-vacuum MMSE rows against the closed form, relative
TOL_MMSE = 1e-9
#: likelihood-strategy rows against direct quadrature
TOL_ML = 1e-8
#: slack of the accuracy-bound inequality mse >= bound
TOL_BOUND = 1e-9
#: invariants that hold to rounding
TOL_ROUND = 1e-12


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _gauss_legendre(lo: float, hi: float, max_width: float):
    panels = max(1, math.ceil((hi - lo) / max_width))
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X).ravel(),
            (half[:, None] * _GL_W).ravel())


# --- minimum mean-square error, resonant vacuum ----------------------------------


def abc(kind: str, sigma: float, t: float) -> tuple:
    """Prior integrals of cos^2(g t) weighted by 1, g, g^2 (g0 = 1)."""
    g0 = 1.0
    if kind == "gaussian":
        e = math.exp(-2.0 * sigma**2 * t**2)
        cb, sb = math.cos(2.0 * t), math.sin(2.0 * t)
        a = (1.0 + e * cb) / 2.0
        b = (g0 + e * (g0 * cb - 2.0 * sigma**2 * t * sb)) / 2.0
        c = ((g0**2 + sigma**2) * a - 2.0 * g0 * sigma**2 * t * e * sb
             - 2.0 * sigma**4 * t**2 * e * cb)
        return a, b, c
    w = SQ3 * sigma
    big_a, big_b = 2.0 * w * t, 2.0 * g0 * t
    sa, ca, sb, cb = math.sin(big_a), math.cos(big_a), math.sin(big_b), math.cos(big_b)
    a = 0.5 + sa * cb / (2.0 * big_a)
    b = g0 / 2.0 - sb * sa / (8.0 * w * t**2) + (w * sb * ca + g0 * cb * sa) / (4.0 * w * t)
    c = ((g0**2 + sigma**2) / 2.0 + (g0**2 + 3.0 * sigma**2) * sa * cb / (4.0 * w * t)
         + (w * ca * cb - g0 * sa * sb) / (4.0 * w * t**2) - sa * cb / (8.0 * w * t**3)
         + g0 * sb * ca / (2.0 * t))
    return a, b, c


def mmse_vacuum(kind: str, sigma: float, t: float, u: float) -> tuple:
    """(excited-branch estimate, ground-branch estimate, minimum cost)."""
    a, b, _ = abc(kind, sigma, t)
    eu = math.exp(-u)
    m_e = b / a
    m_g = (1.0 - b * eu) / (1.0 - a * eu)
    cost = 1.0 + sigma**2 - b**2 * eu / a - m_g**2 * (1.0 - a * eu)
    return m_e, m_g, cost


# --- likelihood-optimal POVM, resonant vacuum --------------------------------------


def gaussian_pointwise_cap(sigma: float, t: float, g0: float = 1.0) -> float:
    """1 / (sqrt(2 pi) sigma |sin(2 g0 t)|); +inf where the sine vanishes."""
    s = abs(math.sin(2.0 * g0 * t))
    return math.inf if s < 1e-14 else 1.0 / (math.sqrt(2.0 * math.pi) * sigma * s)


def _gaussian_cmax(sigma: float, t: float) -> float:
    """min(c1, c2, pointwise cap); +inf where sin(2 g0 t) vanishes."""
    cap = gaussian_pointwise_cap(sigma, t)
    if math.isinf(cap):
        return cap
    a = 2.0 * sigma * t
    upper = math.pi / a
    i0 = 0.5 * math.erf(upper / math.sqrt(2.0))
    # the Gaussian factor is below 1e-300 beyond x = 40
    x, w = _gauss_legendre(0.0, min(upper, 40.0), 0.25)
    i1 = float(np.sum(w * np.exp(-x * x / 2.0) * np.sin(a * x)))
    y = sigma * abs(math.sin(2.0 * t))
    return min(i0 / (y * i1), (1.0 - i0) / (y * i1), cap)


def uniform_pointwise_cap(sigma: float, t: float, g0: float = 1.0) -> tuple:
    """(1 / (2 sqrt(3) sigma max|cos(2 x t) - K|), K) over the support, with K
    the support average of cos(2 x t)."""
    big_a = 2.0 * SQ3 * sigma * t
    k = math.sin(big_a) * math.cos(2.0 * g0 * t) / big_a
    lo, hi = g0 - SQ3 * sigma, g0 + SQ3 * sigma
    xs = [lo, hi] + [j * math.pi / (2.0 * t) for j in
                     range(math.ceil(2.0 * t * lo / math.pi),
                           math.floor(2.0 * t * hi / math.pi) + 1)]
    peak = max(abs(math.cos(2.0 * t * x) - k) for x in xs)
    return 1.0 / (2.0 * SQ3 * sigma * peak), k


class MlReference:
    """Densities (f_I, f_z) of the optimal POVM and integrals against them."""

    def __init__(self, kind: str, sigma: float, t: float):
        self.kind, self.sigma, self.t = kind, sigma, t
        if kind == "gaussian":
            self.c_max = _gaussian_cmax(sigma, t)
            self.fz_scale = 0.0 if math.isinf(self.c_max) else self.c_max * math.sin(2.0 * t)
            lo, hi = 1.0 - 8.0 * sigma, 1.0 + 8.0 * sigma
        else:
            self.c_max, self.k = uniform_pointwise_cap(sigma, t)
            lo, hi = 1.0 - SQ3 * sigma, 1.0 + SQ3 * sigma
        # integrands oscillate at up to 4 t: >= 32 nodes per period
        self.x, self.w = _gauss_legendre(lo, hi, min(sigma / 2.0, math.pi / (4.0 * t)))

    def f_i(self) -> np.ndarray:
        if self.kind == "gaussian":
            return np.exp(-((self.x - 1.0) ** 2) / (2.0 * self.sigma**2)) / (
                math.sqrt(2.0 * math.pi) * self.sigma)
        return np.full_like(self.x, 1.0 / (2.0 * SQ3 * self.sigma))

    def f_z(self) -> np.ndarray:
        if self.kind == "gaussian":
            d = self.x - 1.0
            return -self.fz_scale * np.sin(2.0 * self.t * d) * np.exp(-d * d / (2.0 * self.sigma**2))
        return self.c_max * (np.cos(2.0 * self.t * self.x) - self.k)

    def cost(self, u: float) -> float:
        """Average delta cost, int z(x) p(x|x) dx; the prior density z is f_I."""
        contrast = 2.0 * np.cos(self.x * self.t) ** 2 * math.exp(-u) - 1.0
        f_i = self.f_i()
        return float(np.sum(self.w * f_i * (f_i + contrast * self.f_z())))

    def _conditional(self, g: float, u: float) -> np.ndarray:
        contrast = 2.0 * math.cos(g * self.t) ** 2 * math.exp(-u) - 1.0
        return self.f_i() + contrast * self.f_z()

    def mean_estimate(self, g: float, u: float) -> float:
        return float(np.sum(self.w * self.x * self._conditional(g, u)))

    def mse(self, g: float, u: float) -> float:
        return float(np.sum(self.w * (self.x - g) ** 2 * self._conditional(g, u)))


# --- reading outputs ---------------------------------------------------------------


def read_table(path: str, fmt: str) -> tuple:
    """(columns, rows of floats) from a CSV or JSON output file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], [[float(v) for v in row] for row in payload["rows"]]
    lines = text.splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _finite(row) -> bool:
    return all(math.isfinite(v) for v in row)


# --- per-command checks --------------------------------------------------------------


def _check_mmse_row(row: dict, sigma: float, resonant_vacuum, kind: str) -> str | None:
    """Invariants of one MMSE row; closed forms when ``resonant_vacuum`` is a
    (t, u) pair."""
    if not _finite(row.values()):
        return f"non-finite MMSE row {row}"
    c_min = row["c_min"]
    if not -TOL_ROUND <= c_min <= sigma**2 * (1.0 + TOL_MMSE):
        return f"c_min {c_min} outside [0, sigma^2 = {sigma**2}]"
    if "eig_lo" in row and row["eig_lo"] > row["eig_hi"]:
        return f"eig_lo {row['eig_lo']} > eig_hi {row['eig_hi']}"
    if "cr_bound" in row and row["mse"] < row["cr_bound"] - TOL_BOUND:
        return f"mse {row['mse']} below bound {row['cr_bound']}"
    if resonant_vacuum is not None:
        t, u = resonant_vacuum
        m_e, m_g, cost = mmse_vacuum(kind, sigma, t, u)
        if abs(c_min - cost) > TOL_MMSE * abs(cost):
            return f"c_min {c_min!r} differs from closed form {cost!r} at t={t!r} u={u!r}"
        if "avg_estimate" in row:
            p = math.cos(row["_g"] * t) ** 2 * math.exp(-u)
            ref = m_e * p + m_g * (1.0 - p)
            if not _close(row["avg_estimate"], ref, TOL_MMSE):
                return f"avg_estimate {row['avg_estimate']!r} differs from {ref!r}"
    return None


def _check_sweep(req, columns, rows) -> str | None:
    prior, sc, sw = req.params["prior"], req.params["scenario"], req.params["sweep"]
    kind, sigma = prior["kind"], prior["sigma_over_g0"]
    q, axis = sw["quantity"], sw["axis"]
    if len(rows) != sw["n_points"]:
        return f"{len(rows)} rows, expected {sw['n_points']}"
    axis_values = np.linspace(sw["lo"], sw["hi"], sw["n_points"])
    if any(r[0] != a for r, a in zip(rows, axis_values)):
        return "axis column differs from the configured grid"
    t0 = sc.get("g0_tau_c", 0.6)
    u0 = sc.get("gamma_tau_f", 0.0)
    delta0 = sc.get("delta_over_g0", 0.0)
    vacuum = sc.get("alpha_abs", 0.0) == 0.0
    if q.startswith("mmse_") or q == "dissipative_cost":
        for values in rows:
            row = dict(zip(columns, values))
            x = values[0]
            t = x if axis == "tau_c" else t0
            u = x if axis == "gamma_tau_f" else u0
            delta = x if axis == "delta" else delta0
            row["_g"] = x
            closed = (t, u) if (vacuum and delta == 0.0 and q != "dissipative_cost") else None
            why = _check_mmse_row(row, sigma, closed, kind)
            if why:
                return f"{q} at {axis}={x!r}: {why}"
        return None
    refs = {}
    for values in rows:
        x = values[0]
        t = x if axis == "tau_c" else t0
        u = x if axis == "gamma_tau_f" else u0
        if t not in refs:
            refs[t] = MlReference(kind, sigma, t)
        ref = refs[t]
        if not _finite(values):
            return f"non-finite {q} row at {axis}={x!r}"
        if q == "ml_cost":
            # the column labelled c_max holds the maximized cost
            want = ref.cost(u)
            if not _close(values[1], want, TOL_ML):
                return f"ml_cost {values[1]!r} differs from quadrature {want!r} at {axis}={x!r}"
        elif q == "ml_avg_estimate":
            g = x if axis == "g_over_g0" else 1.0
            want = ref.mean_estimate(g, u)
            if not _close(values[1], want, TOL_ML):
                return f"ml_avg_estimate {values[1]!r} differs from {want!r} at {axis}={x!r}"
        else:  # ml_cr_bound: axis, mse, cr_bound
            want = ref.mse(x, u)
            if not _close(values[1], want, TOL_ML):
                return f"ml mse {values[1]!r} differs from {want!r} at g={x!r}"
            if values[1] < values[2] - TOL_BOUND:
                return f"ml mse {values[1]} below bound {values[2]} at g={x!r}"
    return None


def _check_state(req, columns, rows) -> str | None:
    sc = req.params["scenario"]
    g, ee, gg, re, im = rows[0]
    if g != sc["g_over_g0"] or not _finite(rows[0]):
        return f"bad state row {rows[0]}"
    if abs(ee + gg - 1.0) > TOL_ROUND or not -TOL_ROUND <= ee <= 1.0 + TOL_ROUND:
        return f"state populations {ee}, {gg} are not a probability pair"
    if re * re + im * im > ee * gg + TOL_ROUND:
        return "state is not positive semidefinite"
    resonant_vacuum = (sc.get("alpha_abs", 0.0) == 0.0 and sc.get("delta_over_g0", 0.0) == 0.0
                       and "kappa_over_g0" not in sc)
    if resonant_vacuum:
        want = math.cos(g * sc["g0_tau_c"]) ** 2 * math.exp(-sc["gamma_tau_f"])
        if abs(ee - want) > TOL_ROUND or re != 0.0 or im != 0.0:
            return f"rho_ee {ee!r} differs from cos^2(g tau) e^-u = {want!r}"
    return None


def _check_ml_point(req, columns, rows) -> str | None:
    prior, sc = req.params["prior"], req.params["scenario"]
    ref = MlReference(prior["kind"], prior["sigma_over_g0"], sc["g0_tau_c"])
    c_max, cost, avg = rows[0]
    if math.isinf(ref.c_max):
        if not math.isinf(c_max):
            return f"c_max {c_max!r}, expected inf where sin(2 g0 tau_c) = 0"
    elif not _close(c_max, ref.c_max, TOL_MMSE):
        return f"c_max {c_max!r} differs from reference {ref.c_max!r}"
    if not _close(cost, ref.cost(sc["gamma_tau_f"]), TOL_ML):
        return f"cost_max {cost!r} differs from quadrature {ref.cost(sc['gamma_tau_f'])!r}"
    want = ref.mean_estimate(sc["g_over_g0"], sc["gamma_tau_f"])
    if not _close(avg, want, TOL_ML):
        return f"avg_estimate {avg!r} differs from {want!r}"
    return None


def _check_tau_star(req, columns, rows) -> str | None:
    prior, sc = req.params["prior"], req.params["scenario"]
    tau, c_at = rows[0]
    sigma = prior["sigma_over_g0"]
    if not (_finite(rows[0]) and 0.05 <= tau <= 3.0):
        return f"tau_star {tau!r} outside the scan window [0.05, 3]"
    if not -TOL_ROUND <= c_at <= sigma**2 * (1.0 + TOL_MMSE):
        return f"c_min at tau_star {c_at} outside [0, sigma^2]"
    if sc.get("alpha_abs", 0.0) == 0.0 and "kappa_over_g0" not in sc:
        want = mmse_vacuum(prior["kind"], sigma, tau, sc["gamma_tau_f"])[2]
        if abs(c_at - want) > TOL_MMSE * want:
            return f"c_min at tau_star {c_at!r} differs from closed form {want!r}"
    return None


def check(req, path: str) -> str | None:
    """None when the output of ``req`` at ``path`` is correct, else why not."""
    if req.expect_rc != 0:
        return None  # an expected failure writes no output
    try:
        if req.command == "verify":
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            if report.get("passed") is not True or report.get("seed") != req.seed:
                return f"verify report failed or has the wrong seed ({req.seed})"
            return None
        columns, rows = read_table(path, req.fmt)
        if req.command == "sweep":
            return _check_sweep(req, columns, rows)
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        if req.command == "state":
            return _check_state(req, columns, rows)
        if req.command == "ml":
            return _check_ml_point(req, columns, rows)
        if req.command == "tau-star":
            return _check_tau_star(req, columns, rows)
        sc, prior = req.params["scenario"], req.params["prior"]
        row = dict(zip(columns, rows[0]))
        row["_g"] = sc["g_over_g0"]
        resonant_vacuum = sc.get("alpha_abs", 0.0) == 0.0 and sc.get("delta_over_g0", 0.0) == 0.0
        closed = (sc["g0_tau_c"], sc["gamma_tau_f"]) if resonant_vacuum else None
        return _check_mmse_row(row, prior["sigma_over_g0"], closed, prior["kind"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
