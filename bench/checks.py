"""Output checks that do not use the code under test.

Every expected value here comes from a closed form computed with numpy
from the model parameters in :mod:`workloads`, or from a verdict the
model family fixes in advance.  Nothing is imported from ``betweenu``.
A check returns a list of problems; an empty list means the job's
output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from workloads import BULK_LEVELS, BULK_WU5, KERNEL_SPEC, MODEL_SPECS, WU_ORACLE

EPS_PREF = 1e-9  # the package's default indifference band
TOL_T = 1e-10  # the engine's default level tolerance
VALUE_TOL = 1e-9
LOCAL_TOL = 1e-6
GAP_TOL = 1e-9
CROSS_TOL = 1e-6
COLLINEAR_TOL = 1e-6
T_GRID = 11  # the CLI's default --t-grid
AXIOMS = ("Rationality", "Nondegeneracy", "Continuity", "Betweenness", "MixingNeutrality")

ORACLES = {"wu-oracle", "cyclic", "quadratic", "jump"}
#: Families satisfying betweenness: straight indifference curves.
BETWEENNESS = {"eu", "wu", "da", "kernel", "wu-oracle", "cyclic"}


class WU:
    """Closed forms of a weighted utility with u attaining 0 and 1."""

    def __init__(self, u, w):
        self.u = np.asarray(u, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.w_best = float(self.w[self.u == 1.0][0])
        self.w_worst = float(self.w[self.u == 0.0][0])

    def value(self, rows: np.ndarray) -> np.ndarray:
        return (rows @ (self.w * self.u)) / (rows @ self.w)

    def chord_value(self, t):
        t = np.asarray(t, dtype=float)
        return t * self.w_best / (t * self.w_best + (1.0 - t) * self.w_worst)

    def utility(self, rows: np.ndarray) -> np.ndarray:
        """U: the chord level whose value equals the lottery's value."""
        v = self.value(rows)
        return v * self.w_worst / (self.w_best * (1.0 - v) + v * self.w_worst)

    def local(self, rows: np.ndarray, t) -> np.ndarray:
        """u(x, t) at interior levels, and the class indicators at t = 0, 1."""
        t = np.broadcast_to(np.asarray(t, dtype=float), (len(rows),))
        v = self.value(rows)
        s = self.chord_value(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = t + (1.0 - t) / (self.w_best * (1.0 - s)) * (
                (rows * self.w * (self.u[None, :] - s[:, None])).sum(axis=1)
            )
        at0 = np.where(np.abs(v) <= EPS_PREF, 0.0, 1.0)
        at1 = np.where(np.abs(v - 1.0) <= EPS_PREF, 1.0, 0.0)
        return np.where(t == 0.0, at0, np.where(t == 1.0, at1, inner))

    def utility_tol(self, oracle: bool) -> float:
        """Oracle bisection stops anywhere in the eps_pref band around the
        root; the chord's smallest value slope turns that into a level
        error."""
        if not oracle:
            return VALUE_TOL
        slope = min(self.w_best / self.w_worst, self.w_worst / self.w_best)
        return 2.0 * (EPS_PREF / slope + TOL_T)


class DA:
    """Closed forms of Gul's disappointment aversion, u attaining 0 and 1.

    The value V solves V = sum_i x_i u_i + beta * sum_i x_i min(u_i - V, 0).
    Between two neighbouring outcome utilities the disappointing outcomes
    are fixed, so V is a ratio of linear forms there; the root is the
    candidate that lies in its own interval.
    """

    def __init__(self, u, beta):
        self.u = np.asarray(u, dtype=float)
        self.beta = float(beta)

    def value(self, rows: np.ndarray) -> np.ndarray:
        levels = np.unique(self.u)
        base = rows @ self.u
        value = np.full(len(rows), np.nan)
        for lo, hi in zip(levels[:-1], levels[1:]):
            below = (self.u <= lo).astype(float)
            cand = (base + self.beta * (rows @ (below * self.u))) / (
                1.0 + self.beta * (rows @ below)
            )
            inside = np.isnan(value) & (cand >= lo - 1e-15) & (cand <= hi + 1e-15)
            value = np.where(inside, cand, value)
        return value

    def chord_value(self, t):
        t = np.asarray(t, dtype=float)
        return t / (1.0 + self.beta * (1.0 - t))

    def utility(self, rows: np.ndarray) -> np.ndarray:
        v = self.value(rows)
        return v * (1.0 + self.beta) / (1.0 + self.beta * v)

    def utility_tol(self, oracle: bool) -> float:
        return VALUE_TOL


class Kernel:
    """Closed forms of the tabulated implicit kernel t = sum_i x_i phi(i, t).

    phi is linear in t between two table levels, so on each such interval
    the fixed point is a ratio of linear forms; the root is the candidate
    that lies in its own interval.
    """

    def __init__(self, t_grid, phi):
        self.t_grid = np.asarray(t_grid, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        tops = self.value(np.eye(len(self.phi)))
        self.best = int(np.argmax(tops))
        self.worst = int(np.argmin(tops))

    def value(self, rows: np.ndarray) -> np.ndarray:
        value = np.full(len(rows), np.nan)
        for j in range(len(self.t_grid) - 1):
            a, b = self.t_grid[j], self.t_grid[j + 1]
            at_a = rows @ self.phi[:, j]
            slope = rows @ ((self.phi[:, j + 1] - self.phi[:, j]) / (b - a))
            cand = (at_a - a * slope) / (1.0 - slope)
            inside = np.isnan(value) & (cand >= a - 1e-15) & (cand <= b + 1e-15)
            value = np.where(inside, cand, value)
        return value

    def _phi(self, i: int, t):
        return np.interp(t, self.t_grid, self.phi[i])

    def chord_value(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        rows = np.zeros((len(t), len(self.phi)))
        rows[:, self.best] = t
        rows[:, self.worst] += 1.0 - t
        return self.value(rows)

    def utility(self, rows: np.ndarray) -> np.ndarray:
        """The chord level t with t * phi_best(V) + (1 - t) * phi_worst(V) = V."""
        v = self.value(rows)
        lo, hi = self._phi(self.worst, v), self._phi(self.best, v)
        return (v - lo) / (hi - lo)

    def utility_tol(self, oracle: bool) -> float:
        return VALUE_TOL


#: Closed forms by model name.  Expected utility is the weighted utility
#: with w = 1.  The cyclic oracle compares by expected utility with
#: u = (0, 1/2, 1) off its planted pair, and no chord or grid comparison
#: touches that pair.
CLOSED_FORMS = {
    "eu": WU(MODEL_SPECS["eu"]["u"], [1.0, 1.0, 1.0]),
    "wu": WU(MODEL_SPECS["wu"]["u"], MODEL_SPECS["wu"]["w"]),
    "wu4": WU(MODEL_SPECS["wu4"]["u"], MODEL_SPECS["wu4"]["w"]),
    "wu-oracle": WU(WU_ORACLE["u"], WU_ORACLE["w"]),
    "cyclic": WU([0.0, 0.5, 1.0], [1.0, 1.0, 1.0]),
    "bulk-wu5": WU(BULK_WU5["u"], BULK_WU5["w"]),
    "da": DA(MODEL_SPECS["da"]["u"], MODEL_SPECS["da"]["beta"]),
    "kernel": Kernel(KERNEL_SPEC["t_grid"], KERNEL_SPEC["phi"]),
}


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in line] for line in reader]
    return header, np.asarray(rows, dtype=float).reshape(len(rows), len(header))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _worst(label: str, err: np.ndarray, tol: float) -> list[str]:
    worst = float(np.max(err)) if err.size else 0.0
    if not worst <= tol:  # also catches NaN
        return [f"{label}: max error {worst:.3e} > {tol:.1e}"]
    return []


def _n_outcomes(model: str) -> int:
    spec = WU_ORACLE if model == "wu-oracle" else MODEL_SPECS[model]
    return len(spec.get("u") or spec.get("phi") or CLOSED_FORMS[model].u)


def check_repr(model: str, grid: int, out: str) -> list[str]:
    n = _n_outcomes(model)
    n_samples = math.comb(grid + n - 1, n - 1)
    header, big = _read_csv(os.path.join(out, "U.csv"))
    if header != [f"p{i}" for i in range(n)] + ["U"] or len(big) != n_samples:
        return [f"U.csv: header {header} with {len(big)} rows, expected {n_samples}"]
    _, small = _read_csv(os.path.join(out, "u.csv"))
    if len(small) != n_samples * T_GRID:
        return [f"u.csv: {len(small)} rows, expected {n_samples * T_GRID}"]
    form = CLOSED_FORMS[model]
    err_big = np.abs(big[:, n] - form.utility(big[:, :n]))
    problems = _worst("U.csv", err_big, form.utility_tol(model in ORACLES))
    if isinstance(form, WU):
        err_small = np.abs(small[:, n + 1] - form.local(small[:, :n], small[:, n]))
        return problems + _worst("u.csv", err_small, LOCAL_TOL)
    # DA and kernel: no closed form for u(x, t) here; the program's own
    # fixed-point gap must vanish instead.
    gap = _read_json(os.path.join(out, "summary.json")).get("max_fixed_point_gap")
    if not (isinstance(gap, float | int) and gap <= GAP_TOL):
        problems.append(f"summary.json: max_fixed_point_gap {gap!r} > {GAP_TOL}")
    return problems


def check_axioms(job, code, out: str) -> list[str]:
    reports = _read_json(os.path.join(out, "axioms.json"))["reports"]
    names = tuple(r["axiom"] for r in reports)
    if names != AXIOMS:
        return [f"axioms.json lists {names}"]
    failed = [r["axiom"] for r in reports if not r["passed"]]
    if job.expect == "pass":
        if code != 0 or failed:
            return [f"exit {code}, failed axioms {failed}; expected all to pass"]
        return []
    if code != 1 or job.expect not in failed:
        return [f"exit {code}, failed axioms {failed}; expected {job.expect} flagged"]
    return []


def check_separation(job, code, out: str, stderr: str) -> list[str]:
    if job.expect == "infeasible":
        if code == 1 and "Infeasible" in stderr:
            return []
        path = os.path.join(out, "separation.json")
        entries = _read_json(path)["entries"] if os.path.exists(path) else []
        if code == 1 and any("infeasible" in e for e in entries):
            return []
        return [f"exit {code}; expected exit 1 with Infeasible"]
    if code != 0:
        return [f"exit {code}; expected 0"]
    problems = []
    for entry in _read_json(os.path.join(out, "separation.json"))["entries"]:
        gap = entry.get("max_cross_discrepancy")
        if not entry.get("separation", {}).get("passed") or gap is None or not gap <= CROSS_TOL:
            problems.append(f"level {entry['level']}: cross discrepancy {gap!r}")
    return problems


def collinearity(points: np.ndarray) -> float:
    """Largest distance from triangle-embedded points to their fitted line."""
    if len(points) < 3:
        return 0.0
    xy = np.column_stack(
        [points[:, 1] + 0.5 * points[:, 2], (math.sqrt(3.0) / 2.0) * points[:, 2]]
    )
    centered = xy - xy.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return float(np.abs(centered @ vt[-1]).max())


def check_triangle(model: str, code, out: str) -> list[str]:
    if code != 0:
        return [f"exit {code}; expected 0"]
    if not os.path.getsize(os.path.join(out, "triangle.svg")):
        return ["triangle.svg is empty"]
    _, table = _read_csv(os.path.join(out, "curves.csv"))
    problems = []
    for level in np.unique(table[:, 0]):
        points = table[table[:, 0] == level][:, 1:4]
        if model in BETWEENNESS:
            problems += _worst(
                f"level {level:g} collinearity", np.asarray([collinearity(points)]), COLLINEAR_TOL
            )
        if model in CLOSED_FORMS:
            form = CLOSED_FORMS[model]
            err = np.abs(form.value(points) - form.chord_value(level))
            problems += _worst(f"level {level:g} values", err, 10 * EPS_PREF)
    return problems


def check_bulk(data: dict) -> list[str]:
    form = CLOSED_FORMS["bulk-wu5"]
    rows = data["rows"]
    problems = _worst("U", np.abs(data["U"] - form.utility(rows)), VALUE_TOL)
    for t, column in zip(BULK_LEVELS, data["u"]):
        problems += _worst(f"u at {t:g}", np.abs(column - form.local(rows, t)), LOCAL_TOL)
    return problems


def check_job(result) -> list[str]:
    """All problems with one finished job's exit code and outputs."""
    job = result.job
    if result.exit_code is None:
        return ["crashed: " + result.stderr.strip().splitlines()[-1]]
    try:
        if job.cmd == "lib":
            return check_bulk(result.data)
        if job.cmd == "repr":
            if result.exit_code != 0:
                return [f"exit {result.exit_code}; expected 0"]
            return check_repr(job.model, job.grid, result.out_dir)
        if job.cmd == "check":
            return check_axioms(job, result.exit_code, result.out_dir)
        if job.cmd == "separation":
            return check_separation(job, result.exit_code, result.out_dir, result.stderr)
        return check_triangle(job.model, result.exit_code, result.out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def output_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file a job wrote, by file name."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests
