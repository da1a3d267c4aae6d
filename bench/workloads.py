"""Workload definitions and the closed-loop pass runner.

A workload is a fixed, ordered list of jobs.  One pass runs every job
once, one after another, in this process.  Each job builds its model
and context from scratch, as a separate ``betweenu`` process would, so
no model or context cache carries over between jobs or passes.

CLI jobs go through ``betweenu.cli.main`` with the same arguments a user
would type.  The weighted-utility oracle has no JSON description, so its
jobs run the same ``main`` with ``cli.load_model`` pointed at a freshly
built oracle for the duration of the call.

Grid resolutions and level lists are scaled down from the package's
defaults so that one pass takes a few seconds on a 2-core machine while
each workload keeps its layer split (see ``bench/README.md``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

#: Kernel table shared with the test suite's implicit-kernel fixture.
KERNEL_SPEC = {
    "kind": "implicit_kernel",
    "t_grid": [0.0, 0.5, 1.0],
    "phi": [[0.0, 0.05, 0.15], [0.35, 0.5, 0.7], [0.9, 0.95, 1.0]],
}

#: JSON model descriptions handed to the CLI, keyed by the job's model name.
MODEL_SPECS = {
    "eu": {"kind": "expected_utility", "u": [0.0, 0.4, 1.0]},
    "wu": {"kind": "weighted_utility", "u": [0.0, 0.4, 1.0], "w": [1.0, 2.0, 0.5]},
    "wu4": {
        "kind": "weighted_utility",
        "u": [0.0, 0.3, 0.7, 1.0],
        "w": [1.0, 2.0, 0.5, 1.5],
    },
    "da": {"kind": "disappointment_aversion", "u": [0.0, 0.4, 1.0], "beta": 1.0},
    "kernel": KERNEL_SPEC,
    "cyclic": {"kind": "cyclic_oracle"},
    "quadratic": {"kind": "quadratic"},
    "jump": {"kind": "jump"},
}

#: The weighted-utility oracle compares through a plain numpy value; it
#: reuses the 3-outcome WU parameters so its closed forms are known.
WU_ORACLE = {"u": [0.0, 0.4, 1.0], "w": [1.0, 2.0, 0.5]}

#: The library job: a 5-outcome weighted utility over seeded Dirichlet rows.
BULK_WU5 = {"u": [0.0, 0.25, 0.5, 0.75, 1.0], "w": [1.0, 1.5, 0.7, 2.0, 0.4]}
BULK_ROWS = 3000
BULK_LEVELS = tuple(k / 10.0 for k in range(1, 10))

ONE_LEVEL = ("--levels", "0.5")


@dataclass(frozen=True)
class Job:
    """One unit of user work.

    ``expect`` is the verdict a correct program gives: ``"pass"`` (exit 0
    and every audit passes), ``"infeasible"`` (exit 1 with an Infeasible
    separation), or the name of the axiom a planted fixture must fail
    (exit 1 with that axiom flagged).  ``seeded`` jobs receive the
    workload seed as ``--seed``; elsewhere the flag has no effect and
    stays at its default.
    """

    cmd: str
    model: str
    grid: int = 6
    flags: tuple = ()
    seeded: bool = False
    expect: str = "pass"

    @property
    def name(self) -> str:
        return f"{self.cmd}.{self.model}"


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # The engine's batch bisection and the DA/kernel inner solvers do
    # nearly all the work; axioms, separation and triangle do none.
    "represent": (
        Job("repr", "eu", 3),
        Job("repr", "wu", 3),
        Job("repr", "wu4", 3),
        # DA at grid 1 keeps the pass short; the kernel at grid 3 puts a
        # full-support lottery, (1/3, 1/3, 1/3), into U.csv.
        Job("repr", "da", 1),
        Job("repr", "kernel", 3),
        Job("lib", "bulk-wu5"),
    ),
    # The audit layers reach models and engine through scalar cached
    # value/compare calls and one-row solves instead of batches.
    "audit": (
        Job("check", "eu", 6),
        Job("check", "wu", 6),
        Job("check", "da", 4),
        Job("check", "kernel", 4),
        # Fails on the seed code; see KNOWN_DEFECTS.
        Job("check", "wu4", 6, seeded=True),
        Job("separation", "eu", 6, ONE_LEVEL),
        Job("separation", "wu", 6, ONE_LEVEL),
        Job("separation", "da", 6, ONE_LEVEL),
        Job("separation", "kernel", 6, ONE_LEVEL),
        Job("triangle", "eu", 6, ONE_LEVEL),
        Job("triangle", "wu", 6, ONE_LEVEL),
        Job("triangle", "da", 6, ONE_LEVEL),
        Job("triangle", "kernel", 6, ONE_LEVEL),
    ),
    # The same construction through comparison oracles only: compare and
    # mix/Lottery construction dominate, ValueModel.values is never hit.
    "oracle": (
        Job("repr", "cyclic", 3),
        Job("repr", "wu-oracle", 3),
        # The planted triple lies on grid 6; 28 samples keep transitivity
        # exhaustive there.
        Job("check", "cyclic", 6, expect="Rationality"),
        Job("check", "wu-oracle", 9, seeded=True),
        Job("check", "quadratic", 9, seeded=True, expect="Betweenness"),
        Job("check", "jump", 6, expect="Continuity"),
        Job("separation", "cyclic"),
        Job("separation", "wu-oracle"),
        Job("separation", "quadratic", expect="infeasible"),
        Job("triangle", "cyclic"),
        Job("triangle", "wu-oracle"),
        Job("triangle", "quadratic"),
    ),
}

#: Jobs whose expected verdict the seed code does not meet, with the exact
#: problem the output check reports.  Their failure still counts in
#: ``failed``; only a failure with exactly this problem keeps ``correct``.
#: On grid 6 the 4-outcome WU is flagged discontinuous, although WU is
#: continuous: the last approach step moves the value by more than the gap
#: it is compared against (a finite-resolution false positive).
KNOWN_DEFECTS = {
    ("audit", "check.wu4"): ["exit 1, failed axioms ['Continuity']; expected all to pass"],
}


def wu_value(params: dict):
    """Plain numpy weighted-utility value of a lottery's probabilities."""
    wu = np.asarray(params["w"], dtype=float) * np.asarray(params["u"], dtype=float)
    w = np.asarray(params["w"], dtype=float)

    def value_fn(x) -> float:
        p = np.asarray(x.probs, dtype=float)
        return float(p @ wu) / float(p @ w)

    return value_fn


def bulk_rows(seed: int, n_rows: int = BULK_ROWS) -> np.ndarray:
    """Seeded Dirichlet lottery rows for the library job."""
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(len(BULK_WU5["u"])), size=n_rows)


@dataclass
class JobResult:
    job: Job
    seconds: float
    exit_code: int | None
    stderr: str
    out_dir: str
    data: dict | None = None


class Runner:
    """Runs one workload's passes inside the current process."""

    def __init__(self, betweenu, workload: str, seed: int, out_root: str):
        self.bu = betweenu
        self.workload = workload
        self.jobs = WORKLOADS[workload]
        self.seed = int(seed)
        self.out_root = out_root
        self.model_dir = os.path.join(out_root, "models")
        os.makedirs(self.model_dir, exist_ok=True)
        for name, spec in MODEL_SPECS.items():
            with open(os.path.join(self.model_dir, name + ".json"), "w") as fh:
                json.dump(spec, fh)
        self.rows = bulk_rows(self.seed)

    def argv(self, job: Job, out_dir: str) -> list[str]:
        model_path = os.path.join(self.model_dir, job.model + ".json")
        argv = [job.cmd, "--model", model_path, "--grid", str(job.grid), *job.flags]
        if job.seeded:
            argv += ["--seed", str(self.seed)]
        return argv + ["--out", out_dir]

    def run_job(self, job: Job, out_dir: str, on_start=None) -> JobResult:
        """Time one job; ``on_start`` runs just before the clock starts."""
        if job.cmd == "lib":
            return self._run_bulk(job, out_dir, on_start)
        cli = self.bu.cli
        argv = self.argv(job, out_dir)
        err = io.StringIO()
        saved = cli.load_model
        if job.model == "wu-oracle":
            cli.load_model = lambda _path: self.bu.oracle_from_value(
                wu_value(WU_ORACLE), len(WU_ORACLE["u"])
            )
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                if on_start:
                    on_start()
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is a failed job, not a failed benchmark
                    code = None
                    err.write(traceback.format_exc())
                seconds = time.perf_counter() - t0
        finally:
            cli.load_model = saved
        return JobResult(job, seconds, code, err.getvalue(), out_dir)

    def _run_bulk(self, job: Job, out_dir: str, on_start=None) -> JobResult:
        bu = self.bu
        rows = self.rows.copy()
        err = ""
        data = None
        if on_start:
            on_start()
        t0 = time.perf_counter()
        try:
            model = bu.WeightedUtility(BULK_WU5["u"], BULK_WU5["w"])
            ctx = bu.context_for(model)
            big_u = bu.solve_utility_many(ctx, rows)
            small_u = [
                bu.implicit_utility_many(ctx, rows, np.full(len(rows), t))
                for t in BULK_LEVELS
            ]
            code = 0
        except Exception:  # a crash is a failed job, not a failed benchmark
            code = None
            err = traceback.format_exc()
        seconds = time.perf_counter() - t0
        if code == 0:
            data = {"rows": rows, "U": np.asarray(big_u), "u": np.asarray(small_u)}
        return JobResult(job, seconds, code, err, out_dir, data)

    def job_dir(self, job: Job) -> str:
        """An empty output directory, so no file survives from a previous pass."""
        path = os.path.join(self.out_root, "jobs", job.name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path
