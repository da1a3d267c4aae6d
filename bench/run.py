"""Run one betweenu benchmark workload and print its metrics.

    python3 bench/run.py --workload represent --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the package in ``src/`` next to the
``bench/`` directory.  The workload runs in a fresh worker process with
the BLAS thread count pinned to 1: one client, one job at a time, for
``--seconds`` seconds.  Every job's output is checked against closed
forms and expected verdicts computed here (``checks.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
plain pass, then traced passes, and reports the per-layer metrics named
in ``BENCHMARK.json``.  Human-readable lines come first; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run, with provenance, is written to
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")

#: Set-up is timed in this many extra short-lived processes besides the
#: worker, and reported as the median.
SETUP_PROBES = 4
#: Hard limit for the whole run, below the 180 s a run may take.
DEADLINE_S = 170.0
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Subcommand totals printed per workload, where the subcommand takes a
#: sizeable share of it.
SUBCOMMAND_TOTALS = {
    "represent": ("repr",),
    "audit": ("check", "separation", "triangle"),
    "oracle": ("repr", "check"),
}


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args, env, setup_only: bool, deadline: float) -> dict:
    """Start a worker, wait for it, and return its JSON record."""
    started = time.monotonic()
    argv = [
        sys.executable,
        WORKER,
        "--root", ROOT,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--started", repr(started),
    ]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(
        argv,
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def summarize(args, record: dict, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end figures from the untraced passes, and the run's verdict.

    Times are scaled to the reference machine speed: a job's mean time
    over the passes times ``CALIBRATION_REF_S`` over the mean calibration
    unit time of the untraced passes.  Pooling the calibrations over the
    run kept run-to-run spreads lowest among the estimators tried.
    """
    from worker import CALIBRATION_REF_S as ref
    from workloads import BULK_LEVELS, BULK_ROWS, KNOWN_DEFECTS, WORKLOADS

    passes = record["passes"]
    plain = passes[: len(passes) - record["traced_passes"]]
    jobs = [job.name for job in WORKLOADS[args.workload]]
    speed = ref * sum(p["calibration_units"] for p in plain) / sum(p["calibration_s"] for p in plain)
    scaled = {job: statistics.mean(p["job_seconds"][job] for p in plain) * speed for job in jobs}
    figures = {
        "wall_s": (sum(scaled.values()), "s"),
        "raw_wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "setup_s": (
            statistics.median(s["setup_s"] * ref / s["setup_calibration"] for s in setups),
            "s",
        ),
        "raw_setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
    }
    for cmd in SUBCOMMAND_TOTALS[args.workload]:
        total = sum(s for job, s in scaled.items() if job.startswith(cmd + "."))
        figures[f"{cmd}_s"] = (total, "s")
    if "lib.bulk-wu5" in scaled:
        rows = BULK_ROWS * (1 + len(BULK_LEVELS))
        figures["lib_rows_per_s"] = (rows / scaled["lib.bulk-wu5"], "1/s")
    figures["peak_rss_mb"] = (record["peak_rss_mb"], "MB")

    attempted = len(jobs) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    excused = all(
        problems == KNOWN_DEFECTS.get((args.workload, job))
        for p in passes
        for job, problems in p["failures"].items()
    )
    figures["fail_ratio"] = (failed / attempted, "ratio")
    verdict = {"correct": excused, "attempted": attempted, "failed": failed}
    return figures, verdict


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "betweenu", "__init__.py")):
        print(f"error: no betweenu package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    out_root = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    env = {**os.environ, **BLAS_PIN}
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the
    # worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(f"terminated by signal {signum}"))
    try:
        setups = [spawn(args, env, True, deadline) for _ in range(SETUP_PROBES)]
        record = spawn(args, env, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(record)
    figures, verdict = summarize(args, record, setups)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(record["passes"]),
        "traced_passes": record["traced_passes"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **record["versions"],
        "blas_pin": BLAS_PIN,
        "git_commit": git_commit(ROOT),
        "outputs_compared": record["compared"],
        "outputs_identical": record["identical"],
    }
    if "counts_repeat" in record:
        provenance["counts_repeat"] = record["counts_repeat"]
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in figures.items():
        print(f"{name:<16} {value:>14.6g} {unit}")
    for index, p in enumerate(record["passes"]):
        for job, problems in p["failures"].items():
            print(f"pass {index} {job} FAILED: {'; '.join(problems)}")

    if args.trace:
        top = sorted(record["self_s"].items(), key=lambda kv: -kv[1])[:5]
        print("largest self times: " + ", ".join(f"{name} {s:.3g} s" for name, s in top))
        layers = record["layers"]
        for name, value in layers.items():
            print(f"{name:<44} {value:.6g}")
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
            for m in declared["end_to_end"]
        }
    result = {**verdict, "metrics": metrics}
    with open(os.path.join(out_root, f"run-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": provenance, "record": record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
