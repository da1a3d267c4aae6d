"""The fresh workload process started by ``run.py``.

It imports the package from the checkout's ``src``, prepares the
workload's inputs, reports how long that set-up took since the parent
started it, then runs closed-loop passes for the requested time and
prints one JSON record on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time


#: Seconds one unit of :func:`calibration` takes on an unloaded reference
#: machine (2-core 2.1 GHz Xeon VM).  Job times are scaled by this over the
#: mean unit time measured between the jobs of the run, which cancels most
#: of the speed drift of a shared host.
CALIBRATION_REF_S = 0.002
#: After each job the calibration runs for this share of the job's time
#: (at least ``CALIBRATION_MIN_UNITS`` units), so the speed is sampled in
#: proportion to the time the jobs take.
CALIBRATION_SHARE = 0.2
CALIBRATION_MIN_UNITS = 10


def calibration(units: int) -> float:
    """Seconds per unit of a fixed mix of interpreter and small-numpy work,
    the two kinds of work the workloads spend their time in."""
    import numpy as np

    rows = np.linspace(0.0, 1.0, 192).reshape(64, 3)
    start = time.perf_counter()
    acc = 0.0
    for _ in range(units):
        for i in range(6000):
            acc += math.fsum((i * 0.5, 0.25, -0.125))
        for _ in range(120):
            acc += float(np.minimum(rows - 0.5, 0.0).sum(axis=1).max())
    return (time.perf_counter() - start) / units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--started", type=float, required=True, help="the parent's monotonic clock at spawn"
    )
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import betweenu
    import betweenu.cli

    where = os.path.realpath(betweenu.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"betweenu imported from {where}, not from {src}")
    return betweenu


#: Per-layer metric kinds that are counts: taken from the first traced
#: pass, and required to repeat exactly on every later one.
COUNT_KINDS = {"calls", "rows", "created", "unique_ratio", "bytes_written"}


def per_layer_names(root: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def layer_metrics(names, tracer, job_seconds, bytes_written, identical_ratio) -> dict:
    values = {}
    for name in names:
        if name.startswith(("cli.", "lib.")) and name.endswith(".s"):
            job = name[: -len(".s")]
            values[name] = job_seconds.get(job.removeprefix("cli."), 0.0)
        elif name == "simplex.Lottery.created":
            values[name] = tracer.lotteries_created
        elif name == "cli.bytes_written":
            values[name] = bytes_written
        elif name == "cli.outputs_identical_ratio":
            values[name] = identical_ratio
        elif name == "trace.overhead_ratio":
            continue
        else:
            prefix, kind = name.rsplit(".", 1)
            values[name] = tracer.metric(prefix, kind)
    return values


class Pass:
    """Runs and checks one pass; keeps what the report needs."""

    def __init__(self, runner, references: dict, tracer=None):
        from checks import check_job, output_digests

        self.job_seconds: dict[str, float] = {}
        self.calibration_s = 0.0
        self.calibration_units = 0
        self.failures: dict[str, list[str]] = {}
        self.compared = 0
        self.identical = 0
        self.bytes_written = 0
        self.calibrate(CALIBRATION_MIN_UNITS)
        for index, job in enumerate(runner.jobs):
            out_dir = runner.job_dir(job)
            on_start = (lambda i=index: tracer.start_job(i)) if tracer else None
            result = runner.run_job(job, out_dir, on_start)
            self.calibrate(round(CALIBRATION_SHARE * result.seconds / CALIBRATION_REF_S))
            self.job_seconds[job.name] = result.seconds
            problems = check_job(result)
            if problems:
                self.failures[job.name] = problems
            for name, digest in output_digests(out_dir).items():
                self.bytes_written += os.path.getsize(os.path.join(out_dir, name))
                key = f"{runner.workload}/{job.name}/{name}"
                if job.seeded:
                    key += f"@{runner.seed}"
                if key in references:
                    self.compared += 1
                    self.identical += digest == references[key]
        if tracer:
            tracer.start_job(-1)
        self.wall_s = sum(self.job_seconds.values())
        self.unit_s = self.calibration_s / self.calibration_units

    def calibrate(self, units: int) -> None:
        units = max(units, CALIBRATION_MIN_UNITS)
        self.calibration_s += calibration(units) * units
        self.calibration_units += units


def main(argv=None) -> int:
    args = parse_args(argv)
    betweenu = import_package(args.root)
    import numpy
    import scipy

    from workloads import Runner

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(bench_dir, "reference_outputs.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    out_root = os.path.join(args.root, ".bench_out", args.workload)
    runner = Runner(betweenu, args.workload, args.seed, out_root)
    setup_s = time.monotonic() - args.started
    record = {
        "setup_s": setup_s,
        "setup_calibration": statistics.median(calibration(10) for _ in range(3)),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    passes: list[Pass] = []
    traced: list[tuple[Pass, object]] = []
    begin = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        passes.append(Pass(runner, references))
        while True:
            tracer = Tracer(betweenu)
            tracer.install()
            try:
                traced.append((Pass(runner, references, tracer), tracer))
            finally:
                tracer.uninstall()
            leftover = tracer.restored()
            if leftover:
                raise RuntimeError(f"wrappers left installed: {leftover}")
            if len(traced) > 1:
                tracer.drop_spans()
            elapsed = time.perf_counter() - begin
            if elapsed + (elapsed / (len(traced) + 1)) > args.seconds:
                break
    else:
        while True:
            passes.append(Pass(runner, references))
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) > args.seconds:
                break

    every = passes + [p for p, _ in traced]
    record.update(
        {
            "passes": [
                {
                    "wall_s": p.wall_s,
                    "job_seconds": p.job_seconds,
                    "calibration_s": p.calibration_s,
                    "calibration_units": p.calibration_units,
                    "failures": p.failures,
                }
                for p in every
            ],
            "traced_passes": len(traced),
            "compared": sum(p.compared for p in every),
            "identical": sum(p.identical for p in every),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    if traced:
        record["layers"] = trace_report(args, out_root, passes, traced, record)
    print(json.dumps(record))
    return 0


def trace_report(args, out_root, untraced, traced, record) -> dict:
    names = per_layer_names(args.root)
    ratio = record["identical"] / record["compared"] if record["compared"] else 0.0
    per_pass = [
        layer_metrics(names, tracer, p.job_seconds, p.bytes_written, ratio) for p, tracer in traced
    ]
    first = per_pass[0]
    layers = {}
    for name in names:
        if name == "trace.overhead_ratio":
            continue
        if name.rsplit(".", 1)[1] in COUNT_KINDS:
            layers[name] = first[name]
        else:
            layers[name] = statistics.median(m[name] for m in per_pass)

    def scaled(passes) -> float:
        return statistics.mean(p.wall_s for p in passes) / statistics.mean(p.unit_s for p in passes)

    layers["trace.overhead_ratio"] = scaled([p for p, _ in traced]) / scaled(untraced)
    record["counts_repeat"] = all(
        m[name] == first[name]
        for m in per_pass
        for name in names
        if name.rsplit(".", 1)[1] in COUNT_KINDS
    )
    tracer = traced[0][1]
    record["self_s"] = tracer.self_times()
    trace_dir = os.path.join(out_root, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    tracer.save(os.path.join(trace_dir, f"spans-seed{args.seed}.npz"))
    return layers


if __name__ == "__main__":
    sys.exit(main())
