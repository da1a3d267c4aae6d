"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

* Two traced runs of one workload report identical operation counts, so
  no state leaks between jobs, passes or processes.
* The output checker rejects a ``U.csv`` value perturbed by 1e-6, for
  expected utility and for the implicit kernel.
* Installing and removing the tracer leaves every wrapped binding holding
  its original object, and the wrappers see calls made through every
  binding (the defining module and the ``from .x import`` copies).
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import unittest

from run import ROOT
from worker import import_package

betweenu = import_package(ROOT)

from checks import check_job  # noqa: E402
from tracer import FUNCTIONS, Tracer  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

REPEATED_COUNTS = (
    "models.values.calls",
    "models.compare.calls",
    "simplex.mix.calls",
    "separation.linprog.calls",
)


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CountsRepeat(unittest.TestCase):
    def test_two_traced_runs_agree(self):
        first = traced_run("audit", 3)
        second = traced_run("audit", 3)
        for name in REPEATED_COUNTS:
            self.assertGreater(first["metrics"][name]["value"], 0, name)
            self.assertEqual(first["metrics"][name], second["metrics"][name], name)


class CheckerRejects(unittest.TestCase):
    def perturb_full_support_row(self, job_name: str):
        """Run a ``repr`` job, then move U of its first full-support lottery."""
        out_root = os.path.join(ROOT, ".bench_out", "selftest")
        runner = Runner(betweenu, "represent", 0, out_root)
        job = next(j for j in WORKLOADS["represent"] if j.name == job_name)
        result = runner.run_job(job, runner.job_dir(job))
        self.assertEqual(check_job(result), [])

        path = os.path.join(result.out_dir, "U.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        row = next(r for r in rows[1:] if all(float(p) > 0.0 for p in r[:-1]))
        row[-1] = repr(float(row[-1]) + 1e-6)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        problems = check_job(result)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith("U.csv"), problems)

    def test_perturbed_utility_fails(self):
        self.perturb_full_support_row("repr.eu")

    def test_perturbed_kernel_utility_fails(self):
        self.perturb_full_support_row("repr.kernel")


class TracerHygiene(unittest.TestCase):
    def test_wrappers_cover_every_binding_and_come_off(self):
        engine, cli = betweenu.engine, betweenu.cli
        originals = {(cli, "solve_utility_many"): cli.solve_utility_many}
        tracer = Tracer(betweenu)
        tracer.install()
        try:
            self.assertIsNot(engine.solve_utility_many, originals[(cli, "solve_utility_many")])
            self.assertIs(cli.solve_utility_many, engine.solve_utility_many)
            self.assertIs(betweenu.solve_utility_many, engine.solve_utility_many)
            model = betweenu.ExpectedUtility([0.0, 0.4, 1.0])
            ctx = betweenu.context_for(model)
            cli.solve_utility_many(ctx, betweenu.grid(3, 2))
            betweenu.separation.mix(0.5, ctx.best, ctx.worst)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.restored(), [])
        self.assertIs(cli.solve_utility_many, originals[(cli, "solve_utility_many")])
        for name in ("engine.solve_utility_many", "engine.context_for", "simplex.mix"):
            self.assertGreater(tracer.metric(name, "calls"), 0, name)
        self.assertGreater(tracer.metric("models.values", "rows"), 0)
        wrapped = {(owner.__name__, attr) for owner, attr, _ in tracer.bindings}
        for mod_name, attr in FUNCTIONS.values():
            self.assertIn((f"betweenu.{mod_name}", attr), wrapped)


if __name__ == "__main__":
    unittest.main()
