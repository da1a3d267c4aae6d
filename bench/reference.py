"""Record the sha256 of every output file the benchmark's jobs write.

    python3 bench/reference.py

Run on the commit whose outputs are the reference; later runs report the
share of files that are still byte-identical as
``cli.outputs_identical_ratio``.  Jobs that take the workload seed are
recorded for seeds 0 .. REFERENCE_SEEDS - 1; on any other seed their
files are not compared.
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH_DIR, ROOT
from worker import import_package

#: Seeded jobs are recorded for workload seeds 0 .. REFERENCE_SEEDS - 1.
REFERENCE_SEEDS = 32


def main() -> int:
    betweenu = import_package(ROOT)
    from checks import check_job, output_digests
    from workloads import KNOWN_DEFECTS, WORKLOADS, Runner

    digests = {}
    for workload, jobs in WORKLOADS.items():
        out_root = os.path.join(ROOT, ".bench_out", "reference", workload)
        for seed in range(REFERENCE_SEEDS):
            runner = Runner(betweenu, workload, seed, out_root)
            for job in jobs:
                if seed and not job.seeded:
                    continue
                out_dir = runner.job_dir(job)
                result = runner.run_job(job, out_dir)
                problems = check_job(result)
                if problems and problems != KNOWN_DEFECTS.get((workload, job.name)):
                    raise SystemExit(f"{workload} {job.name} seed {seed}: {problems}")
                for name, digest in output_digests(out_dir).items():
                    key = f"{workload}/{job.name}/{name}" + (f"@{seed}" if job.seeded else "")
                    digests[key] = digest
        print(f"{workload}: done", file=sys.stderr)
    with open(os.path.join(BENCH_DIR, "reference_outputs.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
