"""Record the report digest of every job into `expected.json`.

    python3 bench/record.py [--seeds 0-31]

Runs one untraced pass per workload and seed.  A job's digest is recorded
only when the job passed every other check (exit code, verdicts,
oracles), so the file never enshrines a wrong report.  Later runs on a
recorded seed then fail any job whose report changed.  Existing entries
are kept unless a run gives a different digest, which is an error.
"""

from __future__ import annotations

import argparse
import json
import sys

import check
import worker
import workloads


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=check.RECORDED_SEEDS,
                        help="a seed or a range like 1-10 (default: %(default)s)")
    args = parser.parse_args(argv)
    recorded = check.load_expected()
    status = 0
    for workload in workloads.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            workloads.write_models(worker.ROOT, workload, seed)
            for job in worker.run_jobs(workloads.jobs(workload, seed), expected={}):
                if job["problems"]:
                    print(f"not recorded, {job['key']}: {job['problems']}", file=sys.stderr)
                    status = 1
                elif recorded.setdefault(job["key"], job["digest"]) != job["digest"]:
                    print(f"digest changed: {job['key']}", file=sys.stderr)
                    status = 1
            print(f"{workload} seed {seed}: {len(recorded)} digests", file=sys.stderr)
    check.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
