"""One benchmark pass (or one set-up measurement) in a fresh process.

    python3 bench/worker.py pass   --workload W --seed S [--trace]
    python3 bench/worker.py setup  --workload W --seed S

`pass` runs every job of the workload in-process through
`catmeas.cli.main`, collecting garbage between jobs, and prints one JSON
object: per job its time, exit code, report digest, whether a digest is
recorded for it, and its problems, plus the
peak resident memory, and with ``--trace`` the per-layer totals.  The
spans of a traced pass are written to ``bench/out/spans/``.  `setup`
times importing catmeas plus writing the workload's model files.

The speed of the machine drifts by up to 40% between runs of a few
tens of seconds (CPU time drifts with wall time, so this is not time
stolen by other virtual machines), which repeats inside one run do not
average away.  So every time reported here (``seconds`` of a job or of
set-up) is scaled to a reference speed: a fixed exact-arithmetic loop is
timed right before and right after the measured interval, each time
after a garbage collection, and the interval is multiplied by
``CALIBRATION_REF_S`` over the mean of the two.  The unscaled time is
reported beside it as ``raw_seconds``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


# the calibration loop's time at the reference speed, close to its median
# on a 2-vCPU x86-64 VM under Python 3.11
CALIBRATION_REF_S = 0.008
_rng = random.Random(0)
_CALIBRATION_MATRIX = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(12)]
                       for _ in range(12)]


def calibration_s() -> float:
    """Median time of three runs of a fixed 12x12 rational matrix square,
    after a garbage collection, so that it does not pay for the garbage
    of the interval it calibrates."""
    gc.collect()
    a = _CALIBRATION_MATRIX
    n = len(a)
    times = []
    for _ in range(3):
        t0 = perf_counter()
        [[sum((a[i][k] * a[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
         for i in range(n)]
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(raw: float, before: float, after: float) -> dict:
    return {"seconds": raw * CALIBRATION_REF_S / ((before + after) / 2), "raw_seconds": raw}


def _import_catmeas():
    import catmeas.cli
    where = Path(catmeas.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"catmeas was imported from {where}, not from this checkout")
    return catmeas.cli


def setup(workload: str, seed: int) -> dict:
    before = calibration_s()
    t0 = perf_counter()
    _import_catmeas()
    workloads.write_models(ROOT, workload, seed)
    raw = perf_counter() - t0
    return scaled(raw, before, calibration_s())


def run_jobs(job_list, tracer=None, expected=None) -> list[dict]:
    """Run and check each job; `expected` maps job keys to recorded
    digests and defaults to `expected.json`."""
    cli = _import_catmeas()
    if expected is None:
        expected = check.load_expected()
    out = []
    before = calibration_s()
    for k, job in enumerate(job_list):
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code = error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    exit_code = cli.main(job.argv(ROOT))
                else:
                    tracer.job = k
                    exit_code = tracer.span("job", cli.main, job.argv(ROOT))
        except Exception as exc:  # a crash is a failed job, not a failed pass
            error = repr(exc)
        raw = perf_counter() - t0
        after = calibration_s()
        text = stdout.getvalue()
        out.append({"key": job.key, **scaled(raw, before, after), "exit": exit_code,
                    "digest": check.digest(text), "recorded": job.key in expected,
                    "problems": check.check_job(job, text, exit_code, error, ROOT, expected)})
        before = after
    return out


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("name\tstart_s\tend_s\tparent\tjob\n")
        names = tracer.names
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for nid, t0, t1, parent, job in tracer.spans:
            fh.write(f"{names[nid]}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{parent}\t{job}\n")


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    job_list = workloads.jobs(workload, seed)
    if not trace:
        result = {"jobs": run_jobs(job_list)}
    else:
        from tracer import Tracer
        _import_catmeas()
        tracer = Tracer()
        with tracer:
            result = {"jobs": run_jobs(job_list, tracer)}
        result["layers"] = tracer.layer_totals()
        write_spans(tracer, BENCH / "out" / "spans" / f"{workload}.tsv")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("pass", "setup"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    calibration_s()  # warm up the loop before any timed call
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    else:
        result = run_pass(args.workload, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
