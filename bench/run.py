"""The catmeas benchmark.

    python3 bench/run.py --workload cosheaf-verify --seed 3 --seconds 30 --trace 0

One client runs the workload's job list (see `workloads.py`) in a closed
loop, one pass per fresh worker process, until `--seconds` would be
exceeded.  Each run first measures set-up (importing catmeas and writing
the seeded model files) in several fresh processes.  Every job's output
is checked (see `check.py`), and a job whose report digest differs
between passes fails too.

With ``--trace 0`` the passes are untraced and the run reports the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate and the run reports the per-layer metrics of the traced passes
plus the tracing overhead.  Times are medians over the passes of the run;
counts must repeat exactly across traced passes.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# every run ends within this many seconds, whatever --seconds asks
HARD_LIMIT_S = 170

END_TO_END = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _calls_self(name):
    return {f"{name}.calls": "count", f"{name}.self_s": "s"}


def _self(*names):
    return {f"{name}.self_s": "s" for name in names}


PER_LAYER = {
    **_calls_self("cli.parse_model"), **_self("cli.run", "cli.emit_report"),
    **_calls_self("boolalg.partitions_of"), "boolalg.partitions_of.items": "count",
    **_calls_self("finban.LinMap.compose"), "finban.LinMap.compose.monomial_share": "ratio",
    **_calls_self("finban.operator_norm"), "finban.operator_norm.vertex_share": "ratio",
    **_calls_self("finban.direct_sum"),
    **_calls_self("exactla.rref"), "exactla.rref.cells": "count",
    "exactla.rref.density": "ratio", "exactla.rref.max_bits": "bits",
    **_calls_self("exactla.nullspace"), **_calls_self("exactla.solve_linear"),
    **_calls_self("exactla.invert"), "exactla.invert.distinct_ratio": "ratio",
    **_calls_self("exactla.simplex_min"),
    **_calls_self("measures.semivariation"), "measures.semivariation.distinct_ratio": "ratio",
    **_self("measures.variation", "measures.lipschitz_norm"),
    **_self("simple.integration_map", "simple.integrate", "simple.bochner", "simple.fubini"),
    **_calls_self("shcosh.is_cosheaf"), "shcosh.is_cosheaf.splits": "count",
    "shcosh.is_cosheaf.distinct_ratio": "ratio",
    **_calls_self("shcosh.partition_map"), **_calls_self("shcosh.PreCosheaf.extension"),
    **_calls_self("shcosh.is_sheaf"), **_calls_self("shcosh.cosheaf_projection"),
    **_self("shcosh.spectral_measure", "shcosh.SpectralData.satisfies_laws",
            "shcosh.cosheafify", "shcosh.random_cosheaf"),
    **_calls_self("shcosh.make_precosheaf"), **_calls_self("shcosh.make_presheaf"),
    **_self("shcosh.from_atom_spaces"),
    **_calls_self("shcosh.sheaf_hom"), "shcosh.sheaf_hom.unknowns": "count",
    **_calls_self("shcosh.cosheaf_hom"), **_self("shcosh.isbell", "shcosh.isbell_adjoint"),
    **_calls_self("bundles2v.kan_extension_discrete"),
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# derived per-layer values: name -> (numerator total, denominator total)
RATIOS = {
    "finban.LinMap.compose.monomial_share": ("finban.LinMap.compose.monomial_calls",
                                             "finban.LinMap.compose.calls"),
    "finban.operator_norm.vertex_share": ("finban.operator_norm.vertex_calls",
                                          "finban.operator_norm.calls"),
    "exactla.rref.density": ("exactla.rref.nonzeros", "exactla.rref.cells"),
    "exactla.invert.distinct_ratio": ("exactla.invert.distinct", "exactla.invert.calls"),
    "measures.semivariation.distinct_ratio": ("measures.semivariation.distinct",
                                              "measures.semivariation.calls"),
    "shcosh.is_cosheaf.distinct_ratio": ("shcosh.is_cosheaf.distinct",
                                         "shcosh.is_cosheaf.calls"),
}


class WorkerFailed(Exception):
    pass


def _worker(mode: str, workload: str, seed: int, deadline: float, trace: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), mode,
           "--workload", workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} did not finish within the run's time limit") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerFailed(f"{mode} exited with {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timing(passes: list[dict]) -> dict[str, tuple[float, float, float]]:
    """(q1, median, q3) of the pass-level timings.  Each job's time is
    first reduced to its quartiles over the passes, which damps noise
    that hits single jobs; `wall_s` sums them over the jobs, `job_s.p50`
    takes their median and `job_s.max` their largest."""
    per_job = [quartiles([s["seconds"] for s in samples])
               for samples in zip(*(r["jobs"] for r in passes))]
    out = {}
    for name, reduce in (("wall_s", sum), ("job_s.p50", statistics.median), ("job_s.max", max)):
        out[name] = tuple(reduce(q[k] for q in per_job) for k in range(3))
    return out


def _scale(result: dict) -> float:
    """The calibration scale of a pass: its scaled over its raw time."""
    jobs = result["jobs"]
    return sum(j["seconds"] for j in jobs) / sum(j["raw_seconds"] for j in jobs)


def layer_metrics(totals: dict[str, float], scale: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass; self times are scaled
    like the job times of that pass (see `worker.py`)."""
    out = {}
    for name in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        elif name.endswith(".self_s"):
            out[name] = totals.get(name, 0) * scale
        elif not name.startswith("trace."):
            out[name] = totals.get(name, 0)
    return out


def count_problems(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over all passes; a job also fails when its
    report digest differs from the first pass's."""
    first = {job["key"]: job["digest"] for job in passes[0]["jobs"]}
    unrecorded = [job["key"] for job in passes[0]["jobs"] if not job["recorded"]]
    if unrecorded:
        print(f"WARNING: {len(unrecorded)} of {len(first)} jobs have no recorded digest"
              f" (bench/expected.json records seeds {check.RECORDED_SEEDS});"
              " their reports are checked by the oracles and across passes only")
    attempted = failed = 0
    for result in passes:
        for job in result["jobs"]:
            attempted += 1
            if job["digest"] != first[job["key"]]:
                job["problems"].append("report differs from the first pass")
            if job["problems"]:
                failed += 1
                print(f"FAILED {job['key']}: {'; '.join(job['problems'])}", file=sys.stderr)
    return attempted, failed


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = perf_counter()
    deadline = t_start + HARD_LIMIT_S
    setups = [_worker("setup", workload, seed, deadline) for _ in range(SETUP_REPEATS)]
    runs: dict[bool, list[dict]] = {False: [], True: []}
    took: dict[bool, float] = {False: 0.0, True: 0.0}
    start = perf_counter()
    while True:
        traced = trace and len(runs[True]) < len(runs[False])
        enough = runs[False] and (runs[True] or not trace)
        if enough and perf_counter() - start + took[traced] > seconds:
            break
        t0 = perf_counter()
        runs[traced].append(_worker("pass", workload, seed, deadline, traced))
        took[traced] = max(took[traced], perf_counter() - t0)
    return {"setup": setups, "untraced": runs[False], "traced": runs[True]}


def report(workload: str, seed: int, trace: bool, data: dict) -> dict:
    passes = data["untraced"] + data["traced"]
    attempted, failed = count_problems(passes)
    correct = failed == 0
    rows = timing(data["untraced"])
    rows["setup_s"] = quartiles([s["seconds"] for s in data["setup"]])
    rows["peak_rss_mb"] = quartiles([r["peak_rss_mb"] for r in data["untraced"]])
    print(f"workload {workload}  seed {seed}  untraced passes {len(data['untraced'])}"
          f"  traced passes {len(data['traced'])}")
    print(f"jobs attempted {attempted}  failed {failed}  fail_ratio {failed / attempted:.4f}")
    print(f"{'metric':44} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12}")

    def show(name, unit, q):
        q1, med, q3 = q
        print(f"{name:44} {unit:6} {med:12.6f} {q1:12.6f} {q3:12.6f}")
        return med

    metrics = {}
    if not trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": show(name, unit, rows[name]), "unit": unit}
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    layers = [layer_metrics(r["layers"], _scale(r)) for r in data["traced"]]
    traced_wall = timing(data["traced"])["wall_s"]
    for name, unit in PER_LAYER.items():
        if name == "trace.wall_s":
            q = traced_wall
        elif name == "trace.overhead_s":
            u = rows["wall_s"]
            q = (traced_wall[0] - u[2], traced_wall[1] - u[1], traced_wall[2] - u[0])
        else:
            values = [layer[name] for layer in layers]
            if not name.endswith("self_s") and len(set(values)) > 1:
                print(f"count {name} differs between traced passes: {values}", file=sys.stderr)
                correct = False
            q = quartiles(values)
        metrics[name] = {"value": show(name, unit, q), "unit": unit}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="the catmeas benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catmeas" / "cli.py").is_file():
        print(f"no catmeas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        data = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), data)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
