"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import models  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Job  # noqa: E402


@pytest.fixture
def small_jobs(tmp_path):
    """A few cheap jobs on one generated 3-atom model."""
    path = models.write_model(tmp_path, seed=5, atoms=3, dim=2)
    return [Job(str(path), command, 7)
            for command in ("check-cosheaf", "spectral", "semivariation", "isbell")]


def _counts(totals):
    return {k: v for k, v in totals.items() if not k.endswith("self_s")}


def test_generator_is_byte_identical_per_seed(tmp_path):
    first = models.write_model(tmp_path / "a", seed=3, atoms=5, dim=4).read_bytes()
    again = models.write_model(tmp_path / "b", seed=3, atoms=5, dim=4).read_bytes()
    other = models.write_model(tmp_path / "c", seed=4, atoms=5, dim=4).read_bytes()
    assert first == again
    assert first != other


def test_traced_and_untraced_digests_agree(small_jobs):
    plain = worker.run_jobs(small_jobs, expected={})
    with Tracer() as tracer:
        traced = worker.run_jobs(small_jobs, tracer, expected={})
    assert [j["digest"] for j in plain] == [j["digest"] for j in traced]
    assert all(not j["problems"] for j in plain + traced)


def test_two_traced_runs_give_identical_counts(small_jobs):
    totals = []
    for _ in range(2):
        with Tracer() as tracer:
            worker.run_jobs(small_jobs, tracer, expected={})
        totals.append(_counts(tracer.layer_totals()))
    assert totals[0] == totals[1]
    assert totals[0]["shcosh.is_cosheaf.splits"] > 0
    assert totals[0]["exactla.rref.cells"] > 0


def test_every_binding_is_counted_and_restored():
    from catmeas import cli, finban, shcosh
    from catmeas.finban import LinMap, scalars

    original = finban.operator_norm
    compose = LinMap.__dict__["compose"]
    identity = LinMap.__dict__["identity"]
    one = LinMap.identity(scalars())
    with Tracer() as tracer:
        assert shcosh.operator_norm is finban.operator_norm is cli.operator_norm
        assert finban.operator_norm is not original
        finban.operator_norm(one)
        shcosh.operator_norm(one)
        cli.operator_norm(one)
        one.operator_norm()          # the method reaches the module global
        one @ one                    # `@` goes through LinMap.compose
        totals = tracer.layer_totals()
    assert totals["finban.operator_norm.calls"] == 4
    assert totals["finban.LinMap.compose.calls"] == 1
    assert totals["finban.LinMap.compose.monomial_calls"] == 1
    for module in (finban, shcosh, cli):
        assert module.operator_norm is original
    assert LinMap.__dict__["compose"] is compose
    assert LinMap.__dict__["identity"] is identity


def test_generator_functions_are_timed_over_their_iteration():
    from catmeas.boolalg import BoolAlg
    from catmeas import boolalg

    omega = BoolAlg(("a", "b", "c"))
    with Tracer() as tracer:
        parts = list(boolalg.partitions_of(omega, omega.top))
        totals = tracer.layer_totals()
    assert totals["boolalg.partitions_of.calls"] == 1
    assert totals["boolalg.partitions_of.items"] == len(parts) == 5


def test_wrong_value_fails_the_job(tmp_path):
    path = models.write_model(tmp_path, seed=2, atoms=3, dim=2)
    job = Job(str(path), "semivariation", 7)
    [good] = worker.run_jobs([job], expected={})
    assert good["problems"] == []
    report = {"results": {"semivariation[rho]": "12345"}, "verdicts": {}}
    problems = check.check_job(job, json.dumps(report), 0, None, Path("/"), {})
    assert any("semivariation[rho]" in p for p in problems)
    assert check.check_job(job, "{}", 0, None, Path("/"), {job.key: "0" * 64})


def test_unrecorded_job_is_flagged(tmp_path):
    path = models.write_model(tmp_path, seed=2, atoms=3, dim=2)
    job = Job(str(path), "semivariation", 7)
    [plain] = worker.run_jobs([job], expected={})
    [recorded] = worker.run_jobs([job], expected={job.key: plain["digest"]})
    assert not plain["recorded"] and recorded["recorded"]
    assert recorded["problems"] == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(run.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
