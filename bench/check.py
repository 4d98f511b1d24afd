"""Per-job correctness checks, independent of catmeas.

A job passes when its exit code is the expected one, no exception
escaped, its structured report parses, every verdict holds (for jobs
expected to exit 0), the sha256 of its report equals the recorded one
(when `expected.json` records this job: always for committed models,
for generated ones on the workload seeds `RECORDED_SEEDS`), and its
exact values agree with the oracles below, computed here from the model
file alone:

- ``variation[m]`` is the sum of the atom value norms of ``m``;
- ``semivariation[m]`` is the largest norm of a signed sum of its atom
  values;
- ``projection[c][E]`` of an ``l1-of`` cosheaf of a measure positive on
  every atom is the 0/1 diagonal of the atoms below ``E``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected.json"
# the workload seeds whose generated-model digests `expected.json` holds
RECORDED_SEEDS = "0-31"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def _norm(space, v: list[Fraction]) -> Fraction:
    if space is None:  # scalar
        return abs(v[0])
    weights = [Fraction(w) for w in space.get("weights", ["1"] * len(v))]
    terms = [w * abs(x) for w, x in zip(weights, v)]
    return sum(terms, Fraction(0)) if space.get("flavor", "sum") == "sum" else max(terms)


def _main_measures(model: dict):
    """(name, target space or None for scalar, atom values) per measure on
    the main algebra."""
    spaces = model.get("spaces", {})
    for name, desc in model.get("measures", {}).items():
        if desc.get("on", "algebra") != "algebra":
            continue
        target = desc.get("target", "scalar")
        values = [[Fraction(x) for x in (v if isinstance(v, list) else [v])]
                  for v in desc["values"].values()]
        yield name, None if target == "scalar" else spaces[target], values


def oracle_values(model: dict) -> dict[str, Fraction]:
    out = {}
    for name, space, values in _main_measures(model):
        out[f"variation[{name}]"] = sum((_norm(space, v) for v in values), Fraction(0))
        best = Fraction(0)
        first, rest = values[0], values[1:]
        for signs in itertools.product((1, -1), repeat=len(rest)):
            total = list(first)
            for s, v in zip(signs, rest):
                total = [t + s * x for t, x in zip(total, v)]
            best = max(best, _norm(space, total))
        out[f"semivariation[{name}]"] = best
    return out


def _positive_l1_cosheaves(model: dict) -> list[str]:
    measures = model.get("measures", {})
    names = []
    for name, desc in model.get("cosheaves", {}).items():
        if isinstance(desc, str) and desc.startswith("l1-of:"):
            m = measures[desc.split(":", 1)[1]]
            if all(Fraction(v) > 0 for v in m["values"].values()):
                names.append(name)
    return names


def _check_projections(results: dict, cosheaves: list[str]) -> list[str]:
    problems = []
    for name in cosheaves:
        prefix = f"projection[{name}]["
        keys = [k for k in results if k.startswith(prefix)]
        if not keys:
            continue
        # the key of the top element lists every atom in basis order
        order = max((k[len(prefix):-1].split("|") for k in keys), key=len)
        for key in keys:
            inside = set(key[len(prefix):-1].split("|"))
            want = [["1" if i == j and a in inside else "0" for j in range(len(order))]
                    for i, a in enumerate(order)]
            if results[key] != want:
                problems.append(f"{key} is not the diagonal projection")
    return problems


def check_job(job, text: str, exit_code, error, root: Path, expected: dict) -> list[str]:
    """Problems found with one job's outcome; empty when it passed."""
    if error is not None:
        return [f"exception: {error}"]
    problems = []
    if exit_code != job.exit_code:
        problems.append(f"exit code {exit_code}, expected {job.exit_code}")
    recorded = expected.get(job.key)
    if recorded is not None and recorded != digest(text):
        problems.append("report digest differs from the recorded one")
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return problems + ["report is not JSON"]
    if job.exit_code == 0:
        problems += [f"verdict {k} failed"
                     for k, v in report.get("verdicts", {}).items() if not v["ok"]]
    results = report.get("results", {})
    model = json.loads((root / job.model).read_text())
    for key, want in oracle_values(model).items():
        if key in results and Fraction(results[key]) != want:
            problems.append(f"{key} = {results[key]}, oracle gives {want}")
    problems += _check_projections(results, _positive_l1_cosheaves(model))
    return problems
