"""Model parsing diagnostics, command dispatch, report determinism and
exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from catmeas import cli
from catmeas.boolalg import BoolAlg, BoolMorphism, StoneSpace, stone_space
from catmeas.errors import InvalidModel, ModelError
from catmeas.finban import LinMap, sum_space, sup_space
from catmeas.measures import random_vector_measure
from catmeas.simple import integration_map

from oracles import lift_matches_by_elements, show_matrix_by_dense_rows
from test_report_digests import DIGESTS

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
PIPE_BUFFER = 1 << 16  # bytes, on Linux


def run_cli(*args):
    """`catmeas *args` run by cli.main in this process, its output
    captured, as a finished process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code
    return subprocess.CompletedProcess(["catmeas", *args], code, out.getvalue(), err.getvalue())


def console_script():
    """The command the `catmeas` console script runs: its entry point in
    pyproject.toml, called the way an installed script calls it."""
    text = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(r'^catmeas = "([\w.]+):(\w+)"$', text, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


# a report, a failed verdict, a model error and a bad command line
ENTRY_POINT_ARGS = (("verify-all", "--model", str(MODELS / "reference.json"),
                     "--seed", "7", "--format", "structured"),
                    ("check-cosheaf", "--model", str(MODELS / "broken_cosheaf.json")),
                    ("stone", "--model", str(MODELS / "absent.json")),
                    ("frobnicate", "--model", str(MODELS / "reference.json")))


def timing_free(stderr):
    return re.sub(r"elapsed: [0-9.]+s", "elapsed: <t>", stderr)


@pytest.mark.parametrize("command", [[sys.executable, "-m", "catmeas.cli"], console_script()],
                         ids=["python-m", "console-script"])
def test_entry_points_match_the_in_process_run(command):
    """Each entry point, in a process of its own, gives the exit code,
    stdout bytes and stderr text (timing aside) of run_cli, for a report,
    a failed verdict, a model error and a bad command line; the processes
    hash strings with other seeds, so equal stdout is also determinism
    across processes."""
    for args in ENTRY_POINT_ARGS:
        proc = subprocess.run([*command, *args], capture_output=True, text=True)
        here = run_cli(*args)
        assert (proc.returncode, proc.stdout, timing_free(proc.stderr)) == (
            here.returncode, here.stdout, timing_free(here.stderr)), args
        assert proc.returncode == {"verify-all": 0, "check-cosheaf": 1}.get(args[0], 2)


def test_repeated_in_process_calls_match_the_first():
    """cli.main builds its parser once per process: each argument tuple,
    run again after the others, gives the same exit code, stdout and
    stderr (timing aside), and after a successful call --help still exits
    0 with the help on stdout and a bad command line 2 with the usage on
    stderr."""
    def outcome(args):
        done = run_cli(*args)
        return done.returncode, done.stdout, timing_free(done.stderr)

    first = [outcome(args) for args in ENTRY_POINT_ARGS]
    assert [outcome(args) for args in ENTRY_POINT_ARGS] == first
    assert [code for code, _, _ in first] == [0, 1, 2, 2]
    helped = run_cli("--help")
    assert (helped.returncode, helped.stderr) == (0, "")
    assert helped.stdout.startswith("usage: catmeas") and "--exhaustive" in helped.stdout
    bad = run_cli(*ENTRY_POINT_ARGS[3])
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("usage: catmeas") and "invalid choice: 'frobnicate'" in bad.stderr
    assert outcome(ENTRY_POINT_ARGS[0]) == first[0]


# -- rationals and structured output ------------------------------------------------

@pytest.mark.parametrize("text", ["0", "-0", "007/010", "3/6", "-12/8", "1/0", "0/0", "3/-2",
                                  " 1/2 ", "1/2\n", "1.5", "1e3", "+3", "1_000", "٣", "²",
                                  "", "-", "--1", "/2", "1/", "12345678901234567890/3",
                                  "007/3", "1/00", "x", "٣/٤", "-1/٣"])
def test_rationals_parse_as_fraction_does(text):
    """The plain form skips Fraction's parser; every string still gives
    Fraction's value, or the bad-rational code at the same path, on the
    cold call and on the second, which the cache serves."""
    cli._plain_rational.cache_clear()
    for _ in range(2):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ModelError) as err:
                cli.parse_rational(text, "measures.mu.values.a")
            assert (err.value.code, err.value.path) == ("bad-rational", "measures.mu.values.a")
        else:
            got = cli.parse_rational(text, "measures.mu.values.a")
            assert type(got) is Fraction and got == want
    assert cli._plain_rational.cache_info()[:2] == (1, 1)  # (hits, misses)


def test_bad_rationals_keep_code_and_path_after_good_ones_are_cached():
    cli.parse_rational("1/2", "measures.mu.values.a")
    cli.parse_rational("1", "measures.mu.values.a")
    for text in ("1/0", "1/00", "x"):
        with pytest.raises(ModelError) as err:
            cli.parse_rational(text, "spaces.V.weights[0]")
        assert (err.value.code, err.value.path) == ("bad-rational", "spaces.V.weights[0]")


def as_json_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def emitted(report, fmt):
    out = io.StringIO()
    cli.emit_report(report, fmt, out)
    return out.getvalue()


def dense(value):
    """The value with each LinMap in it formatted by the dense oracle."""
    if isinstance(value, LinMap):
        return show_matrix_by_dense_rows(value)
    if isinstance(value, dict):
        return {k: dense(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [dense(v) for v in value]
    return value


def structured(payload):
    report = cli.Report("stone", 0, False)
    report.payload = payload
    return emitted(report, "structured")


def text(payload):
    """The text report whose one result is the payload."""
    report = cli.Report("stone", 0, False)
    report.result("x", payload)
    return emitted(report, "text")


def as_text(payload):
    return f"command: stone  (seed 0)\n  x = {json.dumps(payload, sort_keys=True)}\n"


def test_structured_reports_are_json_dumps_byte_for_byte():
    """With each matrix expanded by the dense oracle."""
    checked = 0
    for model in ("reference", "broken_cosheaf"):
        parsed = cli.parse_model(str(MODELS / f"{model}.json"))
        for command in cli.DISPATCH:
            try:
                report = cli.run(command, parsed, 7, False, None)
            except ModelError:  # fubini on broken_cosheaf exits 2
                continue
            assert emitted(report, "structured") == as_json_dumps(dense(report.payload))
            checked += 1
    assert checked == 2 * len(cli.DISPATCH) - 1


def seeded_linmap(rng, rows, cols):
    """A rows x cols map whose entries are zero about half the time, else
    signed integers and fractions; some rows are all zero."""
    def entry():
        if rng.random() < 0.5:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7]))

    matrix = [[entry() if rng.random() < 0.7 else Fraction(0) for _ in range(cols)]
              if rng.random() < 0.8 else [Fraction(0)] * cols for _ in range(rows)]
    return LinMap.from_matrix(sum_space([f"s{j}" for j in range(cols)]),
                              sum_space([f"t{i}" for i in range(rows)]), matrix)


MATRICES = (seeded_linmap(random.Random(1), 2, 3), seeded_linmap(random.Random(2), 0, 4),
            seeded_linmap(random.Random(3), 4, 0), seeded_linmap(random.Random(4), 3, 3))


def test_sparse_rows_format_as_the_dense_oracle():
    rng = random.Random(30)
    maps = [seeded_linmap(rng, rng.randint(0, 6), rng.randint(0, 6)) for _ in range(300)]
    maps += [*MATRICES, LinMap.zero(sum_space(["a", "b"]), sum_space(["c"]))]
    assert any(not m.source.dim for m in maps) and any(not m.target.dim for m in maps)
    assert any(x < 0 for m in maps for row in m.rows for _, x in row)
    assert any(x.denominator > 1 for m in maps for row in m.rows for _, x in row)
    assert any(m.rows and not all(m.rows) for m in maps)
    for m in maps:
        assert cli.show_matrix(m) == show_matrix_by_dense_rows(m)


@pytest.mark.parametrize("payload", [
    {}, [], "", 0, None, True, {"a": {}, "b": [], "c": [[]], "d": [{}]},
    {"quote": 'say "hi"', "back\\slash": "a\\b\\", "\u00fcn\u00efcode": "\u00e7\u20ac\U0001d11e",
     "control": "\t\n\x00\x7f", "/": "</script>"},
    [1, -2, 0, 10 ** 30, True, False, None, "x"],
    [["a", "b"], ["c"], [], [["d", 1]], {"z": ["y"], "a": [None]}],
    {"z": 1, "a": 2, "m": {"y": [], "b": {"x": "w"}}},
    ("a", ("b", 1)), {2: "two", -1: "minus one", 10: []}, {True: 1}, {None: 0},
    [1.5, -0.0, float("inf"), float("nan")], {1.5: "x"},
    MATRICES[0], list(MATRICES), {"m": MATRICES[3], "rest": {"a": MATRICES[1], "b": MATRICES[2]}},
    ["a", MATRICES[0], "b"], [["x"], (MATRICES[3], [MATRICES[0]])]])
def test_the_writer_matches_json_dumps(payload):
    """Both formats, with each matrix expanded by the dense oracle."""
    assert structured(payload) == as_json_dumps(dense(payload))
    assert text(payload) == as_text(dense(payload))


class Writes(list):
    """A stream that keeps each write."""
    write = list.append


@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_each_format_is_written_once_per_matrix(fmt):
    maps = [MATRICES[0], MATRICES[3]]
    report = cli.Report("stone", 0, False)
    report.result("x", maps)
    writes = Writes()
    cli.emit_report(report, fmt, writes)
    want = as_json_dumps(dense(report.payload)) if fmt == "structured" else as_text(dense(maps))
    assert len(writes) == 3 and "".join(writes) == want


@pytest.mark.parametrize("payload", [
    {"x": [Fraction(1, 2)]}, {"results": {"s": {1, 2}}}, [b"bytes"], {("t",): 1}, {1: 1, "a": 2},
    ["a", Fraction(1, 2)], {"a": MATRICES[0], "b": [MATRICES[3], {1, 2}]}])
def test_the_writer_rejects_what_json_dumps_rejects(payload):
    """Both formats, with each matrix expanded by the dense oracle."""
    for emit, dumps in ((structured, as_json_dumps), (text, as_text)):
        with pytest.raises(TypeError) as want:
            dumps(dense(payload))
        with pytest.raises(TypeError) as got:
            emit(payload)
        assert str(got.value) == str(want.value)


def test_a_fraction_in_a_report_exits_three(monkeypatch):
    def leaky(model, report, *_):
        report.result("q", Fraction(1, 2))

    monkeypatch.setitem(cli.DISPATCH, "stone", leaky)
    out = run_cli("stone", "--model", str(MODELS / "reference.json"), "--format", "structured")
    assert (out.returncode, out.stdout, out.stderr) == (
        3, "", "internal error: TypeError: Object of type Fraction is not JSON serializable\n")


@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_a_fraction_after_a_matrix_exits_three_with_nothing_on_stdout(monkeypatch, fmt):
    """The writer raises before its first byte, though the matrix that
    sorts first is only formatted when it is written."""
    def leaky(model, report, *_):
        report.result("a", MATRICES[3])
        report.result("m", [MATRICES[0], {"r": Fraction(1, 2)}])

    monkeypatch.setitem(cli.DISPATCH, "stone", leaky)
    out = run_cli("stone", "--model", str(MODELS / "reference.json"), "--format", fmt)
    assert (out.returncode, out.stdout, out.stderr) == (
        3, "", "internal error: TypeError: Object of type Fraction is not JSON serializable\n")


def write_model(tmp_path, payload, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.mark.parametrize("command, seed, count", [("spectral", 0, 6), ("integrate-morphism", 2, 1)])
def test_a_zero_atom_fiber_fails_no_norm_verdict(tmp_path, command, seed, count):
    """mu(a) = 0 gives the l1 cosheaf a zero fiber at a, so f(a) does not
    reach the norm of f's action or integral; these seeds draw f with
    |f(a)| > |f(b)|, which the sup norm of f took for the norm."""
    path = write_model(tmp_path, {
        "algebra": {"atoms": ["a", "b"]},
        "measures": {"mu": {"values": {"a": "0", "b": "1/2"}}},
        "cosheaves": {"l": "l1-of:mu"}})
    done = run_cli(command, "--model", path, "--seed", str(seed), "--format", "structured")
    verdicts = json.loads(done.stdout)["verdicts"]
    assert done.returncode == 0
    assert len(verdicts) == count and all(v["ok"] for v in verdicts.values())


def test_minimal_model_parses(tmp_path):
    path = write_model(tmp_path, {
        "algebra": {"atoms": ["a"]},
        "measures": {"mu": {"target": "scalar", "values": {"a": "1"}}}})
    model = cli.parse_model(path)
    assert model.algebra.n == 1


def test_rational_round_trip(tmp_path):
    path = write_model(tmp_path, {
        "algebra": {"atoms": ["a"]},
        "measures": {"mu": {"target": "scalar", "values": {"a": "1/3"}}}})
    model = cli.parse_model(path)
    assert model.measures["mu"].atom_values[0][0] == Fraction(1, 3)
    assert cli.show_rational(Fraction(1, 3)) == "1/3"


def test_dangling_reference_has_distinct_code(tmp_path):
    path = write_model(tmp_path, {
        "algebra": {"atoms": ["a"]},
        "cosheaves": {"c": "l1-of:nope"}})
    with pytest.raises(ModelError) as err:
        cli.parse_model(path)
    assert err.value.code == "unresolved-reference"
    assert "cosheaves.c" in err.value.path


def test_syntax_error_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ModelError) as err:
        cli.parse_model(str(p))
    assert err.value.code == "syntax-error"


def test_json_boolean_is_not_a_rational(tmp_path):
    path = write_model(tmp_path, {
        "algebra": {"atoms": ["a", "b"]},
        "measures": {"mu": {"target": "scalar", "values": {"a": "1", "b": True}}}})
    with pytest.raises(ModelError) as err:
        cli.parse_model(path)
    assert err.value.code == "bad-rational"
    out = run_cli("variation", "--model", path)
    assert out.returncode == 2
    assert "bad-rational" in out.stderr and "measures.mu.values.b" in out.stderr
    assert "Traceback" not in out.stderr


# a declared line L, and L at the points x and y
LINE = {"algebra": {"atoms": ["a"]}, "spaces": {"L": "scalar"}}
AT_XY = {"x": "L", "y": "L", "x:x": "L", "y:x": "L", "x:y": "L"}
# two atoms carrying a measure mu, for the (co)sheaf declarations
AB = {"algebra": {"atoms": ["a", "b"]},
      "measures": {"mu": {"values": {"a": "1", "b": "1"}}}}


@pytest.mark.parametrize("payload, code, where", [
    ({"algebra": {"product": {"left": ["a"]}}}, "bad-algebra", "algebra.product.right"),
    ({"algebra": {"atoms": ["a"]}, "measures": {"m": "oops"}}, "bad-measure", "measures.m"),
    ({"algebra": {"atoms": "ab"}}, "bad-algebra", "algebra.atoms"),
    ({"algebra": {"atoms": ["a"]}, "spaces": []}, "bad-space", "spaces"),
    ({"algebra": {"atoms": ["a"]}, "measures": {"m": {"values": "abc"}}},
     "bad-measure", "measures.m.values"),
    ({"algebra": {"ground": [1, 2], "generators": 5}}, "bad-algebra", "algebra.generators"),
    ({"algebra": {"ground": [1, 2], "generators": [5]}}, "bad-algebra", "algebra.generators"),
    ({"algebra": {"ground": 5, "generators": []}}, "bad-algebra", "algebra.ground"),
    ({"algebra": {"atoms": ["a"]}, "bundles": []}, "bad-bundle", "bundles"),
    ({"algebra": {"atoms": ["a"]}, "functor_matrices": []}, "bad-matrix", "functor_matrices"),
    ({"algebra": {"atoms": ["a"]}, "cosheaves": []}, "bad-cosheaf", "cosheaves"),
    ({"algebra": {"atoms": ["a"]}, "sheaves": []}, "bad-sheaf", "sheaves"),
    ({**LINE, "bundles": {"B": {"base": "xy", "fibers": AT_XY}}},
     "bad-bundle", "bundles.B.base"),
    ({"algebra": {"atoms": ["a"]}, "bundles": {"B": 5}}, "bad-bundle", "bundles.B"),
    ({**LINE, "functor_matrices": {"T": {"source": "xy", "target": ["x"], "entries": AT_XY}}},
     "bad-matrix", "functor_matrices.T.source"),
    ({**LINE, "functor_matrices": {"T": {"source": ["x"], "target": "xy", "entries": AT_XY}}},
     "bad-matrix", "functor_matrices.T.target"),
    ({"algebra": {"atoms": ["a"]}, "functor_matrices": {"T": 5}},
     "bad-matrix", "functor_matrices.T"),
    ({**LINE, "bundles": {"B": {"base": ["x", "x"], "fibers": AT_XY}}},
     "bad-bundle", "bundles.B"),
    ({**LINE, "functor_matrices": {"T": {"source": ["x"], "target": ["y"],
                                         "entries": {"x:y": {"dim": 1, "flavor": "sup"}}}}},
     "bad-matrix", "functor_matrices.T"),
    ({**LINE, "functor_matrices": {"T": {"source": ["x", "x"], "target": ["y"],
                                         "entries": AT_XY}}},
     "bad-matrix", "functor_matrices.T"),
    ({**LINE, "functor_matrices": {"T": {"source": ["x"], "target": ["y", "y"],
                                         "entries": AT_XY}}},
     "bad-matrix", "functor_matrices.T"),
    ({"algebra": {"ground": [1, 2], "generators": [[3]]}}, "bad-algebra", "algebra.generators"),
    ({"algebra": {"ground": [1, "1"], "generators": [[1]]}}, "bad-algebra", "algebra.ground"),
    ({"algebra": {"ground": [1, 2, "1|2"], "generators": [[1, 2]]}},
     "bad-algebra", "algebra.ground"),
    ({"algebra": {"ground": ["x", "x:y"], "generators": [["x"]]},
      "spaces": {"V": {"basis": ["z", "y:z"]}}, "cosheaves": {"c": "constant-of:V"}},
     "bad-algebra", "algebra.ground"),
    ({"algebra": {"atoms": ["a", "a"]}}, "bad-algebra", "algebra.atoms"),
    ({"algebra": {"product": {"left": ["a", "a"], "right": ["u"]}}},
     "bad-algebra", "algebra.product.left"),
    ({"algebra": {"product": {"left": ["a"], "right": ["u", "u"]}}},
     "bad-algebra", "algebra.product.right"),
    ({"algebra": {"atoms": ["a"]}, "spaces": {"B": {"basis": ["x", "x"]}}},
     "bad-space", "spaces.B"),
    ({"algebra": {"atoms": ["a"]}, "spaces": {"B": {"basis": "xy"}}}, "bad-space", "spaces.B"),
    ({"algebra": {"atoms": ["a"]}, "cosheaves": {"c": {
        "spaces": {"": {"dim": 0}, "a": "scalar"}, "extensions": {"<a": []}}}},
     "bad-cosheaf", "cosheaves.c.extensions.<a"),
    ({"algebra": {"atoms": ["a"]}, "cosheaves": {"c": {
        "spaces": {"": {"dim": 0}, "a": "scalar"}, "extensions": {"<a": 5}}}},
     "bad-cosheaf", "cosheaves.c.extensions.<a"),
    ({"algebra": {"atoms": ["a"]}, "cosheaves": {"c": {
        "spaces": {"": {"dim": 0}, "a": "scalar"}, "extensions": 5}}},
     "bad-cosheaf", "cosheaves.c.extensions"),
    ({"algebra": {"atoms": ["a", "b"]}, "cosheaves": {"c": {
        "spaces": {"": {"dim": 0}, "a": "scalar", "b": "scalar", "a|b": "scalar"},
        "extensions": {"<a": [[]], "<b": [[]], "a<a|b": [["2"]], "b<a|b": [["1"]]}}}},
     "bad-cosheaf", "cosheaves.c"),
    ({"algebra": {"atoms": ["a"]}, "cosheaves": {"c": {
        "spaces": {"": {"dim": 0}, "a": "nope"}, "extensions": {"<a": [[]]}}}},
     "unresolved-reference", "cosheaves.c"),
    ({"algebra": {"atoms": ["a"]}, "measures": {"m": {"target": 5, "values": {"a": "1"}}}},
     "bad-space", "measures.m"),
    ({"algebra": {"atoms": ["a"]}, "measures": {"m": {"target": {"flavor": "max"},
                                                      "values": {"a": "1"}}}},
     "bad-space", "measures.m"),
    ({**AB, "measures": {"mu": {"values": {"a": "1", "b": "-1"}}},
      "cosheaves": {"c": "l1-of:mu"}}, "bad-cosheaf", "cosheaves.c"),
    ({**AB, "measures": {"mu": {"target": {"dim": 2}, "values": {"a": ["1", "0"],
                                                               "b": ["0", "1"]}}},
      "cosheaves": {"c": "l1-of:mu"}}, "bad-cosheaf", "cosheaves.c"),
    ({"algebra": {"product": {"left": ["a"], "right": ["u"]}},
      "measures": {"mu": {"on": "left", "values": {"a": "1"}}},
      "cosheaves": {"c": "l1-of:mu"}}, "bad-cosheaf", "cosheaves.c"),
    ({**AB, "cosheaves": {"c": "constant-of:V"}}, "unresolved-reference", "cosheaves.c"),
    ({**AB, "cosheaves": {"c": "sum-of:mu"}}, "bad-cosheaf", "cosheaves.c"),
    ({**AB, "sheaves": {"s": "characteristic:a|z"}}, "unresolved-reference", "sheaves.s"),
    ({**AB, "sheaves": {"s": "l1-of:mu"}}, "bad-sheaf", "sheaves.s"),
    ({**AB, "measures": {"mu": {"on": "middle", "values": {"a": "1", "b": "1"}}}},
     "bad-reference", "measures.mu.on"),
    ({**AB, "measures": {"mu": {"on": ["left"], "values": {"a": "1", "b": "1"}}}},
     "bad-reference", "measures.mu.on"),
    ({**AB, "measures": {"mu": {"on": "left", "values": {"a": "1", "b": "1"}}}},
     "unresolved-reference", "measures.mu.on"),
    ({**AB, "measures": {"mu": {"target": {"dim": 2}, "values": {"a": ["1", "0"],
                                                               "b": ["1"]}}}},
     "bad-measure", "measures.mu.values.b"),
    ({**AB, "spaces": {"V": {"dim": True}},
      "measures": {"mu": {"target": "V", "values": {"a": ["1"], "b": ["1"]}}}},
     "bad-space", "spaces.V"),
], ids=["product-without-right", "measure-as-string", "atoms-as-string",
        "spaces-as-list", "measure-values-as-string", "generators-as-number",
        "generator-as-number", "ground-as-number", "bundles-as-list",
        "functor-matrices-as-list", "cosheaves-as-list", "sheaves-as-list",
        "bundle-base-as-string", "bundle-as-number", "matrix-source-as-string",
        "matrix-target-as-string", "matrix-as-number", "duplicate-bundle-base",
        "sup-matrix-entry", "duplicate-matrix-source", "duplicate-matrix-target",
        "generator-outside-ground",
        "ground-labels-collide", "ground-cell-labels-collide", "ground-point-with-colon",
        "duplicate-atoms", "duplicate-left-atoms", "duplicate-right-atoms",
        "duplicate-basis-labels", "basis-as-string", "extension-of-wrong-shape",
        "extension-as-number", "extensions-as-number", "extension-of-norm-two",
        "cosheaf-space-undeclared", "measure-target-as-number",
        "measure-target-bad-descriptor", "l1-of-negative-measure", "l1-of-vector-measure",
        "l1-of-measure-on-a-factor", "constant-of-undeclared-space",
        "unknown-cosheaf-keyword", "characteristic-of-unknown-atom",
        "sheaf-not-characteristic", "measure-on-unknown-algebra",
        "measure-on-as-list", "measure-on-absent-factor",
        "measure-value-of-wrong-length", "space-dim-as-boolean"])
def test_malformed_section_exits_two_with_code_and_path(tmp_path, payload, code, where):
    out = run_cli("variation", "--model", write_model(tmp_path, payload))
    assert out.returncode == 2
    assert code in out.stderr and f"(at {where})" in out.stderr
    assert "Traceback" not in out.stderr


def test_space_references_resolve_alike(tmp_path):
    """The name "scalar" and inline descriptors resolve wherever a space
    is referred to."""
    path = write_model(tmp_path, {
        "algebra": {"atoms": ["a"]},
        "measures": {"m": {"target": {"basis": ["p", "q"]}, "values": {"a": ["1", "2"]}}},
        "bundles": {"B": {"base": ["x"], "fibers": {"x": "scalar"}}},
        "functor_matrices": {"T": {"source": ["x"], "target": ["y"],
                                   "entries": {"x:y": "scalar"}}},
        "cosheaves": {"c": "constant-of:scalar"}})
    model = cli.parse_model(path)
    assert model.measures["m"].target.dim == 2
    assert model.bundles["B"].fiber("x").dim == 1
    assert model.matrices["T"].entries[("x", "y")].dim == 1
    assert model.cosheaves["c"].space(1).dim == 1


def test_non_positive_weight_code(tmp_path):
    path = write_model(tmp_path, {
        "algebra": {"atoms": ["a"]},
        "spaces": {"B": {"flavor": "sum", "basis": ["x"], "weights": ["0"]}}})
    with pytest.raises(ModelError) as err:
        cli.parse_model(path)
    assert err.value.code == "non-positive-weight"


def test_structured_output_is_byte_stable():
    a = run_cli("verify-all", "--model", str(MODELS / "reference.json"),
                "--seed", "7", "--format", "structured")
    b = run_cli("verify-all", "--model", str(MODELS / "reference.json"),
                "--seed", "7", "--format", "structured")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert "elapsed" not in a.stdout  # timing stays out of the report
    payload = json.loads(a.stdout)
    assert payload["command"] == "verify-all"


def test_no_floats_anywhere_in_reports():
    out = run_cli("verify-all", "--model", str(MODELS / "reference.json"),
                  "--seed", "3", "--format", "structured")
    payload = json.loads(out.stdout)

    def walk(x):
        assert not isinstance(x, float)
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        if isinstance(x, list):
            for v in x:
                walk(v)

    walk(payload)


def test_broken_fixture_exits_one_with_partition():
    out = run_cli("verify-all", "--model", str(MODELS / "broken_cosheaf.json"),
                  "--seed", "1", "--format", "structured")
    assert out.returncode == 1
    payload = json.loads(out.stdout)
    verdict = payload["verdicts"]["cosheaf[bad]"]
    assert verdict["ok"] is False
    assert verdict["detail"]["blocks"] == [["a"], ["b"]]


def line_cosheaf_model(atoms, sup_at):
    """A cosheaf named m on the given atoms whose value at each element is
    a unit line, sup-normed at the elements `sup_at` picks and sum-normed
    elsewhere, every extension [[1]]."""
    omega = BoolAlg(tuple(atoms))
    name = {e: "|".join(omega.atoms_below(e)) for e in omega.elements()}
    spaces = {name[e]: "L" if sup_at(name[e]) else "S" for e in omega.elements()}
    extensions = {}
    for e in omega.elements():
        for i in range(omega.n):
            if not e >> i & 1:
                extensions[f"{name[e]}<{name[e | 1 << i]}"] = [["1"]]
    return {"algebra": {"atoms": list(atoms)},
            "spaces": {"S": {"flavor": "sum", "basis": ["e"], "weights": ["1"]},
                       "L": {"flavor": "sup", "basis": ["e"], "weights": ["1"]}},
            "cosheaves": {"m": {"spaces": spaces, "extensions": extensions}}}


@pytest.mark.parametrize("command", ["check-cosheaf", "verify-all"])
def test_a_split_into_blocks_of_two_flavors_exits_two(tmp_path, command):
    """A sup line at b and sum lines elsewhere: the split {a, b} sums a
    sum line and a sup line, which no direct sum can."""
    model = write_model(tmp_path, line_cosheaf_model(["a", "b"], lambda e: e == "b"))
    out = run_cli(command, "--model", model, "--seed", "1", "--format", "structured")
    assert (out.returncode, out.stdout, out.stderr) == (
        2, "", "error: direct_sum needs a single flavor\n")


@pytest.mark.parametrize("command", ["check-cosheaf", "verify-all"])
def test_a_failing_split_before_any_mixed_one_exits_one(tmp_path, command):
    """Sum lines below a|b and sup lines from c up: the split {a, b} of
    a|b, two lines onto one, fails before any split meets both flavors."""
    model = write_model(tmp_path, line_cosheaf_model(["a", "b", "c"], lambda e: "c" in e))
    out = run_cli(command, "--model", model, "--seed", "1", "--format", "structured")
    assert out.returncode == 1, out.stderr
    verdict = json.loads(out.stdout)["verdicts"]["cosheaf[m]"]
    assert verdict == {"ok": False, "detail": {"element": ["a", "b"],
                                               "blocks": [["a"], ["b"]]}}


def test_unknown_command_exits_two():
    out = run_cli("frobnicate", "--model", str(MODELS / "reference.json"))
    assert out.returncode == 2


def test_missing_model_exits_two(tmp_path):
    out = run_cli("stone", "--model", str(tmp_path / "absent.json"))
    assert out.returncode == 2


@pytest.mark.parametrize("kind, code", [("directory", "unreadable-file"),
                                        ("utf16-bom", "syntax-error")])
def test_unreadable_model_exits_two(tmp_path, kind, code):
    """A model path that is a directory, or a file that does not decode
    as text, is an input error with its code and path, not an internal
    error."""
    path = tmp_path / "m.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    out = run_cli("stone", "--model", str(path))
    assert out.returncode == 2
    assert code in out.stderr and f"(at {path})" in out.stderr
    assert "internal error" not in out.stderr


def test_every_command_runs_on_reference():
    for command in cli.COMMANDS:
        out = run_cli(command, "--model", str(MODELS / "reference.json"),
                      "--seed", "2")
        assert out.returncode == 0, (command, out.stderr)


def test_fubini_renders_witness_matrices():
    out = run_cli("fubini", "--model", str(MODELS / "reference.json"),
                  "--format", "structured")
    payload = json.loads(out.stdout)
    witness = payload["results"]["l1_tensor_witness"]
    assert witness["forward"] and witness["backward"]


def test_element_flag():
    out = run_cli("variation", "--model", str(MODELS / "reference.json"),
                  "--element", "a*u|b*v", "--format", "structured")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert "variation[pi]" in payload["results"]


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("command", ["partitions", "variation", "semivariation", "integrate",
                                     "integrate-morphism"])
def test_an_absent_element_reads_as_top(command, fmt):
    args = (command, "--model", str(MODELS / "reference.json"), "--seed", "7", "--format", fmt)
    absent, top = run_cli(*args), run_cli(*args, "--element", "top")
    assert absent.returncode == top.returncode == 0, absent.stderr
    assert absent.stdout == top.stdout


SUP_FIBERS = {"algebra": {"atoms": ["a", "b"]}, "spaces": {"W": {"flavor": "sup", "dim": 2}},
              "cosheaves": {"k": "constant-of:W"}}


@pytest.mark.parametrize("command, model, extra, code, where", [
    ("partitions", None, ("--element", "bottom"), "bad-element", "--element"),
    ("cosheafify", SUP_FIBERS, (), "bad-command", "cosheaves.k"),
], ids=["partitions-of-bottom", "cosheafify-of-sup-atom-fibers"])
def test_an_input_the_command_cannot_take_exits_two_with_code_and_path(
        tmp_path, command, model, extra, code, where):
    path = str(MODELS / "reference.json") if model is None else write_model(tmp_path, model)
    out = run_cli(command, "--model", path, *extra)
    assert (out.returncode, out.stdout) == (2, "")
    assert code in out.stderr and f"(at {where})" in out.stderr


@pytest.mark.parametrize("command, code, digest", [
    ("check-cosheaf", 1, "8c06222b1636ef3d67a225eb312447362d9970cd98296b16b98707059ef96484"),
    ("spectral", 1, "77fcbb826abecc690c147fc0e71b5e8fb3dcff8dac97543c0e2855fed0c599b1"),
    ("isbell", 0, "336dedc39a8a3c6503598e2ea112847ecf6be3bcb176e6cfd20093ef62744035"),
    ("verify-all", 1, "06b5ed20c15e8852266c87c7acdd451658533807b25d2ade60671f6102cd2dda"),
])
def test_other_commands_on_sup_atom_fibers_keep_their_reports(tmp_path, command, code, digest):
    """Only cosheafify needs SUM atom fibers: the other cosheaf commands
    report on such a cosheaf as before (text format, seed 7)."""
    out = run_cli(command, "--model", write_model(tmp_path, SUP_FIBERS), "--seed", "7")
    assert (out.returncode, hashlib.sha256(out.stdout.encode()).hexdigest()) == (code, digest)


def product_model(measures):
    return {"algebra": {"product": {"left": ["a"], "right": ["u"]}}, "measures": measures}


NU = {"on": "right", "values": {"u": "1"}}
NEGATIVE = {"on": "left", "values": {"a": "-1"}}
VECTOR = {"on": "left", "target": {"dim": 2}, "values": {"a": ["1", "1"]}}


@pytest.mark.parametrize("measures", [
    {"mu": NEGATIVE, "nu": NU},
    {"mu": VECTOR, "nu": NU},
    {"nu": NU},
], ids=["negative-left", "vector-left", "right-only"])
def test_fubini_without_a_measure_algebra_on_a_factor(tmp_path, measures):
    """fubini needs a nonnegative scalar measure on each factor: without
    one it exits 2 at `measures`, and verify-all reports without it."""
    path = write_model(tmp_path, product_model(measures))
    out = run_cli("fubini", "--model", path)
    assert (out.returncode, out.stdout) == (2, "")
    assert "bad-command" in out.stderr and "(at measures)" in out.stderr
    out = run_cli("verify-all", "--model", path, "--format", "structured")
    assert out.returncode == 0, out.stderr
    assert "iterated_integrals_agree" not in json.loads(out.stdout)["verdicts"]


def test_fubini_takes_the_first_measure_algebra_on_each_factor(tmp_path):
    """A negative or vector measure that sorts first is passed over."""
    good = {"on": "left", "values": {"a": "1/2"}}
    alone = run_cli("fubini", "--model", write_model(tmp_path, product_model(
        {"mu": good, "nu": NU}), "alone.json"), "--seed", "3")
    behind = run_cli("fubini", "--model", write_model(tmp_path, product_model(
        {"m0": NEGATIVE, "m1": VECTOR, "mu": good, "nu": NU}), "behind.json"), "--seed", "3")
    assert alone.returncode == behind.returncode == 0, behind.stderr
    assert behind.stdout == alone.stdout


def test_exhaustive_flag_on_cosheaf_check():
    out = run_cli("check-cosheaf", "--model", str(MODELS / "broken_cosheaf.json"),
                  "--exhaustive")
    assert out.returncode == 1


def test_generated_algebra_model(tmp_path):
    path = write_model(tmp_path, {
        "algebra": {"ground": [1, 2, 3], "generators": [[1, 2], [2, 3]]}})
    model = cli.parse_model(path)
    assert model.algebra.n == 3


def test_element_names_a_generated_atom_with_a_bar(tmp_path):
    path = write_model(tmp_path, {
        "algebra": {"ground": [1, 2, 3], "generators": [[1, 2]]},
        "measures": {"mu": {"target": "scalar", "values": {"1|2": "1", "3": "2"}}}})
    for element, value in (("1|2", "1"), ("1|2|3", "3"), ("3|1|2", "3"), ("3", "2")):
        out = run_cli("variation", "--model", path, "--element", element,
                      "--format", "structured")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["results"]["variation[mu]"] == value
    # the labels in reports are the generated ones, unchanged
    out = run_cli("partitions", "--model", path, "--format", "structured")
    assert "1|2" in out.stdout
    missing = run_cli("variation", "--model", path, "--element", "2|1")
    assert missing.returncode == 2 and "no atom '2'" in missing.stderr


def test_an_atom_label_wins_over_the_element_keywords(tmp_path):
    """A string that is exactly an atom label names that atom; otherwise
    'top', 'bottom', '0' and '' keep their meaning."""
    generated = write_model(tmp_path, {
        "algebra": {"ground": [0, 1], "generators": [[0]]},
        "measures": {"mu": {"target": "scalar", "values": {"0": "1", "1": "2"}}}}, "g.json")
    named = write_model(tmp_path, {
        "algebra": {"atoms": ["top", "bottom"]},
        "measures": {"mu": {"target": "scalar", "values": {"top": "1", "bottom": "2"}}}},
        "n.json")
    for path, element, value in ((generated, "0", "1"), (generated, "bottom", "0"),
                                 (generated, "", "0"), (generated, "top", "3"),
                                 (named, "top", "1"), (named, "bottom", "2"),
                                 (named, "0", "0"), (named, "top|bottom", "3")):
        out = run_cli("variation", "--model", path, "--element", element,
                      "--format", "structured")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["results"]["variation[mu]"] == value, (path, element)


def test_text_and_structured_agree_on_content():
    text = run_cli("stone", "--model", str(MODELS / "reference.json"))
    structured = run_cli("stone", "--model", str(MODELS / "reference.json"),
                         "--format", "structured")
    payload = json.loads(structured.stdout)
    for point in payload["results"]["points"]:
        assert point in text.stdout
    for key, v in payload["verdicts"].items():
        assert key in text.stdout
        assert ("[ok]" if v["ok"] else "[FAIL]") in text.stdout


# -- the Stone verdict against the 4^n pair loop --------------------------------

def stone_pair_loop(omega, fwd, bwd):
    """The round trip on every element, and fwd preserving meets and
    joins on every pair of elements."""
    elements = list(omega.elements())
    return all(bwd(fwd(e)) == e for e in elements) and all(
        fwd(e & f) == fwd(e) & fwd(f) and fwd(e | f) == fwd(e) | fwd(f)
        for e in elements for f in elements)


def stone_verdict(omega):
    model = cli.Model()
    model.algebra = omega
    return cli.run("stone", model, 0, False, None).payload["verdicts"]["stone_round_trip"]


def test_stone_verdict_agrees_with_the_pair_loop():
    for n in range(1, 7):
        omega = BoolAlg(tuple(f"x{i}" for i in range(n)))
        fwd, bwd = stone_space(omega).round_trip()
        assert stone_verdict(omega) == {"ok": stone_pair_loop(omega, fwd, bwd)} == {"ok": True}


def test_boolean_morphisms_reject_overlapping_atom_images():
    """Disjoint atom images are what make a BoolMorphism preserve meets,
    so they are the only way a map could fail the pair loop but not the
    round trip on atoms."""
    omega = BoolAlg(("a", "b", "c"))
    with pytest.raises(InvalidModel):
        BoolMorphism(omega, omega, (omega.element(["a", "b"]), omega.element(["b"]),
                                    omega.element(["c"])))


def test_stone_verdict_fails_with_a_witness_on_a_wrong_inverse(monkeypatch):
    omega = BoolAlg(("a", "b", "c"))
    honest = StoneSpace.round_trip

    def swapped(self):
        fwd, bwd = honest(self)
        images = list(bwd.atom_images)
        images[0], images[1] = images[1], images[0]
        return fwd, BoolMorphism(bwd.source, bwd.target, tuple(images))

    monkeypatch.setattr(StoneSpace, "round_trip", swapped)
    fwd, bwd = stone_space(omega).round_trip()
    assert not stone_pair_loop(omega, fwd, bwd)
    assert stone_verdict(omega) == {"ok": False, "detail": {"atom": "a", "got": ["b"]}}
    out = run_cli("stone", "--model", str(MODELS / "reference.json"))
    assert out.returncode == 1
    assert '[FAIL] stone_round_trip  {"atom": "a*u", "got": ["a*v"]}' in out.stdout


# -- the lift verdict against the 2^n element loop -------------------------------

def test_lift_verdict_agrees_with_the_element_loop(monkeypatch):
    """`integrate`'s lift_matches_measure, decided on atoms, against the
    check on every element, for random measures and for their lifts with
    one entry changed, so both outcomes occur."""
    rng = random.Random(9)
    targets = (sum_space(["u", "v"], ["1/2", "3"]), sup_space(["u", "v", "w"]))
    outcomes = []
    for _ in range(60):
        omega = BoolAlg(tuple(f"x{i}" for i in range(rng.randint(1, 5))))
        nu = random_vector_measure(rng, omega, rng.choice(targets))
        lift = integration_map(nu)
        if rng.random() < 0.5:
            dense = [list(row) for row in lift.matrix]
            i, j = rng.randrange(len(dense)), rng.randrange(omega.n)
            dense[i][j] += rng.choice([1, -2])
            lift = LinMap.from_matrix(lift.source, lift.target, dense)
        monkeypatch.setattr(cli, "integration_map", lambda _nu, lift=lift: lift)
        model = cli.Model()
        model.algebra, model.measures, model.measure_on = omega, {"nu": nu}, {"nu": "algebra"}
        verdict = cli.run("integrate", model, 0, False, None).payload["verdicts"]
        ok = lift_matches_by_elements(lift, nu)
        assert verdict["lift_matches_measure[nu]"] == {"ok": ok}
        outcomes.append(ok)
    assert set(outcomes) == {True, False}


# -- (co)sheaves built on first read ---------------------------------------------

BUILDERS = ("l1_cosheaf", "constant_precosheaf", "characteristic_sheaf")


def refuse_to_build(monkeypatch):
    """Makes building any keyword-declared (co)sheaf an internal error."""
    def refuse(*_):
        raise RuntimeError("built a (co)sheaf")

    for name in BUILDERS:
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("command", ["stone", "partitions", "variation", "semivariation",
                                     "lipschitz", "integrate", "bochner", "kan", "fubini",
                                     "bva"])
def test_atom_level_commands_build_no_cosheaf_or_sheaf(monkeypatch, command):
    refuse_to_build(monkeypatch)
    out = run_cli(command, "--model", str(MODELS / "reference.json"),
                  "--seed", "7", "--format", "structured")
    assert (out.returncode, hashlib.sha256(out.stdout.encode()).hexdigest()) == DIGESTS[
        ("reference", command)]


TWENTY_ATOMS = [f"a{i:02d}" for i in range(20)]


@pytest.mark.parametrize("command", ["variation", "semivariation", "stone"])
def test_a_twenty_atom_model_with_cosheaves_runs_atom_level_commands(
        tmp_path, monkeypatch, command):
    """Declaring a cosheaf and a sheaf of 2^20 elements costs an atom-level
    command nothing."""
    refuse_to_build(monkeypatch)
    path = write_model(tmp_path, {
        "algebra": {"atoms": TWENTY_ATOMS},
        "measures": {"mu": {"values": {a: "1" for a in TWENTY_ATOMS}}},
        "cosheaves": {"lam": "l1-of:mu"},
        "sheaves": {"s": "characteristic:a00|a19"}})
    out = run_cli(command, "--model", path)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("command, reads", [
    ("check-cosheaf", "cosheaves"), ("check-sheaf", "sheaves"), ("spectral", "cosheaves"),
    ("cosheafify", "cosheaves"), ("integrate-morphism", "cosheaves"), ("isbell", "both"),
    ("verify-all", "both")])
def test_each_cosheaf_and_sheaf_a_command_reads_is_built_once(
        tmp_path, monkeypatch, command, reads):
    """verify-all reads its cosheaves twice, in the condition check and
    for the spectral laws; the second read builds nothing."""
    calls = Counter()
    for name in BUILDERS:
        def counted(*args, name=name, build=getattr(cli, name)):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(cli, name, counted)
    path = write_model(tmp_path, {
        **AB, "cosheaves": {"lam": "l1-of:mu", "const": "constant-of:scalar"},
        "sheaves": {"s": "characteristic:a"}})
    out = run_cli(command, "--model", path)
    assert out.returncode in (0, 1), out.stderr
    cosheaves, sheaves = reads in ("cosheaves", "both"), reads in ("sheaves", "both")
    assert {name: calls[name] for name in BUILDERS} == {
        "l1_cosheaf": cosheaves, "constant_precosheaf": cosheaves,
        "characteristic_sheaf": sheaves}


# -- resource limits ------------------------------------------------------------

WIDE_SUM_MODEL = {
    "algebra": {"atoms": ["a", "b"]},
    "spaces": {"V": {"flavor": "sum", "basis": [f"v{i}" for i in range(17)],
                     "weights": ["1"] * 17}},
    "measures": {"nu": {"target": "V",
                        "values": {"a": ["1"] * 17, "b": ["-1/2"] + ["0"] * 16}}},
}


@pytest.mark.parametrize("command", ["semivariation", "integrate", "verify-all"])
def test_a_wide_sum_target_exits_two_too_large(tmp_path, command):
    """2^17 dual-ball vertices exceed the cap of 65536."""
    out = run_cli(command, "--model", write_model(tmp_path, WIDE_SUM_MODEL))
    assert out.returncode == 2
    assert "too-large" in out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""


TWELVE_ATOMS = [f"a{i:02d}" for i in range(12)]
TWELVE_ATOM_MODEL = {
    "algebra": {"atoms": TWELVE_ATOMS},
    "measures": {"mu": {"target": "scalar", "values": {a: "1" for a in TWELVE_ATOMS}}},
    "cosheaves": {"lam": "l1-of:mu"},
}


@pytest.mark.parametrize("args", [["partitions"], ["check-cosheaf", "--exhaustive"]],
                         ids=["partitions", "check-cosheaf-exhaustive"])
def test_twelve_atoms_exceed_the_partition_cap(tmp_path, args):
    """Bell(12) > 2^20: refused before any partition is enumerated (the
    exhaustive check would otherwise first walk every smaller element)."""
    out = run_cli(*args, "--model", write_model(tmp_path, TWELVE_ATOM_MODEL))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == ("error: too-large: an element of 12 atoms has Bell(12) "
                          "partitions, more than 1048576\n")


# -- internal errors --------------------------------------------------------------

def test_an_internal_error_exits_three_on_one_line(monkeypatch):
    def broken(*_):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.DISPATCH, "stone", broken)
    out = run_cli("stone", "--model", str(MODELS / "reference.json"))
    assert (out.returncode, out.stdout, out.stderr) == (
        3, "", "internal error: RuntimeError: boom\n")


def test_an_internal_error_exits_three_in_a_process_of_its_own():
    script = ("import sys\n"
              "from catmeas import cli\n"
              "def broken(*_):\n"
              "    raise RuntimeError('boom')\n"
              "cli.DISPATCH['stone'] = broken\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", script, "stone", "--model",
                           str(MODELS / "reference.json")], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "internal error: RuntimeError: boom\n")


@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path, fmt):
    """The reader takes 100 bytes of a report larger than a pipe's buffer
    and closes the pipe.  The run ends with 128 + SIGPIPE and nothing on
    stderr, and the interpreter's flush at exit does not fail again; the
    environment keeps stdout block-buffered."""
    atoms = [f"a{i}" for i in range(9)]
    model = write_model(tmp_path, {"algebra": {"atoms": atoms},
                                   "measures": {"mu": {"values": dict.fromkeys(atoms, "1/3")}},
                                   "cosheaves": {"c": "l1-of:mu"}})
    args = ("spectral", "--model", model, "--format", fmt)
    assert len(run_cli(*args).stdout) > 2 * PIPE_BUFFER
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([sys.executable, "-m", "catmeas.cli", *args], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        head = child.stdout.read(100)
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=60)
    assert (len(head), code, err) == (100, 141, b"")
