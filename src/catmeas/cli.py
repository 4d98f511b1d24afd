"""Command line front end: parse a model file, dispatch one command, and
emit an exact report.

Model files are JSON.  Rationals are always written as strings like
"2/3" or "5" (never floats), weights must be positive, and every name
reference must resolve; violations carry distinct error codes.  Parsing
validates every section, whatever the command; a keyword-declared
(co)sheaf (`l1-of:`, `constant-of:`, `characteristic:`), whose 2^n
elements only the (co)sheaf commands read, is built on the first call of
its cached builder (`Model`).  The structured output format is
stable-ordered, so identical inputs (model, command, seed, flags) produce
byte-identical output; timing information
therefore goes to stderr, never into a report.  It is the text of
`json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "))`
byte for byte, with each matrix read as its list of rows; each value in
a text line is json.dumps(value, sort_keys=True).  One writer,
`_write_json`, writes both layouts.  A report holds each matrix as its
`LinMap`, formatted from `LinMap.rows` only when it is written.  Both
formats are streamed: everything but the matrices is serialized before
the first byte is written, so a value json rejects still exits 3 with
nothing on stdout, and then the text is written one matrix at a time.
`main` builds its parser once per process, on its first call, so
repeated in-process calls pay for it once.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error, 141 (128 + SIGPIPE) stdout closed by its reader before the report
was written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import Any, Optional

from .boolalg import BoolAlg, Coproduct, build_algebra, coproduct, partitions_of, stone_space
from .errors import CatmeasError, InvalidModel, ModelError
from .finban import FinBanSpace, Flavor, LinMap, is_isometric_iso, operator_norm, scalars
from .measures import (MeasureAlgebra, VectorMeasure, lipschitz_norm,
                       semivariation, variation)
from .shcosh import (PreCosheaf, PreSheaf, bva_cosheaf, constant_precosheaf,
                     characteristic_sheaf, cosheafify, counit_is_natural, essential_sup,
                     integrate_simple_morphism, is_cosheaf, is_sheaf, l1_cosheaf,
                     make_precosheaf, random_cosheaf, spectral_measure, isbell,
                     isbell_adjoint)
from .simple import (SimpleElement, VectorSimpleElement, bochner, characteristic,
                     fubini, integrate, integration_map)
from . import bundles2v
from .finban import FinPoset


# ---------------------------------------------------------------------------
# rationals and rendering
# ---------------------------------------------------------------------------

def parse_rational(text: Any, path: str) -> Fraction:
    # bool is an int subclass, but JSON true/false are not numbers
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ModelError("bad-rational", f"rationals are strings like '2/3', got {text!r}", path)
    q = _plain_rational(text)
    if q is not None:
        return q
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ModelError("bad-rational", f"cannot parse rational {text!r}", path) from None


@lru_cache(maxsize=4096)
def _plain_rational(text: str) -> Optional[Fraction]:
    """The value of a string of the common form -?[0-9]+(/[0-9]+)? with a
    nonzero denominator, which skips Fraction's regex; None for every
    other string, which takes Fraction's full syntax.  Cached on the
    string, so a process parses each such rational once: a Fraction is
    immutable, so every reader may share it."""
    num, slash, den = text.partition("/")
    if _ascii_digits(num.removeprefix("-")) and (
            not slash or _ascii_digits(den) and den.strip("0")):
        return Fraction(int(num), int(den) if slash else 1)
    return None


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def show_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def show_vector(v) -> list[str]:
    return [show_rational(x) for x in v]


def show_matrix(m: LinMap) -> list[list[str]]:
    """The rows of m, each filled with "0" and formatted only at the
    nonzeros of `LinMap.rows`."""
    zeros = ["0"] * m.source.dim
    out = []
    for row in m.rows:
        cells = zeros.copy()
        for j, x in row:
            cells[j] = show_rational(x)
        out.append(cells)
    return out


# ---------------------------------------------------------------------------
# the model file
# ---------------------------------------------------------------------------

class Model:
    """Validated in-memory model.

    `parse_model` validates every section before any command runs.  The
    cosheaves and sheaves are dicts of zero-argument builders by name,
    each cached, so `model.cosheaves[name]()` builds a keyword-declared
    one on its first call and returns the same object after: a command
    that calls none (the atom-level measure calculus) never pays for 2^n
    elements.  Deferring
    `l1_cosheaf`, `constant_precosheaf` and `characteristic_sheaf` moves
    no error: parsing has resolved the measure of `l1-of:` and checked it
    is a nonnegative scalar measure on the main algebra, resolved the
    space of `constant-of:` and the element of `characteristic:`, and on
    such arguments these constructions cannot fail.  An explicit
    (object) cosheaf is assembled and checked at parse, since that check
    is its construction and its `bad-cosheaf` errors belong to parsing.
    """

    def __init__(self):
        self.algebra: Optional[BoolAlg] = None
        self.coproduct: Optional[Coproduct] = None
        self.spaces: dict[str, FinBanSpace] = {}
        self.measures: dict[str, VectorMeasure] = {}
        self.measure_on: dict[str, str] = {}
        self.cosheaves: dict[str, Callable[[], PreCosheaf]] = {}
        self.sheaves: dict[str, Callable[[], PreSheaf]] = {}
        self.bundles: dict[str, bundles2v.Bundle] = {}
        self.matrices: dict[str, bundles2v.FunctorMatrix] = {}

    def algebra_for(self, name: Any, path: str) -> BoolAlg:
        if name == "algebra":
            return self.algebra
        if name not in ("left", "right"):
            raise ModelError("bad-reference", f"unknown algebra {name!r}", path)
        if self.coproduct is None:
            raise ModelError("unresolved-reference", f"no {name!r} algebra in this model", path)
        return getattr(self.coproduct, name)


def _element(omega: BoolAlg, spec: str, path: str) -> int:
    """Atom-set expressions: 'a|b|c'; 'top'/'bottom'.

    A string that is exactly an atom label names that atom, even when it
    reads 'top', 'bottom' or '0'.  A generated atom is labelled by its
    ground points joined with '|' ('1|2'), so a string is read left to
    right, each time taking the longest run of '|'-separated parts that
    is a whole atom label.  Ground points have distinct labels, so when
    none of them contains '|' a part names the one atom that holds it and
    there is no other reading.
    """
    if spec in omega.atoms:
        return omega.atom_mask(spec)
    if spec == "top":
        return omega.top
    if spec in ("bottom", "0", ""):
        return 0
    parts = [s for s in spec.split("|") if s]
    names, i = [], 0
    while i < len(parts):
        j = next((j for j in range(len(parts), i, -1)
                  if "|".join(parts[i:j]) in omega.atoms), None)
        if j is None:
            raise ModelError("unresolved-reference", f"no atom {parts[i]!r}", path)
        names.append("|".join(parts[i:j]))
        i = j
    return omega.element(names)


def _space_from_descriptor(name: str, desc: Any, path: str) -> FinBanSpace:
    if desc == "scalar":
        return scalars()
    if not isinstance(desc, dict):
        raise ModelError("bad-space", f"space {name!r} must be an object", path)
    flavor = desc.get("flavor", "sum")
    if flavor not in ("sum", "sup"):
        raise ModelError("bad-space", f"flavor must be sum or sup, got {flavor!r}", path)
    basis = desc.get("basis")
    if basis is None:
        dim = desc.get("dim")
        # bool is an int subclass, but JSON true/false are not dimensions
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ModelError("bad-space", "a space needs a basis or a dim", path)
        basis = [f"{name}{i}" for i in range(dim)]
    if not _is_point_list(basis):
        raise ModelError("bad-space", "the basis is a list of labels", path)
    weights = desc.get("weights", ["1"] * len(basis))
    if not isinstance(weights, list) or len(weights) != len(basis):
        raise ModelError("bad-space", "one weight per basis label", path)
    ws = []
    for i, w in enumerate(weights):
        q = parse_rational(w, f"{path}.weights[{i}]")
        if q <= 0:
            raise ModelError("non-positive-weight", f"weight {show_rational(q)} must be positive",
                             f"{path}.weights[{i}]")
        ws.append(q)
    try:
        return FinBanSpace(tuple(str(b) for b in basis), tuple(ws),
                           Flavor.SUM if flavor == "sum" else Flavor.SUP)
    except InvalidModel as exc:
        raise ModelError("bad-space", str(exc), path) from None


def _space_ref(model: Model, ref: Any, name: str, path: str) -> FinBanSpace:
    """A space reference: a string is "scalar" or a declared space's name,
    anything else an inline descriptor of a space called `name`."""
    if not isinstance(ref, str) or ref == "scalar":
        return _space_from_descriptor(name, ref, path)
    if ref not in model.spaces:
        raise ModelError("unresolved-reference", f"space {ref!r} is not declared", path)
    return model.spaces[ref]


def _section(raw: dict, key: str, code: str, where: str = "") -> dict:
    """A section naming its entries, at the path `where`.key (a top-level
    section when `where` is empty); absent means empty."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ModelError(code, f"{key!r} must be an object of named entries",
                         f"{where}.{key}" if where else key)
    return value


def _is_point_list(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(x, (str, int, float)) for x in value)


def _points(raw: dict, key: str, code: str, where: str) -> tuple[str, ...]:
    """The list of points at `where`.key, as strings; absent means empty."""
    value = raw.get(key, [])
    if not _is_point_list(value):
        raise ModelError(code, f"{key!r} must be a list of points", f"{where}.{key}")
    return tuple(str(x) for x in value)


def parse_model(path: str) -> Model:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ModelError("missing-file", f"no model file at {path}", path) from None
    except OSError as exc:
        raise ModelError("unreadable-file", f"cannot read the model file: {exc.strerror}",
                         path) from None
    except UnicodeDecodeError as exc:
        raise ModelError("syntax-error", f"byte {exc.start}: {exc.reason} in {exc.encoding}",
                         path) from None
    except json.JSONDecodeError as exc:
        raise ModelError("syntax-error",
                         f"line {exc.lineno}, column {exc.colno}: {exc.msg}", path) from None
    if not isinstance(raw, dict):
        raise ModelError("syntax-error", "the model must be a JSON object", path)
    model = Model()

    alg = raw.get("algebra")
    if alg is None:
        raise ModelError("missing-section", "the model needs an 'algebra' section", "algebra")
    if not isinstance(alg, dict):
        raise ModelError("bad-algebra", "the algebra must be an object", "algebra")

    def algebra_on(names, where):
        if not isinstance(names, list):
            raise ModelError("bad-algebra", f"atoms are a list of names, got {names!r}", where)
        atoms = tuple(sorted(str(a) for a in names))
        if not atoms:
            raise ModelError("bad-algebra", "the atom list is empty", where)
        reserved = set("|*:<")
        for n in atoms:
            if reserved & set(n):
                raise ModelError("bad-algebra",
                                 f"atom {n!r} uses a reserved character (| * : <)", where)
        try:
            return BoolAlg(atoms)
        except InvalidModel as exc:
            raise ModelError("bad-algebra", str(exc), where) from None

    if "atoms" in alg:
        model.algebra = algebra_on(alg["atoms"], "algebra.atoms")
    elif "product" in alg:
        product = alg["product"]
        if not isinstance(product, dict):
            raise ModelError("bad-algebra", "a product is an object with 'left' and 'right'",
                             "algebra.product")
        for side in ("left", "right"):
            if side not in product:
                raise ModelError("bad-algebra", f"a product needs a {side!r} atom list",
                                 f"algebra.product.{side}")
        model.coproduct = coproduct(algebra_on(product["left"], "algebra.product.left"),
                                    algebra_on(product["right"], "algebra.product.right"))
        model.algebra = model.coproduct.algebra
    elif "generators" in alg:
        ground, generators = alg.get("ground"), alg["generators"]
        if not ground:
            raise ModelError("bad-algebra", "generators need a ground set", "algebra.ground")
        if not _is_point_list(ground):
            raise ModelError("bad-algebra", "the ground set is a list of strings or numbers",
                             "algebra.ground")
        for x in ground:
            # the atom-fiber sums label a vector 'atom:basis label', so ':'
            # in an atom (a cell of points) can make two labels equal
            if ":" in str(x):
                raise ModelError("bad-algebra", f"ground point {x!r} uses the reserved "
                                 "character ':'", "algebra.ground")
        if not isinstance(generators, list) or not all(map(_is_point_list, generators)):
            raise ModelError("bad-algebra", "generators are lists of ground points",
                             "algebra.generators")
        if not all(set(g) <= set(ground) for g in generators):
            raise ModelError("bad-algebra", "generator outside the ground set",
                             "algebra.generators")
        try:
            gen = build_algebra(ground, [set(g) for g in generators])
        except InvalidModel as exc:  # colliding point or cell labels
            raise ModelError("bad-algebra", str(exc), "algebra.ground") from None
        model.algebra = gen.algebra
    else:
        raise ModelError("bad-algebra",
                         "an algebra needs 'atoms', 'generators' or 'product'", "algebra")

    for name, desc in _section(raw, "spaces", "bad-space").items():
        model.spaces[name] = _space_from_descriptor(name, desc, f"spaces.{name}")

    for name, desc in _section(raw, "measures", "bad-measure").items():
        path_m = f"measures.{name}"
        if not isinstance(desc, dict):
            raise ModelError("bad-measure", f"measure {name!r} must be an object", path_m)
        target = _space_ref(model, desc.get("target", "scalar"), f"{name}.target", path_m)
        on = desc.get("on", "algebra")
        omega = model.algebra_for(on, f"{path_m}.on")
        values = desc.get("values", {})
        if not isinstance(values, dict):
            raise ModelError("bad-measure", "values map atoms to rationals", f"{path_m}.values")
        atom_vals = []
        for a in omega.atoms:
            if a not in values:
                raise ModelError("unresolved-reference",
                                 f"measure {name!r} is missing atom {a!r}", path_m)
            raw_v = values[a]
            if not isinstance(raw_v, list):
                raw_v = [raw_v]
            path_a = f"{path_m}.values.{a}"
            if len(raw_v) != target.dim:
                raise ModelError("bad-measure", f"value at {a!r} must have {target.dim} coordinates",
                                 path_a)
            atom_vals.append(tuple(parse_rational(x, path_a) for x in raw_v))
        model.measures[name] = VectorMeasure(omega, target, tuple(atom_vals))
        model.measure_on[name] = on

    for name, desc in _section(raw, "bundles", "bad-bundle").items():
        path_b = f"bundles.{name}"
        if not isinstance(desc, dict):
            raise ModelError("bad-bundle", f"bundle {name!r} must be an object", path_b)
        base = _points(desc, "base", "bad-bundle", path_b)
        if not base:
            raise ModelError("bad-bundle", "a bundle needs a base", path_b)
        fibers = {}
        fiber_refs = _section(desc, "fibers", "bad-bundle", path_b)
        for x in base:
            ref = fiber_refs.get(x)
            if ref is None:
                raise ModelError("unresolved-reference", f"missing fiber at {x!r}", path_b)
            fibers[x] = _space_ref(model, ref, f"{name}.{x}", path_b)
        try:
            model.bundles[name] = bundles2v.Bundle(base, fibers)
        except CatmeasError as exc:
            raise ModelError("bad-bundle", str(exc), path_b) from None

    for name, desc in _section(raw, "functor_matrices", "bad-matrix").items():
        path_f = f"functor_matrices.{name}"
        if not isinstance(desc, dict):
            raise ModelError("bad-matrix", f"functor matrix {name!r} must be an object", path_f)
        src = _points(desc, "source", "bad-matrix", path_f)
        tgt = _points(desc, "target", "bad-matrix", path_f)
        entries = {}
        entry_refs = _section(desc, "entries", "bad-matrix", path_f)
        for x in src:
            for y in tgt:
                ref = entry_refs.get(f"{x}:{y}")
                if ref is None:
                    raise ModelError("unresolved-reference",
                                     f"missing entry {x}:{y}", path_f)
                entries[(x, y)] = _space_ref(model, ref, f"{name}.{x}.{y}", path_f)
        try:
            model.matrices[name] = bundles2v.FunctorMatrix(src, tgt, entries)
        except CatmeasError as exc:
            raise ModelError("bad-matrix", str(exc), path_f) from None

    model.cosheaves = {name: cache(_cosheaf_builder(model, desc, f"cosheaves.{name}"))
                       for name, desc in _section(raw, "cosheaves", "bad-cosheaf").items()}

    for name, desc in _section(raw, "sheaves", "bad-sheaf").items():
        path_s = f"sheaves.{name}"
        if isinstance(desc, str) and desc.startswith("characteristic:"):
            e = _element(model.algebra, desc.split(":", 1)[1], path_s)
            model.sheaves[name] = cache(partial(characteristic_sheaf, model.algebra, e))
        else:
            raise ModelError("bad-sheaf",
                             "sheaves are given as 'characteristic:<element>'", path_s)

    return model


def _cosheaf_builder(model: Model, desc: Any, path: str) -> Callable[[], PreCosheaf]:
    """Validates a cosheaf declaration and returns a zero-argument builder
    of the cosheaf.  A keyword cosheaf is built when the builder is called
    (see `Model`); an explicit one is assembled and checked here."""
    omega = model.algebra
    if isinstance(desc, str):
        if desc.startswith("l1-of:"):
            ref = desc.split(":", 1)[1]
            if ref not in model.measures:
                raise ModelError("unresolved-reference",
                                 f"cosheaf refers to unknown measure {ref!r}", path)
            nu = model.measures[ref]
            if model.measure_on[ref] != "algebra":
                raise ModelError("bad-cosheaf", "l1-of needs a measure on the main algebra", path)
            if not nu.is_scalar() or any(v[0] < 0 for v in nu.atom_values):
                raise ModelError("bad-cosheaf", "l1-of needs a nonnegative scalar measure", path)
            return partial(l1_cosheaf, MeasureAlgebra(omega, nu))
        if desc.startswith("constant-of:"):
            ref = desc.split(":", 1)[1]
            return partial(constant_precosheaf, omega, _space_ref(model, ref, ref, path))
        raise ModelError("bad-cosheaf", f"unknown cosheaf keyword {desc!r}", path)
    if not isinstance(desc, dict):
        raise ModelError("bad-cosheaf", "a cosheaf is a keyword or an object", path)
    space_refs = _section(desc, "spaces", "bad-cosheaf", path)
    exts = _section(desc, "extensions", "bad-cosheaf", path)
    spaces = {}
    for e in omega.elements():
        key = "|".join(omega.atoms_below(e))
        ref = space_refs.get(key)
        if ref is None:
            raise ModelError("unresolved-reference",
                             f"missing cosheaf space at {{{key}}}", path)
        spaces[e] = _space_ref(model, ref, key or "bot", path)
    cover_maps = {}
    for small, big in omega.covering_pairs():
        key = "|".join(omega.atoms_below(small)) + "<" + "|".join(omega.atoms_below(big))
        rows = exts.get(key)
        if rows is None:
            raise ModelError("unresolved-reference",
                             f"missing extension map {key!r}", path)
        path_e = f"{path}.extensions.{key}"
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ModelError("bad-cosheaf", "an extension map is a list of rows", path_e)
        matrix = tuple(tuple(parse_rational(x, path_e) for x in row) for row in rows)
        try:
            cover_maps[(small, big)] = LinMap.from_matrix(spaces[small], spaces[big], matrix)
        except InvalidModel as exc:
            raise ModelError("bad-cosheaf", str(exc), path_e) from None
    try:
        cosheaf = make_precosheaf(omega, spaces, cover_maps)
    except CatmeasError as exc:
        raise ModelError("bad-cosheaf", str(exc), path) from None
    return lambda: cosheaf


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report:
    def __init__(self, command: str, seed: int, exhaustive: bool):
        self.payload: dict[str, Any] = {
            "command": command,
            "seed": seed,
            "exhaustive": exhaustive,
            "results": {},
            "verdicts": {},
        }
        self.failed = False

    def result(self, key: str, value: Any) -> None:
        self.payload["results"][key] = value

    def verdict(self, key: str, ok: bool, detail: Any = None) -> None:
        entry: dict[str, Any] = {"ok": ok}
        if detail is not None:
            entry["detail"] = detail
        self.payload["verdicts"][key] = entry
        if not ok:
            self.failed = True


_encode_string = json.encoder.encode_basestring_ascii


def _json_key(key: Any) -> str:
    """A dict key as json.dumps writes it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write_json(value: Any, indent: str, out: list) -> None:
    """Append to `out` the text of json.dumps(value, sort_keys=True,
    indent=2, separators=(",", ": ")) for a value whose lines start with
    `indent` ("\n" and its spaces), or of json.dumps(value, sort_keys=True),
    json's one-line layout, for an `indent` of "", with each `LinMap` read
    as its `show_matrix` rows; raises the TypeError json.dumps raises on a
    value it rejects.  A `LinMap` is appended as the placeholder (map,
    indent), for `_matrix_text` to format when it is written.  The checks
    run in json's order, so bool is never taken for int."""
    if isinstance(value, str):
        out.append(_encode_string(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent and indent + "  "
        sep = "," + (inner or " ")
        if isinstance(value[0], str):
            try:  # a list of strings, written at once
                out.append(f"[{inner}{sep.join(map(_encode_string, value))}{indent}]")
                return
            except TypeError:  # an element past the first is not a string
                pass
        out.append("[" + inner)
        for k, v in enumerate(value):
            if k:
                out.append(sep)
            _write_json(v, inner, out)
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent and indent + "  "
        sep, comma = "{" + inner, "," + (inner or " ")
        for k, v in sorted(value.items()):
            out.append(f"{sep}{_encode_string(_json_key(k))}: ")
            _write_json(v, inner, out)
            sep = comma
        out.append(indent + "}")
    elif isinstance(value, LinMap):
        out.append((value, indent))
    else:
        # a float as json writes it, or json's TypeError on anything else
        out.append(json.dumps(value))


def _matrix_text(m: LinMap, indent: str) -> str:
    """What `_write_json` writes for show_matrix(m) with lines starting
    with `indent`.  A cell is a rational in ASCII digits, '-' and '/',
    which json quotes and escapes nothing in, so the quotes go into the
    separators of one join per row."""
    rows = show_matrix(m)
    if not rows:
        return "[]"
    inner = indent and indent + "  "
    cell = inner and inner + "  "
    first, sep, last = f'[{cell}"', f'",{cell or " "}"', f'"{inner}]'
    comma = "," + (inner or " ")
    return (f"[{inner}" + comma.join(first + sep.join(r) + last if r else "[]" for r in rows)
            + f"{indent}]")


def emit_report(report: Report, fmt: str, stream) -> None:
    """Write the report to `stream` in two passes, raising every TypeError
    before the first byte is written: the first serializes everything but
    the matrices, and the second writes the text once per matrix,
    formatting each matrix as it comes.  The structured format is the
    payload in json's indented layout; the text format is a header line,
    then a line per result and per verdict, each value in json's one-line
    layout."""
    payload = report.payload
    out: list = []
    if fmt == "structured":
        _write_json(payload, "\n", out)
    else:
        flag = " --exhaustive" if payload["exhaustive"] else ""
        out.append(f"command: {payload['command']}{flag}  (seed {payload['seed']})")
        for key, value in sorted(payload["results"].items()):
            out.append(f"\n  {key} = ")
            _write_json(value, "", out)
        for key, v in sorted(payload["verdicts"].items()):
            out.append(f"\n  [{'ok' if v['ok'] else 'FAIL'}] {key}")
            if "detail" in v:
                out.append("  ")
                _write_json(v["detail"], "", out)
    out.append("\n")
    text: list[str] = []
    for piece in out:
        if type(piece) is str:
            text.append(piece)
        else:  # a matrix, formatted as it is written
            text.append(_matrix_text(*piece))
            stream.write("".join(text))
            text.clear()
    stream.write("".join(text))


# ---------------------------------------------------------------------------
# the commands
# ---------------------------------------------------------------------------

def _describe_blocks(omega: BoolAlg, blocks) -> list[list[str]]:
    return [list(omega.atoms_below(b)) for b in blocks]


def _dims(x) -> dict[str, int]:
    """The dimension of each value of a (co)presheaf, by element label."""
    labels = x.algebra.labels
    return {labels[e]: x.space(e).dim for e in x.algebra.elements()}


def cmd_stone(model: Model, report: Report, rng, element: int, exhaustive: bool):
    omega = model.algebra
    st = stone_space(omega)
    report.result("points", list(st.points))
    report.result("eta_top", sorted(st.eta(omega.top)))
    # fwd and bwd are BoolMorphisms: each sends e to the join of the images
    # of the atoms below e, and their constructors have checked that those
    # images are pairwise disjoint.  So fwd preserves joins by
    # construction, and meets because img a & img b = 0 for atoms a != b;
    # bwd o fwd preserves joins too, so it is the identity iff it fixes
    # every atom.
    fwd, bwd = st.round_trip()
    witness = None
    for atom in omega.atoms:
        mask = omega.atom_mask(atom)
        got = bwd(fwd(mask))
        if got != mask:
            witness = {"atom": atom, "got": list(omega.atoms_below(got))}
            break
    report.verdict("stone_round_trip", witness is None, witness)
    report.verdict("ultrafilter_count", len(st.points) == omega.n)


def cmd_partitions(model: Model, report: Report, rng, element, exhaustive):
    omega = model.algebra
    if element == 0:
        raise ModelError("bad-element", "bottom has no partitions", "--element")
    parts = list(partitions_of(omega, element))
    report.result("count", len(parts))
    # the same blocks recur across partitions: each is described once
    describe = cache(lambda b: list(omega.atoms_below(b)))
    report.result("partitions", [[describe(b) for b in p] for p in parts])


def _each_measure(model: Model, on: str = "algebra"):
    for name in sorted(model.measures):
        if model.measure_on[name] == on:
            yield name, model.measures[name]


def _sum_spaces(model: Model):
    """The SUM spaces of positive dimension, by name."""
    for name in sorted(model.spaces):
        b = model.spaces[name]
        if b.flavor is Flavor.SUM and b.dim:
            yield name, b


def cmd_variation(model: Model, report: Report, rng, element, exhaustive):
    for name, nu in _each_measure(model):
        report.result(f"variation[{name}]", show_rational(variation(nu, element)))


def cmd_semivariation(model: Model, report: Report, rng, element, exhaustive):
    for name, nu in _each_measure(model):
        sv = semivariation(nu, element)
        report.result(f"semivariation[{name}]", show_rational(sv))
        report.verdict(f"semivariation_le_variation[{name}]", sv <= variation(nu, element))


def _positive_scalar_measures(model: Model, on: str = "algebra"):
    for name, nu in _each_measure(model, on):
        if nu.is_scalar() and all(v[0] >= 0 for v in nu.atom_values):
            yield name, MeasureAlgebra(nu.algebra, nu)


def cmd_lipschitz(model: Model, report: Report, rng, element, exhaustive):
    for base_name, mu in _positive_scalar_measures(model):
        for name, nu in _each_measure(model):
            if name == base_name:
                continue
            value = lipschitz_norm(nu, mu)
            report.result(
                f"lipschitz[{name}/{base_name}]",
                "unbounded" if value is None else show_rational(value))


def _random_simple(rng, omega) -> SimpleElement:
    return SimpleElement(omega, tuple(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(omega.n)))


def cmd_integrate(model: Model, report: Report, rng, element, exhaustive):
    omega = model.algebra
    chi = characteristic(omega, element)
    for name, nu in _each_measure(model):
        report.result(f"integral[chi][{name}]", show_vector(integrate(chi, nu)))
        lift = integration_map(nu)
        # both sides are additive in E (the lift is linear, nu is stored on
        # atoms), so they agree on every element iff they agree on atoms
        report.verdict(
            f"lift_matches_measure[{name}]",
            all(lift(characteristic(omega, 1 << i).coeffs) == nu(1 << i)
                for i in range(omega.n)))
        report.verdict(
            f"lift_norm_is_semivariation[{name}]",
            operator_norm(lift) == semivariation(nu, omega.top))
        for k in range(3):
            f = _random_simple(rng, omega)
            report.result(f"integral[f{k}][{name}]", show_vector(integrate(f, nu)))


def cmd_bochner(model: Model, report: Report, rng, element, exhaustive):
    omega = model.algebra
    for base_name, mu in _positive_scalar_measures(model):
        for space_name, b in _sum_spaces(model):
            f = VectorSimpleElement(omega, b, tuple(
                tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(b.dim)) for _ in range(omega.n)))
            res = bochner(f, mu)
            key = f"{base_name}:{space_name}"
            report.result(f"bochner[{key}]", show_vector(res.integral))
            report.result(f"l1_norm[{key}]", show_rational(res.l1_norm))
            report.verdict(f"contractive[{key}]", b.norm(res.integral) <= res.l1_norm)
            report.verdict(f"tensor_identity[{key}]", res.tensor_witness.is_isometric())


def cmd_fubini(model: Model, report: Report, rng, element, exhaustive):
    if model.coproduct is None:
        raise ModelError("bad-command", "fubini needs a product algebra", "algebra")
    cop = model.coproduct
    # the first nonnegative scalar measure by name on each factor
    left, right = (next((mu for _, mu in _positive_scalar_measures(model, on)), None)
                   for on in ("left", "right"))
    if left is None or right is None:
        raise ModelError("bad-command", "fubini needs a nonnegative scalar measure "
                         "on each factor", "measures")
    f = _random_simple(rng, cop.algebra)
    res = fubini(f, cop, left, right)
    report.result("product_integral", show_rational(res.product_value))
    report.result("iterated_left_first", show_rational(res.iterated_left_then_right))
    report.result("iterated_right_first", show_rational(res.iterated_right_then_left))
    report.result("l1_tensor_witness", {
        "forward": res.witness.forward, "backward": res.witness.backward})
    report.verdict("iterated_integrals_agree", res.all_equal())
    report.verdict("l1_tensor_identity", res.witness.is_isometric())


def _check_condition(model: Model, report: Report, kind: str, assignments, check,
                     exhaustive):
    """Reports the `check` verdict of each named (co)presheaf and returns
    them by name."""
    verdicts = {}
    for name in sorted(assignments):
        verdict = verdicts[name] = check(assignments[name](), exhaustive=exhaustive)
        detail = None
        if not verdict:
            detail = {"element": list(model.algebra.atoms_below(verdict.failing_element)),
                      "blocks": _describe_blocks(model.algebra, verdict.failing_blocks)}
        report.verdict(f"{kind}[{name}]", bool(verdict), detail)
    return verdicts


def cmd_check_sheaf(model: Model, report: Report, rng, element, exhaustive):
    _check_condition(model, report, "sheaf", model.sheaves, is_sheaf, exhaustive)


def cmd_check_cosheaf(model: Model, report: Report, rng, element, exhaustive):
    return _check_condition(model, report, "cosheaf", model.cosheaves, is_cosheaf, exhaustive)


def _law_verdict(report: Report, key: str, check) -> None:
    """A spectral self-check's verdict, its witness the detail of a failure."""
    report.verdict(key, bool(check), None if check else check.detail)


def cmd_spectral(model: Model, report: Report, rng, element, exhaustive):
    omega = model.algebra
    for name in sorted(model.cosheaves):
        cs = model.cosheaves[name]()
        if not is_cosheaf(cs):
            report.verdict(f"spectral[{name}]", False, "not a cosheaf")
            continue
        spec = spectral_measure(cs)
        _law_verdict(report, f"spectral_laws[{name}]", spec.satisfies_laws())
        for e in omega.elements():
            report.result(f"projection[{name}][{omega.labels[e]}]", spec.projections[e])
        for k in range(5):
            f = _random_simple(rng, omega)
            _law_verdict(report, f"action_isometric[{name}][f{k}]", spec.action_norm_matches(f))


def cmd_integrate_morphism(model: Model, report: Report, rng, element, exhaustive):
    omega = model.algebra
    e, f = element, omega.top
    for name in sorted(model.cosheaves):
        cs = model.cosheaves[name]()
        if not is_cosheaf(cs):
            continue
        s = _random_simple(rng, omega)
        masked = SimpleElement(omega, tuple(
            c if (e & f) >> i & 1 else Fraction(0)
            for i, c in enumerate(s.coeffs)))
        t = integrate_simple_morphism(masked, cs, e, f)
        report.result(f"morphism_integral[{name}]", t)
        report.verdict(f"norm_equals_sup[{name}]",
                       operator_norm(t) == essential_sup(masked, cs))


def cmd_cosheafify(model: Model, report: Report, rng, element, exhaustive):
    # the cosheafification sums the atom fibers, which must be SUM spaces
    for name in sorted(model.cosheaves):
        theta = model.cosheaves[name]()
        if any(theta.space(1 << i).flavor is not Flavor.SUM for i in range(theta.algebra.n)):
            raise ModelError("bad-command", "cosheafify needs SUM atom fibers", f"cosheaves.{name}")
    for name in sorted(model.cosheaves):
        theta = model.cosheaves[name]()
        c = cosheafify(theta)
        report.verdict(f"result_is_cosheaf[{name}]",
                       bool(is_cosheaf(c.cosheaf, exhaustive=exhaustive)))
        report.verdict(f"counit_natural[{name}]", counit_is_natural(c))
        was = bool(is_cosheaf(theta))
        eps_iso = all(is_isometric_iso(c.counit[e]) for e in model.algebra.elements())
        report.verdict(f"counit_iso_iff_cosheaf[{name}]", eps_iso == was)
        report.result(f"dims[{name}]", _dims(c.cosheaf))


def cmd_bva(model: Model, report: Report, rng, element, exhaustive):
    omega = model.algebra
    for space_name, b in _sum_spaces(model):
        bva = bva_cosheaf(omega, b)
        report.result(f"bva_total_dim[{space_name}]", bva.space(omega.top).dim)
        report.verdict(f"bva_is_cosheaf[{space_name}]",
                       bool(is_cosheaf(bva, exhaustive=exhaustive)))


def cmd_kan(model: Model, report: Report, rng, element, exhaustive):
    for name in sorted(model.bundles):
        xi = model.bundles[name]
        try:
            xi.require_sum_fibers()
        except CatmeasError:
            continue
        index = FinPoset.discrete(list(xi.base))
        functor = bundles2v.PosetFunctor(index, {x: xi.fiber(x) for x in xi.base}, {})
        kan = bundles2v.kan_extension_discrete(
            functor, {x: x for x in xi.base}, index)
        report.verdict(f"kan_identity_restricts[{name}]",
                       bundles2v.kan_restriction_is_isometric(
                           kan, functor, {x: x for x in xi.base}))
        report.result(f"kan_dims[{name}]",
                      {x: kan.values[x].space.dim for x in xi.base})


def cmd_isbell(model: Model, report: Report, rng, element, exhaustive):
    for name in sorted(model.sheaves):
        report.result(f"isbell_dims[{name}]", _dims(isbell(model.sheaves[name]())))
    for name in sorted(model.cosheaves):
        report.result(f"isbell_adjoint_dims[{name}]", _dims(isbell_adjoint(model.cosheaves[name]())))


def cmd_verify_all(model: Model, report: Report, rng, element, exhaustive):
    top = model.algebra.top
    cmd_stone(model, report, rng, element, exhaustive)
    for name, nu in _each_measure(model):
        sv = semivariation(nu, top)
        report.verdict(f"semivariation_le_variation[{name}]", sv <= variation(nu, top))
        report.verdict(f"lift_norm_is_semivariation[{name}]",
                       operator_norm(integration_map(nu)) == sv)
    # an exhaustive verdict holds exactly when the split verdict does
    verdicts = cmd_check_cosheaf(model, report, rng, element, exhaustive)
    cmd_check_sheaf(model, report, rng, element, exhaustive)
    for name in sorted(model.cosheaves):
        if verdicts[name]:
            spec = spectral_measure(model.cosheaves[name]())
            _law_verdict(report, f"spectral_laws[{name}]", spec.satisfies_laws())
            samples = [_random_simple(rng, model.algebra) for _ in range(4)]
            _law_verdict(report, f"action_algebra_map[{name}]",
                         spec.action_is_algebra_map(samples))
    # a seeded random cosheaf must pass and its spectral laws must hold
    probe = random_cosheaf(rng, model.algebra)
    report.verdict("random_cosheaf_passes", bool(is_cosheaf(probe, exhaustive=exhaustive)))
    _law_verdict(report, "random_cosheaf_spectral_laws",
                 spectral_measure(probe).satisfies_laws())
    if model.coproduct is not None:
        try:
            cmd_fubini(model, report, rng, element, exhaustive)
        except ModelError:
            pass


DISPATCH = {
    "stone": cmd_stone,
    "partitions": cmd_partitions,
    "variation": cmd_variation,
    "semivariation": cmd_semivariation,
    "lipschitz": cmd_lipschitz,
    "integrate": cmd_integrate,
    "bochner": cmd_bochner,
    "fubini": cmd_fubini,
    "check-sheaf": cmd_check_sheaf,
    "check-cosheaf": cmd_check_cosheaf,
    "spectral": cmd_spectral,
    "integrate-morphism": cmd_integrate_morphism,
    "cosheafify": cmd_cosheafify,
    "bva": cmd_bva,
    "kan": cmd_kan,
    "isbell": cmd_isbell,
    "verify-all": cmd_verify_all,
}
COMMANDS = tuple(DISPATCH)


def run(command: str, model: Model, seed: int, exhaustive: bool,
        element: Optional[str]) -> Report:
    report = Report(command, seed, exhaustive)
    rng = random.Random(seed)
    omega = model.algebra
    e = omega.top if element is None else _element(omega, element, "--element")
    DISPATCH[command](model, report, rng, e, exhaustive)
    return report


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first `main` call of the
    process, not at import."""
    parser = argparse.ArgumentParser(
        prog="catmeas",
        description="exact verifier/calculator for finite measure algebras, "
                    "their simple-element calculus and cosheaf spectral data")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--model", required=True, help="path to a JSON model file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--exhaustive", action="store_true",
                        help="check all partitions, not only binary splits")
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--element", default=None,
                        help="atom-set expression like a|b, or top/bottom")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)

    started = time.monotonic()
    try:
        model = parse_model(args.model)
        report = run(args.command, model, args.seed, args.exhaustive, args.element)
        emit_report(report, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point its fd at devnull, so that the
        # interpreter's flush at exit finds no pipe to fail on again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ModelError as exc:
        print(f"model error {exc}", file=sys.stderr)
        return 2
    except CatmeasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect of catmeas, not of the input: one line, exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
