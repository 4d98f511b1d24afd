"""Per-layer tracing from outside the program.

`Tracer.install()` wraps the public functions of each catmeas module and
the public methods of a few classes, and patches every binding of each
wrapped function: a name imported with ``from .finban import
operator_norm`` is a second binding of the same object, and calls through
it must be counted too.  Spans are kept in memory as
``(name, start, end, parent, job)`` tuples and reduced to per-name
totals by `layer_totals()`; `uninstall()` restores every original.

Counter work done by a wrapper (operand shapes, bit lengths, distinct
inputs) is itself recorded as a ``trace.counters`` span, so it is not
charged to the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

MODULES = ("cli", "boolalg", "finban", "exactla", "measures", "simple",
           "shcosh", "bundles2v")

# classes whose public methods are wrapped, as (module, class)
CLASSES = (("finban", "LinMap"), ("shcosh", "PreCosheaf"), ("shcosh", "SpectralData"))

# Command bodies stay unwrapped so that their own loops count as
# `cli.run` self time; `cli.main` is the job itself.
SKIP = ("cli.cmd_", "cli.main")

COUNTER_SPAN = "trace.counters"
# wrapped only to mark which `operator_norm` calls enumerate ball vertices
VERTEX_MARK = ("finban", "FinBanSpace", "ball_extreme_points")


def _is_monomial(matrix) -> bool:
    """At most one nonzero per row and per column."""
    used_cols = set()
    for row in matrix:
        nz = [j for j, x in enumerate(row) if x != 0]
        if len(nz) > 1 or (nz and nz[0] in used_cols):
            return False
        used_cols.update(nz)
    return True


def _max_bits(matrix) -> int:
    best = 0
    for row in matrix:
        for x in row:
            if isinstance(x, Fraction):
                best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _matrix_key(matrix):
    return tuple(tuple(row) for row in matrix)


def _precosheaf_key(mu):
    return (mu.algebra, tuple(sorted(mu.spaces.items())),
            tuple(sorted(mu.cover_maps.items())))


class Tracer:
    """Wraps catmeas in place; one instance per process at a time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._counter_id = self._name_id(COUNTER_SPAN)

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self) -> tuple[int, int]:
        i = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(i)
        return i, parent

    def _close(self, i: int, nid: int, t0: float, parent: int) -> None:
        t1 = perf_counter()
        self.stack.pop()
        self.spans[i] = (nid, t0, t1, parent, self.job)

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        nid = self._name_id(name)
        i, parent = self._open()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i, nid, t0, parent)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        item_id = self._name_id(name + ".next")
        counter = COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            i, parent = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i, nid, t0, parent)
            if counter is not None:
                c0 = perf_counter()
                counter(tracer, args, kwargs, result)
                tracer.spans.append((tracer._counter_id, c0, perf_counter(), parent, tracer.job))
            if isinstance(result, types.GeneratorType):
                return tracer._iterate(name, item_id, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _iterate(self, name: str, item_id: int, gen):
        """Time each resume of a generator the program returned."""
        items = name + ".items"
        while True:
            i, parent = self._open()
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(i, item_id, t0, parent)
            self.counts[items] += 1
            yield item

    # -- install / uninstall -------------------------------------------------

    def _targets(self):
        """(qualified name, holder, attribute, original) to wrap."""
        for short in MODULES:
            mod = importlib.import_module(f"catmeas.{short}")
            for attr, obj in list(vars(mod).items()):
                qual = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and not any(qual.startswith(s) for s in SKIP)):
                    yield qual, mod, attr, obj
        for short, cls_name in CLASSES:
            cls = getattr(importlib.import_module(f"catmeas.{short}"), cls_name)
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    yield f"{short}.{cls_name}.{attr}", cls, attr, raw
        short, cls_name, attr = VERTEX_MARK
        cls = getattr(importlib.import_module(f"catmeas.{short}"), cls_name)
        yield f"{short}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for qual, holder, attr, raw in self._targets():
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(qual, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(qual, raw.__func__))
            else:
                new = self._wrap(qual, raw)
                wrapped[id(raw)] = (raw, new)
            self._patches.append((holder, attr, raw))
            setattr(holder, attr, new)
        # every other module-level binding of a wrapped function
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "catmeas" or mod_name.startswith("catmeas.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reduction ------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Per name: `.calls` and `.self_s`, plus the counters and the
        derived `.splits` and `.vertex_calls`."""
        spans = self.spans
        names = self.names
        child_time = [0.0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        is_cosheaf = self._ids.get("shcosh.is_cosheaf")
        partition_map = self._ids.get("shcosh.partition_map")
        operator_norm = self._ids.get("finban.operator_norm")
        vertex = self._ids.get(".".join(VERTEX_MARK))
        vertex_parents = set()
        for k, (nid, t0, t1, parent, _) in enumerate(spans):
            name = names[nid]
            if nid == self._counter_id:
                continue
            if name.endswith(".next"):
                name = name[:-5]
            else:
                out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - child_time[k]
            if nid == partition_map and self._has_ancestor(k, is_cosheaf):
                out["shcosh.is_cosheaf.splits"] += 1
            if nid == vertex and parent >= 0 and spans[parent][0] == operator_norm:
                vertex_parents.add(parent)
        out["finban.operator_norm.vertex_calls"] = len(vertex_parents)
        for key, value in self.counts.items():
            out[key] += value
        out.update(self.maxima)
        for key, seen in self.distinct.items():
            out[key] = len(seen)
        return dict(out)

    def _has_ancestor(self, k: int, nid) -> bool:
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == nid:
                return True
            parent = self.spans[parent][3]
        return False


# ---------------------------------------------------------------------------
# counters, each fed (tracer, args, kwargs, result) after the call returns
# ---------------------------------------------------------------------------

def _count_compose(tr, args, kwargs, result):
    outer, inner = args[0], args[1] if len(args) > 1 else kwargs["inner"]
    if _is_monomial(outer.matrix) and _is_monomial(inner.matrix):
        tr.counts["finban.LinMap.compose.monomial_calls"] += 1


def _count_rref(tr, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    cells = nonzeros = 0
    for row in a:
        cells += len(row)
        nonzeros += sum(1 for x in row if x != 0)
    tr.counts["exactla.rref.cells"] += cells
    tr.counts["exactla.rref.nonzeros"] += nonzeros
    key = "exactla.rref.max_bits"
    tr.maxima[key] = max(tr.maxima[key], _max_bits(result[0]))


def _count_invert(tr, args, kwargs, result):
    tr.distinct["exactla.invert.distinct"].add(_matrix_key(args[0] if args else kwargs["a"]))


def _count_semivariation(tr, args, kwargs, result):
    nu = args[0] if args else kwargs["nu"]
    e = args[1] if len(args) > 1 else kwargs["e"]
    tr.distinct["measures.semivariation.distinct"].add((nu, e))


def _count_is_cosheaf(tr, args, kwargs, result):
    mu = args[0] if args else kwargs["mu"]
    exhaustive = args[1] if len(args) > 1 else kwargs.get("exhaustive", False)
    tr.distinct["shcosh.is_cosheaf.distinct"].add((_precosheaf_key(mu), bool(exhaustive)))


def _count_sheaf_hom(tr, args, kwargs, result):
    xi, zeta = args[0], args[1]
    tr.counts["shcosh.sheaf_hom.unknowns"] += sum(
        xi.space(e).dim * zeta.space(e).dim for e in xi.algebra.elements())


COUNTERS = {
    "finban.LinMap.compose": _count_compose,
    "exactla.rref": _count_rref,
    "exactla.invert": _count_invert,
    "measures.semivariation": _count_semivariation,
    "shcosh.is_cosheaf": _count_is_cosheaf,
    "shcosh.sheaf_hom": _count_sheaf_hom,
}
