"""Desk-scale Banach spaces: weighted l1 / weighted sup spaces over Q.

A FinBanSpace is an ordered basis with positive rational weights and a
flavor:

  SUM  --  norm(v) = sum_i w_i |v_i|           (coproduct side)
  SUP  --  norm(v) = max_i w_i |v_i|           (product side)

SUP spaces may additionally carry a block structure (`groups`), giving
norm(v) = max over blocks of the weighted l1 sum inside the block.  This
is the "sup over operator-norm blocks" convention used for hom spaces:
the operator norm of a map between SUM spaces is the sup over source
basis columns of a weighted l1 expression, so spaces of such maps are
exactly of this shape.  Plain SUP is the singleton-block case.

Operator norms are exact: a weighted l1 (or blocked sup) unit ball is a
polytope, so the sup of a convex function over it is attained at a
vertex; vertex images are summed in Python ints (see operator_norm).

A LinMap stores its row nonzeros: `rows[i]` is a tuple of (source
column, value) pairs of target row i, sorted by column, with no zero
value.  The form is canonical, so == and hash, over source, target and
rows, are entrywise equality.  compose (row by row, after Gustavson
1978), add, scale, application and the column rule of operator_norm
touch nonzeros only; `matrix` is a dense view, built on first read.
Most maps here are monomial (one nonzero per row and column), and one
decision, `_isometric_split`, tells whether a map, or the partition map
or restriction cone made of given legs, is an isometric isomorphism, in
closed form on the nonzeros of a monomial one (the proof is there);
is_isometric_iso is its one-leg case.

Quotients of SUM spaces are handled honestly: the quotient of a weighted
l1 space need not be a weighted l1 space, so `quotient` returns a
weighted presentation whose weights are exact on basis rays, together
with an LP oracle (`class_norm`) for the true quotient norm of any
vector and metric-surjection rules for operator norms in and out of the
quotient.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .errors import (FieldEq, FlavorMismatch, Frozen, InvalidModel, NotAFunctor,
                     ResourceLimit)
from . import exactla
from .exactla import ONE, ZERO

Vector = tuple[Fraction, ...]

# Fixed caps on the exact vertex enumerations; past them ResourceLimit.
BALL_CAP = 4096
DUAL_BALL_CAP = 65536


class Flavor(Enum):
    SUM = "sum"
    SUP = "sup"


def vec(*xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def vec_scale(k: Fraction, a: Vector) -> Vector:
    return tuple(k * x for x in a)


def zero_vec(dim: int) -> Vector:
    return (ZERO,) * dim


def basis_vec(dim: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(dim))


Row = tuple[tuple[int, Fraction], ...]


@functools.lru_cache(maxsize=64)
def _identity_rows(dim: int) -> tuple[Row, ...]:
    """The rows of the dim x dim identity; immutable, so maps share them."""
    return tuple(((i, ONE),) for i in range(dim))


class FinBanSpace(Frozen, FieldEq):
    """== and hash are over the four declared fields, identity first;
    `dim`, len(basis), is stored once outside them, since the condition
    checks read it per split."""

    def __init__(self, basis: tuple[str, ...], weights: tuple[Fraction, ...],
                 flavor: Flavor, groups: Optional[tuple[tuple[int, ...], ...]] = None):
        dim = len(basis)
        if dim != len(weights):
            raise InvalidModel("one weight per basis label required")
        if len(set(basis)) != dim:
            raise InvalidModel("duplicate basis labels")
        # a rational's sign is its numerator's: comparing ints skips
        # Fraction's numbers.Rational check, once per weight of every space
        if any(w.numerator <= 0 for w in weights):
            raise InvalidModel("weights must be strictly positive")
        if groups is not None:
            if flavor is not Flavor.SUP:
                raise InvalidModel("blocked norms only make sense for SUP spaces")
            seen = sorted(i for g in groups for i in g)
            if seen != list(range(dim)) or not all(groups):
                raise InvalidModel("groups must partition the basis indices "
                                   "into nonempty blocks")
        # one object.__setattr__ per field keeps the values inline, as a
        # frozen dataclass does: the constructions build a space per
        # element, and `__dict__.update` gives each a dict, 128 bytes more
        store = object.__setattr__
        store(self, "basis", basis)
        store(self, "weights", weights)
        store(self, "flavor", flavor)
        store(self, "groups", groups)
        store(self, "dim", dim)

    _key = operator.attrgetter("basis", "weights", "flavor", "groups")

    def __repr__(self):
        return (f"FinBanSpace(basis={self.basis!r}, weights={self.weights!r}, "
                f"flavor={self.flavor!r}, groups={self.groups!r})")

    def effective_groups(self) -> tuple[tuple[int, ...], ...]:
        if self.flavor is Flavor.SUM:
            return (tuple(range(self.dim)),) if self.dim else ()
        if self.groups is None:
            return tuple((i,) for i in range(self.dim))
        return self.groups

    def norm(self, v: Sequence[Fraction]) -> Fraction:
        if len(v) != self.dim:
            raise InvalidModel("vector/basis length mismatch")
        (ints,), den = _over_common_denominator((v,))
        return Fraction(self._int_norm(ints), den * self._int_weights[1])

    @functools.cached_property
    def _int_weights(self) -> tuple[list[int], int]:
        """The weights over one common denominator, (W, D) with
        W[i] = D weights[i]; built on first read, not a field."""
        (ws,), den = _over_common_denominator((self.weights,))
        return ws, den

    def _int_norm(self, v: Sequence[int]) -> int:
        """D norm(v) for an int vector v, D the denominator of
        `_int_weights`: the weighted l1 sum, or its max over the blocks."""
        ws, _ = self._int_weights
        if self.flavor is Flavor.SUM:
            return sum(w * abs(x) for w, x in zip(ws, v) if x)
        return max((sum(ws[i] * abs(v[i]) for i in g) for g in self.effective_groups()),
                   default=0)

    def zero(self) -> Vector:
        return zero_vec(self.dim)

    def basis_vector(self, i: int) -> Vector:
        return basis_vec(self.dim, i)

    def ball_vertex_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks of the unit ball, which is the product of the block
        l1 balls (SUM: one block, the whole basis), so each vertex picks
        one +-e_i / w_i per block.  Raises ResourceLimit when the vertex
        count, the product of 2|g| over the blocks g, would exceed
        BALL_CAP."""
        groups = self.effective_groups()
        count = 1
        for g in groups:
            count *= 2 * len(g)
            if count > BALL_CAP:
                raise ResourceLimit(
                    f"unit ball of this space has more than {BALL_CAP} vertices")
        return groups

    def ball_extreme_points(self) -> Iterator[Vector]:
        """Vertices of the unit ball, one +-e_i / w_i choice per block of
        `ball_vertex_blocks` (SUM: +-e_j / w_j), which raises ResourceLimit
        at the call."""
        if self.dim == 0:
            return iter(())
        groups = self.ball_vertex_blocks()

        def points():
            choices = [[(i, s) for i in g for s in (ONE, -ONE)] for g in groups]
            for pick in itertools.product(*choices):
                v = list(zero_vec(self.dim))
                for i, s in pick:
                    v[i] = s / self.weights[i]
                yield tuple(v)
        return points()

    def dual_vertex_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks that carry the vertices of the dual unit ball: each
        vertex is a weighted sign pattern on one block, zero elsewhere.

        SUM: one block, the whole basis (2^dim vertices).  SUP/blocked: the
        blocks, 2^|g| vertices on block g.  Raises ResourceLimit when a
        block carries more than DUAL_BALL_CAP vertices.
        """
        blocks = self.effective_groups()
        widest = max(map(len, blocks), default=0)
        if 2 ** widest > DUAL_BALL_CAP:
            raise ResourceLimit(f"dual ball of this space has 2^{widest} "
                                f"vertices on one block, more than {DUAL_BALL_CAP}")
        return blocks


def scalars(label: str = "1") -> FinBanSpace:
    return FinBanSpace((label,), (ONE,), Flavor.SUM)


def zero_space(flavor: Flavor = Flavor.SUM) -> FinBanSpace:
    return FinBanSpace((), (), flavor)


def sum_space(labels: Sequence[str], weights: Optional[Sequence] = None) -> FinBanSpace:
    ws = tuple(Fraction(w) for w in weights) if weights is not None else (ONE,) * len(labels)
    return FinBanSpace(tuple(labels), ws, Flavor.SUM)


def sup_space(labels: Sequence[str], weights: Optional[Sequence] = None) -> FinBanSpace:
    ws = tuple(Fraction(w) for w in weights) if weights is not None else (ONE,) * len(labels)
    return FinBanSpace(tuple(labels), ws, Flavor.SUP)


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

class LinMap(Frozen, FieldEq):
    """A linear map as its row nonzeros (see the module docstring)."""

    def __init__(self, source: FinBanSpace, target: FinBanSpace, rows: tuple[Row, ...]):
        if len(rows) != target.dim:
            raise InvalidModel("matrix row count must match the target dimension")
        self.__dict__.update(source=source, target=target, rows=rows)

    _key = operator.attrgetter("source", "target", "rows")

    @functools.cached_property
    def matrix(self) -> tuple[Vector, ...]:
        """Target rows x source columns, built on first read."""
        dense = [list(zero_vec(self.source.dim)) for _ in self.rows]
        for out, row in zip(dense, self.rows):
            for j, x in row:
                out[j] = x
        return tuple(map(tuple, dense))

    def __call__(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.source.dim:
            raise InvalidModel("vector/source mismatch")
        # zero coordinates of v add exactly 0, so they are skipped
        nonzero = {j for j, x in enumerate(v) if x}
        return tuple(sum((x * v[j] for j, x in row if j in nonzero), ZERO)
                     for row in self.rows)

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix)

    def transpose(self) -> "LinMap":
        """The transposed matrix, as a map target -> source: its rows are
        the columns of self, each as its (row, value) nonzeros."""
        rows: list[list] = [[] for _ in range(self.source.dim)]
        for i, row in enumerate(self.rows):
            for j, x in row:
                rows[j].append((i, x))
        return LinMap(self.target, self.source, tuple(map(tuple, rows)))

    def compose(self, inner: "LinMap") -> "LinMap":
        """self after inner, row by row over the nonzeros (Gustavson's
        sparse product): row i is the sum of a times row k of inner over
        the nonzeros (k, a) of row i of self.  A row with one nonzero, as
        in every monomial map, is a scaled copy of one row of inner."""
        if inner.target != self.source:
            raise InvalidModel("composition mismatch")
        below = inner.rows
        rows = []
        for row in self.rows:
            if len(row) == 1:
                (k, a), = row
                rows.append(below[k] if a == 1 else tuple((j, a * b) for j, b in below[k]))
                continue
            acc: dict[int, Fraction] = {}
            for k, a in row:
                for j, b in below[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            rows.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
        return LinMap(inner.source, self.target, tuple(rows))

    def __matmul__(self, inner: "LinMap") -> "LinMap":
        return self.compose(inner)

    def add(self, other: "LinMap") -> "LinMap":
        if other.source != self.source or other.target != self.target:
            raise InvalidModel("addition needs equal source and target")
        rows = []
        for r1, r2 in zip(self.rows, other.rows):
            if r1 and r2:
                acc = dict(r1)
                for j, b in r2:
                    acc[j] = acc[j] + b if j in acc else b
                rows.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
            else:
                rows.append(r1 or r2)
        return LinMap(self.source, self.target, tuple(rows))

    def scale(self, k: Fraction) -> "LinMap":
        if not k:
            return LinMap.zero(self.source, self.target)
        return LinMap(self.source, self.target, tuple(
            tuple((j, k * x) for j, x in row) for row in self.rows))

    def is_identity(self) -> bool:
        return self.source.dim == self.target.dim and \
            self.rows == _identity_rows(self.target.dim)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def operator_norm(self) -> Fraction:
        return operator_norm(self)

    def inverse(self) -> Optional["LinMap"]:
        """The inverse map, or None when the map is not square or is
        singular; a map between zero-dimensional spaces inverts to the
        empty map.  One nonzero c per row and column inverts in closed
        form, to the transpose with 1/c there; any other map by rref."""
        dim = self.source.dim
        if dim != self.target.dim:
            return None
        mono = _monomial_data((self,))
        if mono is None or len(mono) < dim:
            inv = exactla.invert(self.matrix)
            return None if inv is None else LinMap.from_matrix(self.target, self.source, inv)
        rows: list[Row] = [()] * dim
        for j, i, c in mono:
            rows[j] = ((i, ONE / c),)
        return LinMap(self.target, self.source, tuple(rows))

    @staticmethod
    def identity(space: FinBanSpace) -> "LinMap":
        return LinMap(space, space, _identity_rows(space.dim))

    @staticmethod
    def zero(source: FinBanSpace, target: FinBanSpace) -> "LinMap":
        return LinMap(source, target, ((),) * target.dim)

    @staticmethod
    def from_matrix(source: FinBanSpace, target: FinBanSpace,
                    matrix: Sequence[Sequence[Fraction]]) -> "LinMap":
        """The map of a dense matrix, target rows x source columns."""
        if any(len(row) != source.dim for row in matrix):
            raise InvalidModel("matrix column count must match the source dimension")
        return LinMap(source, target, tuple(
            tuple((j, x) for j, x in enumerate(row) if x) for row in matrix))

    @staticmethod
    def from_columns(source: FinBanSpace, target: FinBanSpace,
                     cols: Sequence[Sequence[Fraction]]) -> "LinMap":
        if len(cols) != source.dim:
            raise InvalidModel("one column per source basis vector required")
        return LinMap.from_matrix(target, source, cols).transpose()


def _mediated(summed: FinBanSpace, whole: FinBanSpace, legs: Sequence[LinMap],
              stacked: bool = False) -> LinMap:
    """The map made of the legs, laid out as `_monomial_data` reads it,
    summed being the direct sum of the legs' parts in order: side by side,
    summed -> whole, the columns of each leg after those of the legs before
    it (a partition map); or `stacked`, whole -> summed, the rows of each
    leg after those of the legs before it (a restriction cone)."""
    if stacked:
        return LinMap(whole, summed, tuple(row for leg in legs for row in leg.rows))
    rows: tuple[Row, ...] = ((),) * whole.dim
    off = 0
    for leg in legs:
        # each leg's columns shifted by the dims of the sources before it
        rows = tuple(acc + tuple((off + j, x) for j, x in row) if row else acc
                     for acc, row in zip(rows, leg.rows))
        off += leg.source.dim
    return LinMap(summed, whole, rows)


def _monomial_data(legs: Sequence[LinMap], stacked: bool = False
                   ) -> Optional[list[tuple[int, int, Fraction]]]:
    """The (source col, target row, c) nonzeros of the map made of the
    legs, when it has at most one nonzero per row and per column; None
    otherwise.  The legs sit side by side, the columns of each after
    those of the legs before it, as in a partition map, so a leg's
    nonzero at (row i, col j) is at (i, off + j); or `stacked`, the rows
    of each after those of the legs before it, as in a restriction cone,
    at (off + i, j); off is the sum of the dims of the parts (sources side
    by side, targets stacked) of the legs before.  One leg is its own map."""
    entries = []
    off = 0
    for leg in legs:
        for i, row in enumerate(leg.rows):
            if row:
                if len(row) > 1:
                    return None
                (j, c), = row
                entries.append((j, off + i, c) if stacked else (off + j, i, c))
        off += leg.target.dim if stacked else leg.source.dim
    count = len(entries)
    if len({j for j, _, _ in entries}) < count or len({i for _, i, _ in entries}) < count:
        return None
    return entries


def _block_ids(space: FinBanSpace) -> list[int]:
    """The index, in `effective_groups`, of the block of each coordinate."""
    ids = [0] * space.dim
    for k, g in enumerate(space.effective_groups()):
        for i in g:
            ids[i] = k
    return ids


def _over_common_denominator(table: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Integer rows R and one D > 0 with R[k][j] = D table[k][j]: D is the
    lcm of the denominators (1 for an empty table)."""
    den = math.lcm(*(x.denominator for row in table for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in table], den


def _vertex_images(blocks: Sequence[Sequence[int]], cols: Sequence[tuple[int, ...]]) -> list:
    """Every sum over the blocks g of one +-cols[j], j in g (the Minkowski
    sum of the blocks' signed columns), with + on the first block."""
    first, *rest = blocks
    images = [cols[j] for j in first]
    for g in rest:
        steps = [cols[j] for j in g] + [tuple(-x for x in cols[j]) for j in g]
        images = [tuple(map(operator.add, x, s)) for x in images for s in steps]
    return images


def operator_norm(t: LinMap) -> Fraction:
    """Exact operator norm.

    SUM sources use the column rule (valid against any target norm),
    summed over the nonzeros of each column per target block; monomial
    matrices from SUP/blocked sources have a closed form.  Any other
    SUP/blocked source takes the max of the target norm over the
    vertices of the source ball, in ints, in the three steps of
    `measures.semivariation` on the primal ball, not the dual one (so the
    lift of a measure stays a cross-check of its semivariation).
    1. Vertices: v = sum_g s_g e_{j_g} / w_{j_g}, one coordinate j_g and
       sign s_g per block g of `ball_vertex_blocks` (whose BALL_CAP check
       raises ResourceLimit before any image is built).
    2. Symmetry: -v is a vertex too and the norm is even, so s_g = +1 on
       the first block.
    3. Common denominator: with U_ij = w'_i t_ij / w_j and D > 0 the lcm
       of their denominators, cols[j] = D U_.j is an integer vector and
       ||t v|| = max over target blocks h of sum_{i in h} |x_i| / D, with
       x = sum_g s_g cols[j_g] one integer add per block.
    """
    if t.source.dim == 0 or t.target.dim == 0:
        return ZERO
    if t.source.flavor is Flavor.SUM:
        block, weights = _block_ids(t.target), t.target.weights
        sums: dict[tuple[int, int], Fraction] = {}
        for i, row in enumerate(t.rows):
            for j, c in row:
                key = (j, block[i])
                sums[key] = sums.get(key, ZERO) + weights[i] * abs(c)
        return max((s / t.source.weights[j] for (j, _), s in sums.items()), default=ZERO)
    mono = _monomial_data((t,))
    if mono is not None:
        # per target block h, the sum over source blocks g of the largest
        # |c| w'(i) / w(j) with j in g and i in h
        sb, tb, peak = _block_ids(t.source), _block_ids(t.target), {}
        for j, i, c in mono:
            key, r = (tb[i], sb[j]), abs(c) * t.target.weights[i] / t.source.weights[j]
            peak[key] = max(peak.get(key, ZERO), r)
        totals: dict[int, Fraction] = {}
        for (h, _), r in peak.items():
            totals[h] = totals.get(h, ZERO) + r
        return max(totals.values(), default=ZERO)
    blocks = t.source.ball_vertex_blocks()
    ws = t.source.weights
    scaled = [[ZERO] * t.source.dim for _ in t.rows]
    for out, w, row in zip(scaled, t.target.weights, t.rows):
        for j, c in row:
            out[j] = w * c / ws[j]
    rows, den = _over_common_denominator(scaled)
    images = _vertex_images(blocks, list(zip(*rows)))
    return Fraction(max(sum(abs(x[i]) for i in h)
                        for h in t.target.effective_groups() for x in images), den)


def is_isometric_iso(m: LinMap) -> bool:
    """m is invertible and m and its inverse are contractions; maps
    between zero-dimensional spaces count.  The one-leg case of
    `_isometric_split`."""
    return _isometric_split((m,))


def _isometric_split(legs: Sequence[LinMap], stacked: bool = False) -> bool:
    """Whether the map made of the legs (laid out as in `_monomial_data`)
    is an isometric isomorphism between the direct sum of the legs' parts
    and the space they share: side by side, the map out of the sum of
    their sources (a partition map); stacked, the map into the product of
    their targets (a restriction cone).  The direct sum's weights are the
    parts' weights in order; SUM parts sum to one block, and the blocks of
    SUP parts follow one another.  Parts that differ in flavor have no
    direct sum (`direct_sum` raises FlavorMismatch), so no map out of or
    into one is an isometric isomorphism: False.  The summed space and the
    map are built only where the legs' nonzeros cannot decide.

    Contractive both ways is the same as invertible and isometric:
    |v| = |m^-1 m v| <= |m v| <= |v|.  A map that is not square is not
    invertible.  A monomial m (one nonzero per row and column,
    e_j |-> c_j e_s(j)) is decided in closed form (`_isometric_monomial`),
    with no inverse and no norm: it is an isometric isomorphism exactly
    when it is square with a nonzero in every column, |c_j| w'(s(j)) =
    w(j) for every j (w, w' the source and target weights), and s carries
    the blocks of `effective_groups` onto blocks (one block for SUM, one
    per coordinate for plain SUP).  Necessity: e_j is a ray of norm w(j)
    that goes to a ray of norm |c_j| w'(s(j)); and if j, k lie in one
    source block and s(j), s(k) in two target blocks, v = e_j/w(j) +
    e_k/w(k) has norm 2 while |m v| = 1 (and the reverse case gives 1
    against 2).  Sufficiency: with the blocks matched, the weighted l1 sum
    of m v on the target block of g is that of v on g, term by term, so
    the max over blocks is the same.  Between unblocked spaces of one
    flavor every bijection carries blocks onto blocks, so they are not
    compared, and a map that is not monomial is no isometric isomorphism:
    one of weighted l1 spaces carries the extreme points +-e_j/w(j) of
    one unit ball onto those of the other, so each column has one
    nonzero, and one of sup-normed spaces is the transpose of one of the
    dual l1 spaces.  With blocks, or between the two flavors, that fails
    (an l1 plane is isometric to a sup plane, (u, v) |-> (u + v, u - v)),
    so the built map goes through its inverse and two `operator_norm`s.
    """
    parts = [leg.target for leg in legs] if stacked else [leg.source for leg in legs]
    whole = legs[0].source if stacked else legs[0].target
    flavor = parts[0].flavor
    if any(part.flavor is not flavor for part in parts):
        return False
    weights: tuple[Fraction, ...] = ()
    for part in parts:
        weights += part.weights
    if whole.dim != len(weights):
        return False
    blocks = None
    if flavor is not whole.flavor or whole.groups or any(part.groups for part in parts):
        ids: list[int] = []
        off = 0
        for part in parts:
            ids += [off + k for k in _block_ids(part)]
            if flavor is Flavor.SUP:  # SUM parts share one block
                off += len(part.effective_groups())
        blocks = (_block_ids(whole), ids) if stacked else (ids, _block_ids(whole))
    entries = _monomial_data(legs, stacked)
    if entries is not None:
        if stacked:
            return _isometric_monomial(entries, whole.weights, weights, blocks)
        return _isometric_monomial(entries, weights, whole.weights, blocks)
    if blocks is None:
        return False
    m = legs[0] if len(legs) == 1 else _mediated(direct_sum(parts).space, whole, legs, stacked)
    back = m.inverse()
    return back is not None and operator_norm(m) <= 1 and operator_norm(back) <= 1


def _isometric_monomial(entries, source_weights, target_weights, blocks=None) -> bool:
    """The closed form of `_isometric_split` (proof there) for a square map
    given by its (source col, target row, coefficient) nonzeros, at most
    one per row and per column: a nonzero in every column,
    |c| w'(row) = w(col) at each one, and blocks onto blocks, compared only
    when `blocks` is given, as the `_block_ids` of source and target.
    With c = p/q, w' = a/b and w = r/s (denominators positive), |c| w' = w
    is |p| a s = r q b, one comparison of int products: no Fraction is
    compared or built, and each pair is read in one `as_integer_ratio`."""
    if len(entries) < len(source_weights):
        return False
    for j, i, c in entries:
        p, q = c.as_integer_ratio()
        a, b = target_weights[i].as_integer_ratio()
        r, s = source_weights[j].as_integer_ratio()
        if abs(p) * a * s != r * q * b:
            return False
    if blocks is None:
        return True
    sb, tb = blocks
    pairs = {(sb[j], tb[i]) for j, i, _ in entries}
    return len(pairs) == len(set(sb)) == len(set(tb))


class IsoWitness(Frozen):
    def __init__(self, forward: LinMap, backward: LinMap):
        self.__dict__.update(forward=forward, backward=backward)

    def is_valid(self) -> bool:
        return (self.backward @ self.forward).is_identity() and \
               (self.forward @ self.backward).is_identity()

    def is_isometric(self) -> bool:
        return self.is_valid() and is_isometric_iso(self.forward)

    @staticmethod
    def from_permutation(source: FinBanSpace, target: FinBanSpace,
                         image_index: Sequence[int]) -> "IsoWitness":
        """Witness for e_j |-> e_{image_index[j]}."""
        if sorted(image_index) != list(range(source.dim)) or source.dim != target.dim:
            raise InvalidModel("not a permutation of matched bases")
        # row i of the forward map is e_j for the j sent to i
        inverse = sorted(range(source.dim), key=lambda j: image_index[j])
        eye = _identity_rows(source.dim)
        return IsoWitness(LinMap(source, target, tuple(eye[j] for j in inverse)),
                          LinMap(target, source, tuple(eye[i] for i in image_index)))


# ---------------------------------------------------------------------------
# direct sums and tensors
# ---------------------------------------------------------------------------

class DirectSum(Frozen):
    def __init__(self, space: FinBanSpace, parts: tuple[FinBanSpace, ...],
                 offsets: tuple[int, ...]):
        self.__dict__.update(space=space, parts=parts, offsets=offsets)

    @property
    def injections(self) -> tuple[LinMap, ...]:
        """inj_k e_j = e_(offsets[k] + j), built when read."""
        return tuple(LinMap(part, self.space, ((),) * off + _identity_rows(part.dim)
                            + ((),) * (self.space.dim - off - part.dim))
                     for off, part in zip(self.offsets, self.parts))

    @property
    def projections(self) -> tuple[LinMap, ...]:
        """proj_k, the transpose of inj_k, built when read."""
        eye = _identity_rows(self.space.dim)
        return tuple(LinMap(self.space, part, eye[off:off + part.dim])
                     for off, part in zip(self.offsets, self.parts))

    def mediate(self, cone: Sequence[LinMap]) -> LinMap:
        """The unique map T made of the cone's legs.  A SUM sum is a
        coproduct, so T leaves it: T o inj_x = cone_x.  A SUP sum is a
        product, so T enters it: proj_x o T = cone_x."""
        stacked = self.space.flavor is Flavor.SUP
        if len(cone) != len(self.parts):
            raise InvalidModel("one cone leg per summand required")
        # (apex, summand end) of each leg: legs leave the summands of a
        # sum and enter the factors of a product
        ends = [(leg.source, leg.target) if stacked else (leg.target, leg.source)
                for leg in cone]
        apex = ends[0][0]
        if any(a != apex for a, _ in ends):
            raise InvalidModel("cone legs must share an apex")
        if any(p != part for (_, p), part in zip(ends, self.parts)):
            raise InvalidModel("each cone leg must meet its summand")
        return _mediated(self.space, apex, cone, stacked=stacked)


def direct_sum(spaces: Sequence[FinBanSpace],
               tags: Optional[Sequence[str]] = None) -> DirectSum:
    """Disjoint-union basis with inherited weights.

    SUM inputs give the coproduct (norms add); SUP inputs give the
    product (norms max, block structures concatenated).
    """
    if not spaces:
        raise InvalidModel("direct_sum needs at least one space")
    flavor = spaces[0].flavor
    if any(s.flavor is not flavor for s in spaces):
        raise FlavorMismatch("direct_sum needs a single flavor")
    if tags is None:
        tags = [str(k) for k in range(len(spaces))]
    labels: list[str] = []
    weights: list[Fraction] = []
    offsets: list[int] = []
    groups: list[tuple[int, ...]] = []
    pos = 0
    for tag, s in zip(tags, spaces):
        offsets.append(pos)
        labels.extend(f"{tag}:{b}" for b in s.basis)
        weights.extend(s.weights)
        if flavor is Flavor.SUP:
            groups.extend(tuple(pos + i for i in g) for g in s.effective_groups())
        pos += s.dim
    grouped = tuple(groups) if flavor is Flavor.SUP and any(
        s.groups is not None for s in spaces) else None
    total = FinBanSpace(tuple(labels), tuple(weights), flavor, grouped)
    return DirectSum(total, tuple(spaces), tuple(offsets))


class TensorProduct(Frozen):
    def __init__(self, space: FinBanSpace, left: FinBanSpace, right: FinBanSpace):
        self.__dict__.update(space=space, left=left, right=right)

    def pure(self, v: Sequence[Fraction], w: Sequence[Fraction]) -> Vector:
        """The bilinear embedding (v, w) |-> v (x) w."""
        out = [ZERO] * self.space.dim
        for i, x in enumerate(v):
            if x == 0:
                continue
            base = i * self.right.dim
            for j, y in enumerate(w):
                if y != 0:
                    out[base + j] = x * y
        return tuple(out)


def projective_tensor(a: FinBanSpace, b: FinBanSpace) -> TensorProduct:
    """Product basis with multiplied weights, left factor major.

    For weighted l1 factors this weighted l1 norm equals the projective
    norm (infimum over representations); the tests recompute that
    infimum by LP so the identity stays testable.
    """
    if a.flavor is not Flavor.SUM or b.flavor is not Flavor.SUM:
        raise FlavorMismatch("the projective tensor is built on SUM spaces")
    labels = tuple(f"{x}(x){y}" for x in a.basis for y in b.basis)
    weights = tuple(wa * wb for wa in a.weights for wb in b.weights)
    return TensorProduct(FinBanSpace(labels, weights, Flavor.SUM), a, b)


# ---------------------------------------------------------------------------
# quotients (metric surjections from SUM spaces)
# ---------------------------------------------------------------------------

class QuotientSpace(Frozen):
    """A quotient A / span(relations) of a SUM space.

    `space` is a weighted presentation on a complement basis, exact on
    basis rays; `class_norm` is the true quotient norm (an LP over the
    relation span), and the operator-norm helpers below use the metric
    surjection A -> A/S so that isometry claims about quotients are
    decided against the true norm, not the presentation.
    """

    def __init__(self, ambient: FinBanSpace, relations: tuple[Vector, ...],
                 space: FinBanSpace,
                 projection: LinMap,  # ambient -> space (coordinates mod relations)
                 section: LinMap,     # space -> ambient (complement basis inclusion)
                 _row_space: tuple[Vector, ...] = ()):
        self.__dict__.update(ambient=ambient, relations=relations, space=space,
                             projection=projection, section=section, _row_space=_row_space)

    def class_norm(self, ambient_vector: Sequence[Fraction]) -> Fraction:
        """True quotient norm of the class of an ambient vector."""
        if not self._row_space:
            return self.ambient.norm(ambient_vector)
        return exactla.min_weighted_l1_over_affine(
            self.ambient.weights, list(ambient_vector), [list(r) for r in self._row_space])

    def norm(self, v: Sequence[Fraction]) -> Fraction:
        """True quotient norm of a presentation vector."""
        return self.class_norm(self.section(v))

    def projection_norm(self) -> Fraction:
        """Norm of the projection against the true quotient norm (<= 1)."""
        best = ZERO
        for j in range(self.ambient.dim):
            val = self.class_norm(self.ambient.basis_vector(j)) / self.ambient.weights[j]
            if val > best:
                best = val
        return best

    def norm_of_map_from(self, t: LinMap) -> Fraction:
        """||T|| for T : quotient -> B, via T o projection (the quotient
        ball is the image of the ambient ball)."""
        if t.source != self.space:
            raise InvalidModel("map must start at the quotient presentation")
        return operator_norm(t @ self.projection)

    def norm_of_map_into(self, t: LinMap) -> Fraction:
        """||T|| for T : B -> quotient (B a SUM space), using the true
        quotient norm on the columns."""
        if t.target != self.space:
            raise InvalidModel("map must land in the quotient presentation")
        if t.source.flavor is not Flavor.SUM:
            raise FlavorMismatch("norms into a quotient are computed from SUM sources")
        return max((self.norm(t.column(j)) / w for j, w in enumerate(t.source.weights)),
                   default=ZERO)


def quotient(a: FinBanSpace, span_vectors: Sequence[Sequence[Fraction]],
             label: str = "q") -> QuotientSpace:
    """A / span(span_vectors) with LP quotient norms.

    The presentation basis is the set of ambient coordinates that are
    free in the reduced row form of the span; spanning everything gives
    the zero space.
    """
    if a.flavor is not Flavor.SUM:
        raise FlavorMismatch("quotients are taken of SUM spaces")
    rows = [list(v) for v in span_vectors if any(x != 0 for x in v)]
    for v in rows:
        if len(v) != a.dim:
            raise InvalidModel("relation vector has the wrong length")
    red, pivots = exactla.rref(rows)
    red = [tuple(r) for r in red[:len(pivots)]]
    free = [j for j in range(a.dim) if j not in pivots]

    def reduce_vector(v: Sequence[Fraction]) -> Vector:
        work = list(v)
        for row, c in zip(red, pivots):
            coeff = work[c]
            if coeff != 0:
                for j in range(a.dim):
                    if row[j] != 0:
                        work[j] -= coeff * row[j]
        return tuple(work[j] for j in free)

    row_space = tuple(red)
    # exact norms of the basis rays give the presentation weights
    weights = []
    for j in free:
        w = exactla.min_weighted_l1_over_affine(
            a.weights, list(basis_vec(a.dim, j)), [list(r) for r in row_space]) \
            if row_space else a.weights[j]
        weights.append(w)
    space = FinBanSpace(
        tuple(f"{label}[{a.basis[j]}]" for j in free), tuple(weights), Flavor.SUM)
    proj_cols = [reduce_vector(basis_vec(a.dim, j)) for j in range(a.dim)]
    projection = LinMap.from_columns(a, space, proj_cols)
    sec_cols = [basis_vec(a.dim, j) for j in free]
    section = LinMap.from_columns(space, a, sec_cols)
    return QuotientSpace(a, tuple(tuple(r) for r in rows), space, projection,
                         section, row_space)


# ---------------------------------------------------------------------------
# thin index categories, bifunctors, coends and ends
# ---------------------------------------------------------------------------

class FinPoset(Frozen):
    """A finite poset presented by objects and generating arrows; used as
    the index of (co)ends.  Thinness keeps functoriality decidable."""

    def __init__(self, objects: tuple[str, ...], arrows: tuple[tuple[str, str], ...] = ()):
        if len(set(objects)) != len(objects):
            raise InvalidModel("duplicate objects")
        for s, t in arrows:
            if s not in objects or t not in objects:
                raise InvalidModel("arrow endpoint is not an object")
            if s == t:
                raise InvalidModel("identity arrows are implicit")
        self.__dict__.update(objects=objects, arrows=arrows)
        if any(self.leq(a, b) and self.leq(b, a) and a != b
               for a in self.objects for b in self.objects):
            raise InvalidModel("the generating arrows create a cycle")

    def leq(self, a: str, b: str) -> bool:
        if a == b:
            return True
        seen = {a}
        frontier = [a]
        while frontier:
            x = frontier.pop()
            for s, t in self.arrows:
                if s == x and t not in seen:
                    if t == b:
                        return True
                    seen.add(t)
                    frontier.append(t)
        return False

    def path_independent(self, step: Callable[[tuple[str, str]], LinMap],
                         covariant: bool = True) -> bool:
        """Whether any two nonempty paths of generating arrows a -> b
        compose to the same map, arrow f acting by step(f), composed along
        the path when covariant and against it otherwise.

        For each source a the targets b are visited by the number of
        objects below them, so each c < b comes first.  A nonempty path
        a -> b is a last arrow (c, b) after nothing (c = a) or after a
        nonempty path a -> c.  By induction on that order, if every path
        a -> c composes to reached[c] for each c before b, the paths a -> b
        compose to the candidates of their last arrows: all agree exactly
        when the candidates do, and reached[b] is their common value.
        """
        order = sorted(self.objects, key=lambda b: sum(self.leq(x, b) for x in self.objects))
        for a in self.objects:
            reached: dict[str, LinMap] = {}
            for b in order:
                for c, t in self.arrows:
                    if t != b or (c != a and c not in reached):
                        continue
                    m = step((c, b))
                    if c != a:
                        m = m @ reached[c] if covariant else reached[c] @ m
                    if reached.setdefault(b, m).rows != m.rows:
                        return False
        return True

    @staticmethod
    def discrete(objects: Sequence[str]) -> "FinPoset":
        return FinPoset(tuple(objects), ())

    @staticmethod
    def chain(objects: Sequence[str]) -> "FinPoset":
        arrows = tuple((objects[i], objects[i + 1]) for i in range(len(objects) - 1))
        return FinPoset(tuple(objects), arrows)


class BifunctorData:
    """F : M^op x M -> spaces on a thin index M.

    space(x, y) gives F(x, y); for a generating arrow f = (a, b),
    left(f, y) : F(b, y) -> F(a, y) is the contravariant action and
    right(x, f) : F(x, a) -> F(x, b) the covariant one.  `validate`
    checks path independence of both actions and their interchange and
    raises NotAFunctor on any mismatch.
    """

    def __init__(self, index: FinPoset,
                 space: Callable[[str, str], FinBanSpace],
                 left: Callable[[tuple[str, str], str], LinMap],
                 right: Callable[[str, tuple[str, str]], LinMap]):
        self.index = index
        self.space = space
        self.left = left
        self.right = right

    def validate(self) -> None:
        objs = self.index.objects
        for f in self.index.arrows:
            a, b = f
            for y in objs:
                lm = self.left(f, y)
                if lm.source != self.space(b, y) or lm.target != self.space(a, y):
                    raise NotAFunctor("left action has wrong endpoints")
            for x in objs:
                rm = self.right(x, f)
                if rm.source != self.space(x, a) or rm.target != self.space(x, b):
                    raise NotAFunctor("right action has wrong endpoints")
        for y in objs:
            if not self.index.path_independent(lambda f: self.left(f, y), covariant=False):
                raise NotAFunctor("contravariant action is path dependent")
        for x in objs:
            if not self.index.path_independent(lambda f: self.right(x, f)):
                raise NotAFunctor("covariant action is path dependent")
        for f in self.index.arrows:
            for g in self.index.arrows:
                a, b = f
                c, d = g
                # F(f, g) : F(b, c) -> F(a, d), both evaluation orders
                first = self.right(a, g) @ self.left(f, c)
                second = self.left(f, d) @ self.right(b, g)
                if first.rows != second.rows:
                    raise NotAFunctor("left and right actions do not interchange")


class CoendResult:
    """Coend of a bifunctor: the coequalizer of the two actions, realised
    as a quotient of the diagonal direct sum."""

    def __init__(self, index: FinPoset, bifunctor: BifunctorData, diagonal: DirectSum,
                 quotient: QuotientSpace, wedges: dict[str, LinMap]):
        self.index, self.bifunctor, self.diagonal = index, bifunctor, diagonal
        self.quotient, self.wedges = quotient, wedges

    @property
    def space(self) -> FinBanSpace:
        return self.quotient.space

    def check_wedge(self) -> bool:
        """The universal cowedge identifies both actions of every arrow."""
        for f in self.index.arrows:
            a, b = f
            via_a = self.wedges[a] @ self.bifunctor.left(f, a)
            via_b = self.wedges[b] @ self.bifunctor.right(b, f)
            if via_a.rows != via_b.rows:
                return False
        return True


def coend(bif: BifunctorData, label: str = "coend") -> CoendResult:
    """Coequalizer of  (+)_{f: a->b} F(b,a)  =>  (+)_a F(a,a).

    Relations along composites follow from those along generators once
    functoriality holds, so generating arrows suffice.
    """
    bif.validate()
    objs = bif.index.objects
    diag = direct_sum([bif.space(a, a) for a in objs], tags=list(objs))
    injections = diag.injections
    relations: list[Vector] = []
    for f in bif.index.arrows:
        a, b = f
        # F(b,a) -> diagonal; each column is the relation of one basis vector
        rel = (injections[objs.index(a)] @ bif.left(f, a)).add(
            (injections[objs.index(b)] @ bif.right(b, f)).scale(-1))
        relations.extend(rel.column(k) for k in range(rel.source.dim))
    q = quotient(diag.space, relations, label=label)
    wedges = {a: q.projection @ injections[i] for i, a in enumerate(objs)}
    return CoendResult(bif.index, bif, diag, q, wedges)


class EndResult(Frozen):
    """End of a bifunctor: the equalizer inside the diagonal product.

    `vectors` are product-coordinate representatives of the basis; the
    presentation carries nominal unit weights except in the unconstrained
    (discrete) case, where the honest product space is returned.
    """

    def __init__(self, index: FinPoset, diagonal: DirectSum, space: FinBanSpace,
                 vectors: tuple[Vector, ...], inclusion: LinMap):
        self.__dict__.update(index=index, diagonal=diagonal, space=space,
                             vectors=vectors, inclusion=inclusion)


def end(bif: BifunctorData) -> EndResult:
    bif.validate()
    objs = bif.index.objects
    parts = [bif.space(a, a) for a in objs]
    if any(p.flavor is Flavor.SUM for p in parts):
        raise FlavorMismatch("ends are taken in product (SUP) spaces")
    diag = direct_sum(parts, tags=list(objs))
    projections = diag.projections
    constraints: list[Vector] = []
    for f in bif.index.arrows:
        a, b = f
        # diagonal -> F(a,b); each row is one constraint
        con = (bif.right(a, f) @ projections[objs.index(a)]).add(
            (bif.left(f, b) @ projections[objs.index(b)]).scale(-1))
        constraints.extend(con.matrix)
    if not constraints:
        return EndResult(bif.index, diag, diag.space,
                         tuple(diag.space.basis_vector(i) for i in range(diag.space.dim)),
                         LinMap.identity(diag.space))
    basis = exactla.nullspace(constraints)
    space = FinBanSpace(tuple(f"end{i}" for i in range(len(basis))),
                        (ONE,) * len(basis), Flavor.SUP)
    inclusion = LinMap.from_columns(space, diag.space, [tuple(v) for v in basis])
    return EndResult(bif.index, diag, space, tuple(tuple(v) for v in basis), inclusion)
