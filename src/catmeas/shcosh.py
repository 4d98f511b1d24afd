"""Sheaves and cosheaves on a finite Boolean algebra, for the topology
whose covers are finite partitions.

A precosheaf assigns a SUM space to every element and an extension map
to every inclusion; it is a cosheaf when, for each partition, the
mediated map from the direct sum of the blocks is an isometric
isomorphism.  Binary partitions generate all of them, and one split per
element already decides the condition: the split {E minus its top atom,
top atom}, which makes the atomic partition map of E an isometric
isomorphism by induction (the proof is in `is_cosheaf`).  So the checker
decides 2^n - n - 1 splits.  Every partition it visits, these splits,
the binary splits that re-locate a failure and every partition in the
exhaustive mode that cross-validates the reduction, is decided on its
legs, one structure map per block, by the one isometry decision of
`finban`, which builds a summed space and a partition map only where
the legs' nonzeros cannot decide: a split that is not monomial, with
blocks or between the two flavors.  Between spaces of one flavor
without blocks that decision splits up by leg, so each leg is read once
per element and a partition passes when its legs' masks partition the
coordinates of the value it covers.

Cosheaves carry a derived spectral measure.  By the discrete density
result a cosheaf is fixed by its atom fibers: the atomic partition map A_e
of each element e is invertible, and every cosheaf projection is read
off the row blocks of one A_e^-1.  The atom projections at top are
P_a = A diag(1_a) A^-1, and P_E, the sum of the P_a below E, is the
idempotent with range ext_{E,top} and kernel ext_{~E,top}; the spectral
data stores the P_a, a resolution of the identity.  The action of simple
elements f |-> sum f(a) P_a is a unital multiplicative algebra map whose
operator norm is the essential sup of f, the sup of |f(a)| over the atoms
a with a nonzero fiber (P_a = 0 on the others); it is summed in one pass
over the carrier rows, and the self-checks of these laws name a witness
when they fail.

Presheaves are the dual picture (SUP spaces, restrictions, product
condition, decided the same way); characteristic presheaves and the hom
solver live here too, as do cosheafification, the bounded-variation
cosheaf and Isbell conjugation.

The two variances are one structure, spaces on the elements and maps on
the covering pairs (small, big); the class attribute `covariant` says
whether maps go small -> big (precosheaves) or big -> small (presheaves),
and every helper reads it from its argument.  One walker composes both
`extension` and `restriction`, and one builder emits the rows of
tau_c o x(d->c) - y(d->c) o tau_d for every covering arrow d -> c, whose
systems sheaf_hom, cosheaf_hom and count_factorizations solve.  Isbell
conjugation is one construction in both directions, and it solves no
such system: by the Yoneda lemma a natural map into a representable is
fixed by one functional phi at the root (top for a precosheaf, bottom for
a presheaf), so each value is the annihilator of a few images at the
root, cut from its neighbour's one atom away by one killer's images;
greedy pivots in root coordinates, in integers, give it the hom
solver's basis (the proof is in `_conjugate`).  isbell and
isbell_adjoint differ only in the root, the images killed and the
direction of the structure maps, which are inclusions of annihilators.
A (co)presheaf's structure maps are one dict or one closed form.
Assembled input stores its cover maps, and `_walk` composes and keeps
their chain products.  Every closed-form construction (block sums,
indicators, `random_cosheaf`, the conjugate of a block sum) stores a
function that writes the map between any small < big directly, and
keeps none.  A block sum (`_on_atom_blocks`) also carries a layout that
gives its condition check, atom projections and conjugate in closed
form.

Solution spaces produced by the hom solvers (sheaf_hom, Isbell values)
are presented on nullspace bases with nominal unit weights; their norms
are not part of any contract here, only their dimensions and the linear
structure.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .boolalg import BoolAlg, BoolMorphism, partitions_of
from .errors import (AlgebraMismatch, FieldEq, Frozen, InvalidModel, NotACosheaf,
                     NotAFunctor, SupportError)
from . import exactla
from .exactla import ONE, ZERO
from .finban import (FinBanSpace, Flavor, LinMap, Vector, _identity_rows,
                     _isometric_leg, _isometric_split, _mediated, _over_common_denominator,
                     direct_sum, operator_norm, scalars, sup_space, zero_space)
from .measures import MeasureAlgebra, VectorMeasure
from .simple import SimpleElement, characteristic


# ---------------------------------------------------------------------------
# precosheaves and presheaves
# ---------------------------------------------------------------------------

class _BlockLayout:
    """The layout of a block sum x from `_on_atom_blocks`, whose values are
    `spaces` and whose maps go small -> big when `covariant`: x(E) holds
    the blocks of E's atoms in atom order."""

    def __init__(self, widths: tuple[int, ...], spaces: Mapping[int, FinBanSpace],
                 covariant: bool):
        self.widths, self.spaces, self.covariant = widths, spaces, covariant

    def block(self, e: int, k: int) -> slice:
        """Where atom k's block sits in x(E) (would go, for k outside E):
        from the dim of x at the atoms of E below k, `widths[k]` wide."""
        start = self.spaces[e & ((1 << k) - 1)].dim
        return slice(start, start + self.widths[k])

    def walk(self, small: int, big: int) -> LinMap:
        """x's structure map between small <= big, written directly: the
        source's identity with, at each atom k of big - small, k's zero rows
        inserted at its offset (an inclusion, precosheaf) or k's block
        removed (a drop, presheaf), which is what the chain of cover maps
        composes to."""
        src, tgt = _arrow(self, small, big)
        eye, rows, start, new = _identity_rows(self.spaces[src].dim), [], 0, big & ~small
        while new:  # the atoms k of big - small, lowest first
            k, new = (new & -new).bit_length() - 1, new & (new - 1)
            at = self.block(src, k)
            rows += eye[start:at.start]
            rows += ((),) * self.widths[k] if self.covariant else ()
            start = at.start if self.covariant else at.stop
        return LinMap(self.spaces[src], self.spaces[tgt], tuple(rows + list(eye[start:])))


class _Assignment(FieldEq):
    """Spaces on the elements and structure maps going the way the
    subclass's `covariant` says, from `maps` in one of two forms.  Assembled
    input (`make_precosheaf`, `make_presheaf`, the general Isbell
    conjugate, whose maps are checked when built) stores the dict of its
    cover maps, keyed by covering pairs (small, big), and `_walk` keeps the
    chain products it composes from them in `_walks`.  Every closed-form
    library construction (block sums, indicators, `random_cosheaf`, the
    conjugate of a block sum) stores a function `maps(small, big)` that
    writes the map between any small < big, and keeps none.  Neither
    changes after construction; the library reads the maps through `_walk`
    alone (`_validate_functorial` reads the dict it checks).  The `layout`,
    set by `_on_atom_blocks` alone to the `_BlockLayout` of the block sum it
    builds, is asked first by `_partition_condition`, `_atom_projections`
    and `_conjugate`, which write their answers in closed form.  == compares
    algebra, spaces and `cover_maps`, of one class, so neither `_walks` nor
    `layout` counts: a block sum equals the same data assembled."""

    def __init__(self, algebra: BoolAlg, spaces: dict[int, FinBanSpace],
                 maps: Mapping[tuple[int, int], LinMap] | Callable[[int, int], LinMap],
                 layout: Optional[_BlockLayout] = None):
        self.algebra, self.spaces, self.maps = algebra, spaces, maps
        self.layout = layout
        self._walks: dict[tuple[int, int], LinMap] = {}

    @property
    def cover_maps(self) -> Mapping[tuple[int, int], LinMap]:
        """The structure maps on the covering pairs, in their order: the
        stored dict of assembled input, or for a closed form a fresh dict
        of `_walk`'s answers, which nothing keeps."""
        if callable(self.maps):
            return {pair: _walk(self, *pair) for pair in self.algebra.covering_pairs()}
        return self.maps

    _key = attrgetter("algebra", "spaces", "cover_maps")
    __hash__ = None

    def space(self, e: int) -> FinBanSpace:
        return self.spaces[self.algebra.check_element(e)]


class PreCosheaf(_Assignment):
    """Covariant assignment with extension maps, stored on covering pairs."""

    covariant = True

    def extension(self, small: int, big: int) -> LinMap:
        """The structure map small -> big, from `_walk`."""
        return _walk(self, small, big)


class PreSheaf(_Assignment):
    """Contravariant assignment with restriction maps on covering pairs."""

    covariant = False

    def restriction(self, big: int, small: int) -> LinMap:
        return _walk(self, small, big)


def _arrow(kind, small: int, big: int) -> tuple[int, int]:
    """(source, target) of kind's structure map between small <= big."""
    return (small, big) if kind.covariant else (big, small)


def _stack(x, lower: LinMap, upper: LinMap) -> LinMap:
    """x's structure map between a <= c through b, from its maps `lower`
    between a and b and `upper` between b and c."""
    return upper @ lower if x.covariant else lower @ upper


def _walk(x, small: int, big: int) -> LinMap:
    """x's structure map between small <= big; the one library reader of
    x.maps, the validator and `cover_maps` aside.  small == big gives the
    identity.  A closed form (`x.maps` a function) writes the map directly
    and keeps nothing.  Otherwise it runs along the chain from small that
    adds the atoms of big - small lowest first (path independence is
    validated for assembled input, proved for library constructions): the
    chain of (small, big - h), h the highest atom of big - small, then the
    cover map of (big - h, big), the same matrix as exact products are
    associative.  A covering pair is its cover map; each pair is composed
    once, then kept in x._walks."""
    if not x.algebra.leq(small, big):
        raise InvalidModel("a structure map needs small <= big")
    maps = x.maps
    if callable(maps):
        return maps(small, big) if small != big else LinMap.identity(x.spaces[small])
    out = x._walks.get((small, big))
    if out is None:
        if small == big:
            out = LinMap.identity(x.spaces[small])
        else:
            rest = big & ~(1 << ((big & ~small).bit_length() - 1))
            cover = maps[(rest, big)]
            out = cover if rest == small else _stack(x, _walk(x, small, rest), cover)
        x._walks[(small, big)] = out
    return out


def _validate_functorial(x, contractive: bool):
    """x, once checked to be functorial (and contractive)."""
    omega, spaces, cover_maps = x.algebra, x.spaces, x.maps
    if any(e not in spaces for e in omega.elements()):
        raise InvalidModel("a space is missing for some element")
    for small, big in omega.covering_pairs():
        m = cover_maps.get((small, big))
        if m is None:
            raise InvalidModel("a structure map is missing for a covering pair")
        src, tgt = _arrow(x, small, big)
        if m.source != spaces[src] or m.target != spaces[tgt]:
            raise NotAFunctor("structure map endpoints do not match the spaces")
        if contractive and operator_norm(m) > 1:
            raise InvalidModel("structure maps must be contractive")
    # diamond commutation gives path independence on the cube lattice
    for e in omega.elements():
        outside = [i for i in range(omega.n) if not e >> i & 1]
        for i, j in itertools.combinations(outside, 2):
            a, b = e | (1 << i), e | (1 << j)
            top = e | (1 << i) | (1 << j)
            left = _stack(x, cover_maps[(e, a)], cover_maps[(a, top)])
            right = _stack(x, cover_maps[(e, b)], cover_maps[(b, top)])
            if left.rows != right.rows:
                raise NotAFunctor("structure maps are path dependent")
    return x


def make_precosheaf(omega: BoolAlg, spaces, cover_maps,
                    contractive: bool = True) -> PreCosheaf:
    """A precosheaf from assembled data, checked to be functorial (and contractive)."""
    return _validate_functorial(PreCosheaf(omega, dict(spaces), dict(cover_maps)), contractive)


def make_presheaf(omega: BoolAlg, spaces, cover_maps,
                  contractive: bool = True) -> PreSheaf:
    """A presheaf from assembled data, checked to be functorial (and contractive)."""
    return _validate_functorial(PreSheaf(omega, dict(spaces), dict(cover_maps)), contractive)


def _on_atom_blocks(omega: BoolAlg, blocks: Sequence[tuple[tuple, tuple]], kind):
    """A precosheaf (SUM) or presheaf (SUP), as `kind` says, whose value at
    E sums the blocks below E in atom order, blocks[i] = (labels,
    weights) of atom i: the value at E minus its top atom with that
    atom's block appended (the same space for an empty block), with its
    `layout`.  For a covering pair (small, big = small + atom k), big's
    basis is small's with k's block inserted at the dim of the atoms of
    small below k, so the extension is small's identity with the block's
    zero rows inserted there, and the restriction its transpose, big's
    identity with the block's rows removed.  Its maps are the layout's
    `walk`, which writes the map between any small < big in closed form.
    Functorial and contractive by construction: inclusions compose to the
    inclusion and drops to the drop, so both paths of a diamond agree, and
    the weights are kept, so padding with zeros keeps the weighted l1 norm
    and dropping coordinates cannot raise the weighted sup."""
    flavor = Flavor.SUM if kind.covariant else Flavor.SUP
    spaces: dict[int, FinBanSpace] = {0: zero_space(flavor)}
    for e in omega.nonzero_elements():
        top = e.bit_length() - 1
        rest, (labels, weights) = spaces[e & ~(1 << top)], blocks[top]
        spaces[e] = FinBanSpace(rest.basis + labels, rest.weights + weights, flavor) if labels else rest
    layout = _BlockLayout(tuple(len(labels) for labels, _ in blocks), spaces, kind.covariant)
    return kind(omega, spaces, layout.walk, layout)


def from_atom_spaces(omega: BoolAlg,
                     atom_spaces: Mapping[str, FinBanSpace]) -> PreCosheaf:
    """The canonical cosheaf with the given atom fibers: mu(E) is the
    direct sum of the fibers of the atoms below E (in atom order, tagged
    by atom), extensions are block inclusions (`_on_atom_blocks`): by the
    discrete density result, atom data extends to a cosheaf by sums."""
    for a in omega.atoms:
        if a not in atom_spaces:
            raise InvalidModel(f"missing atom space for {a!r}")
        if atom_spaces[a].flavor is not Flavor.SUM:
            raise InvalidModel("cosheaf fibers carry the SUM flavor")
    return _on_atom_blocks(omega, [(tuple(f"{a}:{b}" for b in atom_spaces[a].basis),
                                    atom_spaces[a].weights) for a in omega.atoms], PreCosheaf)


def restrict_to_atoms(mu: PreCosheaf) -> dict[str, FinBanSpace]:
    """The other direction of the discrete density result."""
    return {a: mu.space(mu.algebra.atom_mask(a)) for a in mu.algebra.atoms}


def l1_cosheaf(mu: MeasureAlgebra) -> PreCosheaf:
    """E |-> weighted l1 on the positive-measure atoms below E."""
    atom_spaces = {}
    for i, a in enumerate(mu.algebra.atoms):
        w = mu.atom_value(i)
        if w > 0:
            atom_spaces[a] = FinBanSpace((a,), (w,), Flavor.SUM)
        else:
            atom_spaces[a] = zero_space(Flavor.SUM)
    return from_atom_spaces(mu.algebra, atom_spaces)


def constant_precosheaf(omega: BoolAlg, b: FinBanSpace) -> PreCosheaf:
    """E |-> B with identity extensions, the indicator of every element
    (not a cosheaf once there are two atoms)."""
    return _indicator(omega, lambda f: True, b, PreCosheaf)


def zero_precosheaf(omega: BoolAlg) -> PreCosheaf:
    return from_atom_spaces(omega, {a: zero_space(Flavor.SUM) for a in omega.atoms})


# ---------------------------------------------------------------------------
# the (co)sheaf condition
# ---------------------------------------------------------------------------

class Verdict(Frozen, FieldEq):
    """A condition check's answer, with the element, blocks and reason of
    its failure; equal when all four are."""

    def __init__(self, ok: bool, failing_element: Optional[int] = None,
                 failing_blocks: Optional[tuple[int, ...]] = None, reason: str = ""):
        self.__dict__.update(ok=ok, failing_element=failing_element,
                             failing_blocks=failing_blocks, reason=reason)

    _key = attrgetter("ok", "failing_element", "failing_blocks", "reason")

    def __bool__(self) -> bool:
        return self.ok


def partition_map(x, e: int, blocks: Sequence[int]) -> LinMap:
    """The mediated map of a partition of E, made of the structure maps
    x(F, E), one per block F: for a precosheaf, (+)_F x(F) -> x(E) out
    of the sum; for a presheaf, the restriction cone x(E) -> prod_F x(F)
    into the product."""
    ds = direct_sum([x.space(f) for f in blocks],
                    tags=[x.algebra.describe(f) for f in blocks])
    return _mediated(ds.space, x.space(e), [_walk(x, f, e) for f in blocks], not x.covariant)


def _binary_splits(omega: BoolAlg, e: int):
    """The splits (f, e - f) of e into two nonzero blocks, each once: f
    runs over the sets of r atoms of e for r = 1 .. k // 2 (k atoms), in
    lexicographic order of atom indices.  At r = k / 2 each split has two
    such f, and only the one that holds e's lowest atom, the first of the
    two in that order, is taken; an f of more than k / 2 atoms has a
    complement of fewer, taken before it."""
    idx = omega.atom_indices(e)
    k = len(idx)
    for r in range(1, k // 2 + 1):
        for picked in itertools.combinations(idx, r):
            if 2 * r < k or picked[0] == idx[0]:
                f = sum(1 << i for i in picked)
                yield f, e & ~f


def _split_decider(x, e: int, by_legs: bool) -> Callable[[tuple[int, ...]], bool]:
    """Whether the partition map or restriction cone of x on given blocks
    of e is an isometric isomorphism.  `by_legs`, for spaces of one flavor
    without groups, reads each leg x(F, e) once, on first use, as its
    `_isometric_leg` mask, and passes blocks whose legs all pass with
    masks that partition x(e)'s coordinates (the proof is in
    `is_cosheaf`); otherwise each call decides its legs by
    `_isometric_split`."""
    stacked = not x.covariant
    if not by_legs:
        return lambda blocks: _isometric_split([_walk(x, f, e) for f in blocks], stacked)
    masks: dict[int, Optional[int]] = {}
    full = (1 << x.spaces[e].dim) - 1

    def decide(blocks: tuple[int, ...]) -> bool:
        union = 0
        for f in blocks:
            if f not in masks:
                masks[f] = _isometric_leg(_walk(x, f, e), stacked)
            mask = masks[f]
            if mask is None or mask & union:
                return False
            union |= mask
        return union == full

    return decide


def _partition_condition(x, exhaustive: bool) -> Verdict:
    """The verdict of is_cosheaf/is_sheaf on a precosheaf or presheaf x;
    the map that must be an isometric isomorphism for a partition is its
    partition map or its restriction cone, each decided on its legs
    x(F, e), one per block F, by `_split_decider`.  Without `exhaustive`,
    a block sum (`x.layout`) passes (the proof is in `is_cosheaf`); on
    other input each element with two or more atoms is decided by its
    top-atom split, on the structure maps from e minus its top atom and
    from the top atom, and a failing element by the first failing binary
    split in enumeration order.  With it, every partition of every
    element is checked, a block sum's too.  The top-atom reduction needs
    direct sums of isometric isomorphisms, so a (pre)cosheaf whose spaces
    differ in flavor checks every binary split instead; a split whose
    blocks differ in flavor fails, since no direct sum holds its blocks'
    values."""
    if x.layout is not None and not exhaustive:
        return Verdict(True)
    reason = ("mediated partition map is not an isometric isomorphism" if x.covariant
              else "restriction cone is not an isometric isomorphism")
    stacked = not x.covariant
    omega, spaces = x.algebra, x.spaces
    shapes = {(s.flavor, bool(s.groups)) for s in spaces.values()}
    one_flavor = len({flavor for flavor, _ in shapes}) <= 1
    by_legs = one_flavor and not any(blocked for _, blocked in shapes)
    if exhaustive:
        partitions_of(omega, omega.top)  # the largest enumeration meets its cap first
    for e in omega.nonzero_elements():
        if exhaustive:
            candidates = partitions_of(omega, e)
        else:
            a = 1 << (e.bit_length() - 1)
            if e == a or one_flavor and _isometric_split(
                    (_walk(x, e & ~a, e), _walk(x, a, e)), stacked):
                continue
            candidates = _binary_splits(omega, e)
        decide = _split_decider(x, e, by_legs)
        for blocks in candidates:
            if len(blocks) >= 2 and not decide(blocks):
                return Verdict(False, e, blocks, reason)
    if spaces[0].dim != 0:
        return Verdict(False, 0, (), "the bottom value must be the zero space")
    return Verdict(True)


def is_cosheaf(mu: PreCosheaf, exhaustive: bool = False) -> Verdict:
    """Partition condition: every mediated map is an isometric isomorphism.

    One split per element decides it.  For an element e with two or more
    atoms let a be its top atom, e' = e - a, S_e the mediated map of the
    split {e', a} and A_e : (+)_{b <= e} mu(b) -> mu(e) the mediated map
    of the atomic partition (A_b = id for an atom b).  Extending from an
    atom b <= e' to e' and then to e is extending from b to e, so

        A_e = S_e o (A_e' (+) id_mu(a)).

    If every S_e is an isometric isomorphism, so is every A_e, by
    induction on the number of atoms: a direct sum of isometric
    isomorphisms is isometric, because the norm of a direct sum is the
    sum (SUM spaces, weighted l1) or the max (SUP spaces) of the block
    norms on both sides.  For any partition {F_1, ..., F_k} of e the
    mediated map P satisfies P o ((+)_i A_F_i) = A_e up to the order of
    the atom summands (functoriality), so P = A_e o ((+)_i A_F_i)^-1 is a
    composite of isometric isomorphisms.  Each S_e is itself a binary
    split, so the 2^n - n - 1 maps S_e decide the condition.  Each S_e is
    decided on its two legs, the structure maps mu(e', e) and mu(a, e), by
    `finban._isometric_split`, which builds S_e only when it is not
    monomial and the spaces carry blocks.

    A block sum (`_on_atom_blocks`) passes with no split decided.  Its S_e
    has the legs mu(e', e), mu(e')'s identity at rows 0 .. dim mu(e') - 1
    (a is the top atom, so its block comes last), and mu(a, e), a's block
    last; side by side they are the identity of mu(e).  The source of
    S_e, the direct sum, carries the weights of mu(e') followed by those
    of a's block, which are mu(e)'s own, so S_e is an isometric
    isomorphism, the reduction gives the verdict and the bottom value is
    zero.  The presheaf case is dual, R_e stacking the same two drops.
    `exhaustive` still decides every partition of a block sum.

    Elements are visited in increasing order, which visits the elements
    below e before e.  When S_e fails, every element visited before e
    passed its split and so all of its binary splits; the binary splits
    of e are then enumerated and the first failing one is reported, the
    first counterexample of the full binary-split enumeration.
    `exhaustive` checks every partition of every element instead, a
    cross-check independent of the reduction, in the same order.

    Those partitions, and the binary splits, are decided leg by leg when
    the spaces share one flavor and carry no groups.  There
    `_isometric_split` compares no blocks, and its closed form splits up
    by leg, so each leg mu(F, e) is read once per element e
    (`_split_decider`).  Let the partition {F_1, ..., F_k} of e have legs
    L_i : mu(F_i) -> mu(e) and map P, the L_i side by side.  P is an
    isometric isomorphism exactly when it is square and monomial with a
    nonzero in every column, and |c| w'(row) = w(col) at each nonzero.
    The columns of P are those of the L_i, each leg in its own range,
    with the weights of mu(F_i), since the direct sum keeps each part's
    weights; its rows are mu(e)'s, shared by all legs.  A nonzero of P is
    a nonzero of one L_i at the same row, with the same weights at both
    ends.  So P is monomial with a nonzero in every column exactly when
    each L_i is monomial with every coordinate of mu(F_i) hit once, and
    no row is hit by two legs: the masks M_i of the rows hit are
    pairwise disjoint.  The weight test at P's nonzeros is the union of
    the legs' own tests.  A passing leg has |M_i| = dim mu(F_i), so P is
    then square exactly when the disjoint M_i cover mu(e)'s coordinates.
    Hence a partition passes exactly when every leg passes on its own
    (`finban._isometric_leg`, which gives M_i) and the masks partition
    mu(e)'s coordinates.  The restriction cone of a presheaf is the
    stacked dual, its legs' columns in place of rows.  Blocked and
    mixed-flavor spaces decide each partition by `_isometric_split` on
    its legs, which compares blocks and builds the map where the legs'
    nonzeros cannot decide.  So no partition map is built for spaces of
    one flavor without blocks; the test oracle
    `partition_condition_by_built_maps` builds every one.

    The empty partition covers bottom, so the bottom value must be zero;
    split counterexamples are reported in preference to that degenerate
    one.
    """
    return _partition_condition(mu, exhaustive)


def is_sheaf(xi: PreSheaf, exhaustive: bool = False) -> Verdict:
    """Product condition, dual to is_cosheaf: the restriction cone over
    each partition must be an isometric isomorphism.

    Decided the same way, on the cone R_e of the split {e - a, a} for the
    top atom a of e.  With C_e : xi(e) -> prod_{b <= e} xi(b) the atomic
    cone, C_e = (C_e' x id_xi(a)) o R_e; a product of isometric
    isomorphisms of SUP spaces is isometric under the max of the factor
    norms, and the cone of any partition is (prod_i C_F_i)^-1 o C_e.
    Each R_e is decided on the rows of its two legs, as S_e is on their
    columns, and under `exhaustive` a partition's legs each give the
    mask of the columns of xi(e) they hit, as in `is_cosheaf`.
    """
    return _partition_condition(xi, exhaustive)


# ---------------------------------------------------------------------------
# spectral measure of a cosheaf
# ---------------------------------------------------------------------------

def _atom_projections(mu: PreCosheaf, e: int) -> dict[int, LinMap]:
    """p_{e,a} : mu(e) -> mu(a) for the atoms a <= e, lowest first: the row
    blocks of A_e^-1, A_e the atomic partition map of e (A_0 maps from the
    zero space), so p_{e,a} o ext_{b,e} is id for b = a and 0 otherwise.
    On a block sum (`mu.layout`) A_e is the identity, so p_{e,a} selects
    the rows of a's block, with no partition map and no inverse.  Raises
    NotACosheaf when A_e is not square or is singular."""
    layout = mu.layout
    if layout is not None:
        eye = _identity_rows(mu.space(e).dim)
        return {1 << k: LinMap(mu.spaces[e], mu.spaces[1 << k], eye[layout.block(e, k)])
                for k in mu.algebra.atom_indices(e)}
    atoms = [1 << i for i in mu.algebra.atom_indices(e)]
    a_map = partition_map(mu, e, atoms) if e else LinMap.zero(zero_space(), mu.space(0))
    if a_map.source.dim != a_map.target.dim:
        raise NotACosheaf("atomic partition map is not square")
    inv = a_map.inverse()
    if inv is None:
        raise NotACosheaf("atomic partition map is singular")
    out, start = {}, 0
    for a in atoms:
        stop = start + mu.space(a).dim
        out[a] = LinMap(a_map.target, mu.space(a), inv.rows[start:stop])
        start = stop
    return out


def cosheaf_projection(mu: PreCosheaf, e: int, f: int) -> LinMap:
    """For f <= e, the unique p : mu(e) -> mu(f) with p o ext_{f,e} = id
    and p o ext_{e-f,e} = 0: the sum of ext_{a,f} o p_{e,a} over the atoms
    a <= f, which is the integral of the characteristic function of f
    from e to f.  Both send ext_{b,e}, for each atom b <= e, to ext_{b,f}
    when b <= f and to 0 otherwise, and on a cosheaf those images span
    mu(e).  Raises NotACosheaf as `_atom_projections` does."""
    if not mu.algebra.leq(f, e):
        raise InvalidModel("projection needs f <= e")
    return integrate_simple_morphism(characteristic(mu.algebra, f), mu, e, f)


class LawCheck(Frozen, FieldEq):
    """A spectral self-check's answer, truthy exactly when it passes.  A
    failure names the `law`, where it fails (`at`: an atom, a pair of
    samples f_i * f_j, or for the norm law its two sides) and the first
    carrier `row` where the two sides differ (None for the norm law)."""

    def __init__(self, law: str = "", at: str = "", row: Optional[int] = None):
        self.__dict__.update(law=law, at=at, row=row)

    _key = attrgetter("law", "at", "row")

    def __bool__(self) -> bool:
        return not self.law

    @property
    def detail(self) -> dict:
        return {"law": self.law, "at": self.at, "row": self.row}


def _first_difference(left: LinMap, right: LinMap) -> Optional[int]:
    """The first row where two maps of one shape differ, or None."""
    if left.rows == right.rows:
        return None
    return next(r for r, (a, b) in enumerate(zip(left.rows, right.rows)) if a != b)


class SpectralData:
    """The projection-valued measure of a cosheaf on its total value, held
    as its atom projections: atom_projections[i] is P_a for a = 1 << i.

    A combination sum_a k_a P_a (the action of a simple element, and the
    sum of the laws) is written in one pass over the carrier rows: row r
    is the sum of k_a times row r of P_a over the atoms whose P_a is
    nonzero there, which `_row_terms` keeps once, with those rows.  A row
    with one such atom, every row of a block sum or of a monomially
    twisted cosheaf, is that row scaled; no intermediate map is built."""

    def __init__(self, cosheaf: PreCosheaf, carrier: FinBanSpace,
                 atom_projections: tuple[LinMap, ...]):
        self.cosheaf, self.carrier, self.atom_projections = cosheaf, carrier, atom_projections

    @functools.cached_property
    def projections(self) -> dict[int, LinMap]:
        """P_E for every E, built on first read: P_E = P_{E-a} + P_a, a its top atom."""
        out = {0: LinMap.zero(self.carrier, self.carrier)}
        for e in self.cosheaf.algebra.nonzero_elements():
            top = e.bit_length() - 1
            out[e] = out[e & ~(1 << top)].add(self.atom_projections[top])
        return out

    @functools.cached_property
    def _row_terms(self) -> tuple[tuple[tuple[int, tuple], ...], ...]:
        """Per carrier row r, the (i, row r of P_a) of the atoms a = 1 << i
        whose P_a is nonzero in row r, in atom order; built on first read."""
        terms: list[list] = [[] for _ in range(self.carrier.dim)]
        for i, p in enumerate(self.atom_projections):
            for r, row in enumerate(p.rows):
                if row:
                    terms[r].append((i, row))
        return tuple(map(tuple, terms))

    def _combination(self, coeffs: Sequence[Fraction]) -> LinMap:
        """sum_a coeffs[i] P_a (a = 1 << i), one carrier row at a time."""
        rows = []
        for terms in self._row_terms:
            live = [(coeffs[i], row) for i, row in terms if coeffs[i]]
            if len(live) == 1:
                (k, row), = live
                rows.append(tuple((j, k * x) for j, x in row))
                continue
            acc: dict[int, Fraction] = {}
            for k, row in live:
                for j, x in row:
                    acc[j] = acc[j] + k * x if j in acc else k * x
            rows.append(tuple(sorted((j, x) for j, x in acc.items() if x)))
        return LinMap(self.carrier, self.carrier, tuple(rows))

    def action(self, f: SimpleElement) -> LinMap:
        """sum f(a) P_a over the atoms, which is sum k_n P_{E_n} over the blocks of f."""
        if f.algebra != self.cosheaf.algebra:
            raise AlgebraMismatch("element lives on a different algebra")
        return self._combination(f.coeffs)

    def satisfies_laws(self) -> LawCheck:
        """Sum_a P_a = I and P_a P_a = P_a over the atoms, which force
        P_a P_b = 0 for a != b: over Q rank P_a = tr P_a, so the ranks add
        up to tr I = dim, and the ranges, spanning as v = sum_a P_a v, form
        a direct sum.  For w = P_b v, in the range of P_b, the one
        decomposition w = sum_a P_a w then has P_a w = 0 for a != b.  With
        P_E := sum_{a <= E} P_a these give every law: the unit P_top = I;
        P_E P_F expands to the sum of P_a over the atoms below both, so
        P_E P_F = P_{E & F} (idempotence when E = F); and for disjoint E, F
        the atoms below E | F are those below E and those below F, so
        P_{E | F} = P_E + P_F.  A failure names the first atom that is not
        idempotent, or else the sum."""
        for a, p in zip(self.cosheaf.algebra.atoms, self.atom_projections):
            row = _first_difference(p @ p, p)
            if row is not None:
                return LawCheck("P_a P_a = P_a", a, row)
        total = self._combination((ONE,) * len(self.atom_projections))
        row = _first_difference(total, LinMap.identity(self.carrier))
        return LawCheck() if row is None else LawCheck("sum_a P_a = I", "", row)

    def action_is_algebra_map(self, samples: Iterable[SimpleElement]) -> LawCheck:
        """act(f) act(g) = act(fg) for every ordered pair of samples; a
        failure names the first pair f_i * f_j, in sample order."""
        from .simple import multiply
        pool = [(f, self.action(f)) for f in samples]
        for i, (f, act_f) in enumerate(pool):
            for j, (g, act_g) in enumerate(pool):
                row = _first_difference(act_f @ act_g, self.action(multiply(f, g)))
                if row is not None:
                    return LawCheck("act(f) act(g) = act(fg)", f"f{i} * f{j}", row)
        return LawCheck()

    def action_norm_matches(self, f: SimpleElement) -> LawCheck:
        """|act(f)| = the essential sup of f; a failure gives both sides."""
        norm, sup = operator_norm(self.action(f)), essential_sup(f, self.cosheaf)
        return LawCheck() if norm == sup else LawCheck("|act(f)| = ess sup |f|",
                                                       f"{norm} != {sup}")


def essential_sup(f: SimpleElement, mu: PreCosheaf) -> Fraction:
    """The sup of |f(a)| over the atoms a with a nonzero fiber mu(a)."""
    return max((abs(k) for i, k in enumerate(f.coeffs) if k and mu.space(1 << i).dim),
               default=ZERO)


def spectral_measure(mu: PreCosheaf) -> SpectralData:
    """The projection-valued measure of a cosheaf, from one inversion.

    Defined on cosheaves.  Let A be the atomic partition map at top.  On
    a cosheaf it is invertible, and the columns of A for the atoms below
    E span the range of ext_{E,top}, the others the range of
    ext_{~E,top}.  So the projection P_E = ext_{E,top} o p_{top,E} onto
    the one along the other is A diag(1_{a <= E}) A^-1, the sum of the
    atom projections P_a = A diag(1_a) A^-1 = ext_{a,top} o p_{top,a}
    below E, which are what `SpectralData` stores.  Raises NotACosheaf
    when A is not square or is singular; a precosheaf that passes that
    test without being a cosheaf gets projections that mean nothing, so
    callers check `is_cosheaf` first.
    """
    top = mu.algebra.top
    return SpectralData(mu, mu.space(top), tuple(
        mu.extension(a, top) @ p for a, p in _atom_projections(mu, top).items()))


# ---------------------------------------------------------------------------
# integration of simple morphisms against a cosheaf
# ---------------------------------------------------------------------------

def integrate_simple_morphism(f: SimpleElement, mu: PreCosheaf,
                              source: int, target: int) -> LinMap:
    """The map mu(source) -> mu(target) induced by a simple element
    supported in source & target:  sum_n k_n ext_{E_n,target} o p_{source,E_n},
    which is sum_a f(a) ext_{a,target} o p_{source,a} over the atoms, one
    inversion, as p_{source,E} = sum_{a <= E} ext_{a,E} o p_{source,a}."""
    omega = mu.algebra
    if f.algebra != omega:
        raise AlgebraMismatch("element lives on a different algebra")
    omega.check_element(source)
    omega.check_element(target)
    if f.support() & ~(source & target):
        raise SupportError("simple morphism supported outside source & target")
    out = LinMap.zero(mu.space(source), mu.space(target))
    for a, p in _atom_projections(mu, source).items():
        k = f.coeffs[a.bit_length() - 1]
        if k:
            out = out.add((mu.extension(a, target) @ p).scale(k))
    return out


# ---------------------------------------------------------------------------
# characteristic presheaves and the hom solver
# ---------------------------------------------------------------------------

def characteristic_sheaf(omega: BoolAlg, e: int) -> PreSheaf:
    """F |-> sup-normed functions on the atoms below E & F, restrictions
    dropping coordinates: `_on_atom_blocks` with a unit sup line on each
    atom below E and an empty block elsewhere."""
    omega.check_element(e)
    return _on_atom_blocks(omega, [((a,), (ONE,)) if e >> i & 1 else ((), ())
                                   for i, a in enumerate(omega.atoms)], PreSheaf)


class HomSolution(FieldEq):
    """Solutions of the naturality constraints between two (co)presheaves,
    on a nullspace basis.  `offsets[e]` locates the component matrix of
    element e inside a flattened coordinate vector.  Equal when all four
    fields are."""

    def __init__(self, dim: int, basis: tuple[Vector, ...], offsets: dict[int, int],
                 shapes: dict[int, tuple[int, int]]):
        self.dim, self.basis, self.offsets, self.shapes = dim, basis, offsets, shapes

    _key = attrgetter("dim", "basis", "offsets", "shapes")
    __hash__ = None

    def component(self, coords: Sequence[Fraction], e: int) -> list[list[Fraction]]:
        rows, cols = self.shapes[e]
        off = self.offsets[e]
        return [[coords[off + r * cols + c] for c in range(cols)] for r in range(rows)]


def _naturality_system(x, y):
    """The naturality constraints on tau : x -> y between two precosheaves
    or two presheaves, as (rows, offsets, shapes, total).

    The unknowns are the entries of the components tau_e : x(e) -> y(e),
    each a y(e).dim x x(e).dim block at offsets[e], row major.  Every
    covering arrow d -> c (small -> big for precosheaves, big -> small for
    presheaves) gives one row per entry of tau_c o x(d->c) - y(d->c) o tau_d.
    """
    offsets, shapes, total = {}, {}, 0
    for e in x.algebra.elements():
        offsets[e], shapes[e] = total, (y.space(e).dim, x.space(e).dim)
        total += y.space(e).dim * x.space(e).dim
    rows: list[list[Fraction]] = []
    for small, big in x.algebra.covering_pairs():
        d, c = _arrow(x, small, big)
        x_c, x_d = shapes[c][1], shapes[d][1]
        x_cols = _walk(x, small, big).transpose().rows
        for r, y_row in enumerate(_walk(y, small, big).rows):
            for col, x_col in enumerate(x_cols):
                row = [ZERO] * total
                for m, v in x_col:
                    row[offsets[c] + r * x_c + m] += v
                for m, v in y_row:
                    row[offsets[d] + m * x_d + col] -= v
                rows.append(row)
    return rows, offsets, shapes, total


def _natural_maps(x, y) -> HomSolution:
    if x.algebra != y.algebra:
        raise AlgebraMismatch("(co)presheaves on different algebras")
    rows, offsets, shapes, total = _naturality_system(x, y)
    basis = exactla.nullspace(rows) if rows else exactla.identity(total)
    return HomSolution(len(basis), tuple(tuple(v) for v in basis), offsets, shapes)


def sheaf_hom(xi: PreSheaf, zeta: PreSheaf) -> HomSolution:
    """Natural maps xi -> zeta: per element a matrix, commuting with the
    restrictions; solved exactly on covering pairs."""
    return _natural_maps(xi, zeta)


def cosheaf_hom(mu: PreCosheaf, nu: PreCosheaf) -> HomSolution:
    """Natural maps mu -> nu (commuting with extensions)."""
    return _natural_maps(mu, nu)


# ---------------------------------------------------------------------------
# precosheaf maps
# ---------------------------------------------------------------------------

class PrecosheafMap:
    def __init__(self, source: PreCosheaf, target: PreCosheaf,
                 components: dict[int, LinMap]):
        self.source, self.target, self.components = source, target, components

    def check_natural(self) -> bool:
        for small, big in self.source.algebra.covering_pairs():
            lhs = self.components[big] @ self.source.extension(small, big)
            rhs = self.target.extension(small, big) @ self.components[small]
            if lhs.rows != rhs.rows:
                return False
        return True


def precosheaf_map(source: PreCosheaf, target: PreCosheaf,
                   components: Mapping[int, LinMap]) -> PrecosheafMap:
    if source.algebra != target.algebra:
        raise AlgebraMismatch("precosheaves on different algebras")
    out = PrecosheafMap(source, target, dict(components))
    if not out.check_natural():
        raise NotAFunctor("components do not commute with the extensions")
    return out


# ---------------------------------------------------------------------------
# cosheafification
# ---------------------------------------------------------------------------

class Cosheafification:
    def __init__(self, cosheaf: PreCosheaf, original: PreCosheaf,
                 counit: dict[int, LinMap]):  # cosheafified(E) -> original(E)
        self.cosheaf, self.original, self.counit = cosheaf, original, counit


def cosheafify(theta: PreCosheaf) -> Cosheafification:
    """The limit over partitions of the block sums collapses, at finite
    scale, to the value at the atomic partition, so the cosheafification
    is the canonical cosheaf on the atom fibers; the counit assembles the
    atom extensions."""
    omega = theta.algebra
    sheafified = from_atom_spaces(omega, restrict_to_atoms(theta))
    counit = {}
    for e in omega.elements():
        exts = [theta.extension(1 << i, e) for i in omega.atom_indices(e)]
        counit[e] = _mediated(sheafified.space(e), theta.space(e), exts)
    return Cosheafification(sheafified, theta, counit)


def counit_is_natural(c: Cosheafification) -> bool:
    return PrecosheafMap(c.cosheaf, c.original, c.counit).check_natural()


def factor_through_cosheafification(
        c: Cosheafification, tau: PrecosheafMap) -> PrecosheafMap:
    """Given a cosheaf nu and tau : nu -> theta, the unique lift
    nu -> cosheafify(theta) under the counit: assemble the atom
    components of tau after the cosheaf projections of nu."""
    if tau.target is not c.original and tau.target != c.original:
        raise InvalidModel("tau must land in the cosheafified precosheaf's original")
    return _stacked_over_atoms(tau.source, tau.components, c.cosheaf)


def _stacked_over_atoms(nu: PreCosheaf, tau: Mapping[int, LinMap],
                        target: PreCosheaf) -> PrecosheafMap:
    """The map nu -> target whose component at E stacks tau_a o p_{E,a}
    over the atoms a <= E, p the cosheaf projections of nu; target holds
    the atom blocks below E in that order, as the canonical cosheaves do."""
    components = {}
    for e in nu.algebra.elements():
        legs = [tau[a] @ p for a, p in _atom_projections(nu, e).items()]
        components[e] = _mediated(target.space(e), nu.space(e), legs, stacked=True)
    return precosheaf_map(nu, target, components)


def count_factorizations(c: Cosheafification, tau: PrecosheafMap) -> int:
    """Dimension count of the affine solution set of  counit o sigma = tau,
    sigma natural; 0 means the known lift is unique."""
    nu = tau.source
    rows, offsets, shapes, total = _naturality_system(nu, c.cosheaf)
    # counit o sigma = tau is affine; for uniqueness only the homogeneous
    # part matters: counit o sigma = 0
    for e in nu.algebra.elements():
        cols_e = shapes[e][1]
        for eps_row in c.counit[e].rows:
            for col in range(cols_e):
                row = [ZERO] * total
                for m, v in eps_row:
                    row[offsets[e] + m * cols_e + col] += v
                rows.append(row)
    return len(exactla.nullspace(rows)) if rows else total


# ---------------------------------------------------------------------------
# bounded-variation cosheaf
# ---------------------------------------------------------------------------

def bva_cosheaf(omega: BoolAlg, b: FinBanSpace) -> PreCosheaf:
    """E |-> B-valued measures on the ideal below E, stored atomwise, with
    the total-variation norm; this is the canonical cosheaf whose atom
    fibers are all B, and the partition maps are weight-preserving basis
    bijections."""
    if b.flavor is not Flavor.SUM:
        raise InvalidModel("bva takes a SUM-flavor value space")
    return from_atom_spaces(omega, {a: b for a in omega.atoms})


def bva_vector(omega: BoolAlg, bva: PreCosheaf, e: int,
               nu: VectorMeasure) -> Vector:
    """Coordinates in bva(e) of a measure given atomwise on the ideal
    below e (atoms outside e must be null)."""
    target_dim = nu.target.dim
    out: list[Fraction] = []
    for i in range(omega.n):
        if e >> i & 1:
            out.extend(nu.atom_values[i])
        elif any(x != 0 for x in nu.atom_values[i]):
            raise SupportError("measure charges an atom outside the ideal")
    expected = bva.space(e).dim
    if len(out) != expected or (expected and target_dim * len(omega.atoms_below(e)) != expected):
        raise InvalidModel("value space does not match the bva fibers")
    return tuple(out)


def bva_evaluation(omega: BoolAlg, bva: PreCosheaf, e: int,
                   b: FinBanSpace) -> LinMap:
    """Evaluation at e: a measure on the ideal below e goes to its total
    value nu(e) = sum of its atom values."""
    n_atoms = len(omega.atoms_below(e))
    return LinMap(bva.space(e), b, tuple(tuple((t * b.dim + j, ONE) for t in range(n_atoms))
                                         for j in range(b.dim)))


def constant_universal_map(theta: PreCosheaf, tau: Mapping[int, LinMap],
                           b: FinBanSpace) -> PrecosheafMap:
    """For a cosheaf theta and a precosheaf map tau : theta -> constant B,
    the induced map into the bounded-variation cosheaf sends m in theta(E)
    to the measure  F |-> tau_F(p_{E,F} m),  stored atomwise."""
    return _stacked_over_atoms(theta, tau, bva_cosheaf(theta.algebra, b))


# ---------------------------------------------------------------------------
# Isbell conjugation
# ---------------------------------------------------------------------------

def _indicator(omega: BoolAlg, inside, line: FinBanSpace, kind):
    """F |-> line where inside(F), the zero space elsewhere; a structure
    map is the identity between two lines and zero otherwise, written in
    closed form between any small < big.  A precosheaf or a presheaf, as
    `kind` says.  Functorial and contractive when `inside` is an up-set
    (precosheaf) or a down-set (every element and no element are both):
    at the source corner of a diamond either every corner is inside, so
    both sides are id = id, or the source is the zero space, so both
    sides are the map out of it.  The same holds along a chain, so the
    rule is the chain's product: a source inside puts every later element
    of the chain inside, and a zero source makes the product zero."""
    zero = zero_space(line.flavor)
    spaces = {f: line if inside(f) else zero for f in omega.elements()}

    def maps(small: int, big: int) -> LinMap:
        src, tgt = (spaces[f] for f in _arrow(kind, small, big))
        return LinMap.identity(line) if src.dim and tgt.dim else LinMap.zero(src, tgt)

    return kind(omega, spaces, maps)


def yoneda_presheaf(omega: BoolAlg, e: int) -> PreSheaf:
    """F |-> scalars when F <= e, zero otherwise."""
    return _indicator(omega, lambda f: omega.leq(f, e), sup_space(("1",)), PreSheaf)


def yoneda_precosheaf(omega: BoolAlg, e: int) -> PreCosheaf:
    """F |-> scalars when e <= F, zero otherwise."""
    return _indicator(omega, lambda f: omega.leq(e, f), scalars(), PreCosheaf)


def _maps_to_root(x) -> dict[int, LinMap]:
    """x(F -> root) for every element F, one covering step each, read by
    `_walk`, along its chain: for a precosheaf the root is top and the
    lowest atom outside F comes first; for a presheaf the root is bottom
    and the top atom of F goes first."""
    omega, up = x.algebra, x.covariant
    root = omega.top if up else 0
    out = {root: LinMap.identity(x.space(root))}
    for f in (reversed(range(omega.top)) if up else omega.nonzero_elements()):
        nxt = f | (f + 1) if up else f & ~(1 << (f.bit_length() - 1))
        out[f] = out[nxt] @ _walk(x, f & nxt, f | nxt)
    return out


def _submasks(base: int, free: int):
    """base | g for every g <= free, descending (base & free = 0)."""
    g = free + 1
    while g:
        g = (g - 1) & free
        yield base | g


def _int_columns(m: LinMap) -> tuple[int, tuple]:
    """(d, c), m's columns over one common denominator: c[j] is d times
    column j in ints, as its (row, entry) nonzeros, and d > 0 the lcm of
    the denominators of m."""
    cols = m.transpose().rows
    scaled, d = _over_common_denominator([[v for _, v in col] for col in cols])
    return d, tuple(tuple(zip((r for r, _ in col), ints)) for col, ints in zip(cols, scaled))


def _dot(p: Sequence[int], column) -> int:
    """p . c for a column c given as its (row, entry) nonzeros."""
    return sum(p[r] * v for r, v in column)


def _kills(p: Sequence[int], columns) -> bool:
    """p . c = 0 for every column c of one map to the root."""
    return not any(_dot(p, c) for c in columns)


def _primitive(v: list[int]) -> list[int]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return v if g == 1 else [a // g for a in v]


def _root_bases(x):
    """(columns, bases): columns(F) is x(F -> root) over one common
    denominator, as `_int_columns` gives it, converted on first read;
    bases[E] pairs each phi of the hom solver's basis of ann_E, in root
    coordinates, with its free column (F, j), ascending.  Each ann_E is
    cut from that of E', one atom away and visited first, by one killer's
    columns, in ints.  The proof is in `_conjugate`."""
    omega, up, top = x.algebra, x.covariant, x.algebra.top
    maps = _maps_to_root(x)
    # each map is dropped once it is converted
    columns = functools.cache(lambda f: _int_columns(maps.pop(f)))
    root_dim = x.space(top if up else 0).dim
    bases = dict.fromkeys(omega.elements())
    kernels = {}  # E -> primitive integer rows spanning ann_E
    for e in (range(top + 1) if up else reversed(range(top + 1))):
        # E' = E - a, killer ~a, for the lowest atom a of E (a precosheaf);
        # E' = E + a, killer a, for the lowest atom a outside E (a presheaf)
        killing = e if up else top & ~e
        atom = killing & -killing
        ps = (kernels[e ^ atom] if atom
              else [[int(i == j) for j in range(root_dim)] for i in range(root_dim)])
        if atom and ps:
            m = [[_dot(p, c) for p in ps] for c in columns(top ^ atom if up else atom)[1]]
            if m:
                lams, _ = _over_common_denominator(exactla.nullspace(m))
                ps = [_primitive([sum(l * p for l, p in zip(lam, col) if l) for col in zip(*ps)])
                      for lam in lams]
        # fraction-free Gauss-Jordan on the columns (F, j) of U_E from the
        # right, done on the rows p; row index -> its free column, in the
        # order found
        pivots: dict[int, tuple[int, int]] = {}
        scan = ((f, j) for f in _submasks(*((e, top & ~e) if up else (0, e)))
                for j in reversed(range(x.space(f).dim)))
        for f, j in scan:
            if len(pivots) == len(ps):
                break
            images = [_dot(p, columns(f)[1][j]) for p in ps]
            i = next((i for i, v in enumerate(images) if v and i not in pivots), None)
            if i is not None:
                vi, lead = images[i], ps[i]
                ps = [p if k == i or not v else _primitive([vi * a - v * b for a, b in zip(p, lead)])
                      for k, (p, v) in enumerate(zip(ps, images))]
                pivots[i] = (f, j)
        kernels[e] = ps
        # phi_i = d p_i / (p_i . c'), c' = d c the free column of p_i
        bases[e] = []
        for i, (f, j) in reversed(pivots.items()):
            d, cols = columns(f)
            den = _dot(ps[i], cols[j])
            bases[e].append((tuple(Fraction(d * a, den) for a in ps[i]), (f, j)))
    return columns, bases


def _conjugate(x, tag: str):
    """The Isbell conjugate of x: E |-> hom(x, representable(E)), on
    nullspace bases with nominal unit weights; a precosheaf from a
    presheaf (the left conjugate, y_E the representable
    presheaf: scalars on the down-set U_E = {F <= E}), a presheaf from a
    precosheaf (the right conjugate, y^E the corepresentable
    precosheaf: scalars on the up-set U_E = {F >= E}).  Inside U_E the
    structure maps of y are identities, outside it y is zero.

    The Yoneda reduction.  Let the root r be top for a precosheaf mu and
    bottom for a presheaf xi, so r is in every U_E, and write x(F -> r)
    for the structure map towards r.  A natural tau : x -> y (natural on
    the covering arrows, so on every arrow, as they generate) has zero
    components outside U_E.  An arrow F -> G inside U_E gives
    tau_F = tau_G o x(F -> G), so tau_F = phi o x(F -> r) with
    phi = tau_r.  An arrow F -> G entering U_E gives
    tau_G o x(F -> G) = 0, that is phi o x(F -> r) = 0; the other arrows
    give nothing.  Every F outside U_E passes through a killer k with
    k -> r itself entering U_E: for the right conjugate F misses an atom
    a <= E and k = ~a >= F; for the left one F contains an atom a
    outside E and k = a <= F.  So the constraints say exactly that phi
    kills im x(k -> r) for those killers, and conversely every such phi
    gives a natural tau by the formula (functoriality inside U_E).  As
    tau_r = phi, phi |-> tau is injective, and

        isbell_adjoint(mu)(E) = annihilator in mu(top)* of
                                sum_{a <= E} im mu(~a -> top),
        isbell(xi)(E) = annihilator in xi(bottom)* of
                        sum_{a not <= E} im xi(a -> bottom).

    In particular isbell(xi) is zero wherever xi(bottom) is.

    One killer at a time.  Let a be the lowest atom of E and E' = E - a
    (right), or the lowest atom outside E and E' = E + a (left), with
    k = ~a (right) or k = a (left).  The killers of E are those of E' and
    k, so with ann_E' spanned by rows phi_1..phi_m,
    ann_E = {sum_i l_i phi_i : l in ker M}, M[c][i] = phi_i . c over the
    columns c of x(k -> r): a (dim k) x m nullspace, none once
    ann_E' = 0; the root keeps the identity.  Any basis of ann_E' will
    do, as only the span of ann_E is used below, so `_root_bases` starts
    from the finished basis at E', visiting the elements upwards (right)
    or downwards (left).

    The bases.  hom solved as a full naturality system has the nullspace
    basis v_f, one per free column f of its RREF, with v_f[f] = 1, zero
    at the other free columns and its other entries at pivot columns
    left of f: the unique kernel basis that is the identity on the free
    columns.  Read from the right, each v_f starts at f, so the v_f in
    reverse order are the reduced row echelon form of the kernel with
    its columns reversed, which is unique.  The kernel is tau(ann_E): its
    column (F, j) is phi |-> phi . c_{F,j}, c_{F,j} column j of x(F -> r).
    Read from the right (F, then j, descending), (F, j) is free exactly
    when ann_E . c_{F,j} is independent of those images at the free
    columns before it; the root block, c_{r,j} = e_j, completes them.
    With C_P the free columns in ascending order the basis is
    B_E = (ann_E C_P)^-1 ann_E, the identity at C_P.  The free columns
    are where the rank of ann_E . [c...] grows and B_E is unique, so both
    depend on the span of ann_E alone.  `_root_bases` row-reduces the phi
    one column at a time and writes no tau.

    Ints inside, Fractions at the boundary.  Each x(F -> r) is read, on
    first use, as d c' over one common denominator d, c' in ints.  The
    rows p spanning ann_E are primitive integer vectors: the killer cut
    takes the nullspace of M scaled to ints, and the pivot pass
    eliminates without fractions, p_k <- v_i p_k - v_k p_i divided by
    the gcd of its entries, with v the images p . c'.  Each p is a
    nonzero multiple of the row a pass over Fractions would hold, so the
    zero tests, pivots and free columns are the same.  Fractions come
    back only at the boundary: the stored basis phi_i =
    d p_i / (p_i . c'_i), c'_i at the free column of p_i, which is B_E
    by uniqueness, and the cover-map entries below.

    The structure maps.  Along a covering arrow s -> t (small -> big for
    the left conjugate, big -> small for the right one) U_s lies in U_t
    and every killer of t is one of s, so ann_s lies in ann_t.  The map
    keeps the components of tau(phi), phi in ann_s, on U_s and puts zero
    on the rest of U_t.  That is a solution at t, tau(phi) again, exactly
    when phi kills c_{F,j} for F in U_t - U_s: t | G, G <= ~s (right),
    and (t - s) | G, G <= s (left).  A functorial x sends each such F
    through a killer of s; on other input InvalidModel is raised.  (That
    phi kills t's killers says nothing.)  The coordinates at t are
    phi . c_p over t's free columns p.

    The check at the chain exits.  `_maps_to_root` builds
    x(F -> r) = x(F+ -> r) o x(F -> F+), with F+ the next element of F's
    chain to the root: F plus its lowest missing atom (right), F minus
    its top atom (left).  Let a be the atom of t - s (left) or s - t
    (right).  For F in U_t - U_s, F+ is in U_t - U_s again unless the
    step adds a (right) or removes a (left); if it is, phi . c_{F+,j} = 0
    for all j gives phi . c_{F,j} = 0 for all j.  By induction along the
    chain, phi kills U_t - U_s exactly when it kills the exits, the F
    whose step leaves it: F = t | L | G with L the atoms below a outside
    s and G <= the atoms above a outside s (right), and F = a | G with
    G <= the atoms of s below a (left).  The argument uses only how the
    stored maps compose, not functoriality, so the check raises on
    exactly the inputs that a check of all of U_t - U_s would; that full
    check is the test oracle `containment_by_all_submasks`.

    Functorial by construction (contractivity is not claimed, the weights
    being nominal): along s -> t -> u, U_s lies in U_t and U_u, so keeping
    the components along s -> t and then along t -> u keeps the same
    components as along s -> u, and basis coordinates are unique, so both
    paths of a diamond give the same matrix.

    Block sums in closed form.  For a block-sum precosheaf x
    (`_on_atom_blocks`: `from_atom_spaces`, `l1_cosheaf`, `bva_cosheaf`,
    `cosheafify`), x(~a -> top) includes every block but atom a's.  So
    the killers of E span everything once E has two atoms, everything but
    block a when E = {a}, and nothing when E = bottom, and ann_E is the
    full dual at bottom, the coordinate functionals of block a at the
    atom a, and 0 elsewhere.  Read from the right, the root columns
    (top, j), c_{top,j} = e_j, come first, so the free columns are the
    (top, j) of the unit functionals spanning ann_E, and B_E is those
    functionals in ascending order.  The only nonzero
    cover maps are then on the pairs (bottom, atom k): the identity rows
    of block k placed at k's offset in x(top), the rows of x(k -> top)
    that `_walk` writes from x's layout.  Between any other small < big
    the source is zero, so the map is zero, as is the chain's product:
    the conjugate's maps are written in closed form, with no map to the
    root and no check, as a block sum is functorial, and none is kept.
    A block-sum presheaf is zero at bottom, a zero root.
    """
    omega, up, top = x.algebra, x.covariant, x.algebra.top
    kind = PreSheaf if up else PreCosheaf
    flavor = Flavor.SUM if kind.covariant else Flavor.SUP
    if not x.space(top if up else 0).dim:
        # a zero root: every ann_E is zero, so is every cover map, and the
        # containment check has no rows to test: the indicator of nothing
        return _indicator(omega, lambda f: False, zero_space(flavor), kind)

    def value(e: int, dim: int) -> FinBanSpace:
        return FinBanSpace(tuple(f"{tag}[{omega.describe(e)}]{i}" for i in range(dim)),
                           (ONE,) * dim, flavor)

    layout = x.layout
    if layout is not None:
        # a block-sum precosheaf, its nonzero values at bottom and the atoms
        spaces = dict.fromkeys(omega.elements(), zero_space(flavor))
        spaces[0] = value(0, x.space(top).dim)
        for k, w in enumerate(layout.widths):
            spaces[1 << k] = value(1 << k, w)

        def maps(small: int, big: int) -> LinMap:
            source, target = spaces[big], spaces[small]
            if not source.dim:
                return LinMap.zero(source, target)
            # big is an atom, so small is bottom: x(big -> top)'s rows
            return LinMap(source, target, _walk(x, big, top).rows)

        return kind(omega, spaces, maps)
    columns, bases = _root_bases(x)
    spaces = {e: value(e, len(b)) for e, b in bases.items()}
    # each nonzero basis over one common denominator, phi = r / den
    scaled = {e: _over_common_denominator([phi for phi, _ in b]) for e, b in bases.items() if b}
    cover_maps = {}
    for small, big in omega.covering_pairs():
        s, t = _arrow(kind, small, big)
        if s not in scaled:
            # ann_s = 0, as it is whenever ann_t = 0 (ann_s lies in ann_t)
            cover_maps[(small, big)] = LinMap.zero(spaces[s], spaces[t])
            continue
        rows, den = scaled[s]
        # the F in U_t - U_s whose next step towards the root leaves it
        a, free = s ^ t, top & ~s
        exits = (_submasks(t | free & (a - 1), free & ~(2 * a - 1)) if up
                 else _submasks(a, s & (a - 1)))
        if not all(_kills(r, columns(f)[1]) for f in exits for r in rows):
            raise InvalidModel("vector is outside the solution space")
        frees = [(columns(f)[0], columns(f)[1][j]) for _, (f, j) in bases[t]]
        cols = [[Fraction(_dot(r, c), den * d) for d, c in frees] for r in rows]
        cover_maps[(small, big)] = LinMap.from_columns(spaces[s], spaces[t], cols)
    return kind(omega, spaces, cover_maps)


def isbell(xi: PreSheaf) -> PreCosheaf:
    """Left conjugate: E |-> natural maps from xi into the representable
    presheaf at E, with extensions given by enlarging the representable.
    Values are presented on nullspace bases with nominal weights."""
    return _conjugate(xi, "L")


def isbell_adjoint(mu: PreCosheaf) -> PreSheaf:
    """Right conjugate: E |-> natural maps from mu into the corepresentable
    precosheaf at E."""
    return _conjugate(mu, "R")


# ---------------------------------------------------------------------------
# seeded generators (tests and the command-line verifier)
# ---------------------------------------------------------------------------

def _monomial_twist(rng, space: FinBanSpace, tag: str):
    """An isometric relabelling T of a SUM space, T e_i = c_i e_perm(i):
    signed scaling plus a permutation, with the target weights forced by
    isometry, w'(perm(i)) = w(i) / |c_i|.  Returns (T's target, perm, c),
    each c_i = p/q kept as the int pair (p, q) it is drawn as, so that
    with w(i) = a/b the weight is the one Fraction(a q, b |p|); no map is
    built."""
    d = space.dim
    perm = list(range(d))
    rng.shuffle(perm)
    coeffs = [(rng.choice([1, -1]) * rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d)]
    weights = [ZERO] * d
    for i, (w, (p, q)) in enumerate(zip(space.weights, coeffs)):
        weights[perm[i]] = Fraction(w.numerator * q, w.denominator * abs(p))
    twisted = FinBanSpace(tuple(f"{tag}{k}" for k in range(d)), tuple(weights), Flavor.SUM)
    return twisted, perm, coeffs


def _random_atom_spaces(rng, omega: BoolAlg, most: int) -> dict[str, FinBanSpace]:
    """A SUM fiber of dim 1 or 2 on each atom, in atom order, each weight
    p/q with p and q drawn from 1..most."""
    atom_spaces = {}
    for a in omega.atoms:
        d = rng.randint(1, 2)
        atom_spaces[a] = FinBanSpace(
            tuple(f"{a}{k}" for k in range(d)),
            tuple(Fraction(rng.randint(1, most), rng.randint(1, most)) for _ in range(d)),
            Flavor.SUM)
    return atom_spaces


def random_cosheaf(rng, omega: BoolAlg) -> PreCosheaf:
    """An honest random cosheaf: the canonical cosheaf on random atom
    fibers, conjugated elementwise by random isometries of weighted l1
    spaces (signed weight-matched relabellings are all of them).

    Built without validation: with T_e the isometric isomorphism at e,
    the cover map of (s, t) is T_t o c(s, t) o T_s^-1, c the canonical
    one.  Along a chain the inner T^-1 o T cancel, so functoriality of c
    carries over, |T_t| |c(s, t)| |T_s^-1| <= 1 gives contractivity, and
    the map between any s < t is that product again, with c(s, t) the
    canonical map between them.

    Every rng draw is made here, in a fixed order (the atom fibers, then
    per element its twist), but a map is written only when `_walk` asks
    for it, from the canonical map, which `_walk` writes from its layout,
    and none is kept: a condition check and the spectral data read only
    some of them.  It is written in closed form: T_s^-1 sends
    e_perm_s(k) to e_k / c_s(k), c(s, t) sends e_k to e_i where row i of
    c is ((k, 1),), and T_t sends e_i to c_t(i) e_perm_t(i), so row
    perm_t(i) of the product is ((perm_s(k), c_t(i) / c_s(k)),), the
    entry the two products give, and the rows of c without a nonzero
    stay empty.  With c_t(i) = p_t/q_t and c_s(k) = p_s/q_s drawn as
    int pairs, that entry is the one Fraction(p_t q_s, q_t p_s)."""
    atom_spaces = _random_atom_spaces(rng, omega, 3)
    canonical = from_atom_spaces(omega, atom_spaces)
    twists = {e: _monomial_twist(rng, canonical.spaces[e], f"v{e}_") for e in omega.elements()}

    def conjugated(small: int, big: int) -> LinMap:
        (source, perm_s, c_s), (target, perm_t, c_t) = twists[small], twists[big]
        rows: list[tuple] = [()] * target.dim
        for i, row in enumerate(canonical.extension(small, big).rows):
            if row:
                (k, _), = row
                (p_t, q_t), (p_s, q_s) = c_t[i], c_s[k]
                rows[perm_t[i]] = ((perm_s[k], Fraction(p_t * q_s, q_t * p_s)),)
        return LinMap(source, target, tuple(rows))

    return PreCosheaf(omega, {e: twist[0] for e, twist in twists.items()}, conjugated)


def precosheaf_map_from_atoms(nu: PreCosheaf, theta: PreCosheaf,
                              atom_maps: Mapping[int, LinMap]) -> PrecosheafMap:
    """The natural map nu -> theta assembled from components on atoms:
    tau_E = sum_a theta_ext o tau_a o nu-projection.  Needs nu to be a
    cosheaf (the projections must exist)."""
    components = {}
    for e in nu.algebra.elements():
        out = LinMap.zero(nu.space(e), theta.space(e))
        for a, p in _atom_projections(nu, e).items():
            out = out.add(theta.extension(a, e) @ atom_maps[a] @ p)
        components[e] = out
    return precosheaf_map(nu, theta, components)


def l1_integration_map(mu: MeasureAlgebra) -> dict[int, LinMap]:
    """Integration against mu as a precosheaf map from its l1 cosheaf to
    the constant line: on each element the row of the fiber's weights,
    the positive atom masses below it."""
    line = scalars()
    cosheaf = l1_cosheaf(mu)
    components = {}
    for e in mu.algebra.elements():
        src = cosheaf.space(e)
        components[e] = LinMap(src, line, (tuple(enumerate(src.weights)),))
    return components


# ---------------------------------------------------------------------------
# Stone transfer of presheaves (finite scale: a relabelling)
# ---------------------------------------------------------------------------

def _relabel(xi: PreSheaf, iso: BoolMorphism) -> PreSheaf:
    """xi o iso, a presheaf on iso.source: E |-> xi(iso(E)), its map
    between small < big xi's map between iso(small) < iso(big), written
    by `_walk` on xi and kept nowhere.  Functorial and contractive with no
    check: iso is an order isomorphism, so small <= mid <= big gives
    iso(small) <= iso(mid) <= iso(big), and the relabelled maps compose as
    xi's do, xi being functorial; each is one of xi's contractive maps."""
    spaces = {e: xi.space(iso(e)) for e in iso.source.elements()}
    return PreSheaf(iso.source, spaces, lambda small, big: _walk(xi, iso(small), iso(big)))


def sheaf_to_stone(xi: PreSheaf, stone) -> PreSheaf:
    """Transfer along the clopen isomorphism of the Stone space; on a
    finite algebra this is a relabelling of the indexing elements."""
    if stone.algebra != xi.algebra:
        raise AlgebraMismatch("Stone space of a different algebra")
    return _relabel(xi, stone.round_trip()[1])


def sheaf_from_stone(xi_stone: PreSheaf, stone) -> PreSheaf:
    """Inverse transfer; composing both directions is the identity."""
    return _relabel(xi_stone, stone.round_trip()[0])
