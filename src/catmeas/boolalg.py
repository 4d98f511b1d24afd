"""Finite Boolean algebras in atomic form.

An algebra is its ordered atom tuple; an element is an int bitmask over
that order (bit i set = atom i below the element).  Meet, join and
complement are then bitwise ops, and everything downstream (partitions,
ultrafilters, quotients, coproducts) is plain combinatorics.  A
partition of an element is the tuple of its blocks' masks, ordered by
their lowest atom.

Atom order is lexicographic on the atom identifiers and fixes every
basis and bit encoding used elsewhere in the package.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import attrgetter, or_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (DegenerateQuotient, EmptyElement, FieldEq, Frozen, InvalidModel,
                     ResourceLimit, UnknownPoint)

# Fixed cap on the partitions `partitions_of` enumerates; past it ResourceLimit.
PARTITION_CAP = 2 ** 20


class BoolAlg(Frozen, FieldEq):
    """A finite Boolean algebra given by its atoms; equal atoms, equal
    algebras."""

    def __init__(self, atoms: tuple[str, ...]):
        if not atoms:
            raise InvalidModel("a Boolean algebra needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise InvalidModel("duplicate atom identifiers")
        if list(atoms) != sorted(atoms):
            raise InvalidModel("atoms must be given in lexicographic order")
        self.__dict__.update(atoms=atoms)

    _key = attrgetter("atoms")

    def __repr__(self):
        return f"BoolAlg(atoms={self.atoms!r})"

    # -- element encoding ------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def top(self) -> int:
        return (1 << self.n) - 1

    def atom_index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise UnknownPoint(f"no atom named {atom!r}") from None

    def atom_mask(self, atom: str) -> int:
        return 1 << self.atom_index(atom)

    def element(self, atom_names: Iterable[str]) -> int:
        e = 0
        for a in atom_names:
            e |= self.atom_mask(a)
        return e

    def atoms_below(self, e: int) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.atoms) if e >> i & 1)

    def atom_indices(self, e: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if e >> i & 1)

    def check_element(self, e: int) -> int:
        if not 0 <= e <= self.top:
            raise InvalidModel(f"{e} is not an element of this algebra")
        return e

    # -- lattice structure -----------------------------------------------
    def complement(self, e: int) -> int:
        return self.top ^ e

    def leq(self, e: int, f: int) -> bool:
        return e & f == e

    def elements(self) -> Iterator[int]:
        return iter(range(self.top + 1))

    @functools.cached_property
    def covering_pairs(self) -> Mapping[tuple[int, int], None]:
        """The covering pairs (small, big), big = small plus one atom, in
        increasing small, then atom, as the keys of one read-only dict,
        built on first read and then kept, outside == and hash: every loop
        over the covering pairs reads it, and every construction on this
        algebra that keys its structure maps by them shares it."""
        return MappingProxyType(dict.fromkeys(
            (e, e | 1 << i) for e in range(self.top + 1) for i in range(self.n)
            if not e >> i & 1))

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """The label of each element by its mask: its atoms joined with
        '|' in atom order, and 'bottom' for bottom.  Built on first read
        and then kept, outside == and hash, as `covering_pairs` is: the
        elements with highest atom i are (1 << i) | e for e < 1 << i, so
        each label is the label of the element below plus that atom."""
        labels = [""]
        for a in self.atoms:
            labels += [f"{below}|{a}" if below else a for below in labels]
        labels[0] = "bottom"
        return tuple(labels)

    def nonzero_elements(self) -> Iterator[int]:
        return iter(range(1, self.top + 1))

    def describe(self, e: int) -> str:
        names = self.atoms_below(e)
        return "{" + ",".join(names) + "}"


def refines(finer: tuple[int, ...], coarser: tuple[int, ...]) -> bool:
    """True when the two partitions (block tuples) join to the same
    element and every block of `finer` lies under a block of `coarser`."""
    if functools.reduce(or_, finer, 0) != functools.reduce(or_, coarser, 0):
        return False
    return all(any(b & c == b for c in coarser) for b in finer)


def atomic_partition(omega: BoolAlg, e: int) -> tuple[int, ...]:
    """The finest partition of e: its atom masks in atom order."""
    if e == 0:
        raise EmptyElement("bottom has no partitions")
    return tuple(1 << i for i in omega.atom_indices(e))


def partitions_of(omega: BoolAlg, e: int) -> Iterator[tuple[int, ...]]:
    """All partitions of e, each the tuple of its block masks.

    Restricted growth over e's atoms in order: each atom joins one of the
    blocks opened so far or opens a new one after them.  So the blocks are
    nonzero, disjoint, join to e and come ordered by lowest atom, and the
    partitions come in lexicographic order of their block numbers, atom
    by atom.  Raises EmptyElement for bottom, and ResourceLimit when the
    Bell number of e's atom count exceeds PARTITION_CAP, at the call.
    """
    masks = atomic_partition(omega, e)
    k = len(masks)
    bell = [1]  # bell[m] = Bell(m) = sum_j C(m - 1, j) Bell(j)
    while len(bell) <= k and bell[-1] <= PARTITION_CAP:
        bell.append(sum(math.comb(len(bell) - 1, j) * b for j, b in enumerate(bell)))
    if bell[-1] > PARTITION_CAP:
        raise ResourceLimit(f"an element of {k} atoms has Bell({k}) partitions, "
                            f"more than {PARTITION_CAP}")

    def grow(pos: int, blocks: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if pos == k:
            yield blocks
            return
        a = masks[pos]
        for j, b in enumerate(blocks):
            yield from grow(pos + 1, blocks[:j] + (b | a,) + blocks[j + 1:])
        yield from grow(pos + 1, blocks + (a,))

    return grow(0, ())


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class BoolMorphism(Frozen, FieldEq):
    """A Boolean algebra morphism, stored on atoms and extended by joins.

    Images of distinct atoms must be disjoint (this gives meet and
    complement preservation), and together they cover the target top: the
    morphism is unital.  Atoms may map to bottom (e.g. null-quotient
    projections).  Equal when source, target and atom images are.
    """

    def __init__(self, source: BoolAlg, target: BoolAlg,
                 atom_images: tuple[int, ...]):  # one target element per source atom
        if len(atom_images) != source.n:
            raise InvalidModel("one image per source atom required")
        total = 0
        for img in atom_images:
            target.check_element(img)
            if total & img:
                raise InvalidModel("atom images must be pairwise disjoint")
            total |= img
        if total != target.top:
            raise InvalidModel("unital morphism must cover the target top")
        self.__dict__.update(source=source, target=target, atom_images=atom_images)

    _key = attrgetter("source", "target", "atom_images")

    def __call__(self, e: int) -> int:
        self.source.check_element(e)
        out = 0
        for i in self.source.atom_indices(e):
            out |= self.atom_images[i]
        return out

    @staticmethod
    def identity(omega: BoolAlg) -> "BoolMorphism":
        return BoolMorphism(omega, omega, tuple(1 << i for i in range(omega.n)))

    def preserves_structure(self) -> bool:
        """Exhaustive check that meet, join and complement commute with
        the map (redundant with the representation; used as an oracle)."""
        for e in self.source.elements():
            for f in self.source.elements():
                if self(e & f) != self(e) & self(f):
                    return False
                if self(e | f) != self(e) | self(f):
                    return False
            if self(self.source.complement(e)) != self.target.complement(self(e)):
                return False
        return True


def all_morphisms(source: BoolAlg, target: BoolAlg) -> Iterator[BoolMorphism]:
    """Every unital Boolean morphism source -> target.

    Such a morphism is the pullback of a map points(target) -> points(source),
    so there are |atoms(source)| ^ |atoms(target)| of them.
    """
    for point_map in itertools.product(range(source.n), repeat=target.n):
        images = [0] * source.n
        for t_idx, s_idx in enumerate(point_map):
            images[s_idx] |= 1 << t_idx
        yield BoolMorphism(source, target, tuple(images))


# ---------------------------------------------------------------------------
# Stone duality (finite case: every ultrafilter is principal at an atom)
# ---------------------------------------------------------------------------

class StoneSpace(Frozen):
    def __init__(self, algebra: BoolAlg,
                 points: tuple[str, ...]):  # one point per atom, labelled by it
        self.__dict__.update(algebra=algebra, points=points)

    def eta(self, e: int) -> frozenset[str]:
        """Clopen of ultrafilters containing e."""
        self.algebra.check_element(e)
        return frozenset(self.algebra.atoms_below(e))

    def ultrafilter(self, point: str) -> frozenset[int]:
        """The principal ultrafilter at the atom behind `point`."""
        mask = self.algebra.atom_mask(point)
        return frozenset(e for e in self.algebra.elements() if e & mask)

    def clopen_algebra(self) -> BoolAlg:
        return BoolAlg(tuple(sorted(self.points)))

    def round_trip(self) -> tuple[BoolMorphism, BoolMorphism]:
        """The isomorphism eta onto the powerset of points and its inverse."""
        clop = self.clopen_algebra()
        fwd = BoolMorphism(
            self.algebra, clop,
            tuple(clop.element([a]) for a in self.algebra.atoms))
        bwd = BoolMorphism(
            clop, self.algebra,
            tuple(self.algebra.element([p]) for p in clop.atoms))
        return fwd, bwd


def stone_space(omega: BoolAlg) -> StoneSpace:
    return StoneSpace(omega, tuple(omega.atoms))


# ---------------------------------------------------------------------------
# generated algebras, coproducts, quotients, ideals
# ---------------------------------------------------------------------------

class GeneratedAlgebra(Frozen):
    """Result of build_algebra: the atomic algebra together with the cell
    of ground points behind each atom."""

    def __init__(self, algebra: BoolAlg, cells: Mapping[str, frozenset]):
        self.__dict__.update(algebra=algebra, cells=cells)

    def encode(self, subset: Iterable) -> int:
        """Element corresponding to a union of cells; InvalidModel if the
        subset is not such a union."""
        want = frozenset(subset)
        e = 0
        got: set = set()
        for atom, cell in self.cells.items():
            if cell <= want:
                e |= self.algebra.atom_mask(atom)
                got |= cell
        if got != want:
            raise InvalidModel("subset is not generated by the algebra")
        return e

    def decode(self, e: int) -> frozenset:
        out: set = set()
        for a in self.algebra.atoms_below(e):
            out |= self.cells[a]
        return frozenset(out)


def _cell_label(cell: frozenset) -> str:
    return "|".join(str(x) for x in sorted(cell, key=str))


def build_algebra(ground: Iterable, generators: Iterable[Iterable]) -> GeneratedAlgebra:
    """Atomic form of the algebra of subsets generated by `generators`.

    Atoms are the nonempty cells of the common refinement: two ground
    points fall in the same cell iff no generator separates them.  A cell
    is labelled by the labels (`str`) of its points joined with '|', so
    points with equal labels, or cells that would share a label, are
    rejected: one of them would be silently lost.
    """
    ground_set = list(dict.fromkeys(ground))
    if not ground_set:
        raise InvalidModel("ground set must be nonempty")
    if len({str(x) for x in ground_set}) < len(ground_set):
        raise InvalidModel("two ground points have the same label")
    gens = [frozenset(g) for g in generators]
    for g in gens:
        if not g <= set(ground_set):
            raise InvalidModel("generator outside the ground set")
    signature = {x: tuple(x in g for g in gens) for x in ground_set}
    cells: dict[tuple, set] = {}
    for x in ground_set:
        cells.setdefault(signature[x], set()).add(x)
    named = {_cell_label(frozenset(c)): frozenset(c) for c in cells.values()}
    if len(named) < len(cells):
        raise InvalidModel("two cells of the ground set have the same label")
    algebra = BoolAlg(tuple(sorted(named)))
    return GeneratedAlgebra(algebra, named)


class Coproduct(Frozen):
    """Atoms are the pairs 'a*b' of factor atoms in label order; `pairs[k]
    = (i, j)` are the left and right atom indices of atom k."""

    def __init__(self, algebra: BoolAlg, left: BoolAlg, right: BoolAlg,
                 pairs: tuple[tuple[int, int], ...], inject_left: BoolMorphism,
                 inject_right: BoolMorphism):
        self.__dict__.update(algebra=algebra, left=left, right=right, pairs=pairs,
                             inject_left=inject_left, inject_right=inject_right)

    def pair_atom(self, a: str, b: str) -> str:
        return _pair_label(a, b)


def _pair_label(a: str, b: str) -> str:
    return f"{a}*{b}"


def coproduct(left: BoolAlg, right: BoolAlg) -> Coproduct:
    """Coproduct of Boolean algebras; atoms are pairs of atoms."""
    if any("*" in a for a in left.atoms + right.atoms):
        raise InvalidModel("factor atoms must not contain the pair separator '*'")
    by_label = sorted((_pair_label(a, b), (i, j))
                      for i, a in enumerate(left.atoms) for j, b in enumerate(right.atoms))
    alg = BoolAlg(tuple(label for label, _ in by_label))
    pairs = tuple(pair for _, pair in by_label)
    left_imgs, right_imgs = [0] * left.n, [0] * right.n
    for k, (i, j) in enumerate(pairs):
        left_imgs[i] |= 1 << k
        right_imgs[j] |= 1 << k
    return Coproduct(
        alg, left, right, pairs,
        BoolMorphism(left, alg, tuple(left_imgs)),
        BoolMorphism(right, alg, tuple(right_imgs)),
    )


def mediate_coproduct(cop: Coproduct, phi: BoolMorphism, psi: BoolMorphism) -> BoolMorphism:
    """The unique morphism theta with theta o inj_left = phi and
    theta o inj_right = psi; on pair atoms theta(a*b) = phi(a) & psi(b)."""
    if phi.source != cop.left or psi.source != cop.right or phi.target != psi.target:
        raise InvalidModel("mediation needs morphisms from the two factors into one target")
    return BoolMorphism(cop.algebra, phi.target, tuple(
        phi.atom_images[i] & psi.atom_images[j] for i, j in cop.pairs))


def verify_coproduct(cop: Coproduct, phi: BoolMorphism, psi: BoolMorphism) -> bool:
    """Check existence and uniqueness of the mediating morphism for the
    pair (phi, psi) by brute force over all morphisms out of the coproduct."""
    theta = mediate_coproduct(cop, phi, psi)
    if any(theta(cop.inject_left(1 << i)) != phi(1 << i) for i in range(cop.left.n)):
        return False
    if any(theta(cop.inject_right(1 << i)) != psi(1 << i) for i in range(cop.right.n)):
        return False
    matches = 0
    for cand in all_morphisms(cop.algebra, phi.target):
        ok_l = all(cand(cop.inject_left(1 << i)) == phi(1 << i) for i in range(cop.left.n))
        ok_r = all(cand(cop.inject_right(1 << i)) == psi(1 << i) for i in range(cop.right.n))
        if ok_l and ok_r:
            matches += 1
    return matches == 1


class NullQuotient(Frozen):
    def __init__(self, algebra: BoolAlg,          # the quotient
                 projection: BoolMorphism):  # source algebra -> quotient
        self.__dict__.update(algebra=algebra, projection=projection)


def quotient_by_null(omega: BoolAlg, null_atoms: Iterable[str]) -> NullQuotient:
    """Quotient killing the given atoms (the null ideal is generated by
    them); raises DegenerateQuotient when nothing survives."""
    dead = set(null_atoms)
    alive = tuple(a for a in omega.atoms if a not in dead)
    if not alive:
        raise DegenerateQuotient("every atom is null; the quotient is the one-element algebra")
    q = BoolAlg(alive)
    images = tuple(
        q.atom_mask(a) if a in alive else 0 for a in omega.atoms)
    return NullQuotient(q, BoolMorphism(omega, q, images))


def principal_ideal(omega: BoolAlg, e: int) -> tuple[BoolAlg, BoolMorphism]:
    """The algebra with unit e (atoms below e) and the ring projection
    G |-> G & e from omega onto it."""
    if e == 0:
        raise EmptyElement("the zero ideal is not an algebra")
    atoms = omega.atoms_below(e)
    ideal = BoolAlg(atoms)
    images = tuple(
        ideal.atom_mask(a) if (omega.atom_mask(a) & e) else 0
        for a in omega.atoms)
    return ideal, BoolMorphism(omega, ideal, images)


def ideal_projection(omega: BoolAlg, f: int, e: int) -> BoolMorphism:
    """For e <= f, the projection ideal(f) -> ideal(e), G |-> G & e."""
    if not omega.leq(e, f):
        raise InvalidModel("ideal_projection needs e <= f")
    if e == 0 or f == 0:
        raise EmptyElement("zero ideals are not algebras")
    big, _ = principal_ideal(omega, f)
    small, _ = principal_ideal(omega, e)
    e_atoms = set(omega.atoms_below(e))
    images = tuple(
        small.atom_mask(a) if a in e_atoms else 0 for a in big.atoms)
    return BoolMorphism(big, small, images)