"""Bundles of spaces over finite sets and the matrix calculus of the
cocontinuous maps between the free 2-spaces they span.

A bundle assigns a SUM space to each base point; a functor matrix is a
rectangular array of SUM spaces, applied to bundles by
fiber_y = (+)_x  xi_x (x) T_x^y  and composed by the sum-of-tensors
formula.  Composition is associative only up to the canonical
distributivity/reassociation permutations, so `associator_witness` and
friends build those permutations explicitly and verify that they are
isometric.

Tensor bases are ordered left factor major throughout.  Each composite
entry or fiber is built once, from three keyed constructors (leaf,
projective tensor, tagged direct sum) that key every basis vector by the
set of leaf basis vectors behind it, which pins the canonical
isomorphisms down as concrete permutation matrices.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .boolalg import BoolAlg
from .errors import FlavorMismatch, InvalidModel, UnknownPoint
from .finban import (BifunctorData, CoendResult, FinBanSpace, FinPoset, Flavor,
                     IsoWitness, LinMap, coend, direct_sum, projective_tensor,
                     scalars, zero_space)
from .shcosh import PreCosheaf, from_atom_spaces


class Bundle:
    """base point -> SUM space.  Exponential bundles may carry blocked
    SUP fibers; operations that need plain SUM fibers validate."""

    def __init__(self, base: tuple[str, ...], fibers: dict[str, FinBanSpace]):
        if len(set(base)) != len(base):
            raise InvalidModel("duplicate base points")
        for x in base:
            if x not in fibers:
                raise InvalidModel(f"missing fiber at {x!r}")
        self.base, self.fibers = base, fibers

    def fiber(self, x: str) -> FinBanSpace:
        if x not in self.fibers:
            raise UnknownPoint(f"{x!r} is not a base point")
        return self.fibers[x]

    def require_sum_fibers(self) -> None:
        if any(self.fibers[x].flavor is not Flavor.SUM for x in self.base):
            raise FlavorMismatch("this operation needs plain SUM fibers")


def delta_bundle(base: Sequence[str], x: str, v: FinBanSpace) -> Bundle:
    """v at x, zero elsewhere."""
    base = tuple(base)
    if x not in base:
        raise UnknownPoint(f"{x!r} is not a base point")
    return Bundle(base, {y: v if y == x else zero_space(Flavor.SUM) for y in base})


def bundle_sum(bundles: Sequence[Bundle]) -> Bundle:
    base = bundles[0].base
    if any(b.base != base for b in bundles):
        raise InvalidModel("bundle sum needs a common base")
    tags = [str(i) for i in range(len(bundles))]
    return Bundle(base, {
        x: direct_sum([b.fiber(x) for b in bundles], tags=tags).space
        for x in base})


def tensor_space_bundle(v: FinBanSpace, xi: Bundle) -> Bundle:
    """Pointwise v (x) fiber (v on the left)."""
    xi.require_sum_fibers()
    return Bundle(xi.base, {x: projective_tensor(v, xi.fiber(x)).space for x in xi.base})


def tensor_bundle(xi: Bundle, zeta: Bundle) -> Bundle:
    """Pointwise tensor of two bundles over the same base."""
    if xi.base != zeta.base:
        raise InvalidModel("tensor needs a common base")
    xi.require_sum_fibers()
    zeta.require_sum_fibers()
    return Bundle(xi.base, {
        x: projective_tensor(xi.fiber(x), zeta.fiber(x)).space for x in xi.base})


# ---------------------------------------------------------------------------
# hom bundles
# ---------------------------------------------------------------------------

def hom_space(a: FinBanSpace, b: FinBanSpace, tag: str = "") -> FinBanSpace:
    """Maps a -> b with the operator norm, as a blocked SUP space: basis
    (source label j, target label i), weight w_b(i)/w_a(j), one weighted
    l1 block per source column and per target block."""
    if a.flavor is not Flavor.SUM:
        raise FlavorMismatch("hom spaces are formed from SUM sources")
    labels = []
    weights = []
    groups = []
    pos = 0
    tgt_groups = b.effective_groups()
    for j in range(a.dim):
        for g in tgt_groups:
            group = []
            for i in g:
                labels.append(f"{tag}{b.basis[i]}<-{a.basis[j]}")
                weights.append(b.weights[i] / a.weights[j])
                group.append(pos)
                pos += 1
            if group:
                groups.append(tuple(group))
    if not labels:
        return zero_space(Flavor.SUP)
    return FinBanSpace(tuple(labels), tuple(weights), Flavor.SUP, tuple(groups))


def tensor_hom_adjunction_witness(xi: Bundle, zeta: Bundle, rho: Bundle) -> IsoWitness:
    """hom(xi (x) zeta, rho)  ~  hom(xi, rho^zeta): both constructions
    enumerate the triples (point, xi column, zeta column, rho row) in the
    same order with equal weights and block structure, so the canonical
    currying bijection is the identity permutation; the witness makes
    that checkable."""
    lhs, _ = hom_bundle(tensor_bundle(xi, zeta), rho)
    _, exponential = hom_bundle(zeta, rho)
    rhs, _ = hom_bundle(xi, exponential)
    if lhs.dim != rhs.dim or lhs.weights != rhs.weights:
        raise InvalidModel("currying bijection does not align the bases")
    if lhs.effective_groups() != rhs.effective_groups():
        raise InvalidModel("currying bijection does not align the blocks")
    return IsoWitness.from_permutation(lhs, rhs, list(range(lhs.dim)))


def hom_bundle(xi: Bundle, zeta: Bundle) -> tuple[FinBanSpace, Bundle]:
    """(the space of bundle maps xi -> zeta, the exponential bundle).

    The hom space is the product over base points of the fiber hom
    spaces: a blocked SUP space whose norm is the sup over points and
    source columns of the weighted l1 column mass."""
    if xi.base != zeta.base:
        raise InvalidModel("hom needs a common base")
    xi.require_sum_fibers()
    fiber_homs = {x: hom_space(xi.fiber(x), zeta.fiber(x), tag=f"{x}:")
                  for x in xi.base}
    if any(fiber_homs[x].dim for x in xi.base):
        total = direct_sum([fiber_homs[x] for x in xi.base], tags=list(xi.base)).space
    else:
        total = zero_space(Flavor.SUP)
    return total, Bundle(xi.base, fiber_homs)


# ---------------------------------------------------------------------------
# functor matrices
# ---------------------------------------------------------------------------

class FunctorMatrix:
    """A matrix of SUM spaces, one entry per (source point, target point),
    over source and target bases without a repeated point."""

    def __init__(self, source_base: tuple[str, ...], target_base: tuple[str, ...],
                 entries: dict[tuple[str, str], FinBanSpace]):
        for side, base in (("source", source_base), ("target", target_base)):
            if len(set(base)) != len(base):
                raise InvalidModel(f"duplicate {side} points")
        for x in source_base:
            for y in target_base:
                if (x, y) not in entries:
                    raise InvalidModel(f"missing entry at ({x!r}, {y!r})")
                if entries[(x, y)].flavor is not Flavor.SUM:
                    raise FlavorMismatch("matrix entries carry the SUM flavor")
        self.source_base, self.target_base, self.entries = source_base, target_base, entries

    def entry(self, x: str, y: str) -> FinBanSpace:
        return self.entries[(x, y)]

    @staticmethod
    def identity(base: Sequence[str]) -> "FunctorMatrix":
        base = tuple(base)
        return FunctorMatrix(base, base, {
            (x, y): scalars(f"id{x}") if x == y else zero_space(Flavor.SUM)
            for x in base for y in base})


def matrix_from_bundle(xi: Bundle) -> FunctorMatrix:
    """Bundles over X are matrices X -> point "*" (the base-product view
    of bundles and matrices)."""
    xi.require_sum_fibers()
    return FunctorMatrix(xi.base, ("*",), {(x, "*"): xi.fiber(x) for x in xi.base})


def bundle_from_matrix(t: FunctorMatrix, x: str) -> Bundle:
    """Column x of the matrix, as a bundle over the target base."""
    return Bundle(t.target_base, {y: t.entry(x, y) for y in t.target_base})


# -- keyed spaces (space, keys), one key per basis vector --------------------

Key = frozenset


def _keyed_leaf(tag: tuple, space: FinBanSpace):
    """(space, keys): basis vector j keyed by the leaf (*tag, j)."""
    return space, [Key({(*tag, j)}) for j in range(space.dim)]


def _keyed_tensor(a, b):
    """The projective tensor of two keyed spaces, left factor major."""
    (space_a, keys_a), (space_b, keys_b) = a, b
    return (projective_tensor(space_a, space_b).space,
            [ka | kb for ka in keys_a for kb in keys_b])


def _keyed_sum(parts, tags: Sequence[str]):
    """The direct sum of keyed SUM spaces tagged in order (the zero space
    when there are none)."""
    space = direct_sum([p for p, _ in parts], tags=tags).space if parts \
        else zero_space(Flavor.SUM)
    return space, [k for _, keys in parts for k in keys]


def _tree_source(tree):
    return tree[2].source_base if tree[0] == "leaf" else _tree_source(tree[2])


def _tree_target(tree):
    return tree[2].target_base if tree[0] == "leaf" else _tree_target(tree[1])


def _entry(tree, x: str, y: str):
    """The keyed entry at (x, y) of a composite matrix tree, either
    ("leaf", name, FunctorMatrix) or ("comp", left, right) meaning
    left o right, whose entry is (+)_m left_m^y (x) right_x^m."""
    if tree[0] == "leaf":
        _, name, mat = tree
        return _keyed_leaf((name, x, y), mat.entry(x, y))
    _, left, right = tree
    mid = _tree_source(left)
    return _keyed_sum([_keyed_tensor(_entry(left, m, y), _entry(right, x, m))
                       for m in mid], mid)


def compose(s: FunctorMatrix, t: FunctorMatrix) -> FunctorMatrix:
    """(s o t)_x^z = (+)_y  s_y^z (x) t_x^y."""
    if t.target_base != s.source_base:
        raise InvalidModel("inner bases do not match")
    tree = ("comp", ("leaf", "S", s), ("leaf", "T", t))
    entries = {
        (x, z): _entry(tree, x, z)[0]
        for x in t.source_base for z in s.target_base}
    return FunctorMatrix(t.source_base, s.target_base, entries)


def permutation_witness(a, b) -> IsoWitness:
    """The canonical permutation between two keyed spaces matching equal
    keys, as an IsoWitness."""
    (space_a, keys_a), (space_b, keys_b) = a, b
    if len(keys_a) != len(keys_b):
        raise InvalidModel("keyed spaces have different dimensions")
    position = {k: i for i, k in enumerate(keys_b)}
    if len(position) != len(keys_b):
        raise InvalidModel("keys are not unique")
    if any(k not in position for k in keys_a):
        raise InvalidModel("keys do not match")
    return IsoWitness.from_permutation(space_a, space_b, [position[k] for k in keys_a])


def associator_witness(r: FunctorMatrix, s: FunctorMatrix, t: FunctorMatrix,
                       x: str, w: str) -> IsoWitness:
    """Canonical iso between the (x, w) entries of (r s) t and r (s t)."""
    rr, ss, tt = ("leaf", "R", r), ("leaf", "S", s), ("leaf", "T", t)
    return reassociation_witness(("comp", ("comp", rr, ss), tt),
                                 ("comp", rr, ("comp", ss, tt)), x, w)


def reassociation_witness(tree_a, tree_b, x: str, w: str) -> IsoWitness:
    """Canonical permutation between two bracketings of the same composite."""
    return permutation_witness(_entry(tree_a, x, w), _entry(tree_b, x, w))


# -- application of matrices to bundles -------------------------------------

def _apply_tree_base(tree):
    return tree[2].base if tree[0] == "bundle" else _tree_target(tree[1])


def _fiber(tree, y: str):
    """The keyed fiber at y of ("bundle", name, Bundle) or ("apply",
    matrix_tree, bundle_tree), whose fiber is (+)_x bundle_x (x) matrix_x^y."""
    if tree[0] == "bundle":
        _, name, xi = tree
        return _keyed_leaf((name, y), xi.fiber(y))
    _, mat_tree, bun_tree = tree
    base = _apply_tree_base(bun_tree)
    return _keyed_sum([_keyed_tensor(_fiber(bun_tree, x), _entry(mat_tree, x, y))
                       for x in base], base)


def apply_matrix(t: FunctorMatrix, xi: Bundle) -> Bundle:
    """fiber_y = (+)_x  xi_x (x) t_x^y."""
    if xi.base != t.source_base:
        raise InvalidModel("bundle base must be the matrix source base")
    xi.require_sum_fibers()
    tree = ("apply", ("leaf", "T", t), ("bundle", "xi", xi))
    return Bundle(t.target_base, {y: _fiber(tree, y)[0] for y in t.target_base})


def apply_compose_witness(s: FunctorMatrix, t: FunctorMatrix, xi: Bundle,
                          z: str) -> IsoWitness:
    """Canonical iso  (s (t xi))_z  ~  ((s o t) xi)_z: applying after
    applying equals applying the composite."""
    two_steps = ("apply", ("leaf", "S", s), ("apply", ("leaf", "T", t), ("bundle", "xi", xi)))
    one_step = ("apply", ("comp", ("leaf", "S", s), ("leaf", "T", t)), ("bundle", "xi", xi))
    return permutation_witness(_fiber(two_steps, z), _fiber(one_step, z))


def identity_application_witness(xi: Bundle, y: str) -> IsoWitness:
    """(identity matrix applied to xi)_y  ~  xi_y, keyed as xi_y (x) I_y^y,
    the unit line."""
    ident = FunctorMatrix.identity(xi.base)
    applied = _fiber(("apply", ("leaf", "I", ident), ("bundle", "xi", xi)), y)
    _, keys = _keyed_tensor(_fiber(("bundle", "xi", xi), y),
                            _entry(("leaf", "I", ident), y, y))
    return permutation_witness(applied, (xi.fiber(y), keys))


def decomposition_witness(xi: Bundle, y: str) -> IsoWitness:
    """Canonical iso between the fiber of the delta-sum  (+)_x xi_x (x) d_x
    at y and xi_y (the coordinate decomposition of a bundle), keyed as
    xi_y (x) d_y(y), the unit line."""
    xi.require_sum_fibers()
    line = scalars("1")
    deltas = [delta_bundle(xi.base, x, line) for x in xi.base]
    total = bundle_sum([tensor_space_bundle(xi.fiber(x), d) for x, d in zip(xi.base, deltas)])
    pieces = [_keyed_tensor(_keyed_leaf(("xi", x), xi.fiber(x)), _keyed_leaf(("d", x), d.fiber(y)))
              for x, d in zip(xi.base, deltas)]
    _, keys = _keyed_sum(pieces, [str(i) for i in range(len(pieces))])
    _, fiber_keys = _keyed_tensor(_keyed_leaf(("xi", y), xi.fiber(y)), _keyed_leaf(("d", y), line))
    return permutation_witness((total.fiber(y), keys), (xi.fiber(y), fiber_keys))


# ---------------------------------------------------------------------------
# discrete direct integrals
# ---------------------------------------------------------------------------

class DiscreteCosheafMeasure:
    """A space-valued measure on the powerset of a finite base: its value
    on a point is a SUM space."""

    def __init__(self, base: tuple[str, ...], weight: dict[str, FinBanSpace]):
        for x in base:
            if x not in weight:
                raise InvalidModel(f"missing weight at {x!r}")
            if weight[x].flavor is not Flavor.SUM:
                raise FlavorMismatch("weights carry the SUM flavor")
        self.base, self.weight = base, weight


class DiscreteIntegral:
    def __init__(self, total: FinBanSpace, indefinite: PreCosheaf, base_algebra: BoolAlg):
        self.total, self.indefinite, self.base_algebra = total, indefinite, base_algebra


def direct_integral_discrete(xi: Bundle, mu: DiscreteCosheafMeasure) -> DiscreteIntegral:
    """(+)_x xi_x (x) mu(x), together with the indefinite integral
    E |-> (+)_{x in E} xi_x (x) mu(x) as a cosheaf on the powerset of the
    base."""
    if xi.base != mu.base:
        raise InvalidModel("bundle and measure bases differ")
    xi.require_sum_fibers()
    algebra = BoolAlg(tuple(sorted(xi.base)))
    atom_spaces = {
        x: projective_tensor(xi.fiber(x), mu.weight[x]).space for x in xi.base}
    indefinite = from_atom_spaces(algebra, atom_spaces)
    return DiscreteIntegral(indefinite.space(algebra.top), indefinite, algebra)


def integral_tensor_naturality_witness(xi: Bundle, mu: DiscreteCosheafMeasure,
                                       v: FinBanSpace) -> IsoWitness:
    """Cocontinuous value-side maps commute with the integral: tensoring
    the integral with v is canonically the integral of the pointwise
    tensored bundle (keys match across the two constructions)."""
    if v.flavor is not Flavor.SUM:
        raise FlavorMismatch("tensoring needs a SUM space")
    plain = direct_integral_discrete(xi, mu)
    tensored_bundle = Bundle(
        xi.base, {x: projective_tensor(xi.fiber(x), v).space for x in xi.base})
    routed = direct_integral_discrete(tensored_bundle, mu)
    atoms = plain.base_algebra.atoms
    leaves = {x: (_keyed_leaf(("xi", x), xi.fiber(x)), _keyed_leaf(("mu", x), mu.weight[x]))
              for x in atoms}
    v_keyed = _keyed_leaf(("v",), v)
    _, lhs_keys = _keyed_tensor(_keyed_sum([_keyed_tensor(*leaves[x]) for x in atoms], atoms),
                                v_keyed)
    _, rhs_keys = _keyed_sum([_keyed_tensor(_keyed_tensor(leaves[x][0], v_keyed), leaves[x][1])
                              for x in atoms], atoms)
    return permutation_witness((projective_tensor(plain.total, v).space, lhs_keys),
                               (routed.total, rhs_keys))


# ---------------------------------------------------------------------------
# discrete Kan extension
# ---------------------------------------------------------------------------

class PosetFunctor:
    """A functor from a thin finite category into spaces: one space per
    object, one map per generating arrow; path independence is validated."""

    def __init__(self, index: FinPoset, spaces: dict[str, FinBanSpace],
                 arrow_maps: dict[tuple[str, str], LinMap]):
        self.index, self.spaces, self.arrow_maps = index, spaces, arrow_maps

    def validate(self) -> None:
        from .errors import NotAFunctor
        for f in self.index.arrows:
            m = self.arrow_maps.get(f)
            if m is None:
                raise NotAFunctor("missing arrow map")
            if m.source != self.spaces[f[0]] or m.target != self.spaces[f[1]]:
                raise NotAFunctor("arrow map endpoints do not match")
        if not self.index.path_independent(self.arrow_maps.__getitem__):
            raise NotAFunctor("arrow maps are path dependent")


class KanExtension:
    def __init__(self, values: dict[str, CoendResult],
                 eta: dict[str, LinMap]):  # F(n) -> Lan(I n) presentation
        self.values, self.eta = values, eta


def kan_extension_discrete(f: PosetFunctor, point_map: Mapping[str, str],
                           target: FinPoset) -> KanExtension:
    """Left Kan extension of f along the object map into a thin target:
    value at a = coend over m of hom(point_map(m), a) (x) f(m), with hom
    of a thin category a line or zero."""
    f.validate()
    m_index = f.index
    for m in m_index.objects:
        if point_map[m] not in target.objects:
            raise InvalidModel("object map lands outside the target")
    for a, b in m_index.arrows:
        if not target.leq(point_map[a], point_map[b]):
            raise InvalidModel("object map is not monotone")

    values: dict[str, CoendResult] = {}
    for a in target.objects:
        def space(x: str, y: str, a=a) -> FinBanSpace:
            if target.leq(point_map[x], a):
                return f.spaces[y]
            return zero_space(Flavor.SUM)

        def left(arrow, y: str, a=a) -> LinMap:
            src_obj, tgt_obj = arrow
            src = space(tgt_obj, y, a)
            tgt = space(src_obj, y, a)
            if src.dim and tgt.dim:
                return LinMap(src, tgt, LinMap.identity(src).rows)
            return LinMap.zero(src, tgt)

        def right(x: str, arrow, a=a) -> LinMap:
            src = space(x, arrow[0], a)
            tgt = space(x, arrow[1], a)
            if src.dim == 0:
                return LinMap.zero(src, tgt)
            return LinMap(src, tgt, f.arrow_maps[arrow].rows)

        bif = BifunctorData(m_index, space, left, right)
        values[a] = coend(bif, label=f"lan[{a}]")

    eta = {}
    for n in m_index.objects:
        a = point_map[n]
        eta[n] = values[a].wedges[n]
    return KanExtension(values, eta)


def kan_restriction_is_isometric(kan: KanExtension, f: PosetFunctor,
                                 point_map: Mapping[str, str]) -> bool:
    """When the object map is fully faithful (m <= n iff Im <= In), the
    extension restricted along it recovers f up to isometric isomorphism;
    decided with the true quotient norms of the coend presentations."""
    for n in f.index.objects:
        res = kan.values[point_map[n]]
        eta = kan.eta[n]
        inv = eta.inverse()
        if inv is None:
            return False
        q = res.quotient
        if q.norm_of_map_into(eta) > 1 or q.norm_of_map_from(inv) > 1:
            return False
    return True
