"""Cosheaf condition, spectral measures, morphism integration,
characteristic presheaves and their homs, cosheafification, the
bounded-variation cosheaf, Isbell conjugation, Stone transfer."""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catmeas import cli, exactla, finban, shcosh
from catmeas.boolalg import BoolAlg, BoolMorphism, partitions_of, stone_space
from catmeas.errors import (CatmeasError, InvalidModel, NotACosheaf, NotAFunctor,
                            SupportError)
from catmeas.finban import (FinBanSpace, Flavor, LinMap, direct_sum, is_isometric_iso,
                            operator_norm, scalars, sum_space, sup_space, zero_space)
from catmeas.measures import MeasureAlgebra, VectorMeasure
from catmeas.shcosh import (bva_cosheaf,
                            bva_evaluation, bva_vector, characteristic_sheaf,
                            constant_precosheaf, constant_universal_map,
                            cosheaf_hom, cosheaf_projection, cosheafify,
                            counit_is_natural, count_factorizations, essential_sup,
                            factor_through_cosheafification, from_atom_spaces,
                            integrate_simple_morphism, is_cosheaf,
                            is_sheaf, l1_cosheaf,
                            l1_integration_map, make_precosheaf, make_presheaf,
                            partition_map, PreCosheaf, PrecosheafMap, PreSheaf,
                            precosheaf_map_from_atoms,
                            random_cosheaf, restrict_to_atoms,
                            _validate_functorial, sheaf_from_stone, sheaf_hom,
                            sheaf_to_stone, spectral_measure, SpectralData,
                            yoneda_precosheaf,
                            yoneda_presheaf, isbell, isbell_adjoint, Verdict,
                            zero_precosheaf)
from catmeas.simple import SimpleElement, characteristic, linf_norm, multiply

from oracles import (action_by_scaled_sums, annihilator_by_killers, binary_splits_by_seen_set,
                     block_sum_cases, characteristic_sheaf_eager, containment_by_all_submasks,
                     from_atom_spaces_eager, indicator_eager, mat_mul,
                     partition_condition_by_built_maps,
                     random_cosheaf_by_composition, random_scaled_precosheaf, rank,
                     spectral_laws_by_pairs, split_is_isometric_iso, split_projection)

F = Fraction


def alg(*atoms):
    return BoolAlg(tuple(sorted(atoms)))


def positive_measure(omega, rng=None):
    vals = [F(i + 1, 3) for i in range(omega.n)]
    return MeasureAlgebra.from_values(omega, vals)


def rnd_simple(rng, omega, span=4, denom=3, support=None):
    coeffs = []
    for i in range(omega.n):
        if support is not None and not support >> i & 1:
            coeffs.append(F(0))
        else:
            coeffs.append(F(rng.randint(-span, span), rng.randint(1, denom)))
    return SimpleElement(omega, tuple(coeffs))


# -- the cosheaf condition ---------------------------------------------------

def test_l1_cosheaf_is_cosheaf_exhaustive():
    omega = alg("a", "b", "c")
    mu = positive_measure(omega)
    cs = l1_cosheaf(mu)
    assert is_cosheaf(cs)
    assert is_cosheaf(cs, exhaustive=True)


def test_constant_precosheaf_fails_with_witness():
    omega = alg("a", "b")
    theta = constant_precosheaf(omega, sum_space(["u"]))
    verdict = is_cosheaf(theta)
    assert not verdict
    assert verdict.failing_element is not None


def test_zero_precosheaf_is_cosheaf():
    omega = alg("a", "b", "c")
    assert is_cosheaf(zero_precosheaf(omega), exhaustive=True)


def test_random_cosheaves_pass():
    rng = random.Random(0)
    for _ in range(10):
        omega = alg(*(f"x{i}" for i in range(rng.randint(1, 3))))
        cs = random_cosheaf(rng, omega)
        assert is_cosheaf(cs, exhaustive=True)


def test_scaled_precosheaves_generically_fail():
    rng = random.Random(1)
    omega = alg("a", "b", "c")
    failures = 0
    for _ in range(10):
        theta = random_scaled_precosheaf(rng, omega, force_noncosheaf=True)
        if not is_cosheaf(theta):
            failures += 1
    assert failures == 10


def test_l1_sheaf_condition_dual():
    # the characteristic presheaf of top is a sheaf (sup side)
    omega = alg("a", "b", "c")
    xi = characteristic_sheaf(omega, omega.top)
    assert is_sheaf(xi)
    assert is_sheaf(xi, exhaustive=True)


# -- the one-split reduction against the binary-split enumeration -------------

MODELS = Path(__file__).resolve().parent.parent / "models"


def split_enumeration(assignment, reason):
    """The verdict of checking every binary split of every element in
    order, the way the condition was decided before the one-split
    reduction, each on its built map (a split whose blocks differ in
    flavor fails); kept here as the oracle."""
    omega = assignment.algebra
    for e in omega.nonzero_elements():
        idx = omega.atom_indices(e)
        seen = set()
        for r in range(1, len(idx)):
            for picked in itertools.combinations(idx, r):
                f = sum(1 << i for i in picked)
                if f in seen or (e & ~f) in seen:
                    continue
                seen.add(f)
                if not split_is_isometric_iso(assignment, e, (f, e & ~f)):
                    return Verdict(False, e, (f, e & ~f), reason)
    if assignment.space(0).dim != 0:
        return Verdict(False, 0, (), "the bottom value must be the zero space")
    return Verdict(True)


def cosheaf_oracle(mu):
    return split_enumeration(mu, "mediated partition map is not an isometric isomorphism")


def sheaf_oracle(xi):
    return split_enumeration(xi, "restriction cone is not an isometric isomorphism")


def outcome(check, *args, **kwargs):
    """A verdict, or the class of the library error raised instead."""
    try:
        return check(*args, **kwargs)
    except CatmeasError as exc:
        return type(exc)


def damped_above(mu, e):
    """mu with every weight halved at the elements >= e: still functorial
    and contractive, and the condition fails first at e."""
    omega = mu.algebra
    spaces = {}
    for g in omega.elements():
        s = mu.space(g)
        spaces[g] = (FinBanSpace(s.basis, tuple(w / 2 for w in s.weights), s.flavor)
                     if g & e == e else s)
    cover_maps = {key: LinMap.from_matrix(spaces[key[0]], spaces[key[1]], m.matrix)
                  for key, m in mu.cover_maps.items()}
    return make_precosheaf(omega, spaces, cover_maps)


def dual_presheaf(mu, contractive=True):
    """Transposed maps between the dual spaces (SUP, inverse weights);
    its cones are the transposed partition maps of mu.  Checked
    contractive when mu is to be."""
    omega = mu.algebra
    spaces = {}
    for g in omega.elements():
        s = mu.space(g)
        spaces[g] = (FinBanSpace(s.basis, tuple(1 / w for w in s.weights), Flavor.SUP)
                     if s.dim else zero_space(Flavor.SUP))
    cover_maps = {}
    for (small, big), m in mu.cover_maps.items():
        rows = tuple(tuple(row[j] for row in m.matrix) for j in range(m.source.dim))
        cover_maps[(small, big)] = LinMap.from_matrix(spaces[big], spaces[small], rows)
    return make_presheaf(omega, spaces, cover_maps, contractive)


@functools.lru_cache(maxsize=None)
def precosheaf_cases():
    """Seeded (label, precosheaf) pairs on 1 to 5 atoms: cosheaves,
    precosheaves failing at elements of every size, and degenerate ones."""
    return tuple(_precosheaf_cases())


def _precosheaf_cases():
    rng = random.Random(20)
    for k in range(30):
        n = 1 + k % 5
        omega = alg(*(f"x{i}" for i in range(n)))
        yield f"random_cosheaf/{k}", random_cosheaf(rng, omega)
        yield f"scaled/{k}", random_scaled_precosheaf(rng, omega, force_noncosheaf=k % 2 == 0)
        # damp above an element of 2..n atoms, so the failure moves up
        size = 2 + (k // 5) % (n - 1) if n > 1 else 1
        damped = sum(1 << i for i in rng.sample(range(n), size))
        yield f"damped/{k}", damped_above(random_cosheaf(rng, omega), damped)
    for n in range(1, 6):
        omega = alg(*(f"x{i}" for i in range(n)))
        yield f"constant/{n}", constant_precosheaf(omega, sum_space(["u", "v"]))
        yield f"zero/{n}", zero_precosheaf(omega)
    model = cli.parse_model(str(MODELS / "broken_cosheaf.json"))
    for name, build in sorted(model.cosheaves.items()):
        yield f"broken_cosheaf.json/{name}", build()
    # a cosheaf in all but name whose value at {a, c} is a SUP plane (l1
    # and sup planes are isometric): the split {b, ac} has no block sum,
    # while every top-atom split has one
    omega = alg("a", "b", "c")
    spaces = {0: zero_space(), 1: sum_space(["a"]), 2: sum_space(["b"]),
              4: sum_space(["c"]), 3: sum_space(["a", "b"]), 6: sum_space(["b", "c"]),
              5: sup_space(["u", "v"]), 7: sum_space(["a", "b", "c"])}
    half = F(1, 2)
    matrices = {(1, 3): ((1,), (0,)), (2, 3): ((0,), (1,)),
                (2, 6): ((1,), (0,)), (4, 6): ((0,), (1,)),
                (1, 5): ((1,), (1,)), (4, 5): ((1,), (-1,)),
                (3, 7): ((1, 0), (0, 1), (0, 0)), (6, 7): ((0, 0), (1, 0), (0, 1)),
                (5, 7): ((half, half), (0, 0), (half, -half))}
    ext = {(0, k): LinMap.zero(spaces[0], spaces[k]) for k in (1, 2, 4)}
    for (small, big), m in matrices.items():
        ext[(small, big)] = LinMap.from_matrix(spaces[small], spaces[big],
                                               tuple(tuple(F(x) for x in row) for row in m))
    yield "mixed_flavors", make_precosheaf(omega, spaces, ext)


def chain_walk_oracle(x, small, big):
    """x's structure map between small <= big, folded from the identity
    along the cover maps that add the atoms of big - small lowest first."""
    out, cur = LinMap.identity(x.space(small)), small
    for i in x.algebra.atom_indices(big & ~small):
        m = x.cover_maps[(cur, cur | 1 << i)]
        out = m @ out if x.covariant else out @ m
        cur |= 1 << i
    return out


def walk_cases():
    """Assembled precosheaves and presheaves on 1 to 6 atoms, some with
    zero-dimensional fibers."""
    rng = random.Random(79)
    for n in range(1, 7):
        omega = alg(*(f"x{i}" for i in range(n)))
        sparse = from_atom_spaces(omega, random_atom_spaces(rng, omega))
        for label, x in (("atom_spaces", sparse), ("random", random_cosheaf(rng, omega)),
                         ("scaled", random_scaled_precosheaf(rng, omega)),
                         ("dual", dual_presheaf(sparse)),
                         ("characteristic",
                          characteristic_sheaf(omega, rng.randrange(omega.top + 1)))):
            make = make_precosheaf if x.covariant else make_presheaf
            yield f"{label}/{n}", make(omega, x.spaces, x.cover_maps)


def test_memoised_walk_matches_the_chain_oracle():
    """extension/restriction compose each pair once along the last atom;
    queried in a shuffled order, every pair gives the oracle's map, and a
    repeated query the same object."""
    rng = random.Random(83)
    zero_dim = 0
    for label, x in walk_cases():
        omega = x.algebra
        walk = x.extension if x.covariant else (lambda small, big: x.restriction(big, small))
        pairs = [(s, b) for b in omega.elements() for s in omega.elements() if omega.leq(s, b)]
        rng.shuffle(pairs)
        got = {pair: walk(*pair) for pair in pairs}
        for (small, big), m in got.items():
            want = chain_walk_oracle(x, small, big)
            assert (m.source, m.target, m.matrix) == (want.source, want.target, want.matrix), \
                (label, small, big)
        rng.shuffle(pairs)
        assert all(walk(*pair) is got[pair] for pair in pairs), label
        with pytest.raises(InvalidModel):
            walk(omega.top, 0)
        zero_dim += any(x.space(1 << i).dim == 0 for i in range(omega.n))
    assert zero_dim >= 4


def test_one_split_cosheaf_check_matches_split_enumeration():
    cases = precosheaf_cases()
    assert len(cases) >= 100
    kinds = {True: 0, False: 0}
    for label, mu in cases:
        verdict = outcome(is_cosheaf, mu)
        assert verdict == outcome(cosheaf_oracle, mu), label
        if isinstance(verdict, Verdict):
            kinds[verdict.ok] += 1
            assert bool(is_cosheaf(mu, exhaustive=True)) == verdict.ok, label
    # both sides are well represented, and failures occur above size 2;
    # a split whose blocks differ in flavor fails, it does not raise
    assert kinds[True] >= 30 and kinds[False] >= 30
    assert not is_cosheaf(dict(cases)["mixed_flavors"])
    sizes = {len(mu.algebra.atom_indices(is_cosheaf(mu).failing_element))
             for label, mu in cases if label.startswith("damped") and not is_cosheaf(mu)}
    assert {2, 3, 4, 5} <= sizes


def sheaf_cases():
    """(label, presheaf, verdict of the precosheaf it is dual to, or None):
    the duals of the seeded precosheaves, characteristic presheaves and
    Yoneda presheaves on 1 to 5 atoms."""
    rng = random.Random(21)
    cases = []
    for label, mu in precosheaf_cases():
        if label != "mixed_flavors":
            cases.append((label, dual_presheaf(mu), is_cosheaf(mu)))
    for n in range(1, 6):
        omega = alg(*(f"x{i}" for i in range(n)))
        for _ in range(2):
            e = rng.randrange(omega.top + 1)
            cases.append((f"characteristic/{n}", characteristic_sheaf(omega, e), None))
            cases.append((f"yoneda/{n}", yoneda_presheaf(omega, e), None))
    return cases


def test_one_split_sheaf_check_matches_split_enumeration():
    for label, xi, dual_of in sheaf_cases():
        verdict = is_sheaf(xi)
        assert verdict == sheaf_oracle(xi), label
        assert bool(is_sheaf(xi, exhaustive=True)) == verdict.ok, label
        if dual_of is not None:
            assert verdict.ok == dual_of.ok, label


# -- the top-atom split decided on its legs ----------------------------------

def two_atom_precosheaf(top, leg_a, leg_b):
    """A precosheaf on {a, b}: unit l1 lines at the atoms, `top` at ab, and
    the extensions of a and b into it given by their one column each."""
    omega = alg("a", "b")
    spaces = {0: zero_space(), 1: sum_space(["a"]), 2: sum_space(["b"]), 3: top}
    cover_maps = {(0, 1): LinMap.zero(spaces[0], spaces[1]),
                  (0, 2): LinMap.zero(spaces[0], spaces[2]),
                  (1, 3): LinMap.from_columns(spaces[1], top, [tuple(map(F, leg_a))]),
                  (2, 3): LinMap.from_columns(spaces[2], top, [tuple(map(F, leg_b))])}
    return make_precosheaf(omega, spaces, cover_maps)


def two_atom_cases():
    """One SUM precosheaf per shape of the split map of ab: a non-monomial
    isometric cover map x |-> (x/2, x/2) into a unit l1 plane, two legs
    hitting one row, a zero leg, a non-square split, and +-1 coefficients
    against equal and unequal weights."""
    half = F(1, 2)
    plane = sum_space(["u", "v"])
    yield "halves", two_atom_precosheaf(plane, (half, half), (half, -half))
    yield "halves_zero_leg", two_atom_precosheaf(plane, (half, half), (0, 0))
    yield "shared_row", two_atom_precosheaf(plane, (1, 0), (1, 0))
    yield "zero_leg", two_atom_precosheaf(plane, (1, 0), (0, 0))
    yield "non_square", two_atom_precosheaf(sum_space(["u", "v", "w"]), (1, 0, 0), (0, 1, 0))
    yield "unit_equal", two_atom_precosheaf(plane, (0, -1), (1, 0))
    yield "unit_unequal", two_atom_precosheaf(sum_space(["u", "v"], [1, half]), (1, 0), (0, -1))


def sup_precosheaf(mu):
    """mu with every space a SUP space of the same basis and weights and
    the same matrices, checked again."""
    spaces = {g: FinBanSpace(s.basis, s.weights, Flavor.SUP) for g, s in mu.spaces.items()}
    cover_maps = {(small, big): LinMap(spaces[small], spaces[big], m.rows)
                  for (small, big), m in mu.cover_maps.items()}
    return make_precosheaf(mu.algebra, spaces, cover_maps)


def split_cases():
    """(label, x) over one unblocked flavor, both variances: the seeded
    precosheaves and their duals, the walk cases, the two-atom shapes and
    their duals, l1 of a measure with a null atom, SUP precosheaves, and
    a non-monomial top value with its dual."""
    for label, mu in precosheaf_cases():
        if label != "mixed_flavors":
            yield label, mu
            yield f"dual/{label}", dual_presheaf(mu)
    yield from walk_cases()
    for label, mu in two_atom_cases():
        yield label, mu
        yield f"dual/{label}", dual_presheaf(mu)
    rng = random.Random(89)
    for n in range(2, 6):
        omega = alg(*(f"x{i}" for i in range(n)))
        values = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
        values[rng.randrange(n)] = F(0)
        mu = l1_cosheaf(MeasureAlgebra.from_values(omega, values))
        yield f"l1/null_atom/{n}", mu
        yield f"sup/l1/null_atom/{n}", sup_precosheaf(mu)
        yield f"sup/damped/{n}", sup_precosheaf(
            damped_above(random_cosheaf(rng, omega), omega.top))
    # unit l1 on 4 atoms with the value at top mixed by a contraction that
    # is no isometry, (u, v, ...) |-> ((u + v)/2, (u - v)/2, ...): every
    # partition map at top has two nonzeros in a row
    omega = alg(*(f"x{i}" for i in range(4)))
    mu = l1_cosheaf(MeasureAlgebra.from_values(omega, [F(1)] * 4))
    half, top = F(1, 2), mu.space(omega.top)
    mix = LinMap(top, top, (((0, half), (1, half)), ((0, half), (1, -half)))
                 + finban._identity_rows(4)[2:])
    mixed = make_precosheaf(omega, mu.spaces, {
        (small, big): mix @ m if big == omega.top else m
        for (small, big), m in mu.cover_maps.items()})
    yield "l1/mixed_top", mixed
    yield "dual/l1/mixed_top", dual_presheaf(mixed)


def split_shape(m):
    """How a split map is decided without its norms: not square or with a
    zero row (not invertible), a row with two nonzeros (the built map
    decides), a column repeated, or monomial (the closed form)."""
    if m.source.dim != m.target.dim or not all(m.rows):
        return "singular"
    if any(len(row) > 1 for row in m.rows):
        return "two_in_a_row"
    return "repeated_column" if len({row[0][0] for row in m.rows}) < len(m.rows) else "monomial"


def split_partitions(omega, e):
    """Partitions of e, two or more atoms, whose maps the leg tests build:
    the top-atom split, the atomic partition of three or more atoms, and
    {lowest atom, the atoms between, top atom} of four or more."""
    atoms = [1 << i for i in omega.atom_indices(e)]
    yield e & ~atoms[-1], atoms[-1]
    if len(atoms) >= 3:
        yield tuple(atoms)
    if len(atoms) >= 4:
        yield atoms[0], e & ~atoms[0] & ~atoms[-1], atoms[-1]


def legs_of(x, e, blocks):
    """x(F, e) for each block F, the structure maps between F and e."""
    return [x.extension(f, e) if x.covariant else x.restriction(e, f) for f in blocks]


def test_split_by_legs_matches_the_built_split_map(monkeypatch):
    """At every element with two or more atoms, not only up to the first
    failure, a partition decided on its legs is `is_isometric_iso` of the
    built partition map or cone, for the top-atom split and for
    partitions of three or more blocks.  Only a non-monomial split of
    blocked spaces defers to the built map, whose norms are taken when it
    is invertible, and there the built map can be an isometric
    isomorphism; every shape occurs in both variances, and the main ones
    with more blocks too."""
    oracle_norm, calls = finban.operator_norm, []
    monkeypatch.setattr(finban, "operator_norm", lambda t: calls.append(t) or oracle_norm(t))
    seen = set()
    for label, x in itertools.chain(split_cases(), blocked_cases()):
        blocked = any(s.groups for s in x.spaces.values())
        for e in x.algebra.nonzero_elements():
            if e & (e - 1) == 0:
                continue
            for blocks in split_partitions(x.algebra, e):
                built = partition_map(x, e, blocks)
                want, shape = is_isometric_iso(built), split_shape(built)
                calls.clear()
                got = finban._isometric_split(legs_of(x, e, blocks), not x.covariant)
                deferred = blocked and shape in ("two_in_a_row", "repeated_column")
                assert got == want, (label, e, blocks)
                assert bool(calls) == (deferred and built.inverse() is not None), \
                    (label, e, blocks)
                seen.add((x.covariant, blocked, shape, want, len(blocks)))
    for covariant in (True, False):
        assert {(covariant, False, "singular", False, 2),
                (covariant, False, "two_in_a_row", False, 2),
                (covariant, False, "repeated_column", False, 2),
                (covariant, False, "monomial", False, 2), (covariant, False, "monomial", True, 2),
                (covariant, True, "two_in_a_row", True, 2)} <= seen
        assert {(covariant, False, shape, want, k) for shape, want in (
            ("singular", False), ("two_in_a_row", False),
            ("monomial", False), ("monomial", True)) for k in (3, 4)} <= seen
    assert {(False, True, "monomial", False, 2), (False, True, "monomial", True, 2),
            (True, True, "monomial", True, 2), (False, True, "monomial", True, 3),
            (False, True, "monomial", False, 3)} <= seen


def hand_built_splits():
    """(label, covariant, legs, verdict): splits of two hand-built legs,
    each the case it is named for; SUM spaces for a cosheaf's partition
    map, SUP spaces for a sheaf's restriction cone."""
    one, zero = ((0, F(1)),), ()
    for covariant, flavor in ((True, Flavor.SUM), (False, Flavor.SUP)):
        kind = "cosheaf" if covariant else "sheaf"

        def space(labels, weights=None):
            return FinBanSpace(tuple(labels), tuple(weights or [F(1)] * len(labels)), flavor)

        def split(whole, parts, rows):
            """The legs between whole and each part, from each leg's rows."""
            return [LinMap(p, whole, r) if covariant else LinMap(whole, p, r)
                    for p, r in zip(parts, rows)]

        a, b, uv, uvw = space("a"), space("b"), space("uv"), space("uvw")
        if covariant:
            # both legs onto u: two nonzeros in row u, none in row v
            yield "cosheaf/two_in_a_row", True, split(
                uv, (a, b), ((one, zero), (one, zero))), False
            yield "cosheaf/repeated_column", True, split(
                uv, (a, b), ((one, one), (zero, zero))), False
        else:
            yield "sheaf/shared_column", False, split(uv, (a, b), ((one,), (one,))), False
            yield "sheaf/two_in_a_row", False, split(
                uv, (a, b), ((((0, F(1)), (1, F(1))),), (one,))), False
        rows = ((one, zero), (zero, zero)) if covariant else ((one,), (zero,))
        yield f"{kind}/zero_row", covariant, split(uv, (a, b), rows), False
        rows = ((one, zero, zero), (zero, one, zero)) if covariant else \
            ((one,), (((1, F(1)),),))
        yield f"{kind}/non_square", covariant, split(uvw, (a, b), rows), False
        # equal weights held as distinct Fraction objects, coefficient -1
        whole = space("uv", [F(2, 3), F(5, 7)])
        pa, pb = space("a", [F(4, 6)]), space("b", [F(10, 14)])
        assert pa.weights[0] is not whole.weights[0] and pb.weights[0] is not whole.weights[1]
        minus = ((0, F(-1)),)
        rows = ((minus, zero), (zero, minus)) if covariant else ((minus,), (((1, F(-1)),),))
        yield f"{kind}/minus_one", covariant, split(whole, (pa, pb), rows), True
        # c = -3/2 carries weight 1 onto weight 2/3 isometrically, not onto 1/2
        c = ((0, F(-3, 2)),)
        for w, ok in ((F(2, 3), True), (F(1, 2), False)):
            if covariant:
                legs = split(space("uv", [w, F(1)]), (a, b), ((c, zero), (zero, one)))
            else:
                legs = split(uv, (space("a", [w]), b), ((c,), (((1, F(1)),),)))
            yield f"{kind}/three_halves/{ok}", covariant, legs, ok


def test_split_by_legs_on_hand_built_legs(monkeypatch):
    """Each hand-built split is decided on its legs with the verdict of
    `is_isometric_iso` on the built partition map or cone, and no norm;
    on blocked SUP spaces, two nonzeros in a row defer to the built map
    and its norms."""
    oracle_norm, calls = finban.operator_norm, []
    monkeypatch.setattr(finban, "operator_norm", lambda t: calls.append(t) or oracle_norm(t))
    for label, covariant, legs, want in hand_built_splits():
        parts = [leg.source if covariant else leg.target for leg in legs]
        ds = direct_sum(parts)
        assert is_isometric_iso(ds.mediate(legs)) == want, label
        calls.clear()
        assert finban._isometric_split(legs, not covariant) is want, label
        assert calls == [], label
    plane = FinBanSpace(("u", "v"), (F(1), F(1)), Flavor.SUP, ((0, 1),))
    half = F(1, 2)
    legs = [LinMap(sup_space(["a"]), plane, (((0, half),), ((0, half),))),
            LinMap(sup_space(["b"]), plane, (((0, half),), ((0, -half),)))]
    assert finban._isometric_split(legs) is True
    assert len(calls) == 2
    summed = direct_sum([leg.source for leg in legs]).space
    assert is_isometric_iso(finban._mediated(summed, plane, legs))


def blocked_product_presheaf(omega, fibers):
    """E |-> the product of the SUP fibers (with blocks) of the atoms below
    E, lowest first, restrictions dropping the coordinates of an atom: a
    sheaf whose spaces carry `groups`."""
    spaces = {e: direct_sum([fibers[i] for i in omega.atom_indices(e)]).space
              if e else zero_space(Flavor.SUP) for e in omega.elements()}
    cover_maps = {}
    for small, big in omega.covering_pairs():
        k = (big ^ small).bit_length() - 1
        p = spaces[small & ((1 << k) - 1)].dim
        rows = finban._identity_rows(spaces[big].dim)
        cover_maps[(small, big)] = LinMap(spaces[big], spaces[small],
                                          rows[:p] + rows[p + fibers[k].dim:])
    return make_presheaf(omega, spaces, cover_maps)


def boosted_above(xi, e):
    """xi with every weight doubled at the elements >= e: restrictions stay
    contractive, and the product condition fails first at e."""
    spaces = {g: FinBanSpace(s.basis, tuple(2 * w for w in s.weights), s.flavor, s.groups)
              if g & e == e else s for g, s in xi.spaces.items()}
    cover_maps = {(small, big): LinMap(spaces[big], spaces[small], m.rows)
                  for (small, big), m in xi.cover_maps.items()}
    return make_presheaf(xi.algebra, spaces, cover_maps)


def blocked_cases():
    """Blocked SUP (pre)sheaves: products of random blocked fibers, damped
    versions, one presheaf whose value at ab is an l1 plane (a single
    block) over the sup lines at a and b, where every weight matches
    along a bijective cone but the blocks do not, and, both variances,
    that plane carried isometrically onto the sup plane by (u, v) |->
    (u + v, u - v), a split with two nonzeros in a row; and a cosheaf
    whose partition map at ab puts the l1 plane at b before the line at
    a, so blocks go onto blocks only through the permutation."""
    rng = random.Random(97)
    for n in range(2, 6):
        omega = alg(*(f"x{i}" for i in range(n)))
        fibers = []
        for i in range(n):
            d = rng.randint(0, 2)
            groups = ((0, 1),) if d == 2 and rng.random() < 0.5 else tuple((j,) for j in range(d))
            fibers.append(FinBanSpace(tuple(f"x{i}{j}" for j in range(d)),
                                      tuple(F(rng.randint(1, 3), rng.randint(1, 2))
                                            for _ in range(d)), Flavor.SUP, groups))
        xi = blocked_product_presheaf(omega, fibers)
        yield f"blocked/{n}", xi
        yield f"blocked/boosted/{n}", boosted_above(xi, rng.randrange(1, omega.top + 1))
    omega = alg("a", "b")
    spaces = {0: zero_space(Flavor.SUP), 1: sup_space(["a"]), 2: sup_space(["b"]),
              3: FinBanSpace(("a", "b"), (F(1), F(1)), Flavor.SUP, ((0, 1),))}

    def legs(first, second):
        return {(0, 1): LinMap.zero(spaces[1], spaces[0]),
                (0, 2): LinMap.zero(spaces[2], spaces[0]),
                (1, 3): LinMap.from_matrix(spaces[3], spaces[1], [first]),
                (2, 3): LinMap.from_matrix(spaces[3], spaces[2], [second])}

    yield "blocked/l1_plane", make_presheaf(omega, spaces, legs((1, 0), (0, 1)))
    yield "blocked/rotated", make_presheaf(omega, spaces, legs((1, 1), (1, -1)))
    half = F(1, 2)
    cover_maps = {(0, 1): LinMap.zero(spaces[0], spaces[1]),
                  (0, 2): LinMap.zero(spaces[0], spaces[2]),
                  (1, 3): LinMap.from_columns(spaces[1], spaces[3], [(half, half)]),
                  (2, 3): LinMap.from_columns(spaces[2], spaces[3], [(half, -half)])}
    yield "blocked/rotated_cosheaf", make_precosheaf(omega, spaces, cover_maps)
    spaces = {0: zero_space(Flavor.SUP), 1: sup_space(["a"]),
              2: FinBanSpace(("b0", "b1"), (F(1), F(2)), Flavor.SUP, ((0, 1),)),
              3: FinBanSpace(("b0", "b1", "a"), (F(1), F(2), F(1)), Flavor.SUP, ((0, 1), (2,)))}
    eye = finban._identity_rows(3)
    cover_maps = {(0, 1): LinMap.zero(spaces[0], spaces[1]),
                  (0, 2): LinMap.zero(spaces[0], spaces[2]),
                  (1, 3): LinMap(spaces[1], spaces[3], ((), (), ((0, F(1)),))),
                  (2, 3): LinMap(spaces[2], spaces[3], eye[:2] + ((),))}
    yield "blocked/reordered_cosheaf", make_precosheaf(omega, spaces, cover_maps)


def test_blocked_splits_compare_blocks_and_mixed_splits_are_built(monkeypatch):
    """A blocked SUP (pre)sheaf is decided with the block ids of the
    direct sum, with the enumeration's verdicts: on the l1 plane over two
    sup lines every weight matches along a bijective cone but the blocks
    do not.  A mixed-flavor precosheaf takes no top-atom split: with or
    without `exhaustive`, its splits, each one decision on its legs, run
    up to {b, ac}, whose blocks differ in flavor and fail it."""
    xi = dict(blocked_cases())["blocked/l1_plane"]
    assert finban._isometric_split(legs_of(xi, 3, (1, 2)), True) is False
    assert not is_isometric_iso(partition_map(xi, 3, (1, 2)))
    verdicts = set()
    for label, x in blocked_cases():
        assert any(s.groups for s in x.spaces.values()), label
        check, oracle = (is_cosheaf, cosheaf_oracle) if x.covariant else (is_sheaf, sheaf_oracle)
        verdict = check(x)
        assert verdict == oracle(x), label
        verdicts.add((x.covariant, verdict.ok))
    assert verdicts == {(False, True), (False, False), (True, True)}

    decide, flavors = shcosh._isometric_split, []

    def recording(legs, stacked=False):
        flavors.append({leg.source.flavor for leg in legs})
        return decide(legs, stacked)

    monkeypatch.setattr(shcosh, "_isometric_split", recording)
    mixed = dict(precosheaf_cases())["mixed_flavors"]
    verdict = is_cosheaf(mixed)
    assert verdict == cosheaf_oracle(mixed)
    assert (verdict.failing_element, verdict.failing_blocks) == (0b111, (0b010, 0b101))
    # ab, ac, bc, then {a, bc} and {b, ac} of abc
    assert [len(f) for f in flavors] == [1, 1, 1, 1, 2]
    flavors.clear()
    assert is_cosheaf(mixed, exhaustive=True) == partition_condition_by_built_maps(mixed)
    # ab, ac, bc, then {ab, c} and {ac, b} of abc
    assert [len(f) for f in flavors] == [1, 1, 1, 1, 2]


def test_passing_condition_checks_build_no_split_map(monkeypatch):
    """On 7-atom inputs, blocked SUP spaces with monomial splits included,
    the check builds no summed space, partition map or cone: not when it
    passes, not when a damped cosheaf fails and its failure is re-located
    on the binary splits' legs, and not under `exhaustive` on inputs of
    one unblocked flavor."""
    omega = alg(*(f"x{i}" for i in range(7)))
    mu = l1_cosheaf(positive_measure(omega))
    fibers = [FinBanSpace((f"x{i}0", f"x{i}1"), (F(1), F(i + 1)), Flavor.SUP,
                          ((0, 1),) if i % 2 else None) for i in range(7)]
    passing = [mu, random_cosheaf(random.Random(3), omega),
               characteristic_sheaf(omega, omega.top), characteristic_sheaf(omega, 0b1011001),
               dual_presheaf(mu), blocked_product_presheaf(omega, fibers)]
    failing = damped_above(mu, 0b0010110)
    want = cosheaf_oracle(failing)  # the oracle builds its maps
    calls = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls.append((name, args))
            return f(*args, **kwargs)
        return wrapped

    for module, name in ((finban, "direct_sum"), (shcosh, "direct_sum"),
                         (shcosh, "partition_map")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for x in passing:
        assert (is_cosheaf if x.covariant else is_sheaf)(x)
    assert calls == []
    verdict = is_cosheaf(failing)
    assert not verdict and verdict.failing_element == 0b0010110
    assert calls == []
    assert verdict == want
    for x in passing[:5] + [failing]:
        assert not any(s.groups for s in x.spaces.values())
        exhaustive = (is_cosheaf if x.covariant else is_sheaf)(x, exhaustive=True)
        assert exhaustive.ok == (x is not failing)
    assert calls == []


def test_binary_splits_match_the_seen_set_enumeration():
    """Every element with up to 9 atoms has the binary splits of the
    seen-set enumeration, in its order."""
    for n in range(1, 10):
        omega = alg(*(f"x{i}" for i in range(n)))
        for e in omega.elements():
            assert list(shcosh._binary_splits(omega, e)) == binary_splits_by_seen_set(omega, e), \
                (n, e)


def test_partition_map_satisfies_the_universal_property():
    """On every partition of every element, the mediated map P of a
    precosheaf composed with the injection of a block F is the
    extension x(F, E), and the projection onto F composed with that of a
    presheaf is the restriction x(E, F); the injections and projections
    are those of the direct sum P is built on, built from its offsets."""
    rng = random.Random(29)
    for n in range(1, 5):
        omega = alg(*(f"x{i}" for i in range(n)))
        fibers = [FinBanSpace((f"x{i}0", f"x{i}1"), (F(1), F(i + 1)), Flavor.SUP,
                              ((0, 1),) if i % 2 else None) for i in range(n)]
        sheaf = characteristic_sheaf(omega, rng.randrange(omega.top + 1))
        for x in (random_cosheaf(rng, omega), sheaf, blocked_product_presheaf(omega, fibers)):
            for e in omega.nonzero_elements():
                for p in partitions_of(omega, e):
                    mediated = partition_map(x, e, p)
                    ds = direct_sum([x.space(f) for f in p], [omega.describe(f) for f in p])
                    for f, inj, proj in zip(p, ds.injections, ds.projections):
                        if x.covariant:
                            assert mediated @ inj == x.extension(f, e), (n, e, f)
                        else:
                            assert proj @ mediated == x.restriction(e, f), (n, e, f)


def test_exhaustive_check_matches_the_built_maps():
    """Under `exhaustive` every partition is decided on its legs; the
    oracle builds each partition map or cone and decides it with
    `is_isometric_iso`, and fails a partition whose blocks differ in
    flavor.  The full outcome, the verdict with its element, blocks and
    reason or the error raised, is the same on the seeded precosheaves,
    the mixed-flavor one among them, the sheaf cases, the blocked
    (pre)sheaves and a damped cosheaf that fails at a four-atom
    element."""
    rng = random.Random(101)
    omega = alg(*(f"x{i}" for i in range(5)))
    cases = [*precosheaf_cases(), *((label, xi) for label, xi, _ in sheaf_cases()),
             *blocked_cases(), ("damped/5", damped_above(random_cosheaf(rng, omega), 0b11011))]
    kinds = set()
    for label, x in cases:
        check = is_cosheaf if x.covariant else is_sheaf
        got = outcome(check, x, exhaustive=True)
        assert got == outcome(partition_condition_by_built_maps, x), label
        kinds.add((x.covariant, got if isinstance(got, type) else got.ok))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    # {ac, b} of abc, the first partition whose blocks differ in flavor, fails
    mixed = is_cosheaf(dict(cases)["mixed_flavors"], exhaustive=True)
    assert (mixed.failing_element, mixed.failing_blocks) == (0b111, (0b101, 0b010))
    damped = outcome(is_cosheaf, cases[-1][1], exhaustive=True)
    assert damped.failing_element == 0b11011 and len(damped.failing_blocks) >= 2


# -- the seeded probe ---------------------------------------------------------

def assert_walks_match_the_chain(x, label=None):
    """x, a closed form, writes at every small <= big the rows of the chain
    product that `_walk` composes from the same cover maps assembled as a
    dict, and keeps none of them."""
    omega = x.algebra
    make = make_precosheaf if x.covariant else make_presheaf
    chain = make(omega, x.spaces, x.cover_maps, contractive=False)
    for big in omega.elements():
        for small in shcosh._submasks(0, big):
            assert (shcosh._walk(x, small, big).rows
                    == shcosh._walk(chain, small, big).rows), (label, small, big)
    assert callable(x.maps) and not x._walks, label


def test_lazy_probe_equals_the_composed_one():
    """For 1 to 7 atoms and several seeds, the probe whose maps are written
    in closed form has the spaces, keys, order and rows of the one whose
    maps are composed eagerly, leaves the rng in the same state, and
    writes at every pair small <= big the map the chain composes."""
    for n in range(1, 8):
        omega = alg(*(f"x{i}" for i in range(n)))
        for seed in (0, 1, 5):
            rng, rng_oracle = random.Random(seed), random.Random(seed)
            probe = random_cosheaf(rng, omega)
            want = random_cosheaf_by_composition(rng_oracle, omega)
            assert rng.getstate() == rng_oracle.getstate(), (n, seed)
            assert probe.spaces == want.spaces
            maps = probe.cover_maps
            assert list(maps) == list(want.cover_maps) and len(maps) == n * 2 ** (n - 1)
            for pair in reversed(list(want.cover_maps)):
                assert maps[pair] == want.cover_maps[pair], (n, seed, pair)
            assert probe == want and maps == want.cover_maps
            if n <= 6:
                assert_walks_match_the_chain(probe, (n, seed))


def test_lazy_probe_validates_and_checks_read_a_share_of_its_maps(monkeypatch):
    """The probe is functorial and contractive by the validator, which
    reads every map; at 7 atoms the condition check and the spectral laws
    read its maps in closed form, each from the canonical map under it,
    which `_walk` writes from the layout: neither keeps any of its maps."""
    for n in range(1, 6):
        omega = alg(*(f"x{i}" for i in range(n)))
        probe = random_cosheaf(random.Random(n), omega)
        assert make_precosheaf(omega, probe.spaces, probe.cover_maps) == probe
    canonical = []
    build = shcosh.from_atom_spaces
    monkeypatch.setattr(shcosh, "from_atom_spaces",
                        lambda *args: canonical.append(build(*args)) or canonical[-1])
    omega = alg(*(f"x{i}" for i in range(7)))
    probe = random_cosheaf(random.Random(7), omega)
    assert len(canonical) == 1 and not canonical[0]._walks
    assert is_cosheaf(probe) and spectral_measure(probe).satisfies_laws()
    assert not probe._walks and len(probe.cover_maps) == 448
    assert not canonical[0]._walks


def test_canonical_cosheaf_built_on_read_equals_the_eager_one():
    """For 1 to 7 atoms, fibers of dim 0 to 3, `from_atom_spaces` has the
    spaces, keys, key order and rows of the eager build, read in any
    order, and up to 6 atoms writes at every pair small <= big the map the
    chain composes, keeping none."""
    rng = random.Random(29)
    for n in range(1, 8):
        omega = alg(*(f"x{i}" for i in range(n)))
        for _ in range(3):
            atom_spaces = {a: sum_space([f"b{j}" for j in range(d)],
                                        [F(rng.randint(1, 5), rng.randint(1, 3))
                                         for _ in range(d)])
                           for a, d in ((a, rng.randint(0, 3)) for a in omega.atoms)}
            got, want = from_atom_spaces(omega, atom_spaces), from_atom_spaces_eager(
                omega, atom_spaces)
            maps = got.cover_maps
            assert len(maps) == n * 2 ** (n - 1)
            assert got.spaces == want.spaces and list(got.spaces) == list(want.spaces)
            assert list(maps) == list(want.cover_maps)
            pairs = list(want.cover_maps)
            rng.shuffle(pairs)
            for pair in pairs:
                assert shcosh._walk(got, *pair).rows == want.cover_maps[pair].rows, (n, pair)
                assert maps[pair] == want.cover_maps[pair]
            assert got == want
            if n <= 6:
                assert_walks_match_the_chain(got, n)


def test_colliding_atom_block_labels_are_refused():
    """`from_atom_spaces` labels the block of atom a by `a:b`, so atoms x
    and x:y with basis labels y:z and z both give x:y:z: the parser
    forbids `:` in an atom name, `BoolAlg` does not."""
    omega = BoolAlg(("x", "x:y"))
    with pytest.raises(InvalidModel, match="duplicate basis labels"):
        from_atom_spaces(omega, {"x": sum_space(["y:z"]), "x:y": sum_space(["z"])})


# -- spectral measures -------------------------------------------------------

def test_l1_spectral_projections_are_diagonal():
    omega = alg("a", "b", "c")
    mu = positive_measure(omega)
    spec = spectral_measure(l1_cosheaf(mu))
    assert spec.satisfies_laws()
    for e in omega.elements():
        p = spec.projections[e]
        for i in range(p.source.dim):
            for j in range(p.target.dim):
                expected = F(1) if (i == j and e >> i & 1) else F(0)
                assert p.matrix[j][i] == expected


def test_spectral_laws_random_cosheaves():
    rng = random.Random(2)
    for _ in range(8):
        omega = alg(*(f"x{i}" for i in range(rng.randint(1, 3))))
        spec = spectral_measure(random_cosheaf(rng, omega))
        assert spec.satisfies_laws()


def test_spectral_action_is_isometric_algebra_map(monkeypatch):
    rng = random.Random(3)
    omega = alg("a", "b", "c")
    mu = positive_measure(omega)
    spec = spectral_measure(l1_cosheaf(mu))
    samples = [rnd_simple(rng, omega) for _ in range(8)]
    action, calls = shcosh.SpectralData.action, []
    monkeypatch.setattr(shcosh.SpectralData, "action",
                        lambda self, f: calls.append(f) or action(self, f))
    assert spec.satisfies_laws()
    assert spec.action_is_algebra_map(samples)
    assert len(calls) == 8 + 8 * 8  # one per sample, one per product
    for _ in range(50):
        f = rnd_simple(rng, omega)
        assert spec.action_norm_matches(f)
    # the laws and the action are decided on the atoms: no 2^n table
    assert "projections" not in vars(spec)
    assert spec.projections[omega.top].is_identity()
    assert "projections" in vars(spec)


def test_row_pass_action_matches_the_scaled_sums():
    """`SpectralData.action`, one pass over the carrier rows, equals the
    scale-and-add loop `action_by_scaled_sums` on 1 to 4 atoms: the l1
    cosheaf, with a null atom too (its P_a is zero), `random_cosheaf`,
    the zero cosheaf (a zero carrier), the rotated blocked cosheaf and
    data whose random dense P_a share rows, so that rows have several
    terms, for coefficients random, zero off a random support, and all
    zero."""
    rng = random.Random(109)
    specs = [spectral_measure(dict(blocked_cases())["blocked/rotated_cosheaf"])]
    for n in range(1, 5):
        omega = alg(*(f"x{i}" for i in range(n)))
        null = MeasureAlgebra.from_values(omega, [F(0)] + [F(k + 1, 2) for k in range(n - 1)])
        specs += [spectral_measure(mu) for mu in (
            l1_cosheaf(positive_measure(omega)), l1_cosheaf(null),
            random_cosheaf(rng, omega), zero_precosheaf(omega))]
        carrier = sum_space(["u", "v", "w"])
        specs.append(SpectralData(zero_precosheaf(omega), carrier, tuple(
            LinMap.from_matrix(carrier, carrier, [[F(rng.randint(-2, 2), rng.randint(1, 3))
                                                   for _ in range(3)] for _ in range(3)])
            for _ in range(n))))
    shapes = set()
    for spec in specs:
        omega = spec.cosheaf.algebra
        for f in ([rnd_simple(rng, omega) for _ in range(3)]
                  + [rnd_simple(rng, omega, support=rng.randrange(omega.top + 1)),
                     SimpleElement(omega, (F(0),) * omega.n)]):
            got = spec.action(f)
            assert got == action_by_scaled_sums(spec, f), (omega.n, f.coeffs)
            assert (got.source, got.target) == (spec.carrier, spec.carrier)
        shapes.add(max(map(len, spec._row_terms), default=0))
    assert {0, 1, 2, 4} <= shapes


def perturbed_spectral_data():
    """(spec, bads) on 1 to 5 atoms, random and l1 cosheaves: for one atom
    i and each j, bads holds spec with P_a (a = 1 << i) replaced by P_b
    (b = 1 << j) or, for j = i, by zero, and spec with P_a and P_b
    replaced by 2 P_a and P_b - P_a, which still sum to I."""
    rng = random.Random(71)
    for k in range(10):
        n = 1 + k % 5
        omega = alg(*(f"x{i}" for i in range(n)))
        mu = random_cosheaf(rng, omega) if k < 5 else l1_cosheaf(positive_measure(omega, rng))
        spec = spectral_measure(mu)
        i = rng.randrange(n)
        bads = []
        for j in range(n):
            atoms = list(spec.atom_projections)
            atoms[i] = atoms[j] if j != i else LinMap.zero(spec.carrier, spec.carrier)
            moved = list(spec.atom_projections)
            moved[i], moved[j] = moved[i].scale(F(2)), moved[j].add(moved[i].scale(F(-1)))
            bads += [atoms, moved] if j != i else [atoms]
        yield spec, [SpectralData(mu, spec.carrier, tuple(b)) for b in bads]


def test_reduced_spectral_laws_match_the_exhaustive_check():
    """The atom laws (sum P_a = I, P_a P_a = P_a) against every pair of
    elements of the table built from them, on 1 to 5 atoms; every
    `perturbed_spectral_data` copy fails both."""
    perturbed = 0
    for spec, bads in perturbed_spectral_data():
        assert spec.satisfies_laws() and spectral_laws_by_pairs(spec)
        for bad in bads:
            assert not bad.satisfies_laws()
            assert not spectral_laws_by_pairs(bad)
            perturbed += 1
    assert perturbed == 2 * sum(range(1, 6)) + 2 * sum(range(5))


def first_unequal_row(left, right):
    """The first index where two lists of dense rows differ, or None."""
    return next((r for r, (a, b) in enumerate(zip(left, right)) if list(a) != list(b)), None)


def law_check_by_matrices(spec):
    """What `satisfies_laws` answers, on dense matrices: the first atom
    whose P_a P_a differs from P_a, at its first such row, or else the
    first row where sum_a P_a differs from I."""
    for a, p in zip(spec.cosheaf.algebra.atoms, spec.atom_projections):
        row = first_unequal_row(mat_mul(p.matrix, p.matrix), p.matrix)
        if row is not None:
            return shcosh.LawCheck("P_a P_a = P_a", a, row)
    dim = spec.carrier.dim
    total = [[sum((p.matrix[r][c] for p in spec.atom_projections), F(0)) for c in range(dim)]
             for r in range(dim)]
    row = first_unequal_row(total, [[F(int(r == c)) for c in range(dim)] for r in range(dim)])
    return shcosh.LawCheck() if row is None else shcosh.LawCheck("sum_a P_a = I", "", row)


def test_spectral_self_checks_name_their_witness():
    """On `perturbed_spectral_data` each self-check is falsy exactly when
    it fails, and its witness is the one found on dense matrices: the
    law, the atom (or the sum) and the first row for `satisfies_laws`;
    the first sample pair f_i * f_j in order and the first row where
    act(f_i) act(f_j) and act(f_i f_j) differ for
    `action_is_algebra_map`; both sides for `action_norm_matches`.  A
    passing check equals `LawCheck()`, with no witness."""
    rng = random.Random(113)
    failed = {"laws": 0, "algebra": 0, "norm": 0}
    for spec, bads in perturbed_spectral_data():
        omega = spec.cosheaf.algebra
        samples = [rnd_simple(rng, omega) for _ in range(3)]
        assert spec.satisfies_laws() == shcosh.LawCheck()
        assert spec.action_is_algebra_map(samples) == shcosh.LawCheck()
        for bad in bads:
            got = bad.satisfies_laws()
            assert got == law_check_by_matrices(bad) and not got
            assert got.detail == {"law": got.law, "at": got.at, "row": got.row}
            failed["laws"] += 1
            acts = [action_by_scaled_sums(bad, f).matrix for f in samples]
            want = shcosh.LawCheck()
            for i, j in itertools.product(range(len(samples)), repeat=2):
                product = action_by_scaled_sums(bad, multiply(samples[i], samples[j])).matrix
                row = first_unequal_row(mat_mul(acts[i], acts[j]), product)
                if row is not None:
                    want = shcosh.LawCheck("act(f) act(g) = act(fg)", f"f{i} * f{j}", row)
                    break
            assert bad.action_is_algebra_map(samples) == want
            failed["algebra"] += not want
            f = samples[0]
            norm = operator_norm(action_by_scaled_sums(bad, f))
            sup = essential_sup(f, bad.cosheaf)
            assert bad.action_norm_matches(f) == (
                shcosh.LawCheck() if norm == sup
                else shcosh.LawCheck("|act(f)| = ess sup |f|", f"{norm} != {sup}"))
            failed["norm"] += norm != sup
    assert failed == {"laws": 50, "algebra": 40, "norm": 26}


def test_spectral_reports_carry_the_witness_of_a_failure(monkeypatch):
    """`spectral` and `verify-all` record a self-check's verdict with its
    witness as the detail only when it fails.  With every spectral datum's
    P_a zeroed for the first atom, the laws of the reference model's
    cosheaf (and of verify-all's random probe) fail on the sum and carry
    the witness `law_check_by_matrices` finds; every passing verdict, there
    and on the true data, has no detail."""
    model = cli.parse_model(str(MODELS / "reference.json"))
    real = shcosh.spectral_measure

    def zeroed(mu):
        spec = real(mu)
        zero = LinMap.zero(spec.carrier, spec.carrier)
        return SpectralData(mu, spec.carrier, (zero,) + spec.atom_projections[1:])

    want = law_check_by_matrices(zeroed(model.cosheaves["lambda"]())).detail
    assert want["law"] == "sum_a P_a = I"
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(cli, "spectral_measure", zeroed)
        for command in (cli.cmd_spectral, cli.cmd_verify_all):
            report = cli.Report("spectral", 0, False)
            command(model, report, random.Random(0), model.algebra.top, False)
            verdicts = report.payload["verdicts"]
            failing = {key for key, entry in verdicts.items() if not entry["ok"]}
            laws = {key for key in verdicts if "spectral_laws" in key}
            assert laws and failing == (laws if patched else set()), command
            for key, entry in verdicts.items():
                if key == "spectral_laws[lambda]" and patched:
                    assert entry == {"ok": False, "detail": want}
                elif key in failing:
                    assert entry["detail"]["law"] == "sum_a P_a = I", key
                else:
                    assert entry == {"ok": True}, key


def test_cosheaf_check_on_a_random_cosheaf_makes_no_rref_inversion(monkeypatch):
    """Every split map of a random cosheaf is monomial, so `is_cosheaf`
    and the spectral measure invert them in closed form."""
    def refuse(a):
        raise AssertionError("exactla.invert was called")

    monkeypatch.setattr(exactla, "invert", refuse)
    mu = random_cosheaf(random.Random(73), alg("a", "b", "c", "d", "e"))
    assert is_cosheaf(mu)
    assert spectral_measure(mu).satisfies_laws()


def test_cosheaf_check_makes_no_operator_norm_call(monkeypatch):
    """The split maps of a random cosheaf and of an l1-of cosheaf are
    monomial, so `is_cosheaf` decides each one in closed form, binary
    splits and every partition alike, with no operator norm."""
    def refuse(t):
        raise AssertionError("operator_norm was called")

    monkeypatch.setattr(finban, "operator_norm", refuse)
    monkeypatch.setattr(shcosh, "operator_norm", refuse)
    rng = random.Random(79)
    omega = alg("a", "b", "c", "d", "e")
    for mu in (random_cosheaf(rng, omega), l1_cosheaf(positive_measure(omega, rng))):
        assert is_cosheaf(mu) and is_cosheaf(mu, exhaustive=True)


def test_spectral_measure_fails_loudly_on_non_cosheaves():
    omega = alg("a", "b")
    theta = constant_precosheaf(omega, sum_space(["u"]))
    with pytest.raises(NotACosheaf):
        spectral_measure(theta)


def test_spectral_projections_match_split_projections():
    rng = random.Random(22)
    for k in range(12):
        omega = alg(*(f"x{i}" for i in range(1 + k % 5)))
        mu = random_cosheaf(rng, omega)
        spec = spectral_measure(mu)
        for e in omega.elements():
            expected = mu.extension(e, omega.top) @ split_projection(mu, omega.top, e)
            assert spec.projections[e].matrix == expected.matrix


def test_cosheaf_projection_matches_the_split_oracle():
    """The atomic route against the projection solved from the binary
    split {F, E - F}, for every F <= E, on random cosheaves and on l1
    cosheaves with null atoms, 1 to 5 atoms."""
    rng = random.Random(23)
    pairs = 0
    for k in range(10):
        n = 1 + k % 5
        omega = alg(*(f"x{i}" for i in range(n)))
        if k < 5:
            mu = random_cosheaf(rng, omega)
        else:
            values = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
            values[rng.randrange(n)] = F(0)
            mu = l1_cosheaf(MeasureAlgebra.from_values(omega, values))
        for e in omega.elements():
            for f in omega.elements():
                if f & ~e == 0:
                    assert cosheaf_projection(mu, e, f).rows == split_projection(mu, e, f).rows
                    pairs += 1
    assert pairs == 2 * sum(3 ** n for n in range(1, 6))


def test_projections_invert_once_per_element(monkeypatch):
    """`integrate_simple_morphism` inverts one atomic partition map, and
    `constant_universal_map` and `precosheaf_map_from_atoms` at most one
    per element, not one per block of f or per atom."""
    rng = random.Random(24)
    omega, line = alg("a", "b", "c", "d"), scalars()
    nu, theta = random_cosheaf(rng, omega), random_scaled_precosheaf(rng, omega)

    def atom_maps(target):
        return {1 << i: LinMap.from_matrix(nu.space(1 << i), target.space(1 << i), tuple(
            tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(nu.space(1 << i).dim))
            for _ in range(target.space(1 << i).dim))) for i in range(omega.n)}

    to_theta = atom_maps(theta)
    to_line = precosheaf_map_from_atoms(nu, constant_precosheaf(omega, line),
                                        atom_maps(constant_precosheaf(omega, line))).components
    f = SimpleElement(omega, (F(1), F(2), F(-3), F(1, 2)))
    inverse, calls = LinMap.inverse, []
    monkeypatch.setattr(LinMap, "inverse", lambda self: calls.append(self) or inverse(self))
    assert operator_norm(integrate_simple_morphism(f, nu, omega.top, omega.top)) == linf_norm(f)
    assert len(calls) == 1
    for build in (lambda: precosheaf_map_from_atoms(nu, theta, to_theta),
                  lambda: constant_universal_map(nu, to_line, line)):
        calls.clear()
        assert build().check_natural()
        assert len(calls) <= 2 ** omega.n


def test_spectral_measure_raises_on_a_singular_atomic_map():
    # square but singular: both atoms extend onto the same line
    omega = alg("a", "b")
    line, plane = sum_space(["x"]), sum_space(["x", "y"])
    spaces = {0: zero_space(), 1: line, 2: line, 3: plane}
    onto_x = LinMap.from_matrix(line, plane, ((F(1),), (F(0),)))
    mu = make_precosheaf(omega, spaces, {
        (0, 1): LinMap.zero(spaces[0], line), (0, 2): LinMap.zero(spaces[0], line),
        (1, 3): onto_x, (2, 3): onto_x})
    assert not is_cosheaf(mu)
    with pytest.raises(NotACosheaf, match="singular"):
        spectral_measure(mu)
    with pytest.raises(NotACosheaf, match="singular"):
        cosheaf_projection(mu, 3, 1)


# -- integration of simple morphisms -----------------------------------------

def test_integrate_one_block():
    omega = alg("a", "b", "c")
    mu = positive_measure(omega)
    cs = l1_cosheaf(mu)
    e = omega.element(["a", "b"])
    f = omega.element(["b", "c"])
    chi = characteristic(omega, e & f)
    got = integrate_simple_morphism(chi, cs, e, f)
    expected = cs.extension(e & f, f) @ cosheaf_projection(cs, e, e & f)
    assert got.matrix == expected.matrix


def test_integrate_identity_and_scaling():
    omega = alg("a", "b")
    mu = positive_measure(omega)
    cs = l1_cosheaf(mu)
    e = omega.element(["a", "b"])
    one = characteristic(omega, e)
    assert integrate_simple_morphism(one, cs, e, e).is_identity()
    two = one.scale(F(2))
    t = integrate_simple_morphism(two, cs, e, e)
    assert t.matrix == LinMap.identity(cs.space(e)).scale(F(2)).matrix
    assert operator_norm(t) == 2


def test_integrate_functorial_composition():
    rng = random.Random(4)
    omega = alg("a", "b", "c")
    mu = positive_measure(omega)
    cs = l1_cosheaf(mu)
    for _ in range(30):
        e = rng.randint(1, omega.top)
        f = rng.randint(1, omega.top)
        g = rng.randint(1, omega.top)
        ff = rnd_simple(rng, omega, support=e & f)
        gg = rnd_simple(rng, omega, support=f & g)
        lhs = integrate_simple_morphism(multiply(gg, ff), cs, e, g)
        rhs = integrate_simple_morphism(gg, cs, f, g) @ integrate_simple_morphism(ff, cs, e, f)
        assert lhs.matrix == rhs.matrix


def test_integrate_norm_equality_in_l1_model():
    rng = random.Random(5)
    omega = alg("a", "b", "c")
    mu = positive_measure(omega)
    cs = l1_cosheaf(mu)
    for _ in range(100):
        e = rng.randint(1, omega.top)
        f = rng.randint(1, omega.top)
        s = rnd_simple(rng, omega, support=e & f)
        t = integrate_simple_morphism(s, cs, e, f)
        assert operator_norm(t) == linf_norm(s)


def test_essential_sup_is_the_norm_of_the_action_and_the_integral():
    """On cosheaves with zero atom fibers, the action of f and the
    integral of f from e to top have as operator norm the sup of |f(a)|
    over the atoms with a nonzero fiber, which the sup norm of f can
    exceed."""
    rng = random.Random(29)
    exceeded = 0
    for _ in range(200):
        omega = alg(*(f"a{i}" for i in range(rng.randint(1, 4))))
        fibers = {}
        for a in omega.atoms:
            dim = rng.randint(0, 2)
            fibers[a] = sum_space([f"{a}{j}" for j in range(dim)],
                                  [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(dim)])
        cs = from_atom_spaces(omega, fibers)
        spec = spectral_measure(cs)
        for _ in range(5):
            e = rng.randint(0, omega.top)
            f = rnd_simple(rng, omega, support=e)
            norm = essential_sup(f, cs)
            assert spec.action_norm_matches(f)
            assert operator_norm(spec.action(f)) == norm
            assert operator_norm(integrate_simple_morphism(f, cs, e, omega.top)) == norm
            exceeded += linf_norm(f) > norm
    assert exceeded


def test_integrate_norm_bounded_general_cosheaves():
    rng = random.Random(6)
    omega = alg("a", "b")
    for _ in range(10):
        cs = random_cosheaf(rng, omega)
        e = omega.top
        s = rnd_simple(rng, omega, support=e)
        t = integrate_simple_morphism(s, cs, e, e)
        assert operator_norm(t) == linf_norm(s)  # conjugation preserves norms


def test_integrate_support_violation():
    omega = alg("a", "b")
    mu = positive_measure(omega)
    cs = l1_cosheaf(mu)
    e = omega.element(["a"])
    bad = characteristic(omega, omega.element(["b"]))
    with pytest.raises(SupportError):
        integrate_simple_morphism(bad, cs, e, e)


# -- characteristic presheaves and homs --------------------------------------

def test_characteristic_sheaf_values():
    omega = alg("a", "b", "c")
    e = omega.element(["a", "b"])
    xi = characteristic_sheaf(omega, e)
    assert is_sheaf(xi, exhaustive=True)
    for f in omega.elements():
        assert xi.space(f).dim == len(omega.atoms_below(e & f))


def test_sheaf_hom_dimension_formula():
    omega = alg("a", "b", "c")
    for e in omega.elements():
        for f in omega.elements():
            hom = sheaf_hom(characteristic_sheaf(omega, e),
                            characteristic_sheaf(omega, f))
            assert hom.dim == len(omega.atoms_below(e & f))


def test_sheaf_hom_zero_source():
    omega = alg("a", "b")
    hom = sheaf_hom(characteristic_sheaf(omega, 0), characteristic_sheaf(omega, omega.top))
    assert hom.dim == 0


def test_endomorphisms_of_top_characteristic_form_the_function_algebra():
    omega = alg("a", "b", "c")
    xi = characteristic_sheaf(omega, omega.top)
    hom = sheaf_hom(xi, xi)
    assert hom.dim == omega.n
    # every solution has diagonal top component; composition = pointwise product
    tops = [hom.component(hom.basis[k], omega.top) for k in range(hom.dim)]
    for m in tops:
        for i in range(omega.n):
            for j in range(omega.n):
                if i != j:
                    assert m[i][j] == 0
    import itertools
    for m1 in tops:
        for m2 in tops:
            composed = [[sum(m1[i][k] * m2[k][j] for k in range(omega.n))
                         for j in range(omega.n)] for i in range(omega.n)]
            diag = [composed[i][i] for i in range(omega.n)]
            prod = [m1[i][i] * m2[i][i] for i in range(omega.n)]
            assert diag == prod


# -- cosheafification ---------------------------------------------------------

def test_cosheafify_of_cosheaf_has_iso_counit():
    rng = random.Random(7)
    omega = alg("a", "b")
    for _ in range(5):
        cs = random_cosheaf(rng, omega)
        c = cosheafify(cs)
        assert counit_is_natural(c)
        assert is_cosheaf(c.cosheaf, exhaustive=True)
        for e in omega.elements():
            eps = c.counit[e]
            assert eps.source.dim == eps.target.dim
            from catmeas import exactla
            if eps.source.dim:
                assert exactla.invert(eps.matrix) is not None
            assert operator_norm(eps) <= 1


def test_cosheafify_constant():
    omega = alg("a", "b", "c")
    b = sum_space(["u", "v"])
    c = cosheafify(constant_precosheaf(omega, b))
    assert is_cosheaf(c.cosheaf, exhaustive=True)
    for e in omega.elements():
        assert c.cosheaf.space(e).dim == b.dim * len(omega.atoms_below(e))


def test_cosheafify_zero():
    omega = alg("a", "b")
    c = cosheafify(zero_precosheaf(omega))
    assert all(c.cosheaf.space(e).dim == 0 for e in omega.elements())


def test_cosheafify_idempotent_up_to_iso():
    rng = random.Random(8)
    omega = alg("a", "b")
    theta = random_scaled_precosheaf(rng, omega)
    once = cosheafify(theta)
    twice = cosheafify(once.cosheaf)
    for e in omega.elements():
        assert once.cosheaf.space(e).dim == twice.cosheaf.space(e).dim
        eps = twice.counit[e]
        assert operator_norm(eps) <= 1
        from catmeas import exactla
        if eps.source.dim:
            inv = exactla.invert(eps.matrix)
            assert inv is not None
            back = LinMap.from_matrix(eps.target, eps.source, tuple(tuple(r) for r in inv))
            assert operator_norm(back) <= 1


def test_cosheafification_universal_property():
    rng = random.Random(9)
    omega = alg("a", "b", "c")
    for _ in range(5):
        theta = random_scaled_precosheaf(rng, omega)
        c = cosheafify(theta)
        nu = random_cosheaf(rng, omega)
        atom_maps = {}
        for i in range(omega.n):
            a = 1 << i
            src, tgt = nu.space(a), theta.space(a)
            atom_maps[a] = LinMap.from_matrix(src, tgt, tuple(
                tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(src.dim))
                for _ in range(tgt.dim)))
        tau = precosheaf_map_from_atoms(nu, theta, atom_maps)
        lifted = factor_through_cosheafification(c, tau)
        assert lifted.check_natural()
        for e in omega.elements():
            assert (c.counit[e] @ lifted.components[e]).matrix == tau.components[e].matrix
        assert count_factorizations(c, tau) == 0


# -- bounded-variation cosheaf -------------------------------------------------

def test_bva_is_weighted_l1_of_atomwise_measures():
    omega = alg("a", "b", "c")
    line = scalars()
    bva = bva_cosheaf(omega, line)
    assert bva.space(omega.top).dim == 3
    assert is_cosheaf(bva, exhaustive=True)
    # the coordinates of a measure are its atom values and the norm is
    # the total variation
    nu = VectorMeasure.scalar(omega, [1, -2, 3])
    v = bva_vector(omega, bva, omega.top, nu)
    from catmeas.measures import variation
    assert bva.space(omega.top).norm(v) == variation(nu, omega.top)


def test_bva_partition_isometry_all_partitions():
    omega = alg("a", "b", "c", "d")
    b = sum_space(["u", "v"], [F(1), F(1, 2)])
    bva = bva_cosheaf(omega, b)
    assert is_cosheaf(bva, exhaustive=True)
    for e in omega.nonzero_elements():
        for part in partitions_of(omega, e):
            if len(part) < 2:
                continue
            eps = partition_map(bva, e, part)
            assert operator_norm(eps) <= 1
            from catmeas import exactla
            inv = exactla.invert(eps.matrix)
            assert inv is not None
            back = LinMap.from_matrix(eps.target, eps.source, tuple(tuple(r) for r in inv))
            assert operator_norm(back) <= 1


def test_constant_universal_map_triangle():
    rng = random.Random(10)
    omega = alg("a", "b", "c")
    b = sum_space(["u"])
    for _ in range(5):
        theta = random_cosheaf(rng, omega)
        tau_components = {}
        for e in omega.elements():
            src = theta.space(e)
            tau_components[e] = None
        # build tau from atom components so it is natural into the constant
        atom_rows = {}
        for i in range(omega.n):
            a = 1 << i
            src = theta.space(a)
            atom_rows[a] = LinMap.from_matrix(src, b, (tuple(
                F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(src.dim)),))
        tau = {}
        for e in omega.elements():
            out = LinMap.zero(theta.space(e), b)
            for i in omega.atom_indices(e):
                a = 1 << i
                out = out.add(atom_rows[a] @ cosheaf_projection(theta, e, a))
            tau[e] = out
        induced = constant_universal_map(theta, tau, b)
        assert induced.check_natural()
        bva = induced.target
        for e in omega.nonzero_elements():
            ev = bva_evaluation(omega, bva, e, b)
            assert (ev @ induced.components[e]).matrix == tau[e].matrix


def test_l1_universal_map_is_indefinite_integral():
    omega = alg("a", "b", "c")
    mu = positive_measure(omega)
    theta = l1_cosheaf(mu)
    tau = l1_integration_map(mu)
    induced = constant_universal_map(theta, tau, scalars())
    # on basis vectors: the atom indicator goes to the point measure of
    # mass mu(atom) at that atom
    for e in omega.nonzero_elements():
        comp = induced.components[e]
        src = theta.space(e)
        atoms = omega.atoms_below(e)
        for j in range(src.dim):
            col = comp.column(j)
            assert sum(col) == mu.atom_value(mu.algebra.atom_index(atoms[j]))
            assert sum(1 for x in col if x != 0) == 1


# -- Isbell conjugation --------------------------------------------------------

def test_isbell_yoneda_reduction():
    omega = alg("a", "b")
    for e in omega.elements():
        lxi = isbell(yoneda_presheaf(omega, e))
        expected = yoneda_precosheaf(omega, e)
        for f in omega.elements():
            assert lxi.space(f).dim == expected.space(f).dim


def test_isbell_zero():
    omega = alg("a", "b")
    zero_sheaf = characteristic_sheaf(omega, 0)
    lxi = isbell(zero_sheaf)
    # maps out of zero are unique, so each value is a line... no: hom from
    # the zero presheaf into anything is zero-dimensional? hom(0, Y) = 0
    # only when maps are determined; here hom(0, Y^a) has exactly one map,
    # the zero map, so the space is zero-dimensional
    for f in omega.elements():
        assert lxi.space(f).dim == 0


def test_isbell_adjunction_dimensions():
    rng = random.Random(11)
    omega = alg("a", "b")
    for e in omega.elements():
        xi = characteristic_sheaf(omega, e)
        for _ in range(3):
            mu = random_cosheaf(rng, omega)
            lxi = isbell(xi)
            rmu = isbell_adjoint(mu)
            lhs = cosheaf_hom(mu, lxi)
            rhs = sheaf_hom(xi, rmu)
            assert lhs.dim == rhs.dim


def _pairing_from_left(omega, mu, xi, left_homs, alpha_sol, k):
    """Flatten a map alpha : mu -> conjugate(xi) into the bilinear pairing
    family B_E(m, s) = (E-component of alpha_E(m))(s)."""
    flat = []
    for e in omega.elements():
        rows_l, cols_l = alpha_sol.shapes[e]       # dim Lxi(e) x dim mu(e)
        comp = alpha_sol.component(alpha_sol.basis[k], e)
        hom_e = left_homs[e]
        for m_idx in range(mu.space(e).dim):
            # coordinates of alpha_e(basis m) in the solution basis of Lxi(e)
            coords = [comp[r][m_idx] for r in range(rows_l)]
            row = [F(0)] * xi.space(e).dim
            for j, c in enumerate(coords):
                if c == 0:
                    continue
                base_component = hom_e.component(hom_e.basis[j], e)  # 1 x dim xi(e)
                for s_idx in range(xi.space(e).dim):
                    row[s_idx] += c * base_component[0][s_idx]
            flat.extend(row)
    return flat


def _pairing_from_right(omega, mu, xi, right_homs, tau_sol, k):
    """Flatten a map tau : xi -> conjugate(mu) into the same pairing family
    B_E(m, s) = (E-component of tau_E(s))(m)."""
    flat = []
    for e in omega.elements():
        rows_r, cols_r = tau_sol.shapes[e]         # dim Rmu(e) x dim xi(e)
        comp = tau_sol.component(tau_sol.basis[k], e)
        hom_e = right_homs[e]
        block = [[F(0)] * xi.space(e).dim for _ in range(mu.space(e).dim)]
        for s_idx in range(xi.space(e).dim):
            coords = [comp[r][s_idx] for r in range(rows_r)]
            for j, c in enumerate(coords):
                if c == 0:
                    continue
                base_component = hom_e.component(hom_e.basis[j], e)  # 1 x dim mu(e)
                for m_idx in range(mu.space(e).dim):
                    block[m_idx][s_idx] += c * base_component[0][m_idx]
        for m_idx in range(mu.space(e).dim):
            flat.extend(block[m_idx])
    return flat


def test_isbell_adjunction_explicit_transposition():
    # both hom spaces embed into the space of bilinear pairing families;
    # the transposition identifies them, so the embedded spans coincide
    from catmeas import exactla
    rng = random.Random(13)
    omega = alg("a", "b")
    for e in omega.elements():
        xi = characteristic_sheaf(omega, e)
        mu = random_cosheaf(rng, omega)
        lxi = isbell(xi)
        rmu = isbell_adjoint(mu)
        left_homs = {f: sheaf_hom(xi, yoneda_presheaf(omega, f))
                     for f in omega.elements()}
        right_homs = {f: cosheaf_hom(mu, yoneda_precosheaf(omega, f))
                      for f in omega.elements()}
        lhs_sol = cosheaf_hom(mu, lxi)
        rhs_sol = sheaf_hom(xi, rmu)
        assert lhs_sol.dim == rhs_sol.dim
        lhs_vecs = [_pairing_from_left(omega, mu, xi, left_homs, lhs_sol, k)
                    for k in range(lhs_sol.dim)]
        rhs_vecs = [_pairing_from_right(omega, mu, xi, right_homs, rhs_sol, k)
                    for k in range(rhs_sol.dim)]
        rank_l = rank(lhs_vecs) if lhs_vecs else 0
        rank_r = rank(rhs_vecs) if rhs_vecs else 0
        rank_both = rank(lhs_vecs + rhs_vecs) if lhs_vecs or rhs_vecs else 0
        assert rank_l == lhs_sol.dim      # the embedding is injective
        assert rank_r == rhs_sol.dim
        assert rank_both == rank_l == rank_r  # the two sides are the same span


# -- one naturality builder, one conjugation: per-variance oracles ---------------
#
# The hom solvers and Isbell conjugation as they were written once per
# variance, before the shared builder and conjugation; kept as oracles.

def _oracle_layout(omega, src_space, tgt_space):
    offsets, shapes, pos = {}, {}, 0
    for e in omega.elements():
        offsets[e], shapes[e] = pos, (tgt_space(e).dim, src_space(e).dim)
        pos += tgt_space(e).dim * src_space(e).dim
    return offsets, shapes, pos


def _oracle_solution(rows, offsets, shapes, total):
    from catmeas import exactla
    from catmeas.shcosh import HomSolution
    basis = exactla.nullspace(rows) if rows else exactla.identity(total)
    return HomSolution(len(basis), tuple(tuple(v) for v in basis), offsets, shapes)


def _oracle_cosheaf_rows(mu, nu, offsets, shapes, total):
    """tau_big o em = en o tau_small on every covering pair."""
    rows = []
    mu_maps, nu_maps = mu.cover_maps, nu.cover_maps
    for small, big in mu_maps:
        em, en = mu_maps[(small, big)], nu_maps[(small, big)]
        for r in range(nu.space(big).dim):
            for c in range(mu.space(small).dim):
                row = [F(0)] * total
                for m in range(mu.space(big).dim):
                    row[offsets[big] + r * shapes[big][1] + m] += em.matrix[m][c]
                for m in range(nu.space(small).dim):
                    row[offsets[small] + m * shapes[small][1] + c] -= en.matrix[r][m]
                rows.append(row)
    return rows


def oracle_sheaf_hom(xi, zeta):
    """rz o tau_big = tau_small o rx on every covering pair."""
    offsets, shapes, total = _oracle_layout(xi.algebra, xi.space, zeta.space)
    rows = []
    xi_maps, zeta_maps = xi.cover_maps, zeta.cover_maps
    for small, big in xi_maps:
        rx, rz = xi_maps[(small, big)], zeta_maps[(small, big)]
        for r in range(zeta.space(small).dim):
            for c in range(xi.space(big).dim):
                row = [F(0)] * total
                for m in range(zeta.space(big).dim):
                    row[offsets[big] + m * shapes[big][1] + c] += rz.matrix[r][m]
                for m in range(xi.space(small).dim):
                    row[offsets[small] + r * shapes[small][1] + m] -= rx.matrix[m][c]
                rows.append(row)
    return _oracle_solution(rows, offsets, shapes, total)


def oracle_cosheaf_hom(mu, nu):
    offsets, shapes, total = _oracle_layout(mu.algebra, mu.space, nu.space)
    return _oracle_solution(_oracle_cosheaf_rows(mu, nu, offsets, shapes, total),
                            offsets, shapes, total)


def oracle_count_factorizations(c, tau):
    from catmeas import exactla
    nu = tau.source
    offsets, shapes, total = _oracle_layout(nu.algebra, nu.space, c.cosheaf.space)
    rows = _oracle_cosheaf_rows(nu, c.cosheaf, offsets, shapes, total)
    for e in nu.algebra.elements():
        for r in range(c.original.space(e).dim):
            for col in range(nu.space(e).dim):
                row = [F(0)] * total
                for m in range(c.cosheaf.space(e).dim):
                    row[offsets[e] + m * shapes[e][1] + col] += c.counit[e].matrix[r][m]
                rows.append(row)
    return len(exactla.nullspace(rows)) if rows else total


def _oracle_coordinates(basis, vector):
    from catmeas import exactla
    if not basis:
        assert not any(vector)
        return ()
    a = [[b[i] for b in basis] for i in range(len(vector))]
    return tuple(exactla.solve_linear(a, list(vector)))


def _oracle_space(dim, tag, flavor):
    return FinBanSpace(tuple(f"{tag}{i}" for i in range(dim)), (F(1),) * dim, flavor)


def _oracle_push(h_from, h_to, k, keep):
    """Basis vector k of h_from in the layout of h_to, keeping the
    components at the elements f with keep(f)."""
    flat = [F(0)] * sum(r * c for r, c in h_to.shapes.values())
    for f, (rows, cols) in h_from.shapes.items():
        if rows and keep(f):
            assert h_to.shapes[f] == (rows, cols)
            comp = h_from.component(h_from.basis[k], f)
            for r in range(rows):
                for c in range(cols):
                    flat[h_to.offsets[f] + r * cols + c] = comp[r][c]
    return _oracle_coordinates(h_to.basis, flat)


def oracle_conjugate(x, covariant, hom):
    """(conjugate, {element: HomSolution}) of a presheaf (`covariant`, the
    left conjugate) or a precosheaf (the right conjugate), built as before
    the Yoneda reduction: the hom solver `hom` on every representable, each
    basis vector carried along a covering arrow by keeping the components
    where both representables are nonzero and solving for its
    coordinates."""
    omega = x.algebra
    representable, tag, flavor, make = (
        (yoneda_presheaf, "L", Flavor.SUM, make_precosheaf) if covariant
        else (yoneda_precosheaf, "R", Flavor.SUP, make_presheaf))
    homs = {e: hom(x, representable(omega, e)) for e in omega.elements()}
    spaces = {e: _oracle_space(h.dim, f"{tag}[{omega.describe(e)}]", flavor)
              for e, h in homs.items()}
    cover_maps = {}
    for small, big in x.cover_maps:
        s, t = (small, big) if covariant else (big, small)
        cols = [_oracle_push(homs[s], homs[t], k, lambda f: homs[t].shapes[f][0] > 0)
                for k in range(homs[s].dim)]
        cover_maps[(small, big)] = LinMap.from_columns(spaces[s], spaces[t], cols)
    return make(omega, spaces, cover_maps, contractive=False), homs


def oracle_isbell(xi):
    return oracle_conjugate(xi, True, oracle_sheaf_hom)[0]


def oracle_isbell_adjoint(mu):
    return oracle_conjugate(mu, False, oracle_cosheaf_hom)[0]


def plane_above(omega, e):
    """A plane at every element above e, identities between, zero
    elsewhere.  When e has two atoms no atom reaches the plane, so lifts
    into a cosheafification whose counit has a kernel are not unique."""
    plane = sum_space(["p", "q"])
    spaces = {f: plane if omega.leq(e, f) else zero_space() for f in omega.elements()}
    return make_precosheaf(omega, spaces, {
        (s, b): LinMap.identity(plane) if spaces[s].dim else LinMap.zero(spaces[s], spaces[b])
        for s, b in zero_precosheaf(omega).cover_maps})


def hom_cases(sizes=range(1, 4)):
    """(algebra, presheaves, precosheaves) on each number of atoms in
    `sizes`, plus the algebra of models/broken_cosheaf.json."""
    rng = random.Random(23)
    for n in sizes:
        omega = alg(*(f"x{i}" for i in range(n)))
        some = rng.randrange(omega.top + 1)
        presheaves = [make(omega, e) for e in (0, some, omega.top)
                      for make in (characteristic_sheaf, yoneda_presheaf)]
        precosheaves = [random_cosheaf(rng, omega), random_scaled_precosheaf(rng, omega),
                        zero_precosheaf(omega),
                        # its counit adds up the atom blocks, so it has a kernel
                        constant_precosheaf(omega, sum_space(["u", "v"])),
                        plane_above(omega, omega.top & 0b11),
                        # zero-dimensional fibers at a null atom
                        l1_cosheaf(MeasureAlgebra.from_values(
                            omega, [F(0)] + [F(k + 1, 2) for k in range(n - 1)]))]
        presheaves.append(dual_presheaf(precosheaves[0]))
        yield omega, presheaves, precosheaves
    model = cli.parse_model(str(MODELS / "broken_cosheaf.json"))
    broken = [build() for _, build in sorted(model.cosheaves.items())]
    omega = model.algebra
    yield (omega, [characteristic_sheaf(omega, omega.top)] + [dual_presheaf(mu) for mu in broken],
           broken + [random_cosheaf(rng, omega), plane_above(omega, omega.top)])


def test_naturality_builder_and_conjugation_match_per_variance_oracles():
    counts = {"sheaf_hom": 0, "cosheaf_hom": 0, "zero_dim": 0, "isbell": 0, "lifts": 0}
    for omega, presheaves, precosheaves in hom_cases():
        for xi, zeta in itertools.product(presheaves, repeat=2):
            assert sheaf_hom(xi, zeta) == oracle_sheaf_hom(xi, zeta)
            counts["sheaf_hom"] += 1
        for mu, nu in itertools.product(precosheaves, repeat=2):
            assert cosheaf_hom(mu, nu) == oracle_cosheaf_hom(mu, nu)
            counts["cosheaf_hom"] += 1
            counts["zero_dim"] += any(mu.space(e).dim == 0 for e in omega.nonzero_elements())
            # the count depends on tau only through its source
            c = cosheafify(nu)
            tau = PrecosheafMap(mu, nu, {e: LinMap.zero(mu.space(e), nu.space(e))
                                         for e in omega.elements()})
            lifts = count_factorizations(c, tau)
            assert lifts == oracle_count_factorizations(c, tau)
            counts["lifts"] += lifts > 0
        for xi in presheaves:
            got, want = isbell(xi), oracle_isbell(xi)
            assert (got.spaces, got.cover_maps) == (want.spaces, want.cover_maps)
            counts["isbell"] += 1
        for mu in precosheaves:
            got, want = isbell_adjoint(mu), oracle_isbell_adjoint(mu)
            assert (got.spaces, got.cover_maps) == (want.spaces, want.cover_maps)
    assert counts["sheaf_hom"] >= 100 and counts["cosheaf_hom"] >= 50
    assert counts["zero_dim"] >= 10 and counts["isbell"] >= 20 and counts["lifts"] >= 3


# -- Isbell conjugates by the Yoneda reduction ----------------------------------
#
# oracle_conjugate over the library's hom solvers is the oracle.

def assert_reduction_matches_hom_solver(x, covariant):
    """The conjugate equals the oracle's, and each root basis B_E, expanded
    into the tau vectors tau_F = phi o x(F -> root) in the oracle's layout,
    is the hom solver's basis, with B_E's free columns where the solver's
    basis vectors end."""
    got = isbell(x) if covariant else isbell_adjoint(x)
    want, homs = oracle_conjugate(x, covariant, sheaf_hom if covariant else cosheaf_hom)
    assert type(got) is type(want)
    assert (got.spaces, got.cover_maps) == (want.spaces, want.cover_maps)
    omega = x.algebra
    to_root = {f: (x.restriction(f, 0) if covariant else x.extension(f, omega.top)).matrix
               for f in omega.elements()}
    _, bases = shcosh._root_bases(x)
    for e, h in homs.items():
        taus = []
        for phi, _ in bases[e]:
            tau = [F(0)] * sum(rows * cols for rows, cols in h.shapes.values())
            for f, (rows, cols) in h.shapes.items():
                for j in range(cols if rows else 0):
                    tau[h.offsets[f] + j] = sum((p * c[j] for p, c in zip(phi, to_root[f])), F(0))
            taus.append(tuple(tau))
        assert tuple(taus) == h.basis
        assert [h.offsets[f] + j for _, (f, j) in bases[e]] == [
            max(i for i, c in enumerate(v) if c) for v in h.basis]


def span_assignment(omega, vectors, kind):
    """Q^d at the root (top for a precosheaf, bottom for a presheaf) and
    span{v_a} elsewhere, on the basis v_a over the atoms a of F
    (precosheaf) or outside F (presheaf); the structure maps are the
    inclusions, 0/1 between the other elements and the columns v_a into
    the root.  Functorial, as every path into the root gives the v_a."""
    up = kind.covariant
    root = omega.top if up else 0
    d = len(vectors[0])

    def atoms(f):
        return [i for i in range(omega.n) if (f >> i & 1) == up]
    spaces = {f: (sum_space if up else sup_space)(
        [f"e{j}" for j in range(d)] if f == root else [f"v{i}" for i in atoms(f)])
        for f in omega.elements()}
    maps = {}
    for small, big in omega.covering_pairs():
        s, t = (small, big) if up else (big, small)
        cols = ([vectors[i] for i in atoms(s)] if t == root
                else [[F(int(i == k)) for k in atoms(t)] for i in atoms(s)])
        maps[(small, big)] = LinMap.from_columns(spaces[s], spaces[t], cols)
    make = make_precosheaf if up else make_presheaf
    return make(omega, spaces, maps, contractive=False)


def span_cases():
    """(label, x): span assignments of rational vectors in general position
    on 3 and 4 atoms, both variances."""
    rng = random.Random(5)
    for n, d in ((3, 4), (3, 5), (4, 5), (4, 6)):
        omega = alg(*(f"x{i}" for i in range(n)))
        vectors = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(n)]
        for kind in (shcosh.PreCosheaf, shcosh.PreSheaf):
            yield f"{n}/{d}/{kind.__name__}", span_assignment(omega, vectors, kind)


def test_fraction_free_pivots_match_the_hom_solver():
    """On span assignments the left conjugate's pivot pass eliminates at
    images other than +-1, which no input of `reduction_cases` makes it
    do, and the root bases are still the hom solver's."""
    for label, x in span_cases():
        try:
            assert_reduction_matches_hom_solver(x, not x.covariant)
        except AssertionError:
            pytest.fail(label)


def reduction_cases():
    """(label, x, covariant): the hom_cases() kinds on 1 to 4 atoms, the
    Yoneda precosheaves, and an l1 cosheaf and a characteristic sheaf on
    5 atoms."""
    for omega, presheaves, precosheaves in hom_cases(range(1, 5)):
        for k, xi in enumerate(presheaves):
            yield f"{omega.n}/presheaf{k}", xi, True
        for k, mu in enumerate(precosheaves):
            yield f"{omega.n}/precosheaf{k}", mu, False
        for e in (0, omega.top & 0b101, omega.top):
            yield f"{omega.n}/yoneda_precosheaf/{e}", yoneda_precosheaf(omega, e), False
    omega = alg(*(f"x{i}" for i in range(5)))
    yield "5/l1", l1_cosheaf(positive_measure(omega)), False
    yield "5/characteristic", characteristic_sheaf(omega, 0b10110), True


def test_yoneda_reduction_matches_the_hom_solver():
    counts = {True: 0, False: 0, "nonzero": 0, "maps": 0}
    for label, x, covariant in reduction_cases():
        try:
            assert_reduction_matches_hom_solver(x, covariant)
        except AssertionError:
            pytest.fail(label)
        counts[covariant] += 1
        conj = isbell(x) if covariant else isbell_adjoint(x)
        counts["nonzero"] += any(s.dim for s in conj.spaces.values())
        counts["maps"] += any(m.source.dim and m.target.dim and not m.is_zero()
                              for m in conj.cover_maps.values())
    assert counts[True] >= 30 and counts[False] >= 30
    assert counts["nonzero"] >= 40 and counts["maps"] >= 25


def test_left_conjugate_vanishes_with_the_bottom_value_and_right_dims_are_coranks():
    """If xi(bottom) = 0 every left conjugate is zero, and
    dim isbell_adjoint(mu)(E) = dim mu(top) - rank of the images of
    mu(~a -> top) over the atoms a <= E."""
    checked = {"left": 0, "right": 0}
    for omega, presheaves, precosheaves in hom_cases(range(1, 5)):
        for xi in presheaves:
            if xi.space(0).dim == 0:
                assert all(s.dim == 0 for s in isbell(xi).spaces.values())
                checked["left"] += 1
        for mu in precosheaves:
            rmu, top = isbell_adjoint(mu), omega.top
            for e in omega.elements():
                images = [mu.extension(top & ~(1 << i), top).column(j)
                          for i in omega.atom_indices(e)
                          for j in range(mu.space(top & ~(1 << i)).dim)]
                spanned = rank(images) if images and mu.space(top).dim else 0
                assert rmu.space(e).dim == mu.space(top).dim - spanned
            checked["right"] += 1
    assert checked["left"] >= 15 and checked["right"] >= 20


def plane_below_top(omega):
    """A plane at every element but top, identities between, zero at top."""
    plane = sum_space(["p", "q"])
    spaces = {f: plane if f != omega.top else zero_space() for f in omega.elements()}
    return make_precosheaf(omega, spaces, {
        (s, b): LinMap.identity(plane) if spaces[b].dim else LinMap.zero(plane, spaces[b])
        for s, b in zero_precosheaf(omega).cover_maps})


def test_a_zero_root_gives_the_oracle_conjugate_without_root_bases(monkeypatch):
    """A presheaf zero at bottom (every characteristic sheaf) and a
    precosheaf zero at top have the zero conjugate, built without the
    maps to the root or the root bases, and equal to the oracle's."""
    def refuse(*_):
        raise AssertionError("a zero root went through the root bases")

    monkeypatch.setattr(shcosh, "_maps_to_root", refuse)
    monkeypatch.setattr(shcosh, "_root_bases", refuse)
    checked = 0
    for n in range(1, 5):
        omega = alg(*(f"x{i}" for i in range(n)))
        cases = [(isbell, oracle_isbell, characteristic_sheaf(omega, e))
                 for e in {0, 1, omega.top, omega.top & 0b101}]
        cases += [(isbell_adjoint, oracle_isbell_adjoint, mu)
                  for mu in (zero_precosheaf(omega), plane_below_top(omega))]
        for conjugate, oracle, x in cases:
            got, want = conjugate(x), oracle(x)
            assert type(got) is type(want)
            assert (got.spaces, got.cover_maps) == (want.spaces, want.cover_maps)
            checked += 1
    assert checked >= 20


def test_block_sum_conjugate_matches_the_general_path():
    """The right conjugate of `from_atom_spaces` takes the closed form;
    the same data assembled as a dict (`from_atom_spaces_eager`, and that
    through `make_precosheaf`) takes the general path.  Both give the same
    spaces in the same order, the same keys in the same order, and at
    every key, read in any order, a map of the same source, target and
    rows."""
    rng = random.Random(43)
    nonzero = 0
    for label, omega, fibers in block_sum_cases():
        got = isbell_adjoint(from_atom_spaces(omega, fibers))
        eager = from_atom_spaces_eager(omega, fibers)
        for x in (eager, make_precosheaf(omega, eager.spaces, eager.cover_maps)):
            assert x.layout is None
            want = isbell_adjoint(x)
            assert type(got) is type(want)
            assert list(got.spaces.items()) == list(want.spaces.items()), label
            want_maps = want.cover_maps
            pairs = list(want_maps)
            assert list(got.cover_maps) == pairs, label
            rng.shuffle(pairs)
            for pair in pairs:
                g, w = shcosh._walk(got, *pair), want_maps[pair]
                assert (g.source, g.target, g.rows) == (w.source, w.target, w.rows), (label, pair)
            assert got == want, label
        assert_walks_match_the_chain(got, label)
        nonzero += any(not m.is_zero() for m in got.cover_maps.values())
    assert nonzero >= 25


def block_sum_pairs():
    """(label, block sum, its assembled copy): `from_atom_spaces` on every
    row of `block_sum_cases` against `from_atom_spaces_eager`, and on each
    of those algebras `characteristic_sheaf` at bottom, top and one
    random element against `characteristic_sheaf_eager`."""
    rng = random.Random(44)
    for label, omega, fibers in block_sum_cases():
        yield label, from_atom_spaces(omega, fibers), from_atom_spaces_eager(omega, fibers)
        if label.endswith("/zero"):
            for e in (0, omega.top, rng.randrange(omega.top + 1)):
                yield (f"{omega.n}/char{e}", characteristic_sheaf(omega, e),
                       characteristic_sheaf_eager(omega, e))


def test_block_sum_consumers_match_the_assembled_copy():
    """Every consumer that reads a block sum's layout answers as on the same
    data assembled with dict cover maps and no layout, on 1 to 7 atoms:
    the condition check (also with `exhaustive` up to 5 atoms, which keeps
    this test near half a second), the structure map at every pair
    small <= big, the atom projections at every element and the spectral
    measure's.  Only `_on_atom_blocks` sets a layout: the assembled copy,
    `make_precosheaf`'s output and the Isbell conjugates carry none."""
    cases = 0
    for label, x, eager in block_sum_pairs():
        omega = x.algebra
        assert x.layout is not None and eager.layout is None, label
        assert eager == x, label
        check = is_cosheaf if x.covariant else is_sheaf
        for exhaustive in (False, True) if omega.n <= 5 else (False,):
            assert check(x, exhaustive) == check(eager, exhaustive), (label, exhaustive)
        for big in omega.elements():
            for small in shcosh._submasks(0, big):
                assert shcosh._walk(x, small, big) == shcosh._walk(eager, small, big), \
                    (label, small, big)
        if x.covariant:
            for e in omega.elements():
                assert shcosh._atom_projections(x, e) == shcosh._atom_projections(eager, e), \
                    (label, e)
            assert (spectral_measure(x).atom_projections
                    == spectral_measure(eager).atom_projections), label
            assert isbell_adjoint(x).layout is None, label
            if omega.n <= 4:
                assert make_precosheaf(omega, x.spaces, x.cover_maps).layout is None, label
        else:
            assert isbell(x).layout is None, label
        cases += 1
    assert cases == 35 + 3 * 7


def test_library_readers_keep_none_of_a_block_sums_maps():
    """Every library reader of structure maps asks `_walk`, which writes a
    block sum's maps from its layout, so on 4 atoms the condition check
    (with and without `exhaustive`), the counit's naturality check, the
    spectral laws, the Isbell conjugate and the hom solver keep none of
    the 32 cover maps of an l1, a bounded-variation, a cosheafified and a
    characteristic block sum.  On 6 atoms, the lift through the
    cosheafification of one l1 cosheaf of a map into an equal but
    distinct one, whose == reads both sides' maps, keeps none of either."""
    omega = alg(*(f"x{i}" for i in range(4)))
    rows = [("l1", l1_cosheaf(positive_measure(omega))),
            ("bva", bva_cosheaf(omega, sum_space(["p", "q"], [F(1), F(2)]))),
            ("cosheafified",
             cosheafify(random_scaled_precosheaf(random.Random(4), omega)).cosheaf),
            ("characteristic", characteristic_sheaf(omega, 0b1011))]
    for label, x in rows:
        assert x.layout is not None and len(x.cover_maps) == 32, label
        if x.covariant:
            c = cosheafify(x)
            assert is_cosheaf(x) and is_cosheaf(x, exhaustive=True), label
            assert counit_is_natural(c) and not c.cosheaf._walks, label
            assert spectral_measure(x).satisfies_laws(), label
            assert isbell_adjoint(x).layout is None, label
            assert cosheaf_hom(x, x).dim, label
        else:
            assert is_sheaf(x) and is_sheaf(x, exhaustive=True), label
            assert isbell(x).layout is None, label
            assert sheaf_hom(x, x).dim, label
        assert not x._walks, label
    omega = alg(*(f"x{i}" for i in range(6)))
    theta, nu = l1_cosheaf(positive_measure(omega)), l1_cosheaf(positive_measure(omega))
    c = cosheafify(theta)
    tau = precosheaf_map_from_atoms(nu, nu, {1 << i: LinMap.identity(nu.space(1 << i))
                                             for i in range(omega.n)})
    assert nu is not theta and nu == theta
    assert factor_through_cosheafification(c, tau).check_natural()
    assert not theta._walks and not nu._walks and not c.cosheaf._walks


def test_exhaustive_check_decides_every_partition_reading_each_leg_once(monkeypatch):
    """A block sum's check decides no split.  Under `exhaustive`, on 4
    atoms, every partition of two or more blocks of every element is
    decided once, in enumeration order.  On spaces of one flavor without
    groups each leg x(F, e) is reduced to its mask once per element, with
    no `_isometric_split`, and a closed form's legs are walked once each;
    on blocked SUP spaces each partition is one `_isometric_split` of its
    legs."""
    omega = alg(*(f"x{i}" for i in range(4)))
    want = [(e, p) for e in omega.nonzero_elements() for p in partitions_of(omega, e)
            if len(p) >= 2]
    pairs = {(f, e) for e, p in want for f in p}
    fibers = [FinBanSpace((f"x{i}0", f"x{i}1"), (F(1), F(i + 1)), Flavor.SUP,
                          ((0, 1),) if i % 2 else None) for i in range(4)]
    for x in (l1_cosheaf(positive_measure(omega)), characteristic_sheaf(omega, 0b1011),
              random_cosheaf(random.Random(5), omega),
              dual_presheaf(random_cosheaf(random.Random(6), omega)),
              blocked_product_presheaf(omega, fibers)):
        blocked = any(s.groups for s in x.spaces.values())
        decided, walks, splits, legs = [], [], [], []
        decider, walk, split, leg = (shcosh._split_decider, shcosh._walk,
                                     shcosh._isometric_split, shcosh._isometric_leg)

        def deciding(y, e, by_legs):
            decide = decider(y, e, by_legs)
            return lambda blocks: decided.append((e, blocks)) or decide(blocks)

        monkeypatch.setattr(shcosh, "_split_decider", deciding)
        monkeypatch.setattr(shcosh, "_walk", lambda y, small, big: (
            walks.append((small, big)) if y is x else None) or walk(y, small, big))
        monkeypatch.setattr(shcosh, "_isometric_split", lambda legs_, stacked=False: (
            splits.append(len(legs_)) or split(legs_, stacked)))
        monkeypatch.setattr(shcosh, "_isometric_leg", lambda m, stacked=False: (
            legs.append(m) or leg(m, stacked)))
        check = is_cosheaf if x.covariant else is_sheaf
        if x.layout is not None:
            assert check(x) and not decided and not walks and not splits
        assert check(x, exhaustive=True)
        assert decided == want
        if blocked:
            assert sorted(splits) == sorted(len(p) for _, p in want) and not legs
        else:
            assert len(legs) == len(pairs) and not splits
            # an assembled input's walk recurses along its chain
            assert sorted(walks) == sorted(pairs) or not callable(x.maps)
        monkeypatch.undo()


def corrupted(x, label):
    """(label, y) for x and copies of it, each corrupted in one value,
    assembled again (checked functorial, not contractive): its value at
    the lowest element of two or more atoms with its first weight
    doubled, and, when the top value has two coordinates or more, every
    map into top followed by a map T of the top value (so still
    functorial) that doubles row 0 (a weight off), folds coordinate 1
    onto 0 (two legs share row 0, or one leg has two nonzeros there) or
    mixes rows 0 and 1 by (u, v) |-> ((u + v)/2, (u - v)/2) (legs with a
    column of two nonzeros, not monomial); and the top value with a
    coordinate appended that no map into it hits (legs that pass, with
    disjoint masks, which do not cover it).  The presheaf duals turn rows
    into columns."""
    omega, top = x.algebra, x.algebra.top
    make = make_precosheaf if x.covariant else make_presheaf
    yield label, x
    e = next((g for g in omega.nonzero_elements() if g & (g - 1) and x.space(g).dim), None)
    if e is not None:
        s = x.space(e)
        spaces = {**x.spaces, e: FinBanSpace(s.basis, (2 * s.weights[0],) + s.weights[1:],
                                              s.flavor)}
        yield f"{label}/weight_at_{e}", make(omega, spaces, {
            pair: LinMap(*(spaces[g] for g in shcosh._arrow(x, *pair)), m.rows)
            for pair, m in x.cover_maps.items()}, contractive=False)
    if not x.covariant:
        return
    s = x.space(top)
    spaces = {**x.spaces, top: FinBanSpace(s.basis + ("pad",), s.weights + (F(1),), s.flavor)}
    y = make(omega, spaces, {(small, big): LinMap(m.source, spaces[big], m.rows + ((),))
                             if big == top else m for (small, big), m in x.cover_maps.items()})
    yield f"{label}/padded", y
    yield f"dual/{label}/padded", dual_presheaf(y)
    d = s.dim
    if d < 2:
        return
    half, eye = F(1, 2), finban._identity_rows(d)
    for name, head in (("doubled", (((0, F(2)),), eye[1])),
                       ("folded", (((0, F(1)), (1, F(1))), ())),
                       ("mixed", (((0, half), (1, half)), ((0, half), (1, -half))))):
        t = LinMap(x.space(top), x.space(top), head + eye[2:])
        y = make(omega, x.spaces, {(small, big): t @ m if big == top else m
                                   for (small, big), m in x.cover_maps.items()},
                 contractive=False)
        yield f"{label}/{name}", y
        yield f"dual/{label}/{name}", dual_presheaf(y, contractive=False)


def test_exhaustive_leg_masks_match_the_built_maps():
    """`is_cosheaf`/`is_sheaf(x, exhaustive=True)` gives the verdict of
    `partition_condition_by_built_maps`, ok, element, blocks and reason,
    on 1 to 5 atoms: block sums with values of dim 0 to 2, l1 and
    characteristic ones, random cosheaves, their duals and `corrupted`
    copies (on 5 atoms of the random cosheaf only), all decided by leg
    masks; and mixed SUM/SUP fibers and blocked SUP spaces, which take the
    per-partition fallback."""
    rng = random.Random(107)
    cases = [("mixed_flavors", dict(precosheaf_cases())["mixed_flavors"]), *blocked_cases()]
    for n in range(1, 6):
        omega = alg(*(f"x{i}" for i in range(n)))
        for label, x in (("atom_spaces", from_atom_spaces(omega, random_atom_spaces(rng, omega))),
                         ("random", random_cosheaf(rng, omega)),
                         ("l1", l1_cosheaf(positive_measure(omega))),
                         ("characteristic",
                          characteristic_sheaf(omega, rng.randrange(omega.top + 1)))):
            # on 5 atoms only the random cosheaf is corrupted, for time
            cases += corrupted(x, f"{label}/{n}") if n < 5 or label == "random" else [
                (f"{label}/{n}", x)]
            if x.covariant:
                cases.append((f"dual/{label}/{n}", dual_presheaf(x)))
    seen = set()
    for label, x in cases:
        got = outcome(is_cosheaf if x.covariant else is_sheaf, x, exhaustive=True)
        assert got == outcome(partition_condition_by_built_maps, x), label
        plain = len({s.flavor for s in x.spaces.values()}) == 1 and not any(
            s.groups for s in x.spaces.values())
        seen.add((label.split("/")[-1] if "/" in label else label, plain, x.covariant, got.ok))
    kinds = {(kind, ok) for kind, plain, _, ok in seen if plain}
    assert {(k, False) for k in ("doubled", "folded", "mixed", "padded")} <= kinds
    assert any(kind.startswith("weight_at") and not ok for kind, ok in kinds)
    assert {(covariant, ok) for _, plain, covariant, ok in seen if plain} == {
        (True, True), (True, False), (False, True), (False, False)}
    assert {(covariant, ok) for _, plain, covariant, ok in seen if not plain} == {
        (True, True), (True, False), (False, True), (False, False)}
    assert any(x.space(1 << i).dim == 0 for _, x in cases for i in range(x.algebra.n))


def test_block_sum_conjugates_skip_the_root_bases(monkeypatch):
    """The right conjugates of the l1 cosheaf (with and without a null
    atom), the bounded-variation cosheaf and a cosheafification are built
    without the maps to the root or the root bases, and equal the
    oracle's."""
    cases = []
    for n in range(1, 5):
        omega = alg(*(f"x{i}" for i in range(n)))
        null_atom = MeasureAlgebra.from_values(omega, [F(0)] + [F(k + 1, 2) for k in range(n - 1)])
        theta = random_scaled_precosheaf(random.Random(n), omega)
        for x in (l1_cosheaf(positive_measure(omega)), l1_cosheaf(null_atom),
                  bva_cosheaf(omega, sum_space(["u", "v"], [F(2), F(1, 3)])),
                  cosheafify(theta).cosheaf):
            cases.append((x, oracle_isbell_adjoint(x)))

    def refuse(*_):
        raise AssertionError("a block sum went through the root bases")

    monkeypatch.setattr(shcosh, "_maps_to_root", refuse)
    monkeypatch.setattr(shcosh, "_root_bases", refuse)
    for x, want in cases:
        got = isbell_adjoint(x)
        assert type(got) is type(want)
        assert (got.spaces, got.cover_maps) == (want.spaces, want.cover_maps)
    assert len(cases) == 16


def test_closed_forms_give_their_cover_maps_in_the_covering_pair_order():
    """Every closed-form construction on one algebra gives its cover maps
    in the order of `omega.covering_pairs()`, and keeps none of them; the
    algebra still equals and hashes as a fresh one."""
    omega = alg(*(f"x{i}" for i in range(4)))
    keys = oracle_covering_pairs(omega)
    l1 = l1_cosheaf(positive_measure(omega))
    constructions = [l1, isbell_adjoint(l1), isbell_adjoint(zero_precosheaf(omega)),
                     bva_cosheaf(omega, scalars()), characteristic_sheaf(omega, 0b101),
                     isbell(characteristic_sheaf(omega, 0b101)),
                     constant_precosheaf(omega, scalars()), yoneda_presheaf(omega, 0b11),
                     yoneda_precosheaf(omega, 0b1), random_cosheaf(random.Random(1), omega)]
    for x in constructions:
        maps = x.cover_maps
        assert list(maps) == keys and len(maps) == len(keys)
        assert all(pair in maps for pair in keys) and (0, 0) not in maps
        assert not x._walks
    fresh = alg(*omega.atoms)
    assert omega == fresh and hash(omega) == hash(fresh) and repr(omega) == repr(fresh)


@pytest.mark.parametrize("n", range(1, 9))
def test_covering_pairs_are_generated_in_order_on_each_call(n):
    omega = alg(*(f"x{i}" for i in range(n)))
    pairs = list(omega.covering_pairs())
    assert pairs == oracle_covering_pairs(omega)
    assert len(pairs) == n * 2 ** (n - 1) == len(set(pairs))
    assert list(omega.covering_pairs()) == pairs


def test_an_algebra_keeps_no_per_pair_table():
    """After the constructions and checks that loop over the covering
    pairs, an algebra holds its atoms and at most its labels: O(n) names,
    no table of pairs."""
    omega = alg(*(f"x{i}" for i in range(6)))
    theta = constant_precosheaf(omega, sum_space(["u", "v"]))
    assert counit_is_natural(cosheafify(theta))
    isbell_adjoint(theta)
    assert set(vars(omega)) <= {"atoms", "labels"}


def test_conjugates_solve_no_naturality_system(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a conjugate went through the hom solver")

    for module, name in ((shcosh, "sheaf_hom"), (shcosh, "cosheaf_hom"),
                         (shcosh, "_naturality_system"), (exactla, "solve_linear")):
        monkeypatch.setattr(module, name, refuse)
    rng = random.Random(5)
    omega = alg("a", "b", "c")
    mu = random_cosheaf(rng, omega)
    conjugates = [isbell(yoneda_presheaf(omega, 1)), isbell_adjoint(mu),
                  isbell_adjoint(random_scaled_precosheaf(rng, omega))]
    for conj in conjugates:
        assert any(not m.is_zero() for m in conj.cover_maps.values())


@pytest.mark.parametrize("covariant, zeroed", [(False, (2, 3)), (True, (0, 2))],
                         ids=["isbell_adjoint", "isbell"])
def test_conjugate_rejects_a_path_dependent_input(covariant, zeroed):
    """Lines with identities on {a, b} and one zero map: path dependent at
    the bottom diamond, so a solution carried along a covering arrow is
    not the solution for the same root functional, and the containment
    check raises."""
    omega, spaces, cover_maps, _ = assembled_line(not covariant)
    maps = dict(cover_maps)
    maps[zeroed] = LinMap.zero(spaces[0], spaces[0])
    kind = shcosh.PreSheaf if covariant else shcosh.PreCosheaf
    with pytest.raises(InvalidModel, match="outside the solution space"):
        (isbell if covariant else isbell_adjoint)(kind(omega, spaces, maps))


def assembled(x):
    """x with every cover map built into a plain dict and no atom widths:
    the same data as assembled input, which a conjugate takes on its
    general path (the root bases) where x itself may take a closed form."""
    return type(x)(x.algebra, x.spaces, dict(x.cover_maps))


def test_conjugates_allocate_in_root_coordinates():
    """On 7 atoms each conjugate peaks under 1 MiB of traced allocations:
    it keeps a root basis per element and the maps to the root, 2^n of
    each, where vectors laid out over U_E for every E, 4^n entries in
    all, come to more than 2 MiB.  The l1 cosheaf is given assembled, so
    its conjugate goes through the root bases, not the block-sum form."""
    omega = alg(*(f"x{i}" for i in range(7)))
    cases = {"isbell/characteristic": (isbell, characteristic_sheaf(omega, 0b1011011)),
             "isbell_adjoint/l1": (isbell_adjoint,
                                   assembled(l1_cosheaf(positive_measure(omega)))),
             "isbell_adjoint/random": (isbell_adjoint, random_cosheaf(random.Random(3), omega))}
    for label, (conjugate, x) in cases.items():
        tracemalloc.start()
        try:
            conjugate(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (label, peak)


def annihilator_cases():
    """(label, x) on 6 and 7 atoms: (co)sheaves, precosheaves and
    presheaves whose annihilators vanish past one or two atoms, and
    inputs where they stay nonzero far up the recursion."""
    rng = random.Random(16)
    for n in (6, 7):
        omega = alg(*(f"x{i}" for i in range(n)))
        yield f"{n}/l1", l1_cosheaf(positive_measure(omega))
        yield f"{n}/random", random_cosheaf(rng, omega)
        yield f"{n}/scaled", random_scaled_precosheaf(rng, omega)
        yield f"{n}/dual", dual_presheaf(random_cosheaf(rng, omega))
        yield f"{n}/characteristic", characteristic_sheaf(omega, 0b101101)
        # ann_E is nonzero on the 2^(n-1) elements E <= e (precosheaf) or
        # E >= e (presheaf); the precosheaf's killers ~a, a <= e, are zero
        yield f"{n}/yoneda_precosheaf", yoneda_precosheaf(omega, omega.top & ~0b100)
        yield f"{n}/yoneda_presheaf", yoneda_presheaf(omega, 0b100)
        # a presheaf with ann_E nonzero at every element but top
        yield f"{n}/right_conjugate", isbell_adjoint(random_cosheaf(rng, omega))


def test_root_bases_span_the_annihilator_of_all_killers():
    """Each ann_E built from its neighbour's, one killer at a time, spans
    the nullspace of every killer's columns stacked at once."""
    nonzero = 0
    for label, x in annihilator_cases():
        _, bases = shcosh._root_bases(x)
        for e in x.algebra.elements():
            want = annihilator_by_killers(x, e)
            assert exactla.rref([list(phi) for phi, _ in bases[e]]) == exactla.rref(want), (label, e)
            nonzero += bool(want)
    assert nonzero >= 400


def test_root_bases_cut_one_killer_per_element(monkeypatch):
    """On 7 atoms a right conjugate row-reduces at most one small system
    per element of two atoms or fewer: past that ann_E is zero for these
    inputs, and a zero ann_E' needs no elimination.  The l1 cosheaf is
    given assembled, so its conjugate goes through the root bases."""
    calls = []
    rref = exactla.rref

    def counting(a):
        calls.append(len(a) * len(a[0]) if a else 0)
        return rref(a)

    monkeypatch.setattr(exactla, "rref", counting)
    omega = alg(*(f"x{i}" for i in range(7)))
    for mu in (assembled(l1_cosheaf(positive_measure(omega))),
               random_cosheaf(random.Random(3), omega)):
        calls.clear()
        isbell_adjoint(mu)
        assert 0 < len(calls) <= 28 and sum(calls) < 1000, (len(calls), sum(calls))


def perturbed_cases():
    """(label, x) on 3 and 4 atoms: inputs with nonzero annihilators, each
    with one nonzero cover map zeroed or doubled, and on 3 atoms (with
    span assignments too) with any two zeroed, so mostly path dependent.
    A doubled map only scales the maps to the root through it, so no
    check can see it; most zeroed ones pass too."""
    rng = random.Random(17)
    for n in (3, 4):
        omega = alg(*(f"x{i}" for i in range(n)))
        inputs = {"random": random_cosheaf(rng, omega),
                  "scaled": random_scaled_precosheaf(rng, omega),
                  "yoneda_precosheaf": yoneda_precosheaf(omega, omega.top & ~0b10),
                  "plane": plane_above(omega, 0),
                  # presheaves with a nonzero bottom, else ann_E = 0 throughout
                  "dual_plane": dual_presheaf(plane_above(omega, 0)),
                  "yoneda_presheaf": yoneda_presheaf(omega, 0b10),
                  "right_conjugate": isbell_adjoint(random_cosheaf(rng, omega))}
        if n == 3:
            vectors = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)] for _ in range(3)]
            for kind in (shcosh.PreCosheaf, shcosh.PreSheaf):
                inputs[f"span_{kind.__name__}"] = span_assignment(omega, vectors, kind)
        for name, x in inputs.items():
            cover_maps = x.cover_maps
            keys = [key for key, m in cover_maps.items() if not m.is_zero()]
            changes = [{key: k} for key in keys for k in (0, 2)]
            if n == 3:
                changes += [{one: 0, other: 0} for one, other in itertools.combinations(keys, 2)]
            for change in changes:
                maps = {**cover_maps,
                        **{key: cover_maps[key].scale(F(k)) for key, k in change.items()}}
                yield f"{n}/{name}/{change}", type(x)(omega, x.spaces, maps)


def test_containment_check_matches_the_check_over_all_submasks():
    """The conjugate raises "outside the solution space" exactly when some
    phi in ann_s fails to kill x(F -> root) for an F in U_t - U_s, though
    it applies only the maps at the chain exits."""
    cases = itertools.chain(((label, x) for label, x, _ in reduction_cases()),
                            annihilator_cases(), span_cases(), perturbed_cases())
    counts = {True: 0, False: 0}
    for label, x in cases:
        want = bool(containment_by_all_submasks(x))
        try:
            (isbell_adjoint if x.covariant else isbell)(x)
            got = False
        except InvalidModel as err:
            assert "outside the solution space" in str(err), label
            got = True
        assert got == want, label
        counts[got] += 1
    assert counts[True] >= 100 and counts[False] >= 500, counts


def test_containment_check_applies_the_maps_at_the_chain_exits_only(monkeypatch):
    """On 7 atoms the check applies a map to the root to a phi (145, 1,070
    and 1,250 times for these three inputs) far less often than there
    are pairs (phi, F) with F in U_t - U_s (576, 2,916 and 2,916)."""
    calls = []
    kills = shcosh._kills

    def counting(p, columns):
        calls.append(1)
        return kills(p, columns)

    monkeypatch.setattr(shcosh, "_kills", counting)
    omega = alg(*(f"x{i}" for i in range(7)))
    cases = [(isbell_adjoint, random_cosheaf(random.Random(3), omega), 200),
             (isbell_adjoint, yoneda_precosheaf(omega, omega.top & ~0b100), 1200),
             (isbell, yoneda_presheaf(omega, 0b100), 1400)]
    for conjugate, x, bound in cases:
        calls.clear()
        conjugate(x)
        assert len(calls) <= bound, (len(calls), bound)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1), scaled=st.booleans())
def test_yoneda_reduction_matches_the_hom_solver_property(n, seed, scaled):
    rng = random.Random(seed)
    omega = alg(*(f"x{i}" for i in range(n)))
    make = random_scaled_precosheaf if scaled else random_cosheaf
    mu = make(rng, omega)
    assert_reduction_matches_hom_solver(mu, covariant=False)
    assert_reduction_matches_hom_solver(dual_presheaf(mu), covariant=True)


# -- offset-built constructions against their eager oracles ----------------------

def oracle_covering_pairs(omega):
    return [(e, e | 1 << i) for e in omega.elements() for i in range(omega.n)
            if not e >> i & 1]


def from_atom_spaces_oracle(omega, atom_spaces):
    """The canonical cosheaf as it was built before the offset
    construction: one DirectSum per element, and each cover map copied
    column by column out of the bigger element's injections."""
    sums, spaces = {}, {}
    for e in omega.elements():
        atoms = omega.atoms_below(e)
        if atoms:
            sums[e] = direct_sum([atom_spaces[a] for a in atoms], tags=list(atoms))
            spaces[e] = sums[e].space
        else:
            spaces[e] = zero_space(Flavor.SUM)
    cover_maps = {}
    for small, big in oracle_covering_pairs(omega):
        small_atoms = omega.atoms_below(small)
        injections = sums[big].injections
        cols = []
        for pos, a in enumerate(omega.atoms_below(big)):
            if a in small_atoms:
                cols.extend(injections[pos].column(j) for j in range(atom_spaces[a].dim))
        cover_maps[(small, big)] = LinMap.from_columns(spaces[small], spaces[big], cols)
    return spaces, cover_maps


def characteristic_sheaf_oracle(omega, e):
    """The characteristic sheaf as it was built before the positional
    construction: restriction rows found by comparing atom labels."""
    spaces = {f: sup_space(omega.atoms_below(e & f)) for f in omega.elements()}
    cover_maps = {}
    for small, big in oracle_covering_pairs(omega):
        big_atoms = omega.atoms_below(e & big)
        small_atoms = set(omega.atoms_below(e & small))
        rows = tuple(tuple(F(1) if b == a else F(0) for b in big_atoms)
                     for a in big_atoms if a in small_atoms)
        cover_maps[(small, big)] = LinMap.from_matrix(spaces[big], spaces[small], rows)
    return spaces, cover_maps


def assert_matches_oracle(x, oracle):
    spaces, cover_maps = oracle
    assert x.spaces == spaces and x.cover_maps == cover_maps
    assert list(x.spaces) == list(spaces) and list(x.cover_maps) == list(cover_maps)


def check_offset_constructions(rng, n, elements=None):
    """Atom fibers of dim 0-3 (0 is what l1_cosheaf gives a null atom)
    with random weights, and characteristic sheaves of the given
    elements (all of them by default)."""
    omega = alg(*(f"x{i}" for i in range(n)))
    atom_spaces = {}
    for a in omega.atoms:
        dim = rng.randint(0, 3)
        atom_spaces[a] = sum_space([f"b{j}" for j in range(dim)],
                                   [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(dim)])
    assert_matches_oracle(from_atom_spaces(omega, atom_spaces),
                          from_atom_spaces_oracle(omega, atom_spaces))
    for e in (omega.elements() if elements is None else elements(omega)):
        assert_matches_oracle(characteristic_sheaf(omega, e),
                              characteristic_sheaf_oracle(omega, e))


def test_offset_constructions_match_their_eager_oracles():
    rng = random.Random(23)
    for n in range(1, 7):
        for _ in range(6):
            check_offset_constructions(rng, n, None if n <= 4 else
                                       lambda omega: rng.sample(range(omega.top + 1), 6))
    # the library's own callers: l1 with a null atom, zero, bva
    omega = alg("a", "b", "c")
    mu = MeasureAlgebra.from_values(omega, [F(1), F(0), F(2, 3)])
    fibers = {"a": sum_space(["a"], [1]), "b": zero_space(Flavor.SUM),
              "c": sum_space(["c"], [F(2, 3)])}
    assert_matches_oracle(l1_cosheaf(mu), from_atom_spaces_oracle(omega, fibers))
    assert_matches_oracle(zero_precosheaf(omega), from_atom_spaces_oracle(
        omega, {a: zero_space(Flavor.SUM) for a in omega.atoms}))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_offset_constructions_match_their_eager_oracles_property(n, seed):
    rng = random.Random(seed)
    check_offset_constructions(rng, n, lambda omega: [rng.randint(0, omega.top)])


def test_indicator_constructions_match_their_eager_oracle():
    """For 1 to 6 atoms, the constant precosheaf (the indicator of every
    element), both Yoneda objects (of a down-set and of an up-set) and the
    zero-root Isbell conjugates (the indicator of no element) have the
    spaces, maps and key order of the eager indicator, and write at every
    pair small <= big the map the chain composes, keeping none."""
    def check(x, inside, line):
        assert_matches_oracle(x, indicator_eager(x.algebra, inside, line, x.covariant))
        assert_walks_match_the_chain(x)

    rng = random.Random(37)
    for n in range(1, 7):
        omega = alg(*(f"x{i}" for i in range(n)))
        for b in (sum_space(["u", "v"], [F(2), F(1, 3)]), sup_space(["u"]), zero_space()):
            check(constant_precosheaf(omega, b), lambda f: True, b)
        for e in {0, omega.top, *rng.sample(range(omega.top + 1), min(4, omega.top + 1))}:
            check(yoneda_presheaf(omega, e), lambda f: f & ~e == 0, sup_space(["1"]))
            check(yoneda_precosheaf(omega, e), lambda f: e & ~f == 0, scalars())
            check(isbell(characteristic_sheaf(omega, e)), lambda f: False,
                  zero_space(Flavor.SUM))
        check(isbell_adjoint(zero_precosheaf(omega)), lambda f: False, zero_space(Flavor.SUP))


def test_library_constructions_build_the_maps_a_check_reads():
    """The characteristic sheaf, the constant precosheaf and the zero-root
    Isbell conjugate write a map when it is read and keep none: the sheaf
    condition of a characteristic sheaf, a block sum, on 5 or 7 atoms,
    whatever E is; the failing cosheaf condition of a constant
    precosheaf; and the Isbell conjugate of a presheaf with a zero bottom
    value, neither its input's maps nor its own."""
    for n in (5, 7):
        omega = alg(*(f"x{i}" for i in range(n)))
        for e in omega.elements():
            xi = characteristic_sheaf(omega, e)
            assert is_sheaf(xi) and not xi._walks, (n, e)
        for b in (sum_space(["u", "v"]), scalars()):
            theta = constant_precosheaf(omega, b)
            assert not is_cosheaf(theta) and not theta._walks
        xi = characteristic_sheaf(omega, omega.top)
        lifted = isbell(xi)
        assert not xi._walks and not lifted._walks
        assert len(lifted.cover_maps) == n * 2 ** (n - 1)


# -- Stone transfer -------------------------------------------------------------

def test_sheaf_stone_round_trip():
    omega = alg("a", "b", "c")
    st = stone_space(omega)
    xi = characteristic_sheaf(omega, omega.element(["a", "c"]))
    over = sheaf_to_stone(xi, st)
    back = sheaf_from_stone(over, st)
    for e in omega.elements():
        assert back.space(e).basis == xi.space(e).basis
    for key, m in xi.cover_maps.items():
        assert back.cover_maps[key].matrix == m.matrix


def test_relabel_matches_the_validated_assembly():
    """`_relabel` writes xi's maps along an order isomorphism with no check;
    on 1-5 atoms, under a random permutation of the atoms, it equals the
    same data assembled and validated by `make_presheaf`."""
    rng = random.Random(8)
    for n in range(1, 6):
        omega = alg(*(f"x{i}" for i in range(n)))
        perm = list(range(n))
        rng.shuffle(perm)
        iso = BoolMorphism(omega, omega, tuple(1 << k for k in perm))
        e = rng.randrange(omega.top + 1)
        for xi in (characteristic_sheaf(omega, e), yoneda_presheaf(omega, e),
                   isbell_adjoint(random_cosheaf(rng, omega))):
            got = shcosh._relabel(xi, iso)
            spaces = {f: xi.space(iso(f)) for f in omega.elements()}
            want = make_presheaf(omega, spaces, {
                (small, big): xi.restriction(iso(big), iso(small))
                for small, big in omega.covering_pairs()})
            assert got == want, (n, e)


def test_discrete_density_round_trip():
    rng = random.Random(12)
    omega = alg("a", "b")
    cs = random_cosheaf(rng, omega)
    atoms = restrict_to_atoms(cs)
    rebuilt = from_atom_spaces(omega, atoms)
    assert is_cosheaf(rebuilt, exhaustive=True)
    again = restrict_to_atoms(rebuilt)
    for a in omega.atoms:
        assert again[a].dim == atoms[a].dim
        assert again[a].weights == atoms[a].weights


# -- library constructions against the functoriality validator ----------------

def random_atom_spaces(rng, omega):
    """SUM atom fibers of dimension 0 to 2 with random weights."""
    out = {}
    for a in omega.atoms:
        d = rng.randint(0, 2)
        out[a] = sum_space([f"{a}{k}" for k in range(d)],
                           [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d)])
    return out


def direct_constructions(rng, n):
    """(label, object) for every construction that skips validation, on a
    seeded algebra of n atoms."""
    omega = alg(*(f"x{i}" for i in range(n)))
    yield "from_atom_spaces", from_atom_spaces(omega, random_atom_spaces(rng, omega))
    values = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)]
    values[rng.randrange(n)] = F(0)  # a null atom: zero-dimensional fibers
    yield "l1_cosheaf/null_atom", l1_cosheaf(MeasureAlgebra.from_values(omega, values))
    yield "bva_cosheaf", bva_cosheaf(omega, sum_space(["u", "v"], [F(1, 2), F(3)]))
    yield "zero_precosheaf", zero_precosheaf(omega)
    yield "random_cosheaf", random_cosheaf(rng, omega)
    for label, b in (("sum", sum_space(["u", "v"], [F(2), F(1, 3)])),
                     ("sup", sup_space(["u"])), ("zero", zero_space())):
        yield f"constant_precosheaf/{label}", constant_precosheaf(omega, b)
    for label, theta in (("scaled", random_scaled_precosheaf(rng, omega)),
                         ("random", random_cosheaf(rng, omega)),
                         ("constant", constant_precosheaf(omega, sum_space(["u"])))):
        yield f"cosheafify/{label}", cosheafify(theta).cosheaf
    for e in omega.elements():
        yield f"characteristic_sheaf/{e}", characteristic_sheaf(omega, e)
        yield f"yoneda_presheaf/{e}", yoneda_presheaf(omega, e)
        yield f"yoneda_precosheaf/{e}", yoneda_precosheaf(omega, e)


def isbell_conjugates(rng, n):
    omega = alg(*(f"x{i}" for i in range(n)))
    some = rng.randrange(omega.top + 1)
    for e in (0, some, omega.top):
        yield f"isbell/characteristic/{e}", isbell(characteristic_sheaf(omega, e))
        yield f"isbell/yoneda/{e}", isbell(yoneda_presheaf(omega, e))
        yield f"isbell_adjoint/yoneda/{e}", isbell_adjoint(yoneda_precosheaf(omega, e))
    yield "isbell_adjoint/random", isbell_adjoint(random_cosheaf(rng, omega))
    yield "isbell_adjoint/scaled", isbell_adjoint(random_scaled_precosheaf(rng, omega))


def test_direct_constructions_pass_the_validator():
    """The library's own constructions are built without validation; the
    validator, run with full checks on their cover maps as a dict, is the
    oracle for their proofs."""
    def validate(label, x, contractive):
        try:
            _validate_functorial(assembled(x), contractive)
        except CatmeasError as exc:
            pytest.fail(f"{label}: {exc}")

    rng = random.Random(31)
    checked = {"contractive": 0, "conjugate": 0, "zero_dim": 0}
    for k in range(8):
        for label, x in direct_constructions(rng, 1 + k % 4):
            validate(label, x, contractive=True)
            checked["contractive"] += 1
            checked["zero_dim"] += any(
                x.space(e).dim == 0 for e in x.algebra.nonzero_elements())
    for k in range(6):
        for label, x in isbell_conjugates(rng, 1 + k % 3):
            validate(label, x, contractive=False)
            checked["conjugate"] += 1
    assert checked["contractive"] >= 250 and checked["conjugate"] >= 60
    assert checked["zero_dim"] >= 100


def assembled_line(covariant):
    """Identities between lines on every covering pair of {a, b}, and a
    second line `other`: (omega, spaces, cover_maps, other)."""
    omega = alg("a", "b")
    line = scalars() if covariant else sup_space(["1"])
    spaces = {e: line for e in omega.elements()}
    cover_maps = {key: LinMap.identity(line) for key in zero_precosheaf(omega).cover_maps}
    return omega, spaces, cover_maps, sum_space(["z"])


@pytest.mark.parametrize("make, covariant", [(make_precosheaf, True), (make_presheaf, False)],
                         ids=["make_precosheaf", "make_presheaf"])
def test_validator_rejects_bad_maps(make, covariant):
    omega, spaces, cover_maps, other = assembled_line(covariant)
    a, b, top = 1, 2, 3
    assert make(omega, spaces, cover_maps).spaces == spaces
    # a sign along one side of the diamond at bottom: contractive, path dependent
    flipped = dict(cover_maps)
    flipped[(a, top)] = cover_maps[(a, top)].scale(F(-1))
    with pytest.raises(NotAFunctor, match="path dependent"):
        make(omega, spaces, flipped)
    # a map out of a space that is not the one at its endpoint
    wrong = dict(cover_maps)
    wrong[(a, top)] = LinMap.from_matrix(other, spaces[a], ((F(1),),))
    with pytest.raises(NotAFunctor, match="endpoints"):
        make(omega, spaces, wrong)
    # norm 2 on both sides, so only contractivity fails
    doubled = dict(cover_maps)
    for key in ((a, top), (b, top)):
        doubled[key] = cover_maps[key].scale(F(2))
    with pytest.raises(InvalidModel, match="contractive"):
        make(omega, spaces, doubled)
    assert make(omega, spaces, doubled, contractive=False).cover_maps == doubled
    missing = dict(cover_maps)
    del missing[(b, top)]
    with pytest.raises(InvalidModel, match="missing"):
        make(omega, spaces, missing)


def test_library_constructions_do_not_call_the_validator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a library construction went through the validator")

    monkeypatch.setattr(shcosh, "_validate_functorial", refuse)
    omega = alg("a", "b", "c")
    e = omega.element(["a", "c"])
    l1 = l1_cosheaf(MeasureAlgebra.from_values(omega, [F(1), F(0), F(2, 3)]))
    constant = constant_precosheaf(omega, sum_space(["u", "v"]))
    built = [yoneda_presheaf(omega, e), yoneda_precosheaf(omega, e), l1, constant,
             from_atom_spaces(omega, {a: sum_space([a]) for a in omega.atoms}),
             bva_cosheaf(omega, scalars()), zero_precosheaf(omega),
             characteristic_sheaf(omega, e), cosheafify(constant).cosheaf,
             isbell(characteristic_sheaf(omega, omega.top)), isbell_adjoint(l1),
             random_cosheaf(random.Random(0), omega),
             sheaf_to_stone(characteristic_sheaf(omega, e), stone_space(omega))]
    assert all(x.algebra == omega for x in built)
    with pytest.raises(AssertionError, match="validator"):
        make_precosheaf(omega, constant.spaces, constant.cover_maps)
