"""Boolean algebra layer: generated algebras, partitions, Stone duality,
coproducts, quotients and ideals."""

import itertools

import pytest

from catmeas.boolalg import (PARTITION_CAP, BoolAlg, all_morphisms, atomic_partition,
                             build_algebra, coproduct, ideal_projection,
                             partitions_of, principal_ideal, quotient_by_null,
                             refines, stone_space, verify_coproduct)
from catmeas.errors import (DegenerateQuotient, EmptyElement, InvalidModel,
                            ResourceLimit)


def alg(*atoms):
    return BoolAlg(tuple(sorted(atoms)))


# -- build_algebra -----------------------------------------------------------

def closure_under_ops(ground, generators):
    """Brute-force closure of the generators under meet, join, complement."""
    ground = frozenset(ground)
    current = {frozenset(g) for g in generators} | {frozenset(), ground}
    while True:
        new = set(current)
        for a in current:
            new.add(ground - a)
            for b in current:
                new.add(a & b)
                new.add(a | b)
        if new == current:
            return current
        current = new


def test_build_algebra_common_refinement():
    gen = build_algebra([1, 2, 3], [{1, 2}, {2, 3}])
    cells = sorted(gen.cells.values(), key=sorted)
    assert cells == [frozenset({1}), frozenset({2}), frozenset({3})]
    # the elements are exactly the brute-force closure of the generators
    closure = closure_under_ops([1, 2, 3], [{1, 2}, {2, 3}])
    elements = {gen.decode(e) for e in gen.algebra.elements()}
    assert elements == closure


def test_build_algebra_trivial_and_single_split():
    gen = build_algebra([1, 2], [])
    assert gen.algebra.n == 1
    assert gen.decode(gen.algebra.top) == frozenset({1, 2})
    gen2 = build_algebra([1, 2], [{1}])
    assert sorted(gen2.cells.values(), key=sorted) == [frozenset({1}), frozenset({2})]


def test_labels_join_the_atoms_below_each_element():
    """On generated algebras of 1-10 atoms, each atom a cell of two points
    labelled 'p|q', and equal algebras compare equal with the table built
    on one of them only."""
    for n in range(1, 11):
        ground = [f"{k:02d}" for k in range(2 * n)]
        gen = build_algebra(ground, [ground[2 * i:2 * i + 2] for i in range(n)])
        omega = gen.algebra
        assert omega.n == n and all("|" in a for a in omega.atoms)
        assert omega.labels == tuple("|".join(omega.atoms_below(e)) or "bottom"
                                     for e in omega.elements())
        twin = BoolAlg(omega.atoms)
        assert twin == omega and hash(twin) == hash(omega) and "labels" not in vars(twin)


def test_build_algebra_empty_ground():
    with pytest.raises(InvalidModel):
        build_algebra([], [])


def test_build_algebra_rejects_colliding_labels():
    # cells are named by str of their points: no point or cell may be lost
    for ground, generators in (([1, "1"], [{1}]), ([1, "1"], []), ([1, 2, "1|2"], [{1, 2}])):
        with pytest.raises(InvalidModel, match="same label"):
            build_algebra(ground, generators)
    # equal points are one point, not a collision
    assert build_algebra([1, 1.0, 2], [{1}]).algebra.atoms == ("1", "2")


def test_encode_rejects_non_elements():
    gen = build_algebra([1, 2, 3], [{1, 2}])
    with pytest.raises(InvalidModel):
        gen.encode({1})


# -- partitions --------------------------------------------------------------

def bell(n):
    # Bell numbers via the triangle: 1, 2, 5, 15, 52, ...
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def test_partition_counts_match_bell_numbers():
    for n in range(1, 6):
        omega = alg(*(f"a{i}" for i in range(n)))
        count = sum(1 for _ in partitions_of(omega, omega.top))
        assert count == bell(n)


def test_three_atom_partitions():
    omega = alg("a", "b", "c")
    parts = list(partitions_of(omega, omega.top))
    assert len(parts) == 5


def test_single_atom_partition():
    omega = alg("a", "b")
    only = list(partitions_of(omega, omega.element(["a"])))
    assert len(only) == 1
    assert only[0].blocks == (omega.element(["a"]),)


def test_partitions_of_bottom_raises():
    omega = alg("a")
    with pytest.raises(EmptyElement):
        list(partitions_of(omega, 0))


def test_refinement_is_partial_order_with_atomic_maximum():
    omega = alg("a", "b", "c", "d")
    e = omega.top
    parts = list(partitions_of(omega, e))
    finest = atomic_partition(omega, e)
    for p in parts:
        assert refines(finest, p)
        assert refines(p, p)
    for p, q in itertools.permutations(parts, 2):
        if refines(p, q) and refines(q, p):
            assert p == q
        for r in parts:
            if refines(p, q) and refines(q, r):
                assert refines(p, r)


def test_partitions_are_capped_by_the_bell_number():
    """Bell(11) = 678,570 partitions are within PARTITION_CAP = 2^20,
    Bell(12) = 4,213,597 are not; the cap is checked before enumerating."""
    assert PARTITION_CAP == 2 ** 20
    assert bell(11) <= PARTITION_CAP < bell(12)
    eleven = alg(*(f"a{i:02d}" for i in range(11)))
    first = next(partitions_of(eleven, eleven.top))
    assert first.blocks == (eleven.top,)
    twelve = alg(*(f"a{i:02d}" for i in range(12)))
    with pytest.raises(ResourceLimit, match="too-large: an element of 12 atoms"):
        partitions_of(twelve, twelve.top)
    # an element's own atom count decides, not the algebra's
    assert len(list(partitions_of(twelve, twelve.element(["a00", "a01", "a02"])))) == 5


# -- Stone duality -----------------------------------------------------------

def brute_force_ultrafilters(omega):
    """All maximal proper filters, by enumeration over subsets of elements."""
    elements = list(omega.elements())
    filters = []
    for size in range(1, len(elements) + 1):
        for subset in itertools.combinations(elements, size):
            s = set(subset)
            if 0 in s or omega.top not in s:
                continue
            if any(e & f not in s for e in s for f in s):
                continue
            if any(g not in s for e in s for g in elements if e & g == e):
                continue
            filters.append(frozenset(s))
    maximal = [f for f in filters if not any(f < g for g in filters)]
    return maximal


def test_stone_space_points_are_principal_ultrafilters():
    omega = alg("a", "b", "c")
    st = stone_space(omega)
    assert len(st.points) == 3
    brute = set(brute_force_ultrafilters(omega))
    ours = {st.ultrafilter(p) for p in st.points}
    assert ours == brute


def test_stone_round_trip_exhaustive():
    for n in range(1, 5):
        omega = alg(*(f"x{i}" for i in range(n)))
        st = stone_space(omega)
        fwd, bwd = st.round_trip()
        for e in omega.elements():
            assert bwd(fwd(e)) == e
            assert st.eta(e) == frozenset(omega.atoms_below(e))
            for f in omega.elements():
                assert fwd(e & f) == fwd(e) & fwd(f)
                assert fwd(e | f) == fwd(e) | fwd(f)
            assert fwd(omega.complement(e)) == st.clopen_algebra().complement(fwd(e))


def test_eta_unit_and_zero():
    omega = alg("a", "b")
    st = stone_space(omega)
    assert st.eta(omega.top) == frozenset(omega.atoms)
    assert st.eta(0) == frozenset()


# -- coproduct ---------------------------------------------------------------

def test_coproduct_atom_count_and_injections():
    left = alg("a", "b")
    right = alg("u", "v", "w")
    cop = coproduct(left, right)
    assert cop.algebra.n == 6
    assert cop.inject_left(left.top) == cop.algebra.top
    assert cop.inject_right(right.top) == cop.algebra.top


def test_coproduct_universal_property_brute_force():
    left = alg("a", "b")
    right = alg("u", "v")
    cop = coproduct(left, right)
    target = alg("s", "t")
    for phi in all_morphisms(left, target):
        for psi in all_morphisms(right, target):
            assert verify_coproduct(cop, phi, psi)


def test_coproduct_with_trivial_factor_is_iso():
    left = alg("a", "b", "c")
    one = alg("z")
    cop = coproduct(left, one)
    assert cop.algebra.n == left.n
    inj = cop.inject_left
    for e in left.elements():
        for f in left.elements():
            assert inj(e & f) == inj(e) & inj(f)
    assert inj(left.top) == cop.algebra.top


# -- quotients and ideals ----------------------------------------------------

def test_quotient_drops_null_atoms():
    omega = alg("a", "b", "c")
    q = quotient_by_null(omega, ["a"])
    assert q.algebra.atoms == ("b", "c")
    assert q.projection(omega.element(["a", "b"])) == q.algebra.element(["b"])


def test_quotient_of_positive_measure_is_iso():
    omega = alg("a", "b")
    q = quotient_by_null(omega, [])
    assert q.algebra == omega
    assert all(q.projection(e) == e for e in omega.elements())


def test_quotient_all_null_is_degenerate():
    omega = alg("a")
    with pytest.raises(DegenerateQuotient):
        quotient_by_null(omega, ["a"])


def test_principal_ideal_projection_meets():
    omega = alg("a", "b", "c", "d")
    e = omega.element(["a", "c"])
    ideal, proj = principal_ideal(omega, e)
    assert ideal.atoms == ("a", "c")
    for g in omega.elements():
        assert proj(g) == ideal.element(omega.atoms_below(g & e))


def test_principal_ideal_top_is_identity():
    omega = alg("a", "b")
    ideal, proj = principal_ideal(omega, omega.top)
    assert ideal == omega
    assert all(proj(g) == g for g in omega.elements())


def test_ideal_projection_between_ideals():
    omega = alg("a", "b", "c")
    f = omega.top
    e = omega.element(["a", "b"])
    p = ideal_projection(omega, f, e)
    big, _ = principal_ideal(omega, f)
    small, _ = principal_ideal(omega, e)
    for g in big.elements():
        names = [a for a in big.atoms_below(g) if a in small.atoms]
        assert p(g) == small.element(names)


def test_morphism_structure_oracle():
    omega = alg("a", "b", "c")
    target = alg("s", "t")
    for phi in all_morphisms(omega, target):
        assert phi.preserves_structure()
