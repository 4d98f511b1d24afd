"""Variation, semivariation (with brute-force oracle), Lipschitz norms,
pullbacks, product measures and spectrality."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from catmeas.boolalg import BoolAlg, BoolMorphism, coproduct
from catmeas.errors import FlavorMismatch, ResourceLimit
from catmeas.finban import FinBanSpace, Flavor, scalars, sum_space, sup_space
from catmeas.measures import (MeasureAlgebra, VectorMeasure, factor_through,
                              is_spectral, lipschitz_norm, null_quotient,
                              product_measure, pullback, semivariation, variation,
                              random_vector_measure)

from catmeas.simple import SimpleElement, VectorSimpleElement, bochner, integrate

from oracles import (bochner_by_fractions, dual_extreme_functionals, integrate_by_fractions,
                     lipschitz_by_elements, measure_at_by_sums, semivariation_bruteforce,
                     variation_by_norms)

F = Fraction


def alg(*atoms):
    return BoolAlg(tuple(sorted(atoms)))


def test_variation_signed_scalar():
    omega = alg("a", "b")
    nu = VectorMeasure.scalar(omega, [1, -1])
    assert variation(nu, omega.top) == 2
    # brute force over both partitions of top
    from catmeas.boolalg import partitions_of
    best = max(
        sum(abs(nu(b)[0]) for b in p)
        for p in partitions_of(omega, omega.top))
    assert best == 2


def test_variation_positive_equals_value():
    omega = alg("a", "b", "c")
    nu = VectorMeasure.scalar(omega, [F(1, 3), F(1, 2), F(2)])
    for e in omega.nonzero_elements():
        assert variation(nu, e) == nu(e)[0]


def test_variation_of_zero():
    omega = alg("a", "b")
    nu = VectorMeasure.scalar(omega, [0, 0])
    assert variation(nu, omega.top) == 0


def test_variation_additive_on_disjoint():
    rng = random.Random(0)
    omega = alg("a", "b", "c", "d")
    target = sum_space(["x", "y"], [F(1), F(1, 2)])
    for _ in range(20):
        nu = random_vector_measure(rng, omega, target)
        for e in omega.elements():
            for f in omega.elements():
                if e & f == 0:
                    assert variation(nu, e | f) == variation(nu, e) + variation(nu, f)


def test_semivariation_of_characteristic_embedding():
    # the atom-indicator measure into sup functions has semivariation one
    for n in range(1, 5):
        omega = alg(*(f"x{i}" for i in range(n)))
        target = sup_space(omega.atoms)
        values = tuple(
            tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n))
        chi = VectorMeasure(omega, target, values)
        assert semivariation(chi, omega.top) == 1


def test_semivariation_scalar_equals_variation():
    rng = random.Random(1)
    omega = alg("a", "b", "c")
    for _ in range(20):
        nu = VectorMeasure.scalar(omega, [rng.randint(-4, 4) for _ in range(3)])
        for e in omega.elements():
            assert semivariation(nu, e) == variation(nu, e)


def test_semivariation_oracle_never_exceeds():
    rng = random.Random(2)
    for flavor_mk in (sum_space, sup_space):
        omega = alg("a", "b", "c")
        target = flavor_mk(["u", "v"], [F(1), F(2)])
        for _ in range(10):
            nu = random_vector_measure(rng, omega, target)
            functionals = list(dual_extreme_functionals(target))
            got = semivariation(nu, omega.top)
            brute = semivariation_bruteforce(nu, omega.top, functionals)
            assert brute == got  # vertices included, so the oracle attains it


def test_semivariation_le_variation_exhaustive_small():
    rng = random.Random(3)
    for n in range(1, 4):
        omega = alg(*(f"x{i}" for i in range(n)))
        for dim in range(1, 4):
            target = sum_space([f"e{j}" for j in range(dim)])
            nu = random_vector_measure(rng, omega, target)
            for e in omega.elements():
                assert semivariation(nu, e) <= variation(nu, e)


def test_semivariation_monotone_subadditive():
    rng = random.Random(4)
    omega = alg("a", "b", "c")
    target = sum_space(["u", "v"])
    for _ in range(10):
        nu = random_vector_measure(rng, omega, target)
        for e in omega.elements():
            for f in omega.elements():
                if omega.leq(e, f):
                    assert semivariation(nu, e) <= semivariation(nu, f)
                assert semivariation(nu, e | f) <= semivariation(nu, e) + semivariation(nu, f)
        assert semivariation(nu, 0) == 0


# -- semivariation against the dual-vertex Fraction loop ------------------------

def semivariation_oracle(nu, elements):
    """{e: sv(e)} as the max over every dual_extreme_functionals vertex
    phi of sum over atoms a <= e of |phi . nu(a)|, in Fractions; each
    pairing is computed once and summed per element."""
    dim, n = nu.target.dim, nu.algebra.n
    pairings = [
        [abs(sum((phi[k] * nu.atom_values[i][k] for k in range(dim)), F(0)))
         for i in range(n)]
        for phi in dual_extreme_functionals(nu.target)]
    return {e: max((sum((row[i] for i in nu.algebra.atom_indices(e)), F(0))
                    for row in pairings), default=F(0))
            for e in elements}


def target_of(kind, weights, blocks):
    """A "sum", "sup" or "blocked" (SUP with `blocks` as groups) space."""
    labels = [f"e{j}" for j in range(len(weights))]
    if kind == "sum":
        return sum_space(labels, weights)
    if kind == "sup":
        return sup_space(labels, weights)
    return FinBanSpace(tuple(labels), tuple(weights), Flavor.SUP,
                       tuple(tuple(b) for b in blocks))


def random_target(rng, kind, dim):
    weights = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(dim)]
    order = list(range(dim))
    rng.shuffle(order)
    blocks = []
    while order:
        k = rng.randint(1, len(order))
        blocks.append(sorted(order[:k]))
        order = order[k:]
    return target_of(kind, weights, blocks)


def random_measure_with_nulls(rng, omega, target):
    """Signed non-integer values; about one atom in four is null."""
    def value():
        if rng.random() < 0.25:
            return tuple(F(0) for _ in range(target.dim))
        return tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(target.dim))
    return VectorMeasure(omega, target, tuple(value() for _ in range(omega.n)))


def test_semivariation_matches_the_dual_vertex_loop():
    rng = random.Random(11)
    cases = [(random_target(rng, kind, dim), rng.randint(1, 4))
             for kind in ("sum", "sup", "blocked") for dim in range(11)
             for _ in range(2 if dim <= 6 else 1)]
    cases += [(target, n) for target in (scalars(), sum_space(["u"], [F(5, 3)]),
                                         sup_space(["u"], [F(2, 7)]))
              for n in range(1, 5)]
    for target, n in cases:
        omega = alg(*(f"x{i}" for i in range(n)))
        nu = random_measure_with_nulls(rng, omega, target)
        elements = list(omega.elements())
        oracle = semivariation_oracle(nu, elements)
        for e in elements:
            assert semivariation(nu, e) == oracle[e], (target, e)
        if target.dim <= 6:
            functionals = list(dual_extreme_functionals(target))
            assert semivariation_bruteforce(nu, omega.top, functionals) == oracle[omega.top]


def test_int_calculus_matches_the_fraction_loops():
    """A measure's value and variation at every element, the integral of
    simple elements and the Bochner integral with its l1 norm, each
    against its Fraction loop, on 1-7 atoms with null atoms, over scalar,
    SUM, SUP, blocked SUP and 0-dim targets; the simple elements have
    zeros and mixed denominators."""
    rng = random.Random(23)

    def coefficient():
        return F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 12))

    targets = [scalars(), sum_space([], []), sup_space([], []),
               sum_space(["u"], [F(5, 3)]), sup_space(["u"], [F(2, 7)])]
    targets += [random_target(rng, kind, dim)
                for kind in ("sum", "sup", "blocked") for dim in (2, 3, 5)]
    for target in targets:
        for n in range(1, 8):
            omega = alg(*(f"x{i}" for i in range(n)))
            nu = random_measure_with_nulls(rng, omega, target)
            for e in omega.elements():
                value = nu(e)
                assert value == measure_at_by_sums(nu, e), (target, e)
                assert all(type(x) is F for x in value)
                assert variation(nu, e) == variation_by_norms(nu, e), (target, e)
            for _ in range(3):
                f = SimpleElement(omega, tuple(coefficient() for _ in range(n)))
                assert integrate(f, nu) == integrate_by_fractions(f, nu), (target, f)
            if target.flavor is Flavor.SUM:
                masses = [rng.choice([0, F(1, 3), 1, F(5, 2), F(7, 6)]) for _ in range(n)]
                mu = MeasureAlgebra.from_values(omega, masses)
                g = VectorSimpleElement(omega, target, tuple(
                    tuple(coefficient() for _ in range(target.dim)) for _ in range(n)))
                res = bochner(g, mu)
                assert (res.integral, res.l1_norm) == bochner_by_fractions(g, mu), (target, g)


@st.composite
def measures(draw):
    kind = draw(st.sampled_from(("sum", "sup", "blocked")))
    dim = draw(st.integers(0, 6))
    n = draw(st.integers(1, 4))
    rationals = st.builds(F, st.integers(-7, 7), st.integers(1, 6))
    weights = draw(st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 5)),
                            min_size=dim, max_size=dim))
    # block b holds the coordinates labelled b
    block_of = draw(st.lists(st.integers(0, max(dim - 1, 0)), min_size=dim, max_size=dim))
    blocks = [[i for i in range(dim) if block_of[i] == b] for b in sorted(set(block_of))]
    target = target_of(kind, weights, blocks)
    values = draw(st.lists(st.lists(rationals, min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    omega = alg(*(f"x{i}" for i in range(n)))
    return VectorMeasure(omega, target, tuple(tuple(v) for v in values))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(measures())
def test_semivariation_property_matches_the_loop(nu):
    elements = list(nu.algebra.elements())
    oracle = semivariation_oracle(nu, elements)
    assert [semivariation(nu, e) for e in elements] == [oracle[e] for e in elements]


def test_semivariation_of_a_wide_sum_target_raises():
    omega = alg("a", "b")
    wide = sum_space([f"e{j}" for j in range(17)])
    nu = VectorMeasure(omega, wide, tuple(tuple(F(1) for _ in range(17)) for _ in range(2)))
    with pytest.raises(ResourceLimit) as caught:
        semivariation(nu, omega.top)
    assert isinstance(caught.value, FlavorMismatch)
    assert caught.value.code == "too-large" and "too-large" in str(caught.value)
    assert semivariation(nu, 0) == 0  # bottom needs no functional
    # the cap is 65536 = 2^16 vertices: 16 dimensions still enumerate
    narrow = sum_space([f"e{j}" for j in range(16)])
    mu = VectorMeasure(omega, narrow, (tuple(F(1) for _ in range(16)),) * 2)
    assert semivariation(mu, omega.top) == 32


def test_lipschitz_scaling():
    omega = alg("a", "b")
    mu = MeasureAlgebra.from_values(omega, [F(1, 2), F(1, 3)])
    nu = mu.mu.scale(F(2))
    assert lipschitz_norm(nu, mu) == 2


def test_lipschitz_unbounded_flag():
    omega = alg("a", "b")
    mu = MeasureAlgebra.from_values(omega, [0, 1])
    nu = VectorMeasure.scalar(omega, [1, 0])
    assert lipschitz_norm(nu, mu) is None


def test_lipschitz_exhaustive_example():
    omega = alg("a", "b")
    mu = MeasureAlgebra.from_values(omega, [1, 1])
    nu = VectorMeasure.scalar(omega, [1, 3])
    # over the three nonzero elements: 1/1, 3/1, 4/2
    assert lipschitz_norm(nu, mu) == 3


def test_lipschitz_finite_iff_support_inclusion():
    rng = random.Random(5)
    omega = alg("a", "b", "c")
    for _ in range(30):
        mu = MeasureAlgebra.from_values(
            omega, [rng.choice([0, 1, 2]) for _ in range(3)])
        nu = VectorMeasure.scalar(omega, [rng.choice([0, 0, 1, -2]) for _ in range(3)])
        finite = lipschitz_norm(nu, mu) is not None
        support_ok = all(
            mu.atom_value(i) > 0 or nu.atom_values[i][0] == 0 for i in range(3))
        assert finite == support_ok


def test_lipschitz_norm_matches_the_element_loop():
    """The max over atoms against the max over all 2^n elements, with
    null atoms (carrying zero or nonzero nu), all-null mu, and scalar,
    SUM, SUP and blocked targets."""
    rng = random.Random(12)
    targets = (scalars(), sum_space(["x", "y"], [F(1, 2), F(3)]),
               sup_space(["x", "y", "z"], [F(2, 3), F(1), F(5, 7)]),
               FinBanSpace(("x", "y", "z"), (F(1), F(1, 5), F(3, 2)), Flavor.SUP,
                           ((0, 2), (1,))))
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 5)
        omega = alg(*(f"a{i}" for i in range(n)))
        nu = random_vector_measure(rng, omega, rng.choice(targets))
        masses = [rng.choice([0, F(1, 3), 1, F(5, 2)]) for _ in range(n)]
        if rng.random() < 0.1:
            masses = [0] * n
        if rng.random() < 0.5:  # let nu vanish on the null atoms
            nu = VectorMeasure(omega, nu.target, tuple(
                v if m else tuple(F(0) for _ in v) for v, m in zip(nu.atom_values, masses)))
        mu = MeasureAlgebra.from_values(omega, masses)
        got = lipschitz_norm(nu, mu)
        assert got == lipschitz_by_elements(nu, mu), (nu, masses)
        outcomes.add("unbounded" if got is None else "zero" if got == 0 else "positive")
    assert outcomes == {"unbounded", "zero", "positive"}


def test_pullback_identity_and_collapse():
    omega = alg("a", "b", "c")
    nu = VectorMeasure.scalar(omega, [1, 2, 4])
    ident = BoolMorphism.identity(omega)
    assert pullback(ident, nu).atom_values == nu.atom_values
    # collapse two atoms of the target onto one source atom
    source = alg("p", "q")
    phi = BoolMorphism(source, omega, (
        omega.element(["a", "b"]), omega.element(["c"])))
    pb = pullback(phi, nu)
    assert pb(source.element(["p"])) == (F(3),)
    assert pb(source.element(["q"])) == (F(4),)
    assert pb(source.top) == (F(7),)


def test_product_measure_values():
    left = alg("a", "b")
    right = alg("u", "v", "w")
    cop = coproduct(left, right)
    mu = VectorMeasure.scalar(left, [F(1, 2), F(1, 2)])
    nu = VectorMeasure.scalar(right, [F(1, 3), F(1, 3), F(1, 3)])
    prod = product_measure(mu, nu, cop)
    assert all(v == (F(1, 6),) for v in prod.atom_values)
    assert prod(cop.algebra.top) == (F(1),)
    # marginal
    e = cop.inject_left(left.element(["a"]))
    assert prod(e) == (F(1, 2) * F(1),)


def test_characteristic_embedding_is_spectral():
    # atom indicators into the sup-normed functions, pointwise product
    omega = alg("a", "b", "c")
    target = sup_space(omega.atoms)
    values = tuple(
        tuple(F(1) if i == j else F(0) for j in range(3)) for i in range(3))
    chi = VectorMeasure(omega, target, values)

    def pointwise(u, v):
        return tuple(x * y for x, y in zip(u, v))

    unit = (F(1),) * 3
    assert is_spectral(chi, pointwise, unit)
    assert not is_spectral(chi.scale(F(2)), pointwise, unit)


def test_null_quotient_accepts_vector_measures():
    omega = alg("a", "b")
    target = sum_space(["u", "v"])
    nu = VectorMeasure(omega, target, ((F(0), F(0)), (F(1), F(-1))))
    q = null_quotient(nu)
    assert q.algebra.atoms == ("b",)


def test_is_spectral_indicator_diagonal():
    omega = alg("a", "b", "c")
    n = omega.n
    target = sum_space([f"d{i}" for i in range(n)])

    def diag_product(u, v):
        return tuple(x * y for x, y in zip(u, v))

    unit = tuple(F(1) for _ in range(n))
    values = tuple(
        tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n))
    nu = VectorMeasure(omega, target, values)
    assert is_spectral(nu, diag_product, unit)
    assert not is_spectral(nu.scale(F(2)), diag_product, unit)


def test_monotone_positive_measure():
    omega = alg("a", "b", "c")
    mu = MeasureAlgebra.from_values(omega, [F(1, 2), F(1, 3), F(2)])
    for e in omega.elements():
        for f in omega.elements():
            if omega.leq(e, f):
                assert mu.value(e) <= mu.value(f)


def test_quotient_factorisation():
    omega = alg("a", "b", "c")
    mu = MeasureAlgebra.from_values(omega, [0, 1, 2])
    q = null_quotient(mu)
    assert q.algebra.n == 2
    nu_ok = VectorMeasure.scalar(omega, [0, 5, 7])
    nu_bad = VectorMeasure.scalar(omega, [1, 0, 0])
    factored = factor_through(q, nu_ok)
    assert factored is not None
    for e in omega.elements():
        assert factored(q.projection(e)) == nu_ok(e)
    assert factor_through(q, nu_bad) is None


def test_quotient_factorisation_uniqueness():
    # a measure on the quotient is determined by its pullback, so the
    # factorisation is unique whenever it exists
    omega = alg("a", "b", "c")
    mu = MeasureAlgebra.from_values(omega, [0, 1, 2])
    q = null_quotient(mu)
    rng = random.Random(6)
    for _ in range(10):
        vals = [0] + [rng.randint(-3, 3) for _ in range(2)]
        nu = VectorMeasure.scalar(omega, vals)
        factored = factor_through(q, nu)
        candidates = [
            VectorMeasure.scalar(q.algebra, pair)
            for pair in itertools.product(range(-3, 4), repeat=2)
            if all(VectorMeasure.scalar(q.algebra, pair)(q.projection(e)) == nu(e)
                   for e in omega.elements())]
        assert len(candidates) == 1
        assert candidates[0].atom_values == factored.atom_values
