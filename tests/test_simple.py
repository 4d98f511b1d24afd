"""Simple elements: canonical form, sup-norm algebra, the universal
integral and its isometry, the contractive vector integral with the
tensor identity, Fubini, Stone transfer and idempotent splitting."""

import random
from fractions import Fraction

import pytest

from catmeas import finban
from catmeas.boolalg import (BoolAlg, BoolMorphism, all_morphisms, coproduct,
                             mediate_coproduct, stone_space)
from catmeas.errors import NotIdempotent
from catmeas.finban import IsoWitness, operator_norm, sum_space, vec
from catmeas.measures import (MeasureAlgebra, VectorMeasure, lipschitz_norm, product_measure,
                              pullback, semivariation)
from catmeas.simple import (SimpleElement, VectorSimpleElement, bochner,
                            canonicalize, characteristic, fubini, integrate,
                            integration_map, l1_lift, l1_norm, l1_space,
                            linf_norm, multiply, split_idempotent,
                            stone_transfer, transfer_measure)

from oracles import (fubini_by_labels, mediate_coproduct_by_labels, product_measure_by_labels,
                     random_vector_measure)

F = Fraction


def alg(*atoms):
    return BoolAlg(tuple(sorted(atoms)))


def rnd_simple(rng, omega, span=5, denom=3):
    return SimpleElement(omega, tuple(
        F(rng.randint(-span, span), rng.randint(1, denom)) for _ in range(omega.n)))


# -- canonical form ----------------------------------------------------------

def test_canonicalize_overlap():
    omega = alg("a", "b", "c")
    e = omega.element(["a", "b"])
    f = omega.element(["b", "c"])
    s = canonicalize(omega, [(F(1), e), (F(1), f)])
    blocks = dict((coeff, elem) for coeff, elem in s.blocks())
    assert blocks[F(2)] == omega.element(["b"])
    assert blocks[F(1)] == omega.element(["a", "c"])


def test_canonicalize_cancellation_and_scalar():
    omega = alg("a", "b")
    e = omega.element(["a"])
    zero = canonicalize(omega, [(F(1), e), (F(-1), e)])
    assert zero.is_zero() and zero.blocks() == ()
    s = canonicalize(omega, [(F(2), omega.top)])
    assert s.blocks() == ((F(2), omega.top),)


def test_blocks_are_a_partition_with_distinct_coefficients():
    rng = random.Random(0)
    omega = alg("a", "b", "c", "d")
    for _ in range(50):
        s = rnd_simple(rng, omega)
        blocks = s.blocks()
        coeffs = [k for k, _ in blocks]
        assert len(set(coeffs)) == len(coeffs)
        assert all(k != 0 for k in coeffs)
        union = 0
        for _, e in blocks:
            assert union & e == 0
            union |= e
        assert union == s.support()


# -- sup-norm algebra --------------------------------------------------------

def test_linf_norm_disjoint_blocks():
    omega = alg("a", "b", "c")
    s = canonicalize(omega, [(F(2), omega.element(["a"])), (F(-3), omega.element(["b"]))])
    assert linf_norm(s) == 3


def test_characteristic_multiplicative():
    omega = alg("a", "b", "c")
    for e in omega.elements():
        for f in omega.elements():
            lhs = multiply(characteristic(omega, e), characteristic(omega, f))
            assert lhs.coeffs == characteristic(omega, e & f).coeffs


def test_submultiplicative_random():
    rng = random.Random(1)
    omega = alg("a", "b", "c")
    for _ in range(100):
        f = rnd_simple(rng, omega)
        g = rnd_simple(rng, omega)
        assert linf_norm(multiply(f, g)) <= linf_norm(f) * linf_norm(g)


def test_banach_algebra_laws():
    rng = random.Random(2)
    omega = alg("a", "b")
    one = characteristic(omega, omega.top)
    for _ in range(30):
        f, g, h = (rnd_simple(rng, omega) for _ in range(3))
        assert multiply(multiply(f, g), h).coeffs == multiply(f, multiply(g, h)).coeffs
        assert multiply(one, f).coeffs == f.coeffs
        assert multiply(f, g).coeffs == multiply(g, f).coeffs


# -- the universal integral on the sup side ----------------------------------

def test_integral_of_characteristic_is_the_measure():
    rng = random.Random(3)
    omega = alg("a", "b", "c")
    target = sum_space(["u", "v"])
    nu = random_vector_measure(rng, omega, target)
    for e in omega.elements():
        assert integrate(characteristic(omega, e), nu) == nu(e)


def test_integral_of_zero():
    omega = alg("a", "b")
    nu = VectorMeasure.scalar(omega, [2, 3])
    assert integrate(SimpleElement(omega, (F(0), F(0))), nu) == (F(0),)


def test_uniform_example():
    omega = alg("a", "b", "c")
    mu = VectorMeasure.scalar(omega, [F(1, 3)] * 3)
    f = canonicalize(omega, [(F(6), omega.element(["a"]))])
    assert integrate(f, mu) == (F(2),)


def test_integration_map_is_unique_lift():
    # any linear map on the sup space agreeing with nu on characteristics
    # has the same matrix: the atom indicators form a basis
    rng = random.Random(4)
    omega = alg("a", "b", "c")
    target = sum_space(["u", "v"])
    nu = random_vector_measure(rng, omega, target)
    lift = integration_map(nu)
    for i in range(omega.n):
        assert lift(characteristic(omega, 1 << i).coeffs) == nu(1 << i)
    # linearity + agreement on a basis forces the matrix
    assert lift.matrix == tuple(
        tuple(nu.atom_values[j][r] for j in range(omega.n))
        for r in range(target.dim))


def test_integration_map_norm_is_semivariation():
    rng = random.Random(5)
    from catmeas.finban import sup_space as sup_mk
    for n in (1, 2, 3, 4):
        omega = alg(*(f"x{i}" for i in range(n)))
        for flavor_mk in (sum_space, sup_mk):
            target = flavor_mk(["u", "v"], [F(1), F(1, 2)])
            for _ in range(10):
                nu = random_vector_measure(rng, omega, target)
                assert operator_norm(integration_map(nu)) == semivariation(nu, omega.top)


def test_naturality_of_the_integral():
    rng = random.Random(6)
    omega = alg("a", "b", "c")
    sigma = alg("p", "q")
    target = sum_space(["u", "v"])
    target2 = sum_space(["w"])
    for _ in range(20):
        nu = random_vector_measure(rng, omega, target)
        f = rnd_simple(rng, omega)
        # post-composition with a linear map
        t_cols = [tuple([F(rng.randint(-2, 2))]) for _ in range(target.dim)]
        from catmeas.finban import LinMap
        t = LinMap.from_columns(target, target2, t_cols)
        t_nu = VectorMeasure(omega, target2, tuple(t(v) for v in nu.atom_values))
        assert t(integrate(f, nu)) == integrate(f, t_nu)
        # change of variables along a Boolean morphism
        phi = BoolMorphism(sigma, omega, (
            omega.element(["a", "c"]), omega.element(["b"])))
        g = rnd_simple(rng, sigma)
        # phi_* g is the simple element with g's values spread over the images
        phi_g_coeffs = []
        for i in range(omega.n):
            val = F(0)
            for j in range(sigma.n):
                if phi.atom_images[j] >> i & 1:
                    val = g.coeffs[j]
            phi_g_coeffs.append(val)
        phi_g = SimpleElement(omega, tuple(phi_g_coeffs))
        assert integrate(phi_g, nu) == integrate(g, pullback(phi, nu))


# -- the weighted l1 side ----------------------------------------------------

def test_l1_norm_representation_independent():
    omega = alg("a", "b", "c")
    mu = MeasureAlgebra.from_values(omega, [F(1, 2), F(1, 3), F(1, 6)])
    f1 = canonicalize(omega, [(F(1), omega.element(["a", "b"]))])
    f2 = canonicalize(omega, [(F(1), omega.element(["a"])), (F(1), omega.element(["b"]))])
    assert f1.coeffs == f2.coeffs
    assert l1_norm(f1, mu) == F(1, 2) + F(1, 3)


def test_l1_lift_norm_is_lipschitz_norm():
    rng = random.Random(7)
    omega = alg("a", "b", "c", "d")
    target = sum_space(["u", "v"])
    mu = MeasureAlgebra.from_values(omega, [F(1, 2), F(1, 3), F(2), F(1)])
    for _ in range(25):
        nu = random_vector_measure(rng, omega, target)
        lift = l1_lift(nu, mu)
        assert operator_norm(lift) == lipschitz_norm(nu, mu)
    # and with a null atom the lift factors through the classes
    mu0 = MeasureAlgebra.from_values(omega, [0, F(1), F(1), F(2)])
    assert l1_space(mu0).dim == 3


def test_bochner_elementary_values():
    omega = alg("a", "b")
    mu = MeasureAlgebra.from_values(omega, [F(1, 4), F(3, 4)])
    b = sum_space(["u", "v"], [F(1), F(2)])
    f = VectorSimpleElement.from_terms(omega, b, [(omega.top, vec(1, -1))])
    res = bochner(f, mu)
    assert res.integral == vec(1, -1)
    assert res.l1_norm == b.norm(vec(1, -1))
    assert res.tensor_witness.is_isometric()
    # elementary tensor norm
    g = VectorSimpleElement.from_terms(omega, b, [(omega.element(["a"]), vec(0, 1))])
    res_g = bochner(g, mu)
    assert res_g.l1_norm == F(1, 4) * 2


def test_bochner_and_fubini_witnesses_take_no_operator_norm(monkeypatch):
    """Library witnesses are permutations, so their isometry is decided
    in closed form."""
    def refuse(t):
        raise AssertionError("operator_norm was called")

    monkeypatch.setattr(finban, "operator_norm", refuse)
    omega = alg("a", "b", "c")
    mu = MeasureAlgebra.from_values(omega, [F(1, 4), F(0), F(3, 4)])
    b = sum_space(["u", "v"], [F(1), F(2)])
    f = VectorSimpleElement.from_terms(omega, b, [(omega.top, vec(1, -1))])
    assert bochner(f, mu).tensor_witness.is_isometric()
    left, right = alg("p", "q"), alg("r", "s")
    cop = coproduct(left, right)
    nu = MeasureAlgebra.from_values(right, [F(1, 2), F(1, 3)])
    mu2 = MeasureAlgebra.from_values(left, [F(2), F(1, 5)])
    g = SimpleElement(cop.algebra, tuple(F(i) for i in range(cop.algebra.n)))
    assert fubini(g, cop, mu2, nu).witness.is_isometric()


def test_bochner_contractive_and_natural():
    rng = random.Random(8)
    omega = alg("a", "b", "c")
    mu = MeasureAlgebra.from_values(omega, [F(1, 3), F(1, 3), F(1, 3)])
    b = sum_space(["u", "v"])
    c = sum_space(["w", "x"])
    from catmeas.finban import LinMap
    for _ in range(20):
        f = VectorSimpleElement(omega, b, tuple(
            tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            for _ in range(3)))
        res = bochner(f, mu)
        assert b.norm(res.integral) <= res.l1_norm
        t = LinMap.from_matrix(b, c, tuple(
            tuple(F(rng.randint(-2, 2)) for _ in range(2)) for _ in range(2)))
        # the integral commutes with post-composition
        assert t(res.integral) == bochner(f.map_coefficients(t), mu).integral


def test_fubini_exact():
    rng = random.Random(9)
    left = alg("a", "b")
    right = alg("u", "v", "w")
    cop = coproduct(left, right)
    mu = MeasureAlgebra.from_values(left, [F(1, 2), F(1, 2)])
    nu = MeasureAlgebra.from_values(right, [F(1, 6), F(1, 3), F(1, 2)])
    for _ in range(50):
        f = rnd_simple(rng, cop.algebra)
        res = fubini(f, cop, mu, nu)
        assert res.all_equal()
    assert fubini(rnd_simple(rng, cop.algebra), cop, mu, nu).witness.is_isometric()


def test_fubini_rectangle():
    left = alg("a", "b")
    right = alg("u", "v")
    cop = coproduct(left, right)
    mu = MeasureAlgebra.from_values(left, [F(1, 3), F(2, 3)])
    nu = MeasureAlgebra.from_values(right, [F(1, 4), F(3, 4)])
    e = cop.algebra.element([cop.pair_atom("a", "v")])
    f = characteristic(cop.algebra, e)
    res = fubini(f, cop, mu, nu)
    assert res.product_value == F(1, 3) * F(3, 4)


# '!' sorts before '*', so "a!*u" < "a*u": the pair labels do not sort
# in factor order
OUT_OF_ORDER = (alg("a", "a!", "b"), alg("u", "u!"))


def test_coproduct_pairs_name_the_factor_atoms_of_each_atom():
    left, right = OUT_OF_ORDER
    cop = coproduct(left, right)
    assert cop.algebra.atoms[:2] == ("a!*u", "a!*u!")
    assert len(cop.pairs) == cop.algebra.n
    for k, (i, j) in enumerate(cop.pairs):
        assert cop.algebra.atoms[k] == f"{left.atoms[i]}*{right.atoms[j]}"
        assert cop.inject_left(1 << i) >> k & 1 and cop.inject_right(1 << j) >> k & 1


def test_coproduct_pair_readers_match_the_label_oracles():
    left, right = OUT_OF_ORDER
    cop = coproduct(left, right)
    target = alg("x", "y")
    for phi in all_morphisms(left, target):
        for psi in all_morphisms(right, target):
            assert mediate_coproduct(cop, phi, psi) == mediate_coproduct_by_labels(cop, phi, psi)
    rng = random.Random(11)
    # zero atom values drop pairs from the l1 classes the witness matches
    for mus in ([F(1, 2), F(1, 4), F(0)], [F(0), F(3), F(2, 7)], [F(1), F(1), F(1)]):
        for nus in ([F(2, 5), F(3, 5)], [F(0), F(1, 3)]):
            mu, nu = MeasureAlgebra.from_values(left, mus), MeasureAlgebra.from_values(right, nus)
            assert product_measure(mu.mu, nu.mu, cop) == product_measure_by_labels(
                mu.mu, nu.mu, cop)
            f = rnd_simple(rng, cop.algebra)
            res = fubini(f, cop, mu, nu)
            total, left_then_right, right_then_left, perm = fubini_by_labels(f, cop, mu, nu)
            assert (res.product_value, res.iterated_left_then_right,
                    res.iterated_right_then_left) == (total, left_then_right, right_then_left)
            forward = res.witness.forward
            assert forward == IsoWitness.from_permutation(forward.source, forward.target,
                                                          perm).forward


def test_stone_transfer_preserves_everything():
    rng = random.Random(10)
    omega = alg("a", "b", "c")
    st = stone_space(omega)
    for _ in range(100):
        f = rnd_simple(rng, omega)
        g = rnd_simple(rng, omega)
        tf = stone_transfer(f, st)
        tg = stone_transfer(g, st)
        assert max((abs(v) for v in tf.values()), default=F(0)) == linf_norm(f)
        prod = stone_transfer(multiply(f, g), st)
        assert all(prod[p] == tf[p] * tg[p] for p in st.points)
    # chi(E) transfers to the indicator of eta(E)
    for e in omega.elements():
        tf = stone_transfer(characteristic(omega, e), st)
        assert {p for p, v in tf.items() if v == 1} == set(st.eta(e))


def test_transferred_measure_additive():
    rng = random.Random(11)
    omega = alg("a", "b", "c")
    st = stone_space(omega)
    target = sum_space(["u"])
    nu = random_vector_measure(rng, omega, target)
    tnu = transfer_measure(nu, st)
    clop = st.clopen_algebra()
    for e in clop.elements():
        for f in clop.elements():
            if e & f == 0:
                lhs = tnu(e | f)
                rhs = tuple(x + y for x, y in zip(tnu(e), tnu(f)))
                assert lhs == rhs
    from catmeas.measures import variation as var
    fwd, _ = st.round_trip()
    for e in omega.elements():
        assert var(nu, e) == var(tnu, fwd(e))


def test_split_idempotent():
    omega = alg("a", "b", "c")
    e = omega.element(["a", "c"])
    chi = characteristic(omega, e)
    g, splitter = split_idempotent(chi)
    assert g == e and splitter.coeffs == chi.coeffs
    zero = SimpleElement(omega, (F(0),) * 3)
    assert split_idempotent(zero)[0] == 0
    rng = random.Random(12)
    for _ in range(20):
        coeffs = tuple(F(rng.choice([0, 1])) for _ in range(3))
        f = SimpleElement(omega, coeffs)
        g, _ = split_idempotent(f)
        assert g == f.support()
    with pytest.raises(NotIdempotent):
        split_idempotent(SimpleElement(omega, (F(2), F(0), F(0))))
