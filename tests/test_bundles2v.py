"""Bundles, delta bundles and Schur orthogonality, hom/exponential
structure, matrix application and composition with their canonical
permutation witnesses, discrete direct integrals, Kan extensions."""

import random
from fractions import Fraction

import pytest

from catmeas.bundles2v import (Bundle, DiscreteCosheafMeasure, FunctorMatrix,
                               PosetFunctor, apply_compose_witness, apply_matrix,
                               associator_witness, bundle_from_matrix,
                               compose, decomposition_witness,
                               delta_bundle, direct_integral_discrete,
                               hom_bundle, identity_application_witness,
                               integral_tensor_naturality_witness,
                               kan_extension_discrete, kan_restriction_is_isometric,
                               matrix_from_bundle, reassociation_witness,
                               tensor_hom_adjunction_witness)
from catmeas.errors import NotAFunctor, UnknownPoint
from catmeas.finban import (FinPoset, Flavor, LinMap, operator_norm,
                            scalars, sum_space, zero_space)
from catmeas.shcosh import is_cosheaf

F = Fraction


def rnd_pos(rng):
    return F(rng.randint(1, 3), rng.randint(1, 3))


def rnd_space(rng, dim, tag="e"):
    return sum_space([f"{tag}{i}" for i in range(dim)], [rnd_pos(rng) for _ in range(dim)])


def rnd_bundle(rng, base, max_dim=3, tag="f"):
    return Bundle(tuple(base), {
        x: rnd_space(rng, rng.randint(0, max_dim), tag=f"{tag}{x}") for x in base})


def rnd_matrix(rng, src, tgt, max_dim=2, tag="m"):
    return FunctorMatrix(tuple(src), tuple(tgt), {
        (x, y): rnd_space(rng, rng.randint(0, max_dim), tag=f"{tag}{x}{y}")
        for x in src for y in tgt})


# -- delta bundles and Schur ---------------------------------------------------

def test_delta_bundle_dims():
    d = delta_bundle(["x", "y"], "x", scalars())
    assert d.fiber("x").dim == 1 and d.fiber("y").dim == 0
    with pytest.raises(UnknownPoint):
        delta_bundle(["x"], "z", scalars())


def test_schur_orthogonality_exhaustive():
    for n in range(1, 6):
        base = [f"p{i}" for i in range(n)]
        for x in base:
            for y in base:
                dx = delta_bundle(base, x, scalars())
                dy = delta_bundle(base, y, scalars())
                hom, _ = hom_bundle(dx, dy)
                assert hom.dim == (1 if x == y else 0)


def test_hom_dim_formula():
    rng = random.Random(0)
    base = ["x", "y", "z"]
    for _ in range(10):
        xi = rnd_bundle(rng, base)
        zeta = rnd_bundle(rng, base)
        hom, _ = hom_bundle(xi, zeta)
        assert hom.dim == sum(
            xi.fiber(p).dim * zeta.fiber(p).dim for p in base)


def test_hom_from_delta_is_the_fiber():
    rng = random.Random(1)
    base = ["x", "y", "z"]
    xi = rnd_bundle(rng, base, max_dim=3)
    for x in base:
        hom, _ = hom_bundle(delta_bundle(base, x, scalars()), xi)
        fiber = xi.fiber(x)
        assert hom.dim == fiber.dim
        if fiber.dim == 0:
            continue
        assert hom.weights == fiber.weights
        # one l1 block covering everything: the norms agree outright
        assert hom.effective_groups() == (tuple(range(fiber.dim)),)
        from catmeas.finban import IsoWitness
        wit = IsoWitness.from_permutation(hom, fiber, list(range(fiber.dim)))
        assert wit.is_isometric()


def test_tensor_hom_adjunction_witness():
    rng = random.Random(2)
    base = ["x", "y", "z"]
    for _ in range(5):
        xi = rnd_bundle(rng, base, max_dim=3, tag="a")
        zeta = rnd_bundle(rng, base, max_dim=3, tag="b")
        rho = rnd_bundle(rng, base, max_dim=3, tag="c")
        wit = tensor_hom_adjunction_witness(xi, zeta, rho)
        assert wit.is_isometric()


# -- application ---------------------------------------------------------------

def test_apply_dimension_example():
    base_x = ("1", "2")
    base_y = ("1",)
    t = FunctorMatrix(base_x, base_y, {
        ("1", "1"): sum_space(["a", "b"]),
        ("2", "1"): sum_space(["c", "d", "e"])})
    xi = Bundle(base_x, {"1": scalars("u"), "2": scalars("v")})
    out = apply_matrix(t, xi)
    assert out.fiber("1").dim == 5


def test_identity_application():
    rng = random.Random(3)
    base = ["x", "y"]
    xi = rnd_bundle(rng, base)
    for y in base:
        wit = identity_application_witness(xi, y)
        assert wit.is_isometric()


def test_apply_delta_selects_column():
    rng = random.Random(4)
    t = rnd_matrix(rng, ["x", "y"], ["u", "v"], max_dim=2)
    d = delta_bundle(("x", "y"), "x", scalars())
    applied = apply_matrix(t, d)
    col = bundle_from_matrix(t, "x")
    for y in ("u", "v"):
        assert applied.fiber(y).dim == col.fiber(y).dim
        assert applied.fiber(y).weights == col.fiber(y).weights


def test_decomposition_witness_isometric():
    rng = random.Random(5)
    base = ["x", "y", "z"]
    for _ in range(10):
        xi = rnd_bundle(rng, base, max_dim=4)
        for y in base:
            assert decomposition_witness(xi, y).is_isometric()


# -- composition ----------------------------------------------------------------

def test_compose_dimension_example():
    s = FunctorMatrix(("y",), ("z",), {("y", "z"): sum_space(["s0"])})
    # dims S=(1,2) as a 1x2-ish layout; use two target points
    s = FunctorMatrix(("y1", "y2"), ("z",), {
        ("y1", "z"): sum_space(["s0"]),
        ("y2", "z"): sum_space(["s0", "s1"])})
    t = FunctorMatrix(("x",), ("y1", "y2"), {
        ("x", "y1"): sum_space(["t0", "t1"]),
        ("x", "y2"): sum_space(["t0", "t1", "t2"])})
    st = compose(s, t)
    assert st.entry("x", "z").dim == 1 * 2 + 2 * 3


def test_compose_with_identity():
    rng = random.Random(6)
    t = rnd_matrix(rng, ["x", "y"], ["u", "v"])
    ident = FunctorMatrix.identity(("u", "v"))
    it = compose(ident, t)
    for x in ("x", "y"):
        for u in ("u", "v"):
            assert it.entry(x, u).dim == t.entry(x, u).dim
            assert it.entry(x, u).weights == t.entry(x, u).weights


def test_associator_is_isometric():
    rng = random.Random(7)
    for _ in range(5):
        t = rnd_matrix(rng, ["x1", "x2"], ["y1", "y2"], tag="t")
        s = rnd_matrix(rng, ["y1", "y2"], ["z1", "z2"], tag="s")
        r = rnd_matrix(rng, ["z1", "z2"], ["w"], tag="r")
        for x in ("x1", "x2"):
            wit = associator_witness(r, s, t, x, "w")
            assert wit.is_valid()
            assert wit.is_isometric()


def test_pentagon_routes_agree_as_matrices():
    rng = random.Random(8)
    q = rnd_matrix(rng, ["w1"], ["v"], max_dim=2, tag="q")
    r = rnd_matrix(rng, ["z1", "z2"], ["w1"], max_dim=2, tag="r")
    s = rnd_matrix(rng, ["y1"], ["z1", "z2"], max_dim=2, tag="s")
    t = rnd_matrix(rng, ["x1"], ["y1"], max_dim=2, tag="t")

    def leaf(name, m):
        return ("leaf", name, m)

    qq, rr, ss, tt = leaf("Q", q), leaf("R", r), leaf("S", s), leaf("T", t)
    # ((QR)S)T -> (QR)(ST) -> Q(R(ST))
    b0 = ("comp", ("comp", ("comp", qq, rr), ss), tt)
    b1 = ("comp", ("comp", qq, rr), ("comp", ss, tt))
    b2 = ("comp", qq, ("comp", rr, ("comp", ss, tt)))
    # ((QR)S)T -> (Q(RS))T -> Q((RS)T) -> Q(R(ST))
    c1 = ("comp", ("comp", qq, ("comp", rr, ss)), tt)
    c2 = ("comp", qq, ("comp", ("comp", rr, ss), tt))
    route_a = (reassociation_witness(b1, b2, "x1", "v").forward @
               reassociation_witness(b0, b1, "x1", "v").forward)
    route_b = (reassociation_witness(c2, b2, "x1", "v").forward @
               (reassociation_witness(c1, c2, "x1", "v").forward @
                reassociation_witness(b0, c1, "x1", "v").forward))
    assert route_a.matrix == route_b.matrix


def test_apply_compose_fubini():
    rng = random.Random(9)
    for _ in range(5):
        xi = rnd_bundle(rng, ["x1", "x2"], max_dim=2)
        t = rnd_matrix(rng, ["x1", "x2"], ["y1", "y2"], max_dim=2, tag="t")
        s = rnd_matrix(rng, ["y1", "y2"], ["z"], max_dim=2, tag="s")
        wit = apply_compose_witness(s, t, xi, "z")
        assert wit.is_isometric()


def test_bundles_matrices_biject():
    rng = random.Random(10)
    xi = rnd_bundle(rng, ["x", "y"])
    m = matrix_from_bundle(xi)
    back = bundle_from_matrix(m, "x")
    # the matrix of a bundle has the fibers as the single column
    assert m.entry("x", "*").dim == xi.fiber("x").dim


# -- discrete integrals -----------------------------------------------------------

def test_direct_integral_dims():
    base = ("x", "y")
    xi = Bundle(base, {"x": sum_space(["a", "b"]), "y": sum_space(["c", "d", "e"])})
    mu = DiscreteCosheafMeasure(base, {
        "x": sum_space(["m"]), "y": sum_space(["n", "p"])})
    res = direct_integral_discrete(xi, mu)
    assert res.total.dim == 2 * 1 + 3 * 2
    assert is_cosheaf(res.indefinite, exhaustive=True)


def test_direct_integral_point_mass():
    base = ("x", "y")
    xi = Bundle(base, {"x": sum_space(["a", "b"]), "y": sum_space(["c"])})
    mu = DiscreteCosheafMeasure(base, {
        "x": scalars(), "y": zero_space(Flavor.SUM)})
    res = direct_integral_discrete(xi, mu)
    assert res.total.dim == xi.fiber("x").dim
    assert res.total.weights == xi.fiber("x").weights


def test_integral_of_delta_is_the_weight():
    rng = random.Random(11)
    base = ("x", "y", "z")
    mu = DiscreteCosheafMeasure(base, {p: rnd_space(rng, 2, tag=p) for p in base})
    d = delta_bundle(base, "y", scalars())
    res = direct_integral_discrete(d, mu)
    assert res.total.dim == mu.weight["y"].dim
    assert res.total.weights == mu.weight["y"].weights


def test_integral_commutes_with_tensoring():
    rng = random.Random(12)
    for _ in range(5):
        base = ("x", "y")
        xi = rnd_bundle(rng, base, max_dim=2)
        mu = DiscreteCosheafMeasure(base, {p: rnd_space(rng, 2, tag=p) for p in base})
        v = rnd_space(rng, 2, tag="v")
        wit = integral_tensor_naturality_witness(xi, mu, v)
        assert wit.is_isometric()


# -- Kan extensions ----------------------------------------------------------------

def contraction(rng, src, tgt):
    t = LinMap.from_matrix(src, tgt, tuple(
        tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(src.dim))
        for _ in range(tgt.dim)))
    n = operator_norm(t)
    return t if n <= 1 else t.scale(F(1) / n)


@pytest.mark.parametrize("index,bad", [
    (FinPoset(("0", "a", "b", "1"), (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))),
     ("b", "1")),
    (FinPoset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))), ("a", "c"))],
    ids=["square", "shortcut"])
def test_poset_functor_rejects_path_dependent_arrow_maps(index, bad):
    """A square that does not commute, or a shortcut a -> c that differs
    from a -> b -> c; the Kan extension refuses it too."""
    line = sum_space(["e"])
    maps = {f: LinMap.identity(line) for f in index.arrows}
    PosetFunctor(index, {o: line for o in index.objects}, maps).validate()
    maps[bad] = maps[bad].scale(F(1, 2))
    f = PosetFunctor(index, {o: line for o in index.objects}, maps)
    with pytest.raises(NotAFunctor, match="arrow maps are path dependent"):
        f.validate()
    with pytest.raises(NotAFunctor, match="arrow maps are path dependent"):
        kan_extension_discrete(f, {o: o for o in index.objects}, index)


def test_kan_along_identity_is_the_functor():
    rng = random.Random(13)
    index = FinPoset.discrete(["a", "b"])
    f = PosetFunctor(index, {"a": rnd_space(rng, 2, "a"), "b": rnd_space(rng, 3, "b")}, {})
    kan = kan_extension_discrete(f, {"a": "a", "b": "b"}, index)
    for o in index.objects:
        assert kan.values[o].space.dim == f.spaces[o].dim
    assert kan_restriction_is_isometric(kan, f, {"a": "a", "b": "b"})


def test_kan_from_singleton_is_delta():
    rng = random.Random(14)
    index = FinPoset.discrete(["m"])
    v = rnd_space(rng, 3, "v")
    f = PosetFunctor(index, {"m": v}, {})
    target = FinPoset.discrete(["x", "y", "z"])
    kan = kan_extension_discrete(f, {"m": "y"}, target)
    assert kan.values["y"].space.dim == v.dim
    assert kan.values["x"].space.dim == 0
    assert kan.values["z"].space.dim == 0
    assert kan_restriction_is_isometric(kan, f, {"m": "y"})


def test_kan_along_fully_faithful_chain():
    rng = random.Random(15)
    index = FinPoset.chain(["0", "1"])
    spaces = {"0": rnd_space(rng, 2, "s0"), "1": rnd_space(rng, 2, "s1")}
    maps = {("0", "1"): contraction(rng, spaces["0"], spaces["1"])}
    f = PosetFunctor(index, spaces, maps)
    target = FinPoset.chain(["p", "q", "r"])
    point_map = {"0": "p", "1": "r"}
    kan = kan_extension_discrete(f, point_map, target)
    assert kan_restriction_is_isometric(kan, f, point_map)
    # the middle object receives the extension along p <= q
    assert kan.values["q"].space.dim == spaces["0"].dim
