"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Everything is exact rational arithmetic (zero tolerance); the
runtime budgets are asserted too.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from catmeas.boolalg import BoolAlg, coproduct, partitions_of, stone_space
from catmeas.bundles2v import (Bundle, DiscreteCosheafMeasure, FunctorMatrix,
                               apply_compose_witness, associator_witness,
                               decomposition_witness, delta_bundle, hom_bundle,
                               integral_tensor_naturality_witness)
from catmeas.exactla import invert
from catmeas.finban import (Flavor, LinMap, operator_norm, projective_tensor, scalars,
                            sum_space, sup_space)
from catmeas.measures import (MeasureAlgebra, VectorMeasure, factor_through,
                              null_quotient, semivariation, variation,
                              random_vector_measure)
from catmeas.shcosh import (bva_cosheaf, bva_evaluation, constant_precosheaf,
                            constant_universal_map, cosheaf_projection,
                            cosheafify, count_factorizations,
                            factor_through_cosheafification, is_cosheaf,
                            l1_cosheaf, partition_map, precosheaf_map_from_atoms,
                            random_cosheaf, random_scaled_precosheaf,
                            spectral_measure, integrate_simple_morphism)
from catmeas.simple import (SimpleElement, VectorSimpleElement, bochner,
                            characteristic, fubini, integration_map,
                            l1_tensor_witness, linf_norm, multiply)

from oracles import projective_norm_oracle, spectral_laws_by_pairs

F = Fraction
MODELS = Path(__file__).resolve().parent.parent / "models"


def report(criterion: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}  ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"


def alg(n: int, prefix: str = "x") -> BoolAlg:
    return BoolAlg(tuple(sorted(f"{prefix}{i}" for i in range(n))))


def rnd_pos(rng, span=3, denom=3):
    return F(rng.randint(1, span), rng.randint(1, denom))


def rnd_space(rng, dim, flavor=Flavor.SUM, tag="e"):
    mk = sum_space if flavor is Flavor.SUM else sup_space
    return mk([f"{tag}{i}" for i in range(dim)], [rnd_pos(rng) for _ in range(dim)])


def rnd_simple(rng, omega, span=4, denom=3):
    return SimpleElement(omega, tuple(
        F(rng.randint(-span, span), rng.randint(1, denom)) for _ in range(omega.n)))


def test_criterion_1_stone_round_trip():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 7):
        omega = alg(n)
        st = stone_space(omega)
        ok = ok and len(st.points) == omega.n
        fwd, bwd = st.round_trip()
        clop = st.clopen_algebra()
        for e in omega.elements():
            ok = ok and bwd(fwd(e)) == e and fwd(bwd(fwd(e))) == fwd(e)
            ok = ok and fwd(omega.complement(e)) == clop.complement(fwd(e))
        for e in omega.elements():
            for f in omega.elements():
                ok = ok and fwd(e & f) == fwd(e) & fwd(f)
                ok = ok and fwd(e | f) == fwd(e) | fwd(f)
        if not ok:
            break
    report("1 Stone round trip on 1..6 atoms", ok, time.monotonic() - t0, 1.0)


def test_criterion_2_sup_universal_property():
    t0 = time.monotonic()
    rng = random.Random(20)
    ok = True
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        omega = alg(n)
        dim = rng.randint(1, 3)
        flavor = rng.choice([Flavor.SUM, Flavor.SUP])
        target = rnd_space(rng, dim, flavor)
        nu = random_vector_measure(rng, omega, target)
        lift = integration_map(nu)
        for e in omega.elements():
            if tuple(lift(characteristic(omega, e).coeffs)) != tuple(nu(e)):
                ok = False
        if operator_norm(lift) != semivariation(nu, omega.top):
            ok = False
        checked += 1
        if not ok:
            break
    report(f"2 sup-side universal property on {checked} random measures",
           ok, time.monotonic() - t0, 5.0)


def test_criterion_3_projective_tensor_identity():
    t0 = time.monotonic()
    rng = random.Random(30)
    ok = True
    # basis-level identification of vector-valued l1 classes, 100 instances
    for _ in range(100):
        n = rng.randint(1, 4)
        omega = alg(n)
        mu = MeasureAlgebra.from_values(
            omega, [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)])
        b = rnd_space(rng, rng.randint(1, 3))
        wit = l1_tensor_witness(mu, b)
        ok = ok and wit.is_isometric()
        f = VectorSimpleElement(omega, b, tuple(
            tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(b.dim))
            for _ in range(n)))
        res = bochner(f, mu)
        ok = ok and b.norm(res.integral) <= res.l1_norm
        if not ok:
            break
    # the LP oracle agrees with the product-weight norm for all dims <= 4
    for da in range(1, 5):
        for db in range(1, 5):
            a = rnd_space(rng, da, tag="a")
            b = rnd_space(rng, db, tag="b")
            tp = projective_tensor(a, b)
            for _ in range(2):
                u = tuple(F(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(tp.space.dim))
                if projective_norm_oracle(a, b, u) != tp.space.norm(u):
                    ok = False
            if not ok:
                break
    report("3 projective tensor identity (witnesses + LP oracle, dims <= 4)",
           ok, time.monotonic() - t0, 10.0)


def test_criterion_4_fubini():
    t0 = time.monotonic()
    rng = random.Random(40)
    ok = True
    checked = 0
    while checked < 500:
        nl = rng.randint(1, 3)
        nr = rng.randint(1, 3)
        left = alg(nl, "l")
        right = alg(nr, "r")
        cop = coproduct(left, right)
        mu = MeasureAlgebra.from_values(
            left, [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(nl)])
        nu = MeasureAlgebra.from_values(
            right, [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(nr)])
        f = rnd_simple(rng, cop.algebra)
        res = fubini(f, cop, mu, nu)
        ok = ok and res.all_equal()
        checked += 1
        if not ok:
            break
    report(f"4 Fubini agreement on {checked} random simple functions",
           ok, time.monotonic() - t0, 2.0)


def test_criterion_5_discrete_categorified_calculus():
    t0 = time.monotonic()
    rng = random.Random(50)
    ok = True
    for nx in (1, 2, 3):
        base_x = tuple(f"x{i}" for i in range(nx))
        line = scalars()
        # Schur orthogonality, exhaustively over the base
        for x in base_x:
            for y in base_x:
                hom, _ = hom_bundle(delta_bundle(base_x, x, line),
                                    delta_bundle(base_x, y, line))
                ok = ok and hom.dim == (1 if x == y else 0)
        xi = Bundle(base_x, {p: rnd_space(rng, rng.randint(1, 3), tag=p)
                             for p in base_x})
        for y in base_x:
            ok = ok and decomposition_witness(xi, y).is_isometric()
        for ny in (1, 2, 3):
            base_y = tuple(f"y{i}" for i in range(ny))
            t = FunctorMatrix(base_x, base_y, {
                (x, y): rnd_space(rng, rng.randint(0, 2), tag=f"t{x}{y}")
                for x in base_x for y in base_y})
            s = FunctorMatrix(base_y, ("z",), {
                (y, "z"): rnd_space(rng, rng.randint(0, 2), tag=f"s{y}")
                for y in base_y})
            r = FunctorMatrix(("z",), ("w",), {
                ("z", "w"): rnd_space(rng, rng.randint(1, 3), tag="r")})
            for x in base_x:
                wit = associator_witness(r, s, t, x, "w")
                ok = ok and wit.is_isometric()
            wit = apply_compose_witness(s, t, xi, "z")
            ok = ok and wit.is_isometric()
            mu = DiscreteCosheafMeasure(base_x, {
                p: rnd_space(rng, rng.randint(1, 3), tag=f"m{p}") for p in base_x})
            v = rnd_space(rng, rng.randint(1, 3), tag="v")
            ok = ok and integral_tensor_naturality_witness(xi, mu, v).is_isometric()
            if not ok:
                break
        if not ok:
            break
    report("5 discrete calculus: Schur, decomposition, associators, naturality",
           ok, time.monotonic() - t0, 10.0)


def test_criterion_6_spectral_measure_laws():
    t0 = time.monotonic()
    rng = random.Random(60)
    ok = True
    # canonical weighted-l1 model, every pair of elements on up to 4 atoms
    for n in range(1, 5):
        omega = alg(n)
        mu = MeasureAlgebra.from_values(
            omega, [F(i + 1, n + 1) for i in range(n)])
        spec = spectral_measure(l1_cosheaf(mu))
        ok = ok and spectral_laws_by_pairs(spec)
        for _ in range(10):
            f = rnd_simple(rng, omega)
            ok = ok and spec.action_norm_matches(f)
        samples = [rnd_simple(rng, omega) for _ in range(5)]
        ok = ok and spec.action_is_algebra_map(samples)
        if not ok:
            break
    # randomized non-canonical cosheaves
    checked = 0
    while ok and checked < 50:
        omega = alg(rng.randint(1, 3))
        spec = spectral_measure(random_cosheaf(rng, omega))
        ok = ok and spectral_laws_by_pairs(spec)
        f = rnd_simple(rng, omega)
        ok = ok and spec.action_norm_matches(f)
        checked += 1
    report(f"6 spectral measure laws (canonical <=4 atoms + {checked} random cosheaves)",
           ok, time.monotonic() - t0, 10.0)


def test_criterion_7_simple_morphism_integration():
    t0 = time.monotonic()
    rng = random.Random(70)
    omega = alg(3)
    mu = MeasureAlgebra.from_values(omega, [F(1, 2), F(1, 3), F(2)])
    cs = l1_cosheaf(mu)
    ok = True
    # identities, exhaustively over the elements
    for e in omega.nonzero_elements():
        ok = ok and integrate_simple_morphism(
            characteristic(omega, e), cs, e, e).is_identity()
    checked = 0
    while ok and checked < 100:
        e = rng.randint(1, omega.top)
        f = rng.randint(1, omega.top)
        g = rng.randint(1, omega.top)
        ff = SimpleElement(omega, tuple(
            F(rng.randint(-3, 3), rng.randint(1, 2)) if (e & f) >> i & 1 else F(0)
            for i in range(omega.n)))
        gg = SimpleElement(omega, tuple(
            F(rng.randint(-3, 3), rng.randint(1, 2)) if (f & g) >> i & 1 else F(0)
            for i in range(omega.n)))
        lhs = integrate_simple_morphism(multiply(gg, ff), cs, e, g)
        rhs = (integrate_simple_morphism(gg, cs, f, g) @
               integrate_simple_morphism(ff, cs, e, f))
        ok = ok and lhs.matrix == rhs.matrix
        ok = ok and operator_norm(
            integrate_simple_morphism(ff, cs, e, f)) == linf_norm(ff)
        checked += 1
    report(f"7 morphism integration functor ({checked} random pairs, norms exact)",
           ok, time.monotonic() - t0, 5.0)


def test_criterion_8_cosheafification_adjunction():
    t0 = time.monotonic()
    rng = random.Random(80)
    ok = True
    checked = 0
    while ok and checked < 50:
        omega = alg(rng.randint(1, 3))
        if rng.random() < 0.7:
            theta = random_scaled_precosheaf(rng, omega)
        else:
            theta = random_cosheaf(rng, omega)
        c = cosheafify(theta)
        ok = ok and bool(is_cosheaf(c.cosheaf, exhaustive=True))
        # the counit is an isometric iso exactly when theta is a cosheaf
        eps_iso = True
        for e in omega.elements():
            eps = c.counit[e]
            if eps.source.dim != eps.target.dim:
                eps_iso = False
                continue
            if eps.source.dim == 0:
                continue
            inv = invert(eps.matrix)
            if inv is None or operator_norm(eps) > 1:
                eps_iso = False
                continue
            back = LinMap.from_matrix(eps.target, eps.source, tuple(tuple(r) for r in inv))
            if operator_norm(back) > 1:
                eps_iso = False
        ok = ok and eps_iso == bool(is_cosheaf(theta))
        # universal property: a map from a cosheaf factors uniquely
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
        ok = ok and lifted.check_natural()
        for e in omega.elements():
            ok = ok and (c.counit[e] @ lifted.components[e]).matrix == tau.components[e].matrix
        ok = ok and count_factorizations(c, tau) == 0
        checked += 1
    report(f"8 cosheafification adjunction on {checked} random precosheaves",
           ok, time.monotonic() - t0, 10.0)


def test_criterion_9_bva_cosheaf():
    t0 = time.monotonic()
    rng = random.Random(90)
    ok = True
    for n in range(1, 5):
        omega = alg(n)
        for dim in (1, 3):
            b = rnd_space(rng, dim, tag="b")
            bva = bva_cosheaf(omega, b)
            for e in omega.nonzero_elements():
                for part in partitions_of(omega, e):
                    if len(part) < 2:
                        continue
                    eps = partition_map(bva, e, part)
                    inv = invert(eps.matrix)
                    if inv is None or operator_norm(eps) > 1:
                        ok = False
                        continue
                    back = LinMap.from_matrix(eps.target, eps.source,
                                              tuple(tuple(r) for r in inv))
                    ok = ok and operator_norm(back) <= 1
            if not ok:
                break
        if not ok:
            break
    # the universal map into bva closes the evaluation triangle exactly
    omega = alg(3)
    b = sum_space(["u"], [F(1)])
    theta = random_cosheaf(rng, omega)
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
            out = out.add(atom_rows[1 << i] @ cosheaf_projection(theta, e, 1 << i))
        tau[e] = out
    induced = constant_universal_map(theta, tau, b)
    ok = ok and induced.check_natural()
    for e in omega.nonzero_elements():
        ev = bva_evaluation(omega, induced.target, e, b)
        ok = ok and (ev @ induced.components[e]).matrix == tau[e].matrix
    report("9 bounded-variation cosheaf: partition isometries + universal map",
           ok, time.monotonic() - t0, 5.0)


def test_criterion_10_negative_controls():
    t0 = time.monotonic()
    omega = alg(2)
    theta = constant_precosheaf(omega, sum_space(["u"]))
    verdict = is_cosheaf(theta)
    ok = (not verdict) and verdict.failing_blocks is not None \
        and len(verdict.failing_blocks) == 2
    mu = MeasureAlgebra.from_values(omega, [0, 1])
    q = null_quotient(mu)
    unsupported = VectorMeasure.scalar(omega, [1, 1])
    ok = ok and factor_through(q, unsupported) is None
    supported = VectorMeasure.scalar(omega, [0, 5])
    ok = ok and factor_through(q, supported) is not None
    report("10 negative controls (constant precosheaf, unsupported measure)",
           ok, time.monotonic() - t0, 1.0)


def test_criterion_11_cli_determinism():
    t0 = time.monotonic()

    def run(*args):
        return subprocess.run([sys.executable, "-m", "catmeas.cli", *args],
                              capture_output=True, text=True)

    first = run("verify-all", "--model", str(MODELS / "reference.json"),
                "--seed", "11", "--format", "structured")
    second = run("verify-all", "--model", str(MODELS / "reference.json"),
                 "--seed", "11", "--format", "structured")
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    broken = run("verify-all", "--model", str(MODELS / "broken_cosheaf.json"),
                 "--seed", "11", "--format", "structured")
    ok = ok and broken.returncode == 1
    payload = json.loads(broken.stdout)
    ok = ok and payload["verdicts"]["cosheaf[bad]"]["ok"] is False
    report("11 CLI determinism and exit codes", ok, time.monotonic() - t0, 60.0)
