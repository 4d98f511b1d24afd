"""Weighted l1/sup spaces: norms, exact operator norms, direct sums,
projective tensor with its LP oracle, LP quotients, coends and ends."""

import dataclasses
import functools
import importlib
import itertools
import pkgutil
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import catmeas
from catmeas import exactla, finban
from catmeas.boolalg import (BoolAlg, BoolMorphism, build_algebra, coproduct, quotient_by_null,
                             stone_space)
from catmeas.errors import (FlavorMismatch, Frozen, FrozenInstanceError, InvalidModel,
                            NotAFunctor, ResourceLimit)
from catmeas.finban import (BifunctorData, EndResult, FinBanSpace, FinPoset, Flavor,
                            IsoWitness, LinMap, basis_vec, coend, direct_sum, end,
                            is_isometric_iso, operator_norm, projective_tensor, quotient,
                            scalars, sum_space, sup_space, vec, zero_space)
from catmeas.measures import MeasureAlgebra, VectorMeasure
from catmeas.shcosh import (HomSolution, LawCheck, PreCosheaf, PreSheaf, Verdict,
                            _BlockLayout)
from catmeas.simple import VectorSimpleElement, bochner, characteristic, fubini

from oracles import (coend_relations_by_basis_vectors, contractive_both_ways,
                     dual_extreme_functionals, end_constraints_by_offsets,
                     isometric_monomial_by_fractions, norm_by_fractions,
                     operator_norm_by_vertices, path_independent_by_enumeration,
                     projective_norm_oracle)

F = Fraction


def rnd_q(rng, span=4, denom=3):
    return F(rng.randint(-span, span), rng.randint(1, denom))


def rnd_pos(rng, span=3, denom=3):
    return F(rng.randint(1, span), rng.randint(1, denom))


def rnd_space(rng, dim, flavor):
    mk = sum_space if flavor is Flavor.SUM else sup_space
    return mk([f"e{i}" for i in range(dim)], [rnd_pos(rng) for _ in range(dim)])


def rnd_groups(rng, dim):
    """A random partition of range(dim) into nonempty blocks."""
    idx = list(range(dim))
    rng.shuffle(idx)
    groups = []
    while idx:
        k = rng.randint(1, len(idx))
        groups.append(tuple(sorted(idx[:k])))
        idx = idx[k:]
    return tuple(groups)


def rnd_map(rng, src, tgt):
    return LinMap.from_matrix(src, tgt, tuple(
        tuple(rnd_q(rng) for _ in range(src.dim)) for _ in range(tgt.dim)))


def rnd_contraction(rng, src, tgt):
    # enriched functors act by contractions; rescale to norm <= 1
    t = rnd_map(rng, src, tgt)
    n = operator_norm(t)
    return t if n <= 1 else t.scale(F(1) / n)


# -- norms -------------------------------------------------------------------

def test_norm_axioms_random():
    rng = random.Random(0)
    for flavor in (Flavor.SUM, Flavor.SUP):
        for _ in range(40):
            s = rnd_space(rng, rng.randint(1, 4), flavor)
            v = tuple(rnd_q(rng) for _ in range(s.dim))
            w = tuple(rnd_q(rng) for _ in range(s.dim))
            k = rnd_q(rng)
            assert s.norm([a + b for a, b in zip(v, w)]) <= s.norm(v) + s.norm(w)
            assert s.norm([k * a for a in v]) == abs(k) * s.norm(v)
            assert s.norm(v) >= 0
            assert (s.norm(v) == 0) == all(x == 0 for x in v)


def test_compose_matches_naive_triple_sum():
    rng = random.Random(57)
    dims = (0, 0, 1, 2, 3, 5)
    for trial in range(200):
        a, b, c = (rng.choice(dims) for _ in range(3))
        x, y, z = (rnd_space(rng, d, rng.choice(list(Flavor))) for d in (a, b, c))
        inner, outer = rnd_map(rng, x, y), rnd_map(rng, y, z)
        if trial % 2:  # sparse matrices, as compose mostly sees
            inner, outer = (LinMap.from_matrix(t.source, t.target, tuple(
                tuple(q if rng.random() < 0.25 else F(0) for q in row) for row in t.matrix))
                for t in (inner, outer))
        got = outer.compose(inner)
        want = tuple(
            tuple(sum((outer.matrix[i][k] * inner.matrix[k][j] for k in range(b)), F(0))
                  for j in range(a))
            for i in range(c))
        assert (got.source, got.target) == (x, z)
        assert got.matrix == want
        assert all(isinstance(q, Fraction) for row in got.matrix for q in row)


def test_is_identity_checks_every_entry():
    """Against the entrywise definition, on the identity with one entry
    changed anywhere, on non-square maps and on the 0-dim map."""
    rng = random.Random(59)
    for d in range(4):
        space = rnd_space(rng, d, Flavor.SUM)
        ident = LinMap.identity(space)
        assert ident.is_identity() and ident.matrix == tuple(
            tuple(F(int(i == j)) for j in range(d)) for i in range(d))
        for i, j in itertools.product(range(d), repeat=2):
            rows = [list(row) for row in ident.matrix]
            rows[i][j] += F(1, 2)
            assert not LinMap.from_matrix(space, space, tuple(map(tuple, rows))).is_identity()
        other = rnd_space(rng, d + 1, Flavor.SUM)
        assert not LinMap.zero(space, other).is_identity()


def square_cases(rng):
    """(kind, rows) for square matrices of size 0 to 5: signed and
    weighted permutations (monomial), monomial ones with a zero row,
    permutations with one extra entry and random dense ones."""
    for k in range(240):
        d = k % 6
        kind = ("signed", "weighted", "zero_row", "extra", "dense")[k // 6 % 5]
        if kind == "dense":
            yield kind, [[rnd_q(rng) for _ in range(d)] for _ in range(d)]
            continue
        rows = [[F(0)] * d for _ in range(d)]
        for j, i in enumerate(rng.sample(range(d), d)):
            size = F(1) if kind == "signed" else rnd_pos(rng)
            rows[i][j] = size * rng.choice((1, -1))
        if kind == "zero_row" and d:
            rows[rng.randrange(d)] = [F(0)] * d
        if kind == "extra" and d >= 2:
            i = rng.randrange(d)
            j = rng.choice([j for j in range(d) if not rows[i][j]])
            rows[i][j] = rnd_pos(rng)
        yield kind, rows


def test_monomial_inverse_matches_the_rref_oracle(monkeypatch):
    """A square matrix with one nonzero per row and per column inverts in
    closed form, without `exactla.invert`; every other one goes through
    it.  `exactla.invert` is the oracle for both."""
    oracle, calls = exactla.invert, []
    monkeypatch.setattr(exactla, "invert", lambda a: calls.append(a) or oracle(a))
    rng = random.Random(67)
    seen = set()
    for kind, rows in square_cases(rng):
        d = len(rows)
        src, tgt = rnd_space(rng, d, Flavor.SUM), rnd_space(rng, d, Flavor.SUP)
        calls.clear()
        got = LinMap.from_matrix(src, tgt, tuple(map(tuple, rows))).inverse()
        closed_form = all(sum(1 for x in line if x) == 1
                          for line in rows + [list(col) for col in zip(*rows)])
        assert bool(calls) != closed_form, (kind, rows)
        want = oracle(rows) if d else []
        if want is None:
            assert got is None, (kind, rows)
        else:
            assert (got.source, got.target) == (tgt, src)
            assert got.matrix == tuple(map(tuple, want)), (kind, rows)
        seen.add((kind, d > 0, want is None))
    assert {("signed", True, False), ("weighted", True, False), ("zero_row", True, True),
            ("extra", True, False), ("dense", True, False), ("signed", False, False)} <= seen
    wide = LinMap.zero(rnd_space(rng, 2, Flavor.SUM), rnd_space(rng, 3, Flavor.SUM))
    assert wide.inverse() is None


def assert_canonical(t):
    """The stored form: one tuple per target row of (column, value)
    pairs, columns strictly increasing and in range, no zero value."""
    assert isinstance(t.rows, tuple) and len(t.rows) == t.target.dim
    for row in t.rows:
        assert isinstance(row, tuple)
        cols = [j for j, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= j < t.source.dim for j in cols)
        assert all(x != 0 for _, x in row)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(*[st.integers(0, 4)] * 3), seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from([0.0, 0.25, 0.6, 1.0]))
def test_sparse_core_matches_the_dense_oracles(dims, seed, density):
    """compose, add, scale, inverse, transpose, __call__ and the tests
    is_zero / is_identity against dense arithmetic on `.matrix`, with the
    triple-sum product and the rref inverse as oracles, over shapes with
    0-dimensional source, middle or target; == and hash are entrywise
    equality, `.matrix` round-trips, and every result is stored in the
    canonical form."""
    rng = random.Random(seed)
    a, b, c = dims
    x, y, z = (rnd_space(rng, d, rng.choice(list(Flavor))) for d in (a, b, c))

    def sparse_map(src, tgt):
        return LinMap.from_matrix(src, tgt, [[rnd_q(rng) if rng.random() < density else F(0)
                                              for _ in range(src.dim)] for _ in range(tgt.dim)])

    inner, outer, other = sparse_map(x, y), sparse_map(y, z), sparse_map(y, z)
    k = rng.choice([F(0), F(1), rnd_q(rng)])
    results = {
        "compose": (outer @ inner, tuple(
            tuple(sum((outer.matrix[i][m] * inner.matrix[m][j] for m in range(b)), F(0))
                  for j in range(a)) for i in range(c))),
        "add": (outer.add(other), tuple(tuple(p + q for p, q in zip(r, s))
                                        for r, s in zip(outer.matrix, other.matrix))),
        "scale": (outer.scale(k), tuple(tuple(k * p for p in r) for r in outer.matrix)),
        "transpose": (outer.transpose(), tuple(zip(*outer.matrix)) if c else ((),) * b),
    }
    for name, (got, want) in results.items():
        assert got.matrix == want, name
        assert all(isinstance(q, Fraction) for row in got.matrix for q in row), name
        assert_canonical(got)
    assert (results["compose"][0].source, results["compose"][0].target) == (x, z)
    for t in (inner, outer, other):
        assert_canonical(t)
        assert LinMap.from_matrix(t.source, t.target, t.matrix) == t
        assert LinMap.from_columns(t.source, t.target,
                                   [t.column(j) for j in range(t.source.dim)]) == t
        assert t.transpose().transpose() == t
        assert t.is_zero() == all(q == 0 for row in t.matrix for q in row)
        assert t.is_identity() == (t.source.dim == t.target.dim and t.matrix == tuple(
            tuple(F(int(i == j)) for j in range(t.source.dim)) for i in range(t.target.dim)))
        v = [rnd_q(rng) for _ in range(t.source.dim)]
        assert t(v) == tuple(sum((p * q for p, q in zip(row, v)), F(0)) for row in t.matrix)
    # == and hash are entrywise equality of the dense views, whatever
    # route built the map, cancellations included
    assert (outer == other) == (outer.matrix == other.matrix)
    back = outer.add(other).add(other.scale(F(-1)))
    assert back == outer and hash(back) == hash(outer)
    twin = LinMap.from_columns(y, z, [outer.column(j) for j in range(b)])
    assert twin == outer and hash(twin) == hash(outer)
    if a == c:
        square = sparse_map(x, z)
        want = exactla.invert(square.matrix) if a else []
        got = square.inverse()
        assert (got is None) == (want is None)
        if got is not None:
            assert got.matrix == tuple(map(tuple, want))
            assert_canonical(got)


def isometry_oracle(m, norm):
    """Invertible with both m and its inverse contractive, decided by the
    inverse and two operator norms."""
    back = m.inverse()
    return back is not None and norm(m) <= 1 and norm(back) <= 1


def rnd_blocked(rng, dim):
    """A SUP space with a random block structure (a plain SUP space when
    every block is a singleton)."""
    idx = list(range(dim))
    rng.shuffle(idx)
    groups = []
    while idx:
        k = rng.randint(1, len(idx))
        groups.append(tuple(sorted(idx[:k])))
        idx = idx[k:]
    return FinBanSpace(tuple(f"e{i}" for i in range(dim)),
                       tuple(rnd_pos(rng) for _ in range(dim)), Flavor.SUP, tuple(groups))


def isometry_cases(rng):
    """(kind, map): signed weighted permutations with weights matched to
    isometry or with one weight off, between SUM, SUP and blocked spaces,
    with blocks carried onto blocks or scrambled; 0-dim and non-square
    maps; monomial maps with a zero column; non-monomial ones, two of
    them isometric."""
    for k in range(600):
        kind = ("matched", "mismatched", "zero_col", "non_square", "dense", "extra")[k % 6]
        d = k // 6 % 5
        flavor = rng.choice(["sum", "sup", "blocked", "mixed"])
        src = {"sum": rnd_space(rng, d, Flavor.SUM), "sup": rnd_space(rng, d, Flavor.SUP),
               "blocked": rnd_blocked(rng, d), "mixed": rnd_space(rng, d, Flavor.SUM)}[flavor]
        perm = rng.sample(range(d), d)
        coeff = [rnd_pos(rng) * rng.choice((1, -1)) for _ in range(d)]
        weights = [F(0)] * d
        for j in range(d):
            weights[perm[j]] = src.weights[j] / abs(coeff[j])
        if kind == "mismatched" and d:
            weights[rng.randrange(d)] *= rng.choice((F(1, 2), F(3, 2)))
        # the image of each source block, scrambled half the time
        groups = None if flavor != "blocked" else tuple(
            tuple(sorted(perm[j] for j in g)) for g in src.effective_groups())
        if src.flavor is Flavor.SUP and rng.random() < 0.5:
            groups = rnd_blocked(rng, d).groups
        tgt_flavor = Flavor.SUP if flavor == "mixed" else src.flavor
        tgt = FinBanSpace(tuple(f"t{i}" for i in range(d)), tuple(weights), tgt_flavor,
                          groups if tgt_flavor is Flavor.SUP else None)
        rows = [[F(0)] * d for _ in range(d)]
        for j in range(d):
            rows[perm[j]][j] = coeff[j]
        if kind == "zero_col" and d:
            for row in rows:
                row[rng.randrange(d)] = F(0)
        if kind == "extra" and d >= 2:
            i = rng.randrange(d)
            rows[i][rng.choice([j for j in range(d) if not rows[i][j]])] = rnd_q(rng) or F(1)
        if kind == "dense":
            rows = [[rnd_q(rng, 1, 2) for _ in range(d)] for _ in range(d)]
        if kind == "non_square":
            tgt = FinBanSpace(tgt.basis + ("extra",), tgt.weights + (F(1),), tgt.flavor)
            rows.append([F(0)] * d)
        yield kind, LinMap.from_matrix(src, tgt, rows)
    # l1 and sup norms agree in dimension 2 up to (x, y) |-> (x + y, x - y)
    hadamard = ((F(1), F(1)), (F(1), F(-1)))
    yield "hadamard", LinMap.from_matrix(sum_space("ab"), sup_space("uv"), hadamard)
    yield "hadamard", LinMap.from_matrix(sup_space("uv"), sum_space("ab"),
                                         [[x / 2 for x in row] for row in hadamard])


def unit_coefficient_cases(rng):
    """(kind, map): signed permutations, every coefficient +-1, between
    SUM, SUP or blocked SUP spaces of one flavor, blocks carried onto
    blocks, with the weights equal along the permutation ("unit_equal")
    or one target weight off ("unit_unequal"); the |c| = 1 comparison of
    the closed form meets both answers."""
    for k in range(120):
        kind = ("unit_equal", "unit_unequal")[k % 2]
        flavor = ("sum", "sup", "blocked")[k // 2 % 3]
        d = 1 + k // 6 % 4
        src = (rnd_blocked(rng, d) if flavor == "blocked" else
               rnd_space(rng, d, Flavor.SUM if flavor == "sum" else Flavor.SUP))
        perm = rng.sample(range(d), d)
        weights = [F(0)] * d
        for j in range(d):
            weights[perm[j]] = src.weights[j]
        if kind == "unit_unequal":
            weights[rng.randrange(d)] *= rng.choice((F(1, 2), F(3, 2)))
        groups = None if flavor != "blocked" else tuple(
            tuple(sorted(perm[j] for j in g)) for g in src.effective_groups())
        tgt = FinBanSpace(tuple(f"t{i}" for i in range(d)), tuple(weights), src.flavor, groups)
        rows = [[F(0)] * d for _ in range(d)]
        for j in range(d):
            rows[perm[j]][j] = rng.choice((F(1), F(-1)))
        yield kind, LinMap.from_matrix(src, tgt, rows)


def test_closed_form_isometry_matches_inverse_and_norms(monkeypatch):
    """`is_isometric_iso` against the inverse plus two operator norms:
    monomial maps are decided without a single operator norm, +-1
    coefficients included, and so is any other map between unblocked
    spaces of one flavor; an invertible one with blocks or between the
    two flavors falls back to that route."""
    oracle_norm, calls = finban.operator_norm, []
    monkeypatch.setattr(finban, "operator_norm", lambda t: calls.append(t) or oracle_norm(t))
    seen = set()
    cases = itertools.chain(isometry_cases(random.Random(71)),
                            unit_coefficient_cases(random.Random(72)))
    for kind, m in cases:
        calls.clear()
        want = isometry_oracle(m, oracle_norm)
        assert is_isometric_iso(m) == want, (kind, m)
        monomial = all(sum(1 for x in line if x) <= 1
                       for line in m.matrix + tuple(zip(*m.matrix)))
        blocked_or_two_flavors = m.source.groups is not None or m.target.groups is not None \
            or m.source.flavor is not m.target.flavor
        assert bool(calls) == (not monomial and m.inverse() is not None
                               and blocked_or_two_flavors), (kind, m)
        seen.add((kind, m.source.flavor.value, m.target.flavor.value,
                  m.target.groups is not None, monomial, want))
    assert {("matched", "sum", "sum", False, True, True),
            ("mismatched", "sum", "sum", False, True, False),
            ("matched", "sup", "sup", False, True, True),
            ("mismatched", "sup", "sup", False, True, False),
            ("matched", "sup", "sup", True, True, True),
            ("matched", "sup", "sup", True, True, False),
            ("matched", "sum", "sup", False, True, True),
            ("matched", "sum", "sup", False, True, False),
            ("zero_col", "sum", "sum", False, True, False),
            ("non_square", "sum", "sum", False, True, False),
            ("dense", "sum", "sum", False, False, False),
            ("hadamard", "sum", "sup", False, False, True),
            ("hadamard", "sup", "sum", False, False, True)} <= seen
    for flavor, blocked in (("sum", False), ("sup", False), ("sup", True)):
        assert {("unit_equal", flavor, flavor, blocked, True, True),
                ("unit_unequal", flavor, flavor, blocked, True, False)} <= seen


def test_int_closed_form_matches_the_fraction_comparison():
    """`_isometric_monomial` compares |c| w' = w as one int product against
    another; the oracle compares Fractions.  Random monomial entries,
    some with c = +-w/w' so that they match, some with a column left out,
    some with a coefficient off by a factor; with block ids carried onto
    blocks, scrambled, or left out."""
    rng = random.Random(73)
    seen = set()
    for k in range(4000):
        d = k % 6
        sw = [rnd_pos(rng, 5, 4) for _ in range(d)]
        tw = [rnd_pos(rng, 5, 4) for _ in range(d)]
        perm = rng.sample(range(d), d)
        entries = []
        for j in range(d):
            i = perm[j]
            c = sw[j] / tw[i] if rng.random() < 0.8 else rnd_pos(rng, 5, 4)
            c = -c if rng.random() < 0.5 else c
            entries.append((j, i, c))
        if d and k % 5 == 0:
            j, i, c = entries[rng.randrange(d)]
            entries[j] = (j, i, c * rng.choice((F(1, 2), F(3, 2), F(-1))))
        if d and k % 7 == 0:
            del entries[rng.randrange(d)]
        blocks = None
        if k % 3:
            sb = [rng.randrange(d) for _ in range(d)]
            tb = [0] * d
            for j in range(d):
                tb[perm[j]] = sb[j]
            if k % 3 == 2 and d:
                tb[rng.randrange(d)] = rng.randrange(d)
            blocks = (sb, tb)
        rng.shuffle(entries)
        want = isometric_monomial_by_fractions(entries, sw, tw, blocks)
        assert finban._isometric_monomial(entries, sw, tw, blocks) == want, (entries, sw, tw)
        seen.add((blocks is not None, want))
    assert seen == {(b, w) for b in (True, False) for w in (True, False)}


def split_oracle(legs, stacked):
    """Whether the map made of the legs is an isometric isomorphism, on
    the built map: its dense matrix (the legs' columns side by side, or
    their rows stacked) between the whole and the direct sum of the
    parts, inverted by rref and decided by `contractive_both_ways`.
    False when the parts differ in flavor, so that `direct_sum` raises
    FlavorMismatch: there is no sum to map out of or into."""
    parts = [leg.target if stacked else leg.source for leg in legs]
    whole = legs[0].source if stacked else legs[0].target
    try:
        summed = direct_sum(parts).space
    except FlavorMismatch:
        return False
    if stacked:
        m = LinMap.from_matrix(whole, summed, [row for leg in legs for row in leg.matrix])
    else:
        m = LinMap.from_matrix(summed, whole, [sum((leg.matrix[i] for leg in legs), ())
                                               for i in range(whole.dim)])
    inv = exactla.invert(m.matrix) if m.source.dim == m.target.dim else None
    return inv is not None and contractive_both_ways(
        m, LinMap.from_matrix(m.target, m.source, inv))


def split_legs_cases(rng):
    """(flavors, shape, stacked, legs): 1 to 3 parts of SUM, SUP or blocked
    SUP spaces, of SUM spaces into a SUP whole, or of mixed flavors, and
    a whole; the map between their direct sum and the whole is a signed
    permutation with |c| w' = w (matched), one such coefficient off by a
    factor (scaled), a random dense matrix, or a 2 x 2 (+-1, +-1) matrix
    with entries h or h/2; the whole's blocks are the summed blocks
    carried along the permutation or random.  Cut into one leg per part:
    columns side by side, or rows stacked."""
    for k in range(3000):
        stacked = k % 2 == 1
        flavors = ("sum", "sup", "blocked", "sum_into_sup", "mixed")[k // 2 % 5]
        shape = rng.choice(("matched", "matched", "scaled", "dense", "hadamard"))
        dims = [2] if shape == "hadamard" else [rng.randint(0, 2)
                                                for _ in range(rng.randint(1, 3))]
        if shape == "hadamard" and rng.random() < 0.5:
            dims = [1, 1]
        unit = shape == "hadamard" and rng.random() < 0.5
        parts = []
        for d in dims:
            kind = rng.choice(("sum", "sup", "blocked")) if flavors == "mixed" else flavors
            part = rnd_blocked(rng, d) if kind == "blocked" else rnd_space(
                rng, d, Flavor.SUP if kind == "sup" else Flavor.SUM)
            parts.append(FinBanSpace(part.basis, (F(1),) * d, part.flavor, part.groups)
                         if unit else part)
        total = sum(dims)
        perm = rng.sample(range(total), total)
        flavor = Flavor.SUM if flavors in ("sum", "mixed") else Flavor.SUP
        groups = None
        if flavors == "sum_into_sup":
            groups = rng.choice((((tuple(range(total)),) if total else ()), None))
        elif flavors == "blocked" or flavors == "sup" and rng.random() < 0.3:
            summed = direct_sum(parts).space
            groups = tuple(tuple(sorted(perm[j] for j in g)) for g in summed.effective_groups())
            if rng.random() < 0.3:
                groups = rnd_groups(rng, total)
        weights = [F(1) if unit else rnd_pos(rng) for _ in range(total)]
        whole = FinBanSpace(tuple(f"w{i}" for i in range(total)), tuple(weights), flavor, groups)
        part_weights = [w for part in parts for w in part.weights]
        # rows of the map into its target, over the columns of its source
        rows = [[F(0)] * total for _ in range(total)]
        if shape in ("matched", "scaled"):
            # summed coordinate j goes to, or comes from, whole coordinate perm[j]
            for j in range(total):
                c = rng.choice((1, -1)) * part_weights[j] / weights[perm[j]]
                if stacked:
                    rows[j][perm[j]] = 1 / c
                else:
                    rows[perm[j]][j] = c
            if shape == "scaled" and total:
                j = rng.randrange(total)
                i, col = (j, perm[j]) if stacked else (perm[j], j)
                rows[i][col] *= rng.choice((F(1, 2), F(2)))
        elif shape == "dense":
            rows = [[rnd_q(rng, 2, 2) for _ in range(total)] for _ in range(total)]
        else:
            h = rng.choice((F(1), F(1, 2)))
            rows = [[h, h], [h, -h]]
        if rng.random() < 0.1 and total:
            whole = FinBanSpace(whole.basis[:-1], whole.weights[:-1], flavor)
            rows = [row[:-1] for row in rows] if stacked else rows[:-1]
        legs, off = [], 0
        for part in parts:
            if stacked:
                legs.append(LinMap.from_matrix(whole, part, rows[off:off + part.dim]))
            else:
                legs.append(LinMap.from_matrix(part, whole, [row[off:off + part.dim]
                                                             for row in rows]))
            off += part.dim
        yield flavors, shape, stacked, legs


def test_isometric_split_matches_the_built_map():
    """The one isometry decision against the built map's inverse and two
    operator norms, over random legs in both orientations: SUM, SUP and
    blocked SUP parts, SUM parts into a SUP whole, where their sum is one
    block, and parts of mixed flavor, which fail exactly when they differ
    in flavor and `direct_sum` raises.  Each orientation meets both
    verdicts on monomial and on other maps, and parts of two flavors on
    both kinds of map."""
    seen = set()
    for flavors, shape, stacked, legs in split_legs_cases(random.Random(79)):
        want = split_oracle(legs, stacked)
        assert finban._isometric_split(legs, stacked) == want, (flavors, shape, stacked, legs)
        monomial = finban._monomial_data(legs, stacked) is not None
        parts = [leg.target if stacked else leg.source for leg in legs]
        if len({part.flavor for part in parts}) > 1:
            flavors = "two_flavors"
        seen.add((stacked, flavors, monomial, want))
    for stacked in (False, True):
        for flavors in ("sum", "sup", "blocked", "sum_into_sup"):
            assert {(stacked, flavors, True, True), (stacked, flavors, True, False),
                    (stacked, flavors, False, False)} <= seen, (stacked, flavors)
        assert {(stacked, "blocked", False, True), (stacked, "sum_into_sup", False, True),
                (stacked, "two_flavors", True, False), (stacked, "two_flavors", False, False),
                (stacked, "mixed", True, True)} <= seen, stacked


def test_dim_is_stored_outside_equality_hash_and_repr():
    """`dim` is set once from the basis: spaces built on different paths
    compare and hash equal, == and hash read the four declared fields,
    the repr shows those only, and `dim` is neither a parameter nor
    assignable."""
    direct = FinBanSpace(("x", "y"), (F(1), F(2, 3)), Flavor.SUM)
    helper = sum_space(["x", "y"], [1, F(4, 6)])
    keyword = FinBanSpace(basis=("x", "y"), weights=(F(1), F(2, 3)), flavor=Flavor.SUM,
                          groups=None)
    summed = direct_sum([sum_space(["x"]), sum_space(["y"], [F(2, 3)])]).space
    relabelled = FinBanSpace(("x", "y"), summed.weights, summed.flavor, summed.groups)
    for s in (helper, keyword, relabelled):
        assert s == direct and hash(s) == hash(direct) and s.dim == 2
    assert repr(direct) == ("FinBanSpace(basis=('x', 'y'), weights=(Fraction(1, 1), "
                            "Fraction(2, 3)), flavor=<Flavor.SUM: 'sum'>, groups=None)")
    assert FinBanSpace._key(direct) == (direct.basis, direct.weights, Flavor.SUM, None)
    assert FinBanSpace(("x", "y", "z"), direct.weights + (F(1),), Flavor.SUM).dim == 3
    with pytest.raises(TypeError):
        FinBanSpace(("x",), (F(1),), Flavor.SUM, dim=5)
    with pytest.raises(FrozenInstanceError):
        direct.dim = 5


def alg(*atoms):
    return BoolAlg(tuple(sorted(atoms)))


def _fill_cached(x):
    """Read every cached_property of x's class; return their names."""
    names = [n for c in type(x).__mro__ for n, v in vars(c).items()
             if isinstance(v, functools.cached_property)]
    for n in names:
        getattr(x, n)
    return names


# class, fields (a fresh dict of equal values on each call), one differing
# value per compared field, and what fills state that == does not see
VALUE_CLASSES = [
    (BoolAlg, lambda: {"atoms": ("a", "b")}, {"atoms": ("a", "c")}, _fill_cached),
    (BoolMorphism,
     lambda: {"source": alg("a", "b"), "target": alg("p", "q"), "atom_images": (1, 2)},
     {"source": alg("a", "c"), "target": alg("p", "r"), "atom_images": (2, 1)},
     None),
    (FinBanSpace,
     lambda: {"basis": ("x", "y"), "weights": (F(1), F(2)), "flavor": Flavor.SUP,
              "groups": None},
     {"basis": ("x", "z"), "weights": (F(1), F(3)), "flavor": Flavor.SUM,
      "groups": ((0, 1),)},
     _fill_cached),
    (LinMap, lambda: {"source": sum_space(["x", "y"]), "target": sum_space(["z"]),
                      "rows": (((0, F(1)),),)},
     {"source": sum_space(["x", "y"], [1, 2]), "target": sup_space(["z"]),
      "rows": (((1, F(1)),),)},
     _fill_cached),
    (VectorMeasure, lambda: {"algebra": alg("a", "b"), "target": scalars(),
                             "atom_values": ((F(1),), (F(2),))},
     {"algebra": alg("a", "c"), "target": scalars("t"),
      "atom_values": ((F(1),), (F(3),))},
     _fill_cached),
    (Verdict, lambda: {"ok": False, "failing_element": 3, "failing_blocks": (1, 2),
                       "reason": "r"},
     {"ok": True, "failing_element": 1, "failing_blocks": (3,), "reason": "s"}, None),
    (LawCheck, lambda: {"law": "P_a P_a = P_a", "at": "a", "row": 1},
     {"law": "sum_a P_a = I", "at": "b", "row": 2}, None),
    (HomSolution, lambda: {"dim": 1, "basis": ((F(1),),), "offsets": {0: 0},
                           "shapes": {0: (1, 1)}},
     {"dim": 2, "basis": ((F(2),),), "offsets": {0: 1}, "shapes": {0: (1, 2)}}, None),
    (PreCosheaf, lambda: {"algebra": alg("a"), "spaces": {0: zero_space(), 1: scalars()},
                          "maps": {(0, 1): LinMap.zero(zero_space(), scalars())}},
     {"algebra": alg("b"), "spaces": {0: zero_space(), 1: scalars("t")},
      "maps": {(0, 1): LinMap.zero(zero_space(), scalars("t"))}},
     lambda x: (x.extension(0, 1), setattr(x, "layout", _BlockLayout((1,), x.spaces, True)))),
]


@pytest.mark.parametrize("cls, fields, differ, outside", VALUE_CLASSES,
                         ids=[row[0].__name__ for row in VALUE_CLASSES])
def test_value_classes_compare_their_fields(cls, fields, differ, outside):
    """Instances built apart from equal fields are equal and, when frozen,
    hash equal; a change to any one compared field makes them unequal;
    state outside == (cached properties, `_Assignment.layout` and
    `_walks`) does not count."""
    x, y = cls(**fields()), cls(**fields())
    assert x is not y and x == y and not x != y and x == x
    if outside is not None:
        outside(x)
    assert x == y and y == x
    if issubclass(cls, Frozen) or cls is FinBanSpace:
        assert hash(x) == hash(y)
    else:
        with pytest.raises(TypeError):
            hash(x)
    for name, value in differ.items():
        other = cls(**{**fields(), name: value})
        assert x != other and other != x and not x == other, name
    assert x != object() and x != fields()


def test_assignments_of_two_variances_differ():
    data = {"algebra": alg("a"), "spaces": {0: zero_space(), 1: scalars()},
            "maps": {(0, 1): LinMap.zero(zero_space(), scalars())}}
    assert PreCosheaf(**data) == PreCosheaf(**data) and PreCosheaf(**data) != PreSheaf(**data)


def _frozen_instances():
    omega, s = alg("a", "b"), sum_space(["x"])
    cop = coproduct(omega, omega)
    mu = MeasureAlgebra.from_values(omega, [1, 2])
    f = VectorSimpleElement(omega, s, ((F(1),), (F(0),)))
    diag = direct_sum([s, s])
    return [omega, BoolMorphism.identity(omega),
            stone_space(omega), build_algebra([1, 2], [[1]]), cop,
            quotient_by_null(omega, ["a"]), s, LinMap.identity(s),
            IsoWitness.from_permutation(s, s, [0]), diag, projective_tensor(s, s),
            quotient(sum_space(["x", "y"]), [[F(1), F(-1)]]), FinPoset.chain(["p", "q"]),
            EndResult(FinPoset.discrete(["p"]), diag, diag.space, (), LinMap.identity(s)),
            mu.mu, mu, Verdict(True), LawCheck(), characteristic(omega, 1), f, bochner(f, mu),
            fubini(characteristic(cop.algebra, 1), cop, mu, mu)]


def test_frozen_classes_refuse_assignment_and_fill_cached_properties():
    """Every frozen class raises FrozenInstanceError, an AttributeError,
    on assigning or deleting a field or a new attribute, and still fills
    its cached properties."""
    assert issubclass(FrozenInstanceError, AttributeError)
    instances = _frozen_instances()
    assert len({type(x) for x in instances}) == len(instances) == 22
    for x in instances:
        field = next(iter(vars(x)))
        for name in (field, "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(x, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(x, name)
        for name in _fill_cached(x):
            assert name in vars(x), (type(x).__name__, name)


def test_no_catmeas_class_is_a_dataclass():
    """Generated methods cost start-up: every class is written out."""
    found = []
    for info in pkgutil.iter_modules(catmeas.__path__):
        module = importlib.import_module(f"catmeas.{info.name}")
        found += [f"{info.name}.{name}" for name, v in vars(module).items()
                  if isinstance(v, type) and v.__module__ == module.__name__
                  and dataclasses.is_dataclass(v)]
    assert found == []


def test_permutation_witness_matches_its_definition():
    rng = random.Random(61)
    for d, image in [(d, [(j + 1) % d for j in range(d)]) for d in range(5)] + [
            (d, rng.sample(range(d), d)) for d in range(5)]:
        a, b = rnd_space(rng, d, Flavor.SUM), rnd_space(rng, d, Flavor.SUM)
        wit = IsoWitness.from_permutation(a, b, image)
        for j in range(d):
            assert wit.forward.column(j) == b.basis_vector(image[j])
            assert wit.backward.column(image[j]) == a.basis_vector(j)
        assert wit.is_valid()


def test_witness_isometry_matches_contractive_both_ways():
    """`IsoWitness.is_isometric` decides a permutation witness through
    `is_isometric_iso`, in closed form; against the two operator norms,
    over SUM, SUP and blocked SUP spaces with weights matched along the
    permutation or drawn at random, blocks carried onto blocks or not."""
    rng = random.Random(67)
    outcomes = set()
    for k in range(3000):
        d = k % 5
        flavor = rng.choice(["sum", "sup", "blocked"])
        src = rnd_blocked(rng, d) if flavor == "blocked" else rnd_space(
            rng, d, Flavor.SUM if flavor == "sum" else Flavor.SUP)
        image = rng.sample(range(d), d)
        weights = [rnd_pos(rng) for _ in range(d)]
        if k % 2:
            for j in range(d):
                weights[image[j]] = src.weights[j]
        groups = None
        if flavor == "blocked":
            groups = (tuple(tuple(sorted(image[j] for j in g)) for g in src.effective_groups())
                      if k % 4 < 2 else rnd_blocked(rng, d).groups)
        tgt = FinBanSpace(tuple(f"t{i}" for i in range(d)), tuple(weights), src.flavor, groups)
        wit = IsoWitness.from_permutation(src, tgt, image)
        want = wit.is_valid() and contractive_both_ways(wit.forward, wit.backward)
        assert wit.is_isometric() == want, (src, tgt, image)
        outcomes.add((flavor, want))
    assert outcomes == {(f, w) for f in ("sum", "sup", "blocked") for w in (True, False)}


def test_sum_norm_value():
    s = sum_space(["a", "b"])
    assert s.norm(vec(1, -2)) == 3


def test_blocked_sup_norm():
    s = FinBanSpace(("a", "b", "c"), (F(1), F(1), F(2)), Flavor.SUP,
                    groups=((0, 1), (2,)))
    assert s.norm(vec(1, 1, 0)) == 2
    assert s.norm(vec(0, 0, 3)) == 6


def test_norm_matches_fraction_sums():
    """`FinBanSpace.norm` (over one common denominator, in ints) against
    the Fraction sums, on SUM, plain SUP and blocked SUP spaces of dim
    0-5, with Fraction and int entries and zero vectors."""
    rng = random.Random(17)
    for _ in range(150):
        dim = rng.randint(0, 5)
        flavor = rng.choice(("sum", "sup", "blocked"))
        s = rnd_space(rng, dim, Flavor.SUM if flavor == "sum" else Flavor.SUP)
        if flavor == "blocked" and dim:
            s = FinBanSpace(s.basis, s.weights, s.flavor, rnd_groups(rng, dim))
        for v in ([rnd_q(rng, denom=rng.choice((1, 7))) for _ in range(dim)],
                  [rng.randint(-5, 5) for _ in range(dim)], [0] * dim, s.zero()):
            assert s.norm(v) == norm_by_fractions(s, v), (s, v)


# -- operator norms ----------------------------------------------------------

def test_operator_norm_column_rule():
    s = sum_space(["a", "b"])
    t = LinMap.from_matrix(s, s, ((F(1), F(2)), (F(3), F(4))))
    assert operator_norm(t) == 6


def test_operator_norm_identity_and_zero():
    s = sum_space(["a", "b", "c"])
    assert operator_norm(LinMap.identity(s)) == 1
    assert operator_norm(LinMap.zero(s, s)) == 0


def test_operator_norm_matches_extreme_point_oracle():
    rng = random.Random(1)
    for src_flavor in (Flavor.SUM, Flavor.SUP):
        for tgt_flavor in (Flavor.SUM, Flavor.SUP):
            for _ in range(20):
                src = rnd_space(rng, rng.randint(1, 3), src_flavor)
                tgt = rnd_space(rng, rng.randint(1, 3), tgt_flavor)
                t = rnd_map(rng, src, tgt)
                assert operator_norm(t) == operator_norm_by_vertices(t)


def test_vertex_caps_raise_resource_limit():
    """The unit ball of a 13-dim SUP space has 2^13 > 4096 vertices, the
    dual ball of a 17-dim SUM space 2^17 > 65536; one dimension less is
    within each cap.  Both raise before any vertex is produced."""
    with pytest.raises(ResourceLimit, match="too-large"):
        sup_space([f"e{j}" for j in range(13)]).ball_extreme_points()
    assert len(list(sup_space([f"e{j}" for j in range(12)]).ball_extreme_points())) == 4096
    wide = sum_space([f"e{j}" for j in range(17)])
    for call in (wide.dual_vertex_blocks, lambda: dual_extreme_functionals(wide)):
        with pytest.raises(ResourceLimit, match="too-large"):
            call()
    assert sum_space([f"e{j}" for j in range(16)]).dual_vertex_blocks() == (tuple(range(16)),)
    assert issubclass(ResourceLimit, FlavorMismatch) and ResourceLimit.code == "too-large"


def test_blocked_sup_dual_ball_is_capped_per_block():
    """A block of g coordinates carries 2^g dual vertices: one block of 17
    is past DUAL_BALL_CAP = 65536, one of 16 is within it."""
    def blocked(width):
        dim = width + 3
        return FinBanSpace(tuple(f"e{j}" for j in range(dim)), (F(1),) * dim, Flavor.SUP,
                           (tuple(range(width)), (width,), (width + 1, width + 2)))

    with pytest.raises(ResourceLimit, match="too-large"):
        blocked(17).dual_vertex_blocks()
    assert blocked(16).dual_vertex_blocks()[0] == tuple(range(16))
    # plain SUP spaces have singleton blocks, however wide
    assert len(sup_space([f"e{j}" for j in range(40)]).dual_vertex_blocks()) == 40


def test_sup_space_rejects_empty_group():
    # an empty block would carry no dual vertex and no unit-ball choice
    with pytest.raises(InvalidModel, match="nonempty"):
        FinBanSpace(("u", "v"), (Fraction(1), Fraction(1)), Flavor.SUP, ((0, 1), ()))


def test_monomial_norm_closed_form_matches_enumeration():
    # monomial maps between blocked sup spaces take a closed-form norm;
    # cross-check it against explicit vertex enumeration on small spaces
    rng = random.Random(17)
    for _ in range(25):
        dim = rng.randint(1, 4)
        src = FinBanSpace(tuple(f"s{i}" for i in range(dim)),
                          tuple(rnd_pos(rng) for _ in range(dim)),
                          Flavor.SUP, rnd_groups(rng, dim))
        tgt = FinBanSpace(tuple(f"t{i}" for i in range(dim)),
                          tuple(rnd_pos(rng) for _ in range(dim)),
                          Flavor.SUP, rnd_groups(rng, dim))
        perm = list(range(dim))
        rng.shuffle(perm)
        cols = []
        for j in range(dim):
            v = [F(0)] * dim
            v[perm[j]] = rnd_q(rng) or F(1)
            cols.append(tuple(v))
        t = LinMap.from_columns(src, tgt, cols)
        assert operator_norm(t) == operator_norm_by_vertices(t)


# weights over pairwise coprime denominators, so the common one is large
COPRIME_WEIGHTS = (F(1, 2), F(2, 3), F(3, 5), F(5, 7), F(7, 11), F(11, 13), F(13, 17))


def test_vertex_kernel_matches_the_vertex_oracle():
    """The integer kernel of operator_norm against the Fraction image of
    every vertex of the source ball, out of SUP and blocked sources of 1-6
    coordinates into SUM, SUP and blocked targets of 0-4 coordinates, with
    zero columns and coprime-denominator weights; each of the six
    source/target pairs reaches the kernel (a non-monomial map)."""
    rng = random.Random(23)
    kernel_runs, empty_targets = [], 0
    for _ in range(300):
        dim = rng.randint(1, 6)
        src = FinBanSpace(tuple(f"s{i}" for i in range(dim)),
                          tuple(rng.choice(COPRIME_WEIGHTS + (rnd_pos(rng),))
                                for _ in range(dim)),
                          Flavor.SUP, rng.choice([None, rnd_groups(rng, dim)]))
        tdim = rng.randint(0, 4)
        weights = tuple(rng.choice(COPRIME_WEIGHTS) for _ in range(tdim))
        labels = tuple(f"t{i}" for i in range(tdim))
        kind = rng.randrange(3)
        tgt = (FinBanSpace(labels, weights, Flavor.SUM),
               FinBanSpace(labels, weights, Flavor.SUP),
               FinBanSpace(labels, weights, Flavor.SUP, rnd_groups(rng, tdim)))[kind]
        zero_cols = set(rng.sample(range(dim), rng.randint(0, dim - 1)))
        t = LinMap.from_matrix(src, tgt, tuple(
            tuple(F(0) if j in zero_cols else rnd_q(rng, denom=rng.choice((1, 5, 9)))
                  for j in range(dim)) for _ in range(tdim)))
        if tdim and finban._monomial_data((t,)) is None:
            kernel_runs.append((src.groups is None, kind))
        empty_targets += tdim == 0
        assert operator_norm(t) == operator_norm_by_vertices(t), (src, tgt, t.rows)
    assert len(kernel_runs) > 150 and len(set(kernel_runs)) == 6 and empty_targets


def test_operator_norm_cap_is_checked_before_any_image(monkeypatch):
    """A map out of a 13-dim SUP space has 2^13 > BALL_CAP source-ball
    vertices: operator_norm raises the unit-ball error before the image
    step, which is made to refuse here; out of a 12-dim space it goes on
    to the image step, and unpatched it takes 2^11 images."""
    def ones(dim):
        return LinMap.from_matrix(sup_space([f"e{j}" for j in range(dim)]), sum_space(["u"]),
                                  ((F(1),) * dim,))

    def refuse(*_):
        raise AssertionError("image step reached")

    with monkeypatch.context() as patch:
        patch.setattr(finban, "_vertex_images", refuse)
        with pytest.raises(ResourceLimit, match="too-large") as raised:
            operator_norm(ones(13))
        with pytest.raises(ResourceLimit) as by_points:
            ones(13).source.ball_extreme_points()
        assert str(raised.value) == str(by_points.value)
        with pytest.raises(AssertionError, match="image step reached"):
            operator_norm(ones(12))
    assert operator_norm(ones(12)) == 12


def test_operator_norm_submultiplicative():
    rng = random.Random(2)
    for _ in range(25):
        a = rnd_space(rng, rng.randint(1, 3), Flavor.SUM)
        b = rnd_space(rng, rng.randint(1, 3), Flavor.SUM)
        c = rnd_space(rng, rng.randint(1, 3), Flavor.SUM)
        t = rnd_map(rng, a, b)
        s = rnd_map(rng, b, c)
        assert operator_norm(s @ t) <= operator_norm(s) * operator_norm(t)


def test_operator_norm_diagonal_equality():
    # submultiplicativity is an equality when the diagonal maxima align
    s = sum_space(["a", "b"])
    d = LinMap.from_matrix(s, s, ((F(2), F(0)), (F(0), F(5))))
    i = LinMap.from_matrix(s, s, ((F(1), F(0)), (F(0), F(3))))
    assert operator_norm(d @ i) == operator_norm(d) * operator_norm(i) == 15


def test_isometric_witness_preserves_norms_pointwise():
    rng = random.Random(3)
    s = sum_space(["a", "b", "c"], [F(1), F(2), F(1, 2)])
    # a signed weight-matched relabelling is an isometry
    perm = [2, 0, 1]
    target = sum_space(["x", "y", "z"], [s.weights[perm.index(i)] for i in range(3)])
    cols = []
    for j in range(3):
        v = [F(0)] * 3
        v[perm[j]] = F(1) if j % 2 == 0 else F(-1)
        cols.append(tuple(v))
    fwd = LinMap.from_columns(s, target, cols)
    inv_cols = []
    for i in range(3):
        j = perm.index(i)
        v = [F(0)] * 3
        v[j] = F(1) if j % 2 == 0 else F(-1)
        inv_cols.append(tuple(v))
    bwd = LinMap.from_columns(target, s, [inv_cols[i] for i in range(3)])
    wit = IsoWitness(fwd, bwd)
    assert wit.is_valid() and wit.is_isometric()
    for _ in range(100):
        v = tuple(rnd_q(rng) for _ in range(3))
        assert target.norm(fwd(v)) == s.norm(v)


# -- direct sums -------------------------------------------------------------

def test_direct_sum_dimensions_and_norm():
    a = sum_space(["a", "b"])
    b = sum_space(["u", "v", "w"])
    ds = direct_sum([a, b])
    assert ds.space.dim == 5
    v = ds.injections[0](vec(1, -2))
    w = ds.injections[1](vec(1, 1, 1))
    assert ds.space.norm([x + y for x, y in zip(v, w)]) == 6


def test_direct_sum_mediation_is_unique_factorisation():
    rng = random.Random(4)
    a = sum_space(["a"])
    b = sum_space(["b"])
    ds = direct_sum([a, b])
    target = sum_space(["t"])
    legs = [rnd_map(rng, a, target), rnd_map(rng, b, target)]
    t = ds.mediate(legs)
    for i, leg in enumerate(legs):
        assert (t @ ds.injections[i]).matrix == leg.matrix
    # the sum map mediates the identity cone with norm one
    ident = [LinMap.identity(a), LinMap.from_matrix(b, a, ((F(1),),))]
    sum_map = ds.mediate(ident)
    assert operator_norm(sum_map) == 1


def test_sup_product_mediation():
    rng = random.Random(5)
    a = sup_space(["a", "b"])
    b = sup_space(["u"])
    ds = direct_sum([a, b])
    source = sup_space(["s", "t"])
    legs = [rnd_map(rng, source, a), rnd_map(rng, source, b)]
    t = ds.mediate(legs)
    for i, leg in enumerate(legs):
        assert (ds.projections[i] @ t).matrix == leg.matrix


@pytest.mark.parametrize("flavor", [Flavor.SUM, Flavor.SUP], ids=["sum", "sup"])
def test_direct_sum_mediate_rejects_what_is_not_a_cone(flavor):
    """Legs leave the summands of a SUM sum and enter the factors of a SUP
    one; a missing leg, legs with two apexes, or a leg at another summand
    is refused."""
    rng = random.Random(6)
    a, b, apex, other = (rnd_space(rng, d, flavor) for d in (1, 2, 2, 3))
    ds = direct_sum([a, b])

    def leg(part, end):
        return rnd_map(rng, part, end) if flavor is Flavor.SUM else rnd_map(rng, end, part)

    t = ds.mediate([leg(a, apex), leg(b, apex)])
    assert (t.source, t.target) == ((ds.space, apex) if flavor is Flavor.SUM else (apex, ds.space))
    for cone, message in (([leg(a, apex)], "one cone leg per summand required"),
                          ([leg(a, apex), leg(b, other)], "cone legs must share an apex"),
                          ([leg(b, apex), leg(b, apex)], "each cone leg must meet its summand")):
        with pytest.raises(InvalidModel, match=message):
            ds.mediate(cone)


def direct_sum_legs_oracle(spaces):
    """The legs as direct_sum used to build them eagerly: injections
    re-wrapped column by column through LinMap.from_columns, projections
    from basis rows, offsets summed here."""
    total = direct_sum(spaces).space
    injections, projections, off = [], [], 0
    for s in spaces:
        injections.append(LinMap.from_columns(
            s, total, [basis_vec(total.dim, off + j) for j in range(s.dim)]))
        projections.append(LinMap.from_matrix(
            total, s, tuple(basis_vec(total.dim, off + i) for i in range(s.dim))))
        off += s.dim
    return tuple(injections), tuple(projections)


def rnd_summand(rng, flavor, blocked):
    """A SUM, SUP or blocked-SUP space of dimension 0-3."""
    dim = rng.randint(0, 3)
    groups = None
    if blocked and dim:
        bounds = [0, *sorted(rng.sample(range(1, dim), rng.randint(0, dim - 1))), dim]
        groups = tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))
    return FinBanSpace(tuple(f"e{i}" for i in range(dim)),
                       tuple(rnd_pos(rng) for _ in range(dim)), flavor, groups)


def check_legs_against_oracle(rng, parts, flavor, blocked):
    spaces = [rnd_summand(rng, flavor, blocked and rng.random() < 0.7) for _ in range(parts)]
    ds = direct_sum(spaces)
    injections, projections = direct_sum_legs_oracle(spaces)
    assert ds.injections == injections
    assert ds.projections == projections
    assert ds.offsets == tuple(sum(s.dim for s in spaces[:k]) for k in range(parts))


def test_direct_sum_legs_match_the_eager_oracle():
    rng = random.Random(11)
    for parts in range(1, 7):
        for flavor, blocked in ((Flavor.SUM, False), (Flavor.SUP, False), (Flavor.SUP, True)):
            for _ in range(8):
                check_legs_against_oracle(rng, parts, flavor, blocked)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(parts=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["sum", "sup", "blocked"]))
def test_direct_sum_legs_property(parts, seed, kind):
    flavor = Flavor.SUM if kind == "sum" else Flavor.SUP
    check_legs_against_oracle(random.Random(seed), parts, flavor, kind == "blocked")


# -- projective tensor -------------------------------------------------------

def test_tensor_dimensions_and_elementary_norm():
    a = sum_space(["a", "b"], [F(2), F(3)])
    b = sum_space(["u", "v", "w"], [F(1, 2), F(1), F(1)])
    tp = projective_tensor(a, b)
    assert tp.space.dim == 6
    e = tp.pure(vec(1, 0), vec(0, 1, 0))
    assert tp.space.norm(e) == F(2)


def test_tensor_norm_equals_lp_oracle_small():
    a = sum_space(["a", "b"])
    b = sum_space(["u"])
    tp = projective_tensor(a, b)
    u = tp.pure(vec(1, 1), vec(1))
    assert tp.space.norm(u) == 2
    assert projective_norm_oracle(a, b, u) == 2


def test_tensor_norm_equals_lp_oracle_random():
    rng = random.Random(6)
    for _ in range(12):
        a = rnd_space(rng, rng.randint(1, 3), Flavor.SUM)
        b = rnd_space(rng, rng.randint(1, 3), Flavor.SUM)
        tp = projective_tensor(a, b)
        u = tuple(rnd_q(rng, 3, 2) for _ in range(tp.space.dim))
        assert tp.space.norm(u) == projective_norm_oracle(a, b, u)


def test_tensor_rejects_sup():
    with pytest.raises(FlavorMismatch):
        projective_tensor(sup_space(["a"]), sum_space(["b"]))


def test_quotient_rejects_sup():
    with pytest.raises(FlavorMismatch):
        quotient(sup_space(["a", "b"]), [vec(1, 0)])


# -- quotients ----------------------------------------------------------------

def test_quotient_coordinate_kill():
    a = sum_space(["a", "b"])
    q = quotient(a, [vec(1, 0)])
    assert q.space.dim == 1
    assert q.class_norm(vec(3, 2)) == 2


def test_quotient_diagonal_line():
    a = sum_space(["a", "b"])
    q = quotient(a, [vec(1, 1)])
    assert q.class_norm(vec(1, 0)) == 1
    assert q.projection_norm() <= 1


def test_quotient_by_nothing_is_identity():
    a = sum_space(["a", "b"])
    q = quotient(a, [])
    assert q.space.dim == 2
    assert q.projection.is_identity()
    rng = random.Random(7)
    for _ in range(10):
        v = tuple(rnd_q(rng) for _ in range(2))
        assert q.class_norm(v) == a.norm(v)


def test_quotient_norm_is_exact_on_rays_and_subadditive():
    rng = random.Random(8)
    for _ in range(10):
        a = rnd_space(rng, 3, Flavor.SUM)
        rels = [tuple(rnd_q(rng) for _ in range(3))]
        q = quotient(a, rels)
        for j in range(q.space.dim):
            ray = q.space.basis_vector(j)
            assert q.norm(ray) == q.space.weights[j]
        if q.space.dim >= 2:
            v = tuple(rnd_q(rng) for _ in range(q.space.dim))
            assert q.norm(v) <= q.space.norm(v)
    # full span gives the zero space
    a = sum_space(["a", "b"])
    q = quotient(a, [vec(1, 0), vec(0, 1)])
    assert q.space.dim == 0


# -- coends and ends ---------------------------------------------------------

def discrete_bifunctor(spaces):
    """F(a, b) = spaces[b] with no arrows (only the diagonal matters)."""
    index = FinPoset.discrete(list(spaces))

    def space(x, y):
        return spaces[y]

    def left(f, y):
        raise AssertionError("no arrows")

    def right(x, f):
        raise AssertionError("no arrows")

    return BifunctorData(index, space, left, right)


def test_coend_over_discrete_is_direct_sum():
    spaces = {"a": sum_space(["a0", "a1"]), "b": sum_space(["b0", "b1", "b2"])}
    res = coend(discrete_bifunctor(spaces))
    assert res.space.dim == 5
    assert res.check_wedge()


def yoneda_bifunctor(index, target_obj, f_spaces, f_maps):
    """H(x, y) = hom(x, target) (x) F(y) over a thin index: hom is a line
    when x <= target, zero otherwise; H takes the flavor of F."""
    zero = zero_space(f_spaces[target_obj].flavor)

    def space(x, y):
        return f_spaces[y] if index.leq(x, target_obj) else zero

    def left(arrow, y):
        src = space(arrow[1], y)
        tgt = space(arrow[0], y)
        if src.dim and tgt.dim:
            return LinMap.from_matrix(src, tgt, LinMap.identity(src).matrix)
        return LinMap.zero(src, tgt)

    def right(x, arrow):
        src = space(x, arrow[0])
        tgt = space(x, arrow[1])
        if src.dim == 0:
            return LinMap.zero(src, tgt)
        return LinMap.from_matrix(src, tgt, f_maps[arrow].matrix)

    return BifunctorData(index, space, left, right)


def chain_functor(rng, index, dims):
    spaces = {o: rnd_space(rng, dims[o], Flavor.SUM) for o in index.objects}
    maps = {}
    for arrow in index.arrows:
        maps[arrow] = rnd_contraction(rng, spaces[arrow[0]], spaces[arrow[1]])
    return spaces, maps


def test_coend_yoneda_reduction_on_chain():
    # coend of hom(-, end_of_chain) (x) F(-) over a 2-chain recovers F there
    rng = random.Random(9)
    for _ in range(8):
        index = FinPoset.chain(["0", "1"])
        spaces, maps = chain_functor(rng, index, {"0": rng.randint(1, 3), "1": rng.randint(1, 3)})
        res = coend(yoneda_bifunctor(index, "1", spaces, maps))
        assert res.space.dim == spaces["1"].dim
        assert res.check_wedge()
        # the wedge at the target object must be an isometric isomorphism
        # onto F(target) for the true quotient norm
        eta = res.wedges["1"]
        import catmeas.exactla as exactla
        inv = exactla.invert(eta.matrix)
        assert inv is not None
        back = LinMap.from_matrix(res.space, spaces["1"], tuple(tuple(r) for r in inv))
        assert res.quotient.norm_of_map_into(eta) <= 1
        assert operator_norm(back @ res.quotient.projection) <= 1


def level_functor(rng, index, levels, dims, flavor=Flavor.SUM):
    """A functor on a thin index that factors through a chain of levels,
    guaranteeing path independence on posets with parallel paths."""
    depth = max(levels.values()) + 1
    chain_spaces = [rnd_space(rng, dims, flavor) for _ in range(depth)]
    steps = [rnd_contraction(rng, chain_spaces[i], chain_spaces[i + 1])
             for i in range(depth - 1)]
    spaces = {o: chain_spaces[levels[o]] for o in index.objects}
    maps = {}
    for a, b in index.arrows:
        m = LinMap.identity(spaces[a])
        for i in range(levels[a], levels[b]):
            m = steps[i] @ m
        maps[(a, b)] = m
    return spaces, maps


SMALL_POSETS = [
    (FinPoset.discrete(["a", "b", "c"]), {"a": 0, "b": 0, "c": 0}),
    (FinPoset.chain(["0", "1", "2"]), {"0": 0, "1": 1, "2": 2}),
    (FinPoset.chain(["0", "1", "2", "3"]), {"0": 0, "1": 1, "2": 2, "3": 3}),
    (FinPoset(("0", "a", "b", "1"),
              (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1"))),
     {"0": 0, "a": 1, "b": 1, "1": 2}),  # diamond: two parallel paths
    (FinPoset(("0", "a", "b"), (("0", "a"), ("0", "b"))), {"0": 0, "a": 1, "b": 1}),
    (FinPoset(("a", "b", "1"), (("a", "1"), ("b", "1"))), {"a": 0, "b": 0, "1": 1}),
]


def test_coend_yoneda_reduction_all_small_posets():
    # hom(-, b) (x) F(-) has coend F(b), isometrically, on every shape
    rng = random.Random(21)
    import catmeas.exactla as exactla
    for index, levels in SMALL_POSETS:
        spaces, maps = level_functor(rng, index, levels, rng.randint(1, 2))
        for target_obj in index.objects:
            res = coend(yoneda_bifunctor(index, target_obj, spaces, maps))
            assert res.space.dim == spaces[target_obj].dim
            assert res.check_wedge()
            eta = res.wedges[target_obj]
            if eta.source.dim == 0:
                continue
            inv = exactla.invert(eta.matrix)
            assert inv is not None
            back = LinMap.from_matrix(res.space, spaces[target_obj], tuple(tuple(r) for r in inv))
            assert res.quotient.norm_of_map_into(eta) <= 1
            assert operator_norm(back @ res.quotient.projection) <= 1


def yoneda_cases(rng, flavor):
    """hom(-, t) (x) F(-) of the flavor on chains of 2-4 objects and on the
    diamond, V and inverted V, at every t: F's values have dim 0-2, and
    hom(x, t) is zero unless x <= t."""
    chains = [FinPoset.chain([str(i) for i in range(n)]) for n in (2, 3, 4)]
    shapes = [(c, {o: i for i, o in enumerate(c.objects)}) for c in chains] + SMALL_POSETS[3:]
    for index, levels in shapes:
        spaces, maps = level_functor(rng, index, levels, rng.randint(0, 2), flavor)
        for target_obj in index.objects:
            yield yoneda_bifunctor(index, target_obj, spaces, maps)


def test_coend_relations_and_end_constraints_match_their_oracles():
    """The relations of coend are the columns of one map difference per
    arrow and the constraints of end the rows of one, in the order the
    vector-by-vector and offset loops wrote them."""
    rng = random.Random(29)
    seen = set()
    for _ in range(3):
        for bif in yoneda_cases(rng, Flavor.SUM):
            want = [r for r in coend_relations_by_basis_vectors(bif) if any(r)]
            assert list(coend(bif).quotient.relations) == want
            seen.add(("coend", bool(want)))
        for bif in yoneda_cases(rng, Flavor.SUP):
            res, rows = end(bif), end_constraints_by_offsets(bif)
            basis = exactla.nullspace(rows) if rows else [
                basis_vec(res.diagonal.space.dim, i) for i in range(res.diagonal.space.dim)]
            assert list(res.vectors) == [tuple(v) for v in basis]
            seen.add(("end", bool(rows)))
    assert seen == {(kind, some) for kind in ("coend", "end") for some in (True, False)}


def test_coend_rejects_non_functorial_input():
    index = FinPoset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    s = sum_space(["e"])
    spaces = {o: s for o in index.objects}
    maps = {("a", "b"): LinMap.identity(s), ("b", "c"): LinMap.identity(s),
            ("a", "c"): LinMap.identity(s).scale(F(2))}
    with pytest.raises(NotAFunctor):
        coend(yoneda_bifunctor(index, "c", spaces, maps))


def scaled_line_bifunctor(index, bad, side):
    """F(x, y) a line for every pair, both actions the identity except
    the `side` action ("left" or "right") of the arrow `bad`, doubled."""
    line = sum_space(["e"])

    def action(f, on):
        return LinMap.identity(line).scale(F(2) if on == side and f == bad else F(1))
    return BifunctorData(index, lambda x, y: line, lambda f, y: action(f, "left"),
                         lambda x, f: action(f, "right"))


SQUARE = FinPoset(("0", "a", "b", "1"), (("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")))
SHORTCUT = FinPoset(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))


@pytest.mark.parametrize("index,bad", [(SQUARE, ("b", "1")), (SHORTCUT, ("a", "c"))],
                         ids=["square", "shortcut"])
@pytest.mark.parametrize("side,message", [("left", "contravariant action is path dependent"),
                                          ("right", "covariant action is path dependent")],
                         ids=["left", "right"])
def test_bifunctor_rejects_a_path_dependent_action(index, bad, side, message):
    """A square that does not commute, or a shortcut a -> c that differs
    from a -> b -> c, in one action only; the other action passes."""
    with pytest.raises(NotAFunctor, match=message):
        scaled_line_bifunctor(index, bad, side).validate()
    scaled_line_bifunctor(index, None, side).validate()


def test_path_independence_matches_path_enumeration():
    """The last-arrow induction against composing every path, on random
    posets of 1-5 objects listed out of order, both variances, and on a
    square that commutes in one variance only; the arrow maps are drawn
    from a few 2 x 2 matrices, not all commuting."""
    rng = random.Random(68)
    plane = sum_space(["e", "f"])
    eye, swap, diag, twist, shear = (LinMap.from_matrix(plane, plane, m) for m in (
        ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 2)), ((0, 1), (2, 0)), ((1, 1), (0, 1))))
    # twist = diag swap, while swap diag differs
    cases = [(SQUARE, {("0", "a"): twist, ("a", "1"): eye, ("0", "b"): swap, ("b", "1"): diag})]
    for _ in range(300):
        objects = tuple(f"o{i}" for i in range(rng.randint(1, 5)))
        ranked = rng.sample(objects, len(objects))  # arrows go up this order only
        arrows = tuple((ranked[i], ranked[j]) for i in range(len(ranked))
                       for j in range(i + 1, len(ranked)) if rng.random() < 0.5)
        cases.append((FinPoset(objects, arrows), {
            f: rng.choice((eye, eye, swap, diag, twist, shear)) for f in arrows}))
    outcomes = set()
    for index, maps in cases:
        for covariant in (True, False):
            want = path_independent_by_enumeration(index, maps.__getitem__, covariant)
            assert index.path_independent(maps.__getitem__, covariant) == want, (index, covariant)
            outcomes.add((covariant, want))
    assert outcomes == {(c, w) for c in (True, False) for w in (True, False)}
    square, maps = cases[0]
    assert path_independent_by_enumeration(square, maps.__getitem__)
    assert not path_independent_by_enumeration(square, maps.__getitem__, covariant=False)


def test_end_over_discrete_is_product():
    spaces = {"a": sup_space(["a0", "a1"]), "b": sup_space(["b0"])}
    index = FinPoset.discrete(["a", "b"])

    def space(x, y):
        return spaces[y]

    res = end(BifunctorData(index, space, None, None))
    assert res.space.dim == 3
    assert res.inclusion.is_identity()


def test_end_of_chain_is_equalizer():
    # F(x, y) = line for every pair, actions identity: the end of the
    # 2-chain is the diagonal line
    line = sup_space(["1"])
    index = FinPoset.chain(["0", "1"])

    def space(x, y):
        return line

    def left(arrow, y):
        return LinMap.identity(line)

    def right(x, arrow):
        return LinMap.identity(line)

    res = end(BifunctorData(index, space, left, right))
    assert res.space.dim == 1
    v = res.vectors[0]
    assert v[0] == v[1]
