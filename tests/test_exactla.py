"""Elimination and simplex checks, with brute-force oracles on small instances,
and a differential test of the sparse rref against dense Gauss-Jordan."""

import random
from fractions import Fraction

from catmeas.exactla import (identity, invert, min_weighted_l1_over_affine, nullspace, rref,
                             simplex_min, solve_linear)

from oracles import mat_mul, rank

F = Fraction


def dense_rref(a):
    """Textbook dense Gauss-Jordan (first nonzero row pivots): the oracle."""
    m = [list(row) for row in a]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = F(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def random_rational(rng, density):
    if rng.random() >= density:
        return F(0)
    return F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7)))


def random_matrices(rng, count):
    """Seeded rational matrices of every shape the differential test needs."""
    yield []
    yield [[]]
    yield [[F(0)] * 4 for _ in range(3)]
    for _ in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        density = rng.choice((0.1, 0.3, 0.6, 1.0))
        kind = rng.choice(("plain", "repeated", "low-rank"))
        if kind == "low-rank":
            k = rng.randint(0, min(rows, cols))
            left = [[random_rational(rng, density) for _ in range(k)] for _ in range(rows)]
            right = [[random_rational(rng, density) for _ in range(cols)] for _ in range(k)]
            a = mat_mul(left, right) if k else [[F(0)] * cols for _ in range(rows)]
        else:
            a = [[random_rational(rng, density) for _ in range(cols)] for _ in range(rows)]
            if kind == "repeated":
                for i in range(rows):
                    if rng.random() < 0.5:
                        src = rng.randrange(rows)
                        a[i] = [rng.choice((1, -2, F(1, 3))) * x for x in a[src]]
        yield a


def test_rref_matches_dense_gauss_jordan():
    rng = random.Random(2009)
    seen = set()
    for a in random_matrices(rng, 400):
        got, pivots = rref(a)
        want, want_pivots = dense_rref(a)
        assert got == want and pivots == want_pivots, a
        assert all(isinstance(x, Fraction) for row in got for x in row)
        if a and a[0]:
            rows, cols = len(a), len(a[0])
            seen.add("tall" if rows > cols else "wide" if rows < cols else "square")
            if len(pivots) < min(rows, cols):
                seen.add("rank-deficient")
    assert seen == {"tall", "wide", "square", "rank-deficient"}


def test_rref_pivots():
    m, pivots = rref([[F(1), F(2)], [F(2), F(4)]])
    assert pivots == [0]
    assert m[0] == [F(1), F(2)]


def test_solve_and_nullspace_consistency():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        x = [F(rng.randint(-3, 3)) for _ in range(cols)]
        b = [sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)]
        sol = solve_linear(a, b)
        assert sol is not None
        again = [sum(a[i][j] * sol[j] for j in range(cols)) for i in range(rows)]
        assert again == b
        for v in nullspace(a):
            image = [sum(a[i][j] * v[j] for j in range(cols)) for i in range(rows)]
            assert all(x == 0 for x in image)
        assert rank(a) + len(nullspace(a)) == cols


def test_invert_round_trip():
    a = [[F(2), F(1)], [F(5), F(3)]]
    inv = invert(a)
    assert mat_mul(a, inv) == identity(2)
    assert invert([[F(1), F(2)], [F(2), F(4)]]) is None


def test_simplex_matches_vertex_enumeration():
    # min c.x st Ax=b, x>=0 on random feasible instances; oracle checks
    # the simplex value is attained and no sampled feasible point beats it
    rng = random.Random(11)
    for _ in range(15):
        n, m = 4, 2
        a = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        x_feas = [F(rng.randint(0, 3)) for _ in range(n)]
        b = [sum(a[i][j] * x_feas[j] for j in range(n)) for i in range(m)]
        c = [F(rng.randint(0, 4)) for _ in range(n)]
        value, x = simplex_min(c, a, b)
        assert all(xi >= 0 for xi in x)
        assert [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)] == b
        assert sum(c[j] * x[j] for j in range(n)) == value
        assert value <= sum(c[j] * x_feas[j] for j in range(n))


def test_weighted_l1_distance_to_span():
    w = [F(1), F(1)]
    # distance of e1 to span{(1,1)} in l1: |1-t|+|t| has minimum 1
    d = min_weighted_l1_over_affine(w, [F(1), F(0)], [[F(1), F(1)]])
    assert d == 1
    # and to the empty span it is just the norm
    d0 = min_weighted_l1_over_affine(w, [F(3), F(-2)], [])
    assert d0 == 5


def test_weighted_l1_distance_brute_force():
    rng = random.Random(3)
    for _ in range(10):
        n = 3
        w = [F(rng.randint(1, 3)) for _ in range(n)]
        target = [F(rng.randint(-3, 3)) for _ in range(n)]
        span = [[F(rng.randint(-2, 2)) for _ in range(n)]]
        got = min_weighted_l1_over_affine(w, target, span)
        # coarse rational grid around the optimum cannot do better
        best = min(
            sum(w[i] * abs(target[i] - F(t, 4) * span[0][i]) for i in range(n))
            for t in range(-40, 41))
        assert got <= best
        assert got >= 0
