"""Exact rational linear algebra.

Matrices are lists of rows of Fractions.  Everything here is elimination
or pivoting over Q, so results are exact; there is no floating point in
the package at all.

`rref` takes and returns dense rows, but eliminates on sparse rows
({column: value} dicts) with a column -> rows index, so it never touches
a zero: the hom systems it solves are mostly zeros.  Its pivot choice
(the sparsest eligible row, after Markowitz) differs from textbook
Gauss-Jordan, yet the result does not: the reduced row echelon form of a
matrix and its pivot columns are unique.

The simplex solver is deliberately small: minimise c.x subject to
Ax = b, x >= 0, with Bland's anti-cycling rule.  All the linear programs
in this package are norm minimisations over polytopes, which are always
feasible and bounded, but the solver reports infeasible/unbounded anyway.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Vec = Sequence[Fraction]
Mat = Sequence[Sequence[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(n: int) -> list[Fraction]:
    return [ZERO] * n


def identity(n: int) -> list[list[Fraction]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def rref(a: Mat) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    if not a:
        return [], []
    rows, cols = len(a), len(a[0])
    sparse = [{j: x for j, x in enumerate(row) if x} for row in a]
    holders: list[set[int]] = [set() for _ in range(cols)]  # column -> rows nonzero there
    for i, row in enumerate(sparse):
        for j in row:
            holders[j].add(i)
    unused = set(range(rows))
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for c in range(cols):
        eligible = holders[c] & unused
        if not eligible:
            continue
        p = min(eligible, key=lambda i: (len(sparse[i]), i))
        inv = ONE / sparse[p][c]
        prow = sparse[p] = {j: x * inv for j, x in sparse[p].items()}
        for i in holders[c] - {p}:
            row = sparse[i]
            f = row[c]
            for j, y in prow.items():
                x = row.get(j, ZERO) - f * y
                if x:
                    row[j] = x
                    holders[j].add(i)
                else:
                    del row[j]
                    holders[j].discard(i)
        unused.discard(p)
        pivot_rows.append(p)
        pivots.append(c)
        if not unused:
            break
    m = [[sparse[p].get(j, ZERO) for j in range(cols)] for p in pivot_rows]
    m += [[ZERO] * cols for _ in range(rows - len(pivots))]
    return m, pivots


def solve_linear(a: Mat, b: Vec) -> Optional[list[Fraction]]:
    """One solution of Ax = b, or None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [list(a[i]) + [b[i]] for i in range(rows)]
    m, pivots = rref(aug)
    for row in m:
        if all(x == 0 for x in row[:cols]) and row[cols] != 0:
            return None
    x = zeros(cols)
    for i, c in enumerate(pivots):
        if c == cols:
            return None
        x[c] = m[i][cols]
    return x


def nullspace(a: Mat) -> list[list[Fraction]]:
    """Basis of the kernel of A."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return identity(cols)
    m, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = zeros(cols)
        v[f] = ONE
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        basis.append(v)
    return basis


def invert(a: Mat) -> Optional[list[list[Fraction]]]:
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert needs a square matrix")
    aug = [list(a[i]) + identity(n)[i] for i in range(n)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


class _Infeasible(Exception):
    pass


class _Unbounded(Exception):
    pass


def _pivot(t: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = ONE / t[row][col]
    t[row] = [x * inv for x in t[row]]
    for i in range(len(t)):
        if i != row and t[i][col] != 0:
            f = t[i][col]
            t[i] = [x - f * y for x, y in zip(t[i], t[row])]
    basis[row] = col


def _run_simplex(t: list[list[Fraction]], basis: list[int], cost: list[Fraction],
                 ncols: int) -> list[Fraction]:
    """Minimise cost over the tableau t (rows = constraints, last col = rhs).

    Returns the reduced-cost row at optimality; pivots with Bland's rule.
    """
    m = len(t)
    while True:
        # reduced costs r_j = c_j - c_B . B^-1 A_j
        red = list(cost[:ncols])
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                for j in range(ncols):
                    if t[i][j] != 0:
                        red[j] -= cb * t[i][j]
        enter = next((j for j in range(ncols) if red[j] < 0), None)
        if enter is None:
            return red
        leave, best = None, None
        for i in range(m):
            if t[i][enter] > 0:
                ratio = t[i][ncols] / t[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise _Unbounded()
        _pivot(t, basis, leave, enter)


def simplex_min(c: Vec, a: Mat, b: Vec) -> tuple[Fraction, list[Fraction]]:
    """Minimise c.x subject to Ax = b, x >= 0.  Returns (value, x)."""
    m = len(a)
    n = len(c)
    if m == 0:
        return ZERO, zeros(n)
    rows = [list(a[i]) + [b[i]] for i in range(m)]
    for i in range(m):
        if rows[i][-1] < 0:
            rows[i] = [-x for x in rows[i]]
    # phase 1: artificial variables n .. n+m-1
    t = [rows[i][:-1] + [ONE if j == i else ZERO for j in range(m)] + [rows[i][-1]]
         for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1_cost = zeros(n) + [ONE] * m
    _run_simplex(t, basis, phase1_cost, n + m)
    value1 = sum((phase1_cost[basis[i]] * t[i][-1] for i in range(m)), ZERO)
    if value1 != 0:
        raise _Infeasible("constraints are infeasible")
    # drive remaining artificials out of the basis when possible
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if t[i][j] != 0), None)
            if col is None:
                drop.append(i)  # redundant constraint
            else:
                _pivot(t, basis, i, col)
    for i in sorted(drop, reverse=True):
        del t[i]
        del basis[i]
    # phase 2 on original columns only
    t = [row[:n] + [row[-1]] for row in t]
    phase2_cost = list(c)
    _run_simplex(t, basis, phase2_cost, n)
    x = zeros(n)
    for i, bi in enumerate(basis):
        x[bi] = t[i][-1]
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return value, x


def min_weighted_l1_over_affine(
    weights: Vec, target: Vec, span: Mat
) -> Fraction:
    """min over t of sum_i w_i |target_i - (span^T t)_i|.

    `span` rows are the spanning vectors being subtracted; this is the
    distance of `target` to their span in the weighted l1 norm.
    """
    n = len(target)
    k = len(span)
    if n == 0:
        return ZERO
    # variables: r+ (n), r- (n), t+ (k), t- (k)
    # constraints: r+ - r- + span^T t+ - span^T t- = target
    nv = 2 * n + 2 * k
    cost = [weights[i] for i in range(n)] + [weights[i] for i in range(n)] + zeros(2 * k)
    rows = []
    for i in range(n):
        row = zeros(nv)
        row[i] = ONE
        row[n + i] = -ONE
        for r in range(k):
            row[2 * n + r] = span[r][i]
            row[2 * n + k + r] = -span[r][i]
        rows.append(row)
    value, _ = simplex_min(cost, rows, list(target))
    return value
