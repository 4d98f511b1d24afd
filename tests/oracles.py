"""Independent oracles that only the tests use.

Each one recomputes by the textbook route what the library computes by a
shortcut: dense matrix products and ranks, the vertices of a dual unit
ball, and the semivariation as an explicit sup over partitions.  They
live here, not in `src/`, so that they stay independent of the code
under test.
"""

import itertools
from fractions import Fraction

from catmeas.boolalg import partitions_of
from catmeas.exactla import rref

ZERO, ONE = Fraction(0), Fraction(1)


def mat_mul(a, b):
    """The dense triple-sum product of two lists of rows."""
    if not a:
        return []
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(cols)]
            for i in range(len(a))]


def rank(a) -> int:
    return len(rref(a)[1])


def dual_extreme_functionals(space):
    """Vertices of the dual unit ball of a space, as coordinate
    functionals phi with pairing phi . v: phi_i = s_i w_i on one block of
    `dual_vertex_blocks` for a sign pattern s, zero elsewhere.  Raises
    ResourceLimit at the call, as `dual_vertex_blocks` does."""
    blocks = space.dual_vertex_blocks()

    def duals():
        for g in blocks:
            for signs in itertools.product((ONE, -ONE), repeat=len(g)):
                phi = [ZERO] * space.dim
                for s, i in zip(signs, g):
                    phi[i] = s * space.weights[i]
                yield tuple(phi)
    return duals()


def semivariation_bruteforce(nu, e: int, functionals) -> Fraction:
    """Explicit sup over all partitions of e and the supplied dual
    vectors.  Never exceeds `measures.semivariation`."""
    if e == 0:
        return ZERO
    best = ZERO
    for part in partitions_of(nu.algebra, e):
        for phi in functionals:
            total = ZERO
            for block in part.blocks:
                val = nu(block)
                total += abs(sum((phi[k] * val[k] for k in range(len(phi))), ZERO))
            if total > best:
                best = total
    return best
