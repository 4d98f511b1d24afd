"""Finitely additive scalar and vector measures on finite Boolean algebras.

A measure is stored on atoms, so finite additivity is a representation
invariant rather than a property to check: evaluation at an element is
summation over the atoms below it.  The calculus on atoms (evaluation,
variation, semivariation, the Lipschitz norm) runs in Python ints, on
the atom values over one common denominator and the target's weights
over theirs, and builds one Fraction per reported number.
"""

from __future__ import annotations

import functools
from operator import attrgetter
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .boolalg import BoolAlg, BoolMorphism, Coproduct, NullQuotient, quotient_by_null
from .errors import AlgebraMismatch, FieldEq, Frozen, InvalidModel
from .exactla import ZERO
from .finban import FinBanSpace, Vector, _over_common_denominator, scalars, vec_scale, zero_vec


class VectorMeasure(Frozen, FieldEq):
    """Finitely additive map from an algebra into a FinBanSpace; equal
    when algebra, target and atom values are."""

    def __init__(self, algebra: BoolAlg, target: FinBanSpace,
                 atom_values: tuple[Vector, ...]):  # one target vector per atom
        if len(atom_values) != algebra.n:
            raise InvalidModel("one value per atom required")
        if any(len(v) != target.dim for v in atom_values):
            raise InvalidModel("atom values must live in the target space")
        self.__dict__.update(algebra=algebra, target=target, atom_values=atom_values)

    _key = attrgetter("algebra", "target", "atom_values")

    @functools.cached_property
    def _int_values(self) -> tuple[list[list[int]], int]:
        """The atom values over one common denominator, (rows, D) with
        rows[i][k] = D atom_values[i][k]; built on first read and kept
        outside == and hash."""
        return _over_common_denominator(self.atom_values)

    def __call__(self, e: int) -> Vector:
        self.algebra.check_element(e)
        rows, den = self._int_values
        below = [rows[i] for i in self.algebra.atom_indices(e)]
        if not below:
            return zero_vec(self.target.dim)
        return tuple(Fraction(sum(col), den) for col in zip(*below))

    def scale(self, k: Fraction) -> "VectorMeasure":
        return VectorMeasure(self.algebra, self.target,
                             tuple(vec_scale(k, v) for v in self.atom_values))

    def null_atoms(self) -> tuple[str, ...]:
        return tuple(a for a, v in zip(self.algebra.atoms, self.atom_values)
                     if all(x == 0 for x in v))

    def is_scalar(self) -> bool:
        return self.target.dim == 1

    @staticmethod
    def scalar(algebra: BoolAlg, values: Sequence) -> "VectorMeasure":
        return VectorMeasure(algebra, scalars(),
                             tuple((Fraction(v),) for v in values))


class MeasureAlgebra(Frozen):
    """An algebra with a nonnegative bounded scalar measure."""

    def __init__(self, algebra: BoolAlg, mu: VectorMeasure):
        if mu.algebra != algebra:
            raise AlgebraMismatch("measure lives on a different algebra")
        if not mu.is_scalar():
            raise InvalidModel("a measure algebra needs a scalar measure")
        if any(v[0] < 0 for v in mu.atom_values):
            raise InvalidModel("a measure algebra needs a nonnegative measure")
        self.__dict__.update(algebra=algebra, mu=mu)

    def value(self, e: int) -> Fraction:
        return self.mu(e)[0]

    def atom_value(self, atom_index: int) -> Fraction:
        return self.mu.atom_values[atom_index][0]

    @staticmethod
    def from_values(algebra: BoolAlg, values: Sequence) -> "MeasureAlgebra":
        return MeasureAlgebra(algebra, VectorMeasure.scalar(algebra, values))


def variation(nu: VectorMeasure, e: int) -> Fraction:
    """sup over partitions of sum ||nu(F)||; the finest partition wins, so
    this is the sum of atom value norms below e.  With the atom values
    over D and the weights over D', each norm is an int over D D'."""
    nu.algebra.check_element(e)
    rows, den = nu._int_values
    norm = nu.target._int_norm
    return Fraction(sum(norm(rows[i]) for i in nu.algebra.atom_indices(e)),
                    den * nu.target._int_weights[1])


def semivariation(nu: VectorMeasure, e: int) -> Fraction:
    """sup over dual-ball functionals phi and partitions of e of
    sum |phi . nu(F)|.

    For a fixed phi the sum only grows under refinement (triangle
    inequality), so the atomic partition of e suffices:
    sv(e) = sup_phi T(phi) with T(phi) = sum_{atoms a <= e} |phi . nu(a)|.
    T is convex, so its sup over the dual ball, a polytope, is attained
    at a vertex.  The vertices are enumerated in three exact steps.

    1. Symmetry.  The dual ball is symmetric and T(-phi) = T(phi), so
       one vertex of each pair +-phi suffices.
    2. Vertices.  The dual of a weighted SUM norm sum_k w_k |x_k| is
       max_k |phi_k| / w_k, whose ball is the box |phi_k| <= w_k with
       vertices phi_k = s_k w_k, s_k = +-1.  The dual of a blocked SUP
       norm (max over blocks of the block's weighted l1 norm) is the sum
       over blocks of the block duals; its ball is the convex hull of
       the block boxes, so each vertex is a weighted sign pattern on one
       block g and zero elsewhere (a plain SUP block is one coordinate).
       With u_ak = w_k nu(a)_k, such a vertex pairs to
       phi . nu(a) = sum_{k in g} s_k u_ak, and by step 1 the first
       sign on g can be fixed to +1.
    3. Common denominator.  With the atom values nu(a)_k = R_ak / D_v
       and the weights w_k = W_k / D_w over their stored common
       denominators, U_ak = W_k R_ak = D u_ak are integers for
       D = D_v D_w, and sum_a |sum_k s_k U_ak| = D T(phi), so the largest
       integer total divided by D is sv(e) exactly.

    So the route is still the dual-ball one (independent of the
    operator norm of the lift, which enumerates the source ball), in
    Python ints.  The dual-ball cap of `FinBanSpace.dual_vertex_blocks`
    applies: a SUM target with 2^dim > finban.DUAL_BALL_CAP raises
    ResourceLimit.
    """
    nu.algebra.check_element(e)
    idx = nu.algebra.atom_indices(e)
    target = nu.target
    if not idx or target.dim == 0:
        return ZERO
    blocks = target.dual_vertex_blocks()
    values, den = nu._int_values
    ws, wden = target._int_weights
    rows = [[w * x for w, x in zip(ws, values[i])] for i in idx]
    best = 0
    for g in blocks:
        totals = [0] * (1 << (len(g) - 1))
        for row in rows:
            # every signed sum of the row over g with first sign +1
            sums = [row[g[0]]]
            for k in g[1:]:
                u = row[k]
                sums = [x + u for x in sums] + [x - u for x in sums]
            totals = [t + abs(x) for t, x in zip(totals, sums)]
        best = max(best, max(totals))
    return Fraction(best, den * wden)


def lipschitz_norm(nu: VectorMeasure, mu: MeasureAlgebra) -> Optional[Fraction]:
    """max over elements E with mu(E) > 0 of ||nu(E)|| / mu(E); None when
    some mu-null element carries nonzero nu (no Lipschitz constant).

    It is the max L over the atoms a with mu(a) > 0: atoms are elements,
    and past the None check null atoms carry nu = 0, so for mu(E) > 0
    ||nu(E)|| <= sum_{a <= E, mu(a) > 0} (||nu(a)|| / mu(a)) mu(a) <= L mu(E).

    In ints: with nu's atom values over D, the weights over D' and mu's
    values M_a over D'', ||nu(a)|| = N_a / (D D') and the ratio at a is
    (N_a / M_a) D'' / (D D'), so the atom with the largest N_a / M_a,
    found by cross-multiplying, gives L.
    """
    if nu.algebra != mu.algebra:
        raise AlgebraMismatch("measures live on different algebras")
    rows, den = nu._int_values
    masses, mass_den = mu.mu._int_values
    norm = nu.target._int_norm
    top, bottom = 0, 1  # the largest N_a / M_a so far, from 0
    for row, (m,) in zip(rows, masses):
        if m:
            n = norm(row)
            if n * bottom > top * m:
                top, bottom = n, m
        elif any(row):
            return None
    return Fraction(top * mass_den, bottom * den * nu.target._int_weights[1])


def pullback(phi: BoolMorphism, nu: VectorMeasure) -> VectorMeasure:
    """(phi* nu)(E) = nu(phi(E)), stored atomwise on the source algebra.

    Atom images of a Boolean morphism are disjoint, so the atomwise
    storage reproduces nu(phi(E)) for every E exactly.
    """
    if nu.algebra != phi.target:
        raise AlgebraMismatch("measure must live on the morphism target")
    values = tuple(nu(phi.atom_images[i]) for i in range(phi.source.n))
    return VectorMeasure(phi.source, nu.target, values)


def product_measure(mu: VectorMeasure, nu: VectorMeasure,
                    cop: Coproduct) -> VectorMeasure:
    """(mu (x) nu)(a*b) = mu(a) nu(b) on the coproduct algebra."""
    if not (mu.is_scalar() and nu.is_scalar()):
        raise InvalidModel("product measures are scalar-valued")
    if mu.algebra != cop.left or nu.algebra != cop.right:
        raise AlgebraMismatch("measures do not match the coproduct factors")
    return VectorMeasure(cop.algebra, scalars(), tuple(
        (mu.atom_values[i][0] * nu.atom_values[j][0],) for i, j in cop.pairs))


def is_spectral(nu: VectorMeasure,
                product: Callable[[Vector, Vector], Vector],
                unit: Vector) -> bool:
    """True iff nu(E & F) = nu(E) . nu(F) for all pairs and nu(top) = unit."""
    omega = nu.algebra
    if tuple(nu(omega.top)) != tuple(unit):
        return False
    values = {e: nu(e) for e in omega.elements()}
    for e in omega.elements():
        for f in omega.elements():
            if tuple(values[e & f]) != tuple(product(values[e], values[f])):
                return False
    return True


def null_quotient(mu) -> NullQuotient:
    """Quotient of the algebra by the ideal of null elements of a measure
    (a MeasureAlgebra or any VectorMeasure)."""
    measure = mu.mu if isinstance(mu, MeasureAlgebra) else mu
    return quotient_by_null(measure.algebra, measure.null_atoms())


def factor_through(quotient: NullQuotient, nu: VectorMeasure) -> Optional[VectorMeasure]:
    """The unique measure on the quotient with nu = factored o projection,
    or None when nu does not vanish on the killed atoms."""
    pi = quotient.projection
    if nu.algebra != pi.source:
        raise AlgebraMismatch("measure lives on a different algebra")
    killed = [i for i in range(pi.source.n) if pi.atom_images[i] == 0]
    if any(x != 0 for i in killed for x in nu.atom_values[i]):
        return None
    values = []
    for atom in quotient.algebra.atoms:
        i = nu.algebra.atom_index(atom)
        values.append(nu.atom_values[i])
    return VectorMeasure(quotient.algebra, nu.target, tuple(values))
