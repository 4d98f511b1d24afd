"""The simple-element calculus over a finite Boolean algebra.

Simple elements are linear combinations of characteristics chi(E); on a
finite atomic algebra they are exactly the functions atoms -> Q, and the
canonical partition form (pairwise distinct nonzero coefficients on a
partition) is recovered by grouping atoms with equal value.

The two norms of interest are the sup norm (the function-algebra side,
with pointwise product and the universal lift of bounded additive
measures) and the mu-weighted l1 norm (the integration side, with the
contractive integral and the projective-tensor identity for vector
values).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .boolalg import BoolAlg, Coproduct, StoneSpace
from .errors import AlgebraMismatch, FlavorMismatch, InvalidModel, NotIdempotent
from .exactla import ONE, ZERO
from .finban import (
    FinBanSpace, Flavor, IsoWitness, LinMap, Vector, _over_common_denominator,
    projective_tensor, sup_space, zero_vec,
)
from .measures import MeasureAlgebra, VectorMeasure, product_measure


@dataclass(frozen=True)
class SimpleElement:
    """A simple element in atomwise form: one rational per atom."""

    algebra: BoolAlg
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.algebra.n:
            raise InvalidModel("one coefficient per atom required")

    def blocks(self) -> tuple[tuple[Fraction, int], ...]:
        """Canonical partition form: (coefficient, element) pairs with
        pairwise distinct nonzero coefficients, blocks ordered by their
        minimum atom."""
        grouped: dict[Fraction, int] = {}
        for i, k in enumerate(self.coeffs):
            if k != 0:
                grouped[k] = grouped.get(k, 0) | (1 << i)
        return tuple(sorted(((k, e) for k, e in grouped.items()),
                            key=lambda pair: pair[1] & -pair[1]))

    def support(self) -> int:
        e = 0
        for i, k in enumerate(self.coeffs):
            if k != 0:
                e |= 1 << i
        return e

    def is_zero(self) -> bool:
        return all(k == 0 for k in self.coeffs)

    def scale(self, k) -> "SimpleElement":
        k = Fraction(k)
        return SimpleElement(self.algebra, tuple(k * c for c in self.coeffs))


def _same_algebra(f: SimpleElement, g: SimpleElement) -> None:
    if f.algebra != g.algebra:
        raise AlgebraMismatch("simple elements live on different algebras")


def characteristic(omega: BoolAlg, e: int) -> SimpleElement:
    omega.check_element(e)
    return SimpleElement(omega, tuple(
        ONE if e >> i & 1 else ZERO for i in range(omega.n)))


def canonicalize(omega: BoolAlg,
                 terms: Iterable[tuple[Fraction, int]]) -> SimpleElement:
    """Sum of k * chi(E) terms, reduced to the atomwise canonical form."""
    coeffs = [ZERO] * omega.n
    for k, e in terms:
        omega.check_element(e)
        k = Fraction(k)
        for i in omega.atom_indices(e):
            coeffs[i] += k
    return SimpleElement(omega, tuple(coeffs))


def linf_norm(f: SimpleElement) -> Fraction:
    return max((abs(k) for k in f.coeffs), default=ZERO)


def multiply(f: SimpleElement, g: SimpleElement) -> SimpleElement:
    _same_algebra(f, g)
    return SimpleElement(f.algebra, tuple(a * b for a, b in zip(f.coeffs, g.coeffs)))


def linf_space(omega: BoolAlg) -> FinBanSpace:
    """The sup-normed space of simple elements (basis = atom indicators)."""
    return sup_space(omega.atoms)


def integrate(f: SimpleElement, nu: VectorMeasure) -> Vector:
    """sum_n k_n nu(E_n) over the canonical form; equivalently the
    atomwise sum f(a) nu(a).  In ints: with f's coefficients over their
    lcm L and nu's atom values over D, each coordinate is one int dot
    product over L D."""
    if f.algebra != nu.algebra:
        raise AlgebraMismatch("element and measure live on different algebras")
    (coeffs,), lcm = _over_common_denominator((f.coeffs,))
    rows, den = nu._int_values
    return tuple(Fraction(sum(map(operator.mul, coeffs, col)), lcm * den)
                 for col in zip(*rows))


def integration_map(nu: VectorMeasure) -> LinMap:
    """The lift of nu to the sup-normed simple elements: the unique linear
    map sending chi(E) to nu(E).  Its operator norm (over source-ball
    vertices) is the semivariation of nu at top (over dual-ball ones)."""
    src = linf_space(nu.algebra)
    return LinMap.from_columns(src, nu.target, list(nu.atom_values))


# ---------------------------------------------------------------------------
# the mu-weighted l1 side
# ---------------------------------------------------------------------------

def l1_space(mu: MeasureAlgebra) -> FinBanSpace:
    """Weighted l1 space of a.e. classes: atoms of positive measure with
    weights mu(atom)."""
    labels = []
    weights = []
    for i, a in enumerate(mu.algebra.atoms):
        w = mu.atom_value(i)
        if w > 0:
            labels.append(a)
            weights.append(w)
    return FinBanSpace(tuple(labels), tuple(weights), Flavor.SUM)


def l1_norm(f: SimpleElement, mu: MeasureAlgebra) -> Fraction:
    """sum |k_n| mu(E_n): independent of the representation since it is
    the atomwise sum of |f(a)| mu(a)."""
    if f.algebra != mu.algebra:
        raise AlgebraMismatch("element and measure live on different algebras")
    return sum((abs(k) * mu.atom_value(i) for i, k in enumerate(f.coeffs)), ZERO)


def l1_lift(nu: VectorMeasure, mu: MeasureAlgebra) -> LinMap:
    """The extension of a mu-Lipschitz nu to the l1 classes: the unique
    linear map with chi(E) |-> nu(E); its operator norm is the Lipschitz
    norm of nu against mu."""
    if nu.algebra != mu.algebra:
        raise AlgebraMismatch("measures live on different algebras")
    src = l1_space(mu)
    cols = [nu.atom_values[mu.algebra.atom_index(a)] for a in src.basis]
    return LinMap.from_columns(src, nu.target, cols)


# ---------------------------------------------------------------------------
# vector-valued simple elements and the contractive integral
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VectorSimpleElement:
    """A simple element with coefficients in a SUM space."""

    algebra: BoolAlg
    target: FinBanSpace
    coeffs: tuple[Vector, ...]  # one target vector per atom

    def __post_init__(self):
        if self.target.flavor is not Flavor.SUM:
            raise FlavorMismatch("vector coefficients live in SUM spaces")
        if len(self.coeffs) != self.algebra.n:
            raise InvalidModel("one coefficient vector per atom required")
        if any(len(v) != self.target.dim for v in self.coeffs):
            raise InvalidModel("coefficients must live in the target space")

    @staticmethod
    def from_terms(omega: BoolAlg, target: FinBanSpace,
                   terms: Iterable[tuple[int, Sequence[Fraction]]]) -> "VectorSimpleElement":
        """Sum of chi(E) (x) b terms."""
        coeffs = [list(zero_vec(target.dim)) for _ in range(omega.n)]
        for e, b in terms:
            omega.check_element(e)
            for i in omega.atom_indices(e):
                for j in range(target.dim):
                    coeffs[i][j] += Fraction(b[j])
        return VectorSimpleElement(omega, target, tuple(tuple(c) for c in coeffs))

    def map_coefficients(self, t: LinMap) -> "VectorSimpleElement":
        if t.source != self.target:
            raise InvalidModel("map source must be the coefficient space")
        return VectorSimpleElement(self.algebra, t.target,
                                   tuple(t(v) for v in self.coeffs))


@dataclass(frozen=True)
class BochnerResult:
    integral: Vector
    l1_norm: Fraction
    tensor_witness: IsoWitness


def l1_vector_space(mu: MeasureAlgebra, target: FinBanSpace) -> FinBanSpace:
    """Vector-valued l1 classes: basis (positive atom, target basis label)
    with weights mu(atom) * w, atom major."""
    base = l1_space(mu)
    labels = tuple(f"{a}(x){b}" for a in base.basis for b in target.basis)
    weights = tuple(wa * wb for wa in base.weights for wb in target.weights)
    return FinBanSpace(labels, weights, Flavor.SUM)


def l1_tensor_witness(mu: MeasureAlgebra, target: FinBanSpace) -> IsoWitness:
    """Basis-level identification of the vector-valued l1 classes with the
    projective tensor of the scalar l1 classes and the value space; the
    atom-major bases match one to one with equal weights."""
    vect = l1_vector_space(mu, target)
    tens = projective_tensor(l1_space(mu), target)
    if vect.dim != tens.space.dim:
        raise InvalidModel("dimension mismatch in the tensor identification")
    return IsoWitness.from_permutation(vect, tens.space, list(range(vect.dim)))


def bochner(f: VectorSimpleElement, mu: MeasureAlgebra) -> BochnerResult:
    """Integral sum mu(E_n) b_n, the l1 norm, and the projective-tensor
    identification of the ambient space.  The integral is contractive for
    the l1 norm.  In ints: with mu's atom values M_a over D, f's
    coefficient vectors over one common denominator D' and the target's
    weights over D'', the integral is sum_a M_a C_a over D D' and the
    norm sum_a M_a N_a over D D' D'', N_a the int norm of C_a."""
    if f.algebra != mu.algebra:
        raise AlgebraMismatch("element and measure live on different algebras")
    masses, den = mu.mu._int_values
    ms = [m for (m,) in masses]
    rows, coeff_den = _over_common_denominator(f.coeffs)
    integral = tuple(Fraction(sum(map(operator.mul, ms, col)), den * coeff_den)
                     for col in zip(*rows))
    norm = sum(m * f.target._int_norm(row) for m, row in zip(ms, rows) if m)
    return BochnerResult(integral,
                         Fraction(norm, den * coeff_den * f.target._int_weights[1]),
                         l1_tensor_witness(mu, f.target))


# ---------------------------------------------------------------------------
# Fubini on coproduct algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FubiniResult:
    product_value: Fraction
    iterated_left_then_right: Fraction
    iterated_right_then_left: Fraction
    witness: IsoWitness

    def all_equal(self) -> bool:
        return (self.product_value == self.iterated_left_then_right ==
                self.iterated_right_then_left)


def fubini(f: SimpleElement, cop: Coproduct,
           mu: MeasureAlgebra, nu: MeasureAlgebra) -> FubiniResult:
    """Integral of f over the coproduct against the product measure,
    both iterated integrals, and the isometric identification of the
    product l1 classes with the tensor of the factor l1 classes."""
    if f.algebra != cop.algebra:
        raise AlgebraMismatch("element does not live on the coproduct")
    if mu.algebra != cop.left or nu.algebra != cop.right:
        raise AlgebraMismatch("measures do not match the coproduct factors")

    at = dict(zip(cop.pairs, f.coeffs))  # f on the pair of atoms (i, j)
    lefts, rights = range(cop.left.n), range(cop.right.n)
    m, n = [mu.atom_value(i) for i in lefts], [nu.atom_value(j) for j in rights]
    total = sum((c * m[i] * n[j] for (i, j), c in at.items()), ZERO)
    # the iterated integrals: the right factor integrated out first, then the left
    left_then_right = sum((m[i] * sum((at[i, j] * n[j] for j in rights), ZERO)
                           for i in lefts), ZERO)
    right_then_left = sum((n[j] * sum((at[i, j] * m[i] for i in lefts), ZERO)
                           for j in rights), ZERO)
    witness = _fubini_witness(cop, mu, nu)
    return FubiniResult(total, left_then_right, right_then_left, witness)


def _fubini_witness(cop: Coproduct, mu: MeasureAlgebra,
                    nu: MeasureAlgebra) -> IsoWitness:
    prod = MeasureAlgebra(cop.algebra, product_measure(mu.mu, nu.mu, cop))
    left_cls = l1_space(mu)
    right_cls = l1_space(nu)
    tens = projective_tensor(left_cls, right_cls)
    prod_cls = l1_space(prod)
    if prod_cls.dim != tens.space.dim:
        raise InvalidModel("null structure broke the product identification")
    # both bases enumerate the pairs of positive atoms: the product's in
    # pair-label order, the tensor's left factor major
    rank_l = {a: r for r, a in enumerate(left_cls.basis)}
    rank_r = {b: r for r, b in enumerate(right_cls.basis)}
    perm = [rank_l[cop.left.atoms[i]] * right_cls.dim + rank_r[cop.right.atoms[j]]
            for k, (i, j) in enumerate(cop.pairs) if prod.atom_value(k) > 0]
    return IsoWitness.from_permutation(prod_cls, tens.space, perm)


# ---------------------------------------------------------------------------
# Stone transfer and idempotents
# ---------------------------------------------------------------------------

def stone_transfer(f: SimpleElement, stone: StoneSpace) -> dict[str, Fraction]:
    """f as a function on the ultrafilter points: the point behind atom a
    takes the value f(a).  Sup norm and products are preserved on the
    nose since points and atoms coincide at finite scale."""
    if stone.algebra != f.algebra:
        raise AlgebraMismatch("Stone space of a different algebra")
    return {p: f.coeffs[f.algebra.atom_index(p)] for p in stone.points}


def transfer_measure(nu: VectorMeasure, stone: StoneSpace) -> VectorMeasure:
    """The image of nu on the powerset of the Stone points."""
    if stone.algebra != nu.algebra:
        raise AlgebraMismatch("Stone space of a different algebra")
    clop = stone.clopen_algebra()
    values = tuple(nu.atom_values[nu.algebra.atom_index(p)] for p in clop.atoms)
    return VectorMeasure(clop, nu.target, values)


def split_idempotent(e: SimpleElement) -> tuple[int, SimpleElement]:
    """For e with e*e = e (coefficients 0/1) return its support G and the
    characteristic chi(G) through which e splits."""
    if multiply(e, e).coeffs != e.coeffs:
        raise NotIdempotent("element is not idempotent")
    g = e.support()
    return g, characteristic(e.algebra, g)
