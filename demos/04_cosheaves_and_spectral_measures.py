"""Cosheaves on the partition topology and everything they carry: the
condition checker with counterexamples, the derived spectral measure,
integration of simple morphisms, cosheafification, the bounded-variation
cosheaf and Isbell conjugation.

Run it:  python demos/04_cosheaves_and_spectral_measures.py
"""

from fractions import Fraction as F

from catmeas.boolalg import BoolAlg
from catmeas.finban import operator_norm, scalars, sum_space
from catmeas.measures import MeasureAlgebra
from catmeas.shcosh import (bva_cosheaf, bva_evaluation, characteristic_sheaf,
                            constant_precosheaf, constant_universal_map,
                            cosheafify, is_cosheaf, is_sheaf, isbell,
                            isbell_adjoint, l1_cosheaf, l1_integration_map,
                            sheaf_hom, spectral_measure,
                            integrate_simple_morphism, yoneda_presheaf)
from catmeas.simple import SimpleElement, characteristic, linf_norm

omega = BoolAlg(("a", "b", "c"))
mu = MeasureAlgebra.from_values(omega, [F(1, 2), F(1, 3), F(1, 6)])


def dims(x):
    """The dimension of each value of x, by the CLI's element names."""
    return {"|".join(omega.atoms_below(e)) or "bottom": x.space(e).dim
            for e in omega.elements()}


print("== the cosheaf condition ==")
good = l1_cosheaf(mu)
print("the weighted-l1 cosheaf of mu passes:",
      bool(is_cosheaf(good, exhaustive=True)))
bad = constant_precosheaf(omega, sum_space(["u"]))
verdict = is_cosheaf(bad)
print("the constant precosheaf fails at",
      omega.describe(verdict.failing_element), "split into",
      [omega.describe(b) for b in verdict.failing_blocks])

print()
print("== the spectral measure of a cosheaf ==")
spec = spectral_measure(good)
print("projection at {a|b}:")
for row in spec.projections[omega.element(["a", "b"])].matrix:
    print("  ", [str(x) for x in row])
print("all projection laws hold:", bool(spec.satisfies_laws()))
f = SimpleElement(omega, (F(2), F(-1, 2), F(3)))
action = spec.action(f)
print("the action of a simple element has operator norm == its sup norm:",
      operator_norm(action) == linf_norm(f))

print()
print("== integrating simple morphisms ==")
e = omega.element(["a", "b"])
g = omega.element(["b", "c"])
s = SimpleElement(omega, (F(0), F(5), F(0)))  # supported in e & g
t = integrate_simple_morphism(s, good, e, g)
print("the induced map mu(a|b) -> mu(b|c) has norm", operator_norm(t),
      "= sup norm", linf_norm(s))
one = characteristic(omega, e)
print("chi(E) integrates to the identity on mu(E):",
      integrate_simple_morphism(one, good, e, e).is_identity())

print()
print("== cosheafification ==")
theta = constant_precosheaf(omega, sum_space(["u", "v"]))
c = cosheafify(theta)
print("cosheafified dims:", dims(c.cosheaf))
print("the result passes the condition:",
      bool(is_cosheaf(c.cosheaf, exhaustive=True)))

print()
print("== the bounded-variation cosheaf ==")
bva = bva_cosheaf(omega, scalars())
print("bva(top) is l1 over the atoms:", bva.space(omega.top).dim == omega.n)
induced = constant_universal_map(good, l1_integration_map(mu), scalars())
ev = bva_evaluation(omega, bva, omega.top, scalars())
lhs = ev @ induced.components[omega.top]
rhs = l1_integration_map(mu)[omega.top]
print("the universal map closes the evaluation triangle:",
      lhs.matrix == rhs.matrix)

print()
print("== characteristic presheaves, homs, Isbell conjugation ==")
xi = characteristic_sheaf(omega, omega.element(["a", "b"]))
print("the characteristic presheaf is a sheaf:", bool(is_sheaf(xi)))
endo = sheaf_hom(xi, xi)
print("its endomorphism space has one dimension per atom below:",
      endo.dim == 2)
lxi = isbell(yoneda_presheaf(omega, omega.element(["a"])))
print("Isbell conjugation of a representable is corepresentable (dims):",
      dims(lxi))
rmu = isbell_adjoint(good)
print("right conjugate dims of the l1 cosheaf:",
      dims(rmu))
