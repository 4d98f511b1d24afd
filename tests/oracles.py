"""Independent oracles that only the tests use.

Each one recomputes by the textbook route what the library computes by a
shortcut: dense matrix products and ranks, the vertices of a dual unit
ball, the semivariation as an explicit sup over partitions, the
projective tensor norm as an LP over representations, operator norms
over the vertices of the source ball, the Lipschitz norm and the lift
of a measure on every element, a cosheaf projection solved from its
binary split, the spectral laws on every pair of elements, isometry of
a witness by two operator norms, path independence by enumerating
every path, an Isbell annihilator solved from all its killers at once,
the containment check of an Isbell conjugate's structure maps over
every element where it applies, the exhaustive (co)sheaf condition on
built partition maps and cones, the binary splits of an element
enumerated over every atom subset with a set of those seen, the
partitions of an element grown as assignment lists, the seeded
random cosheaf composed map by map, the canonical cosheaf and the
indicator (co)presheaves with every cover map built at once, the
closed-form isometry test on Fraction products, and the norm of a
vector and the atom-level measure calculus (a measure's value, its
variation, the integral of a simple element and the Bochner integral
with its l1 norm) as Fraction sums one coordinate at a time, and the
readers of a coproduct (the mediating morphism, the product measure and
Fubini's integrals and witness) that split each pair label 'a*b' into
its factor atoms, the relations of a coend and the constraints of an
end, written one basis vector and one offset row at a time, and a
report's matrix formatted entry by entry from its dense rows.
They live here, not in `src/`, so that they stay independent of the
code under test.  So do two seeded generators that only tests use: a
random vector measure and a random damped precosheaf, which goes
through the validator.
"""

import itertools
import random
from fractions import Fraction

from catmeas.boolalg import BoolAlg, BoolMorphism, partitions_of
from catmeas.cli import show_rational
from catmeas.errors import FlavorMismatch, InvalidModel, NotACosheaf
from catmeas.exactla import identity, nullspace, rref, simplex_min
from catmeas.finban import (FinBanSpace, Flavor, LinMap, direct_sum, is_isometric_iso,
                            operator_norm, projective_tensor, scalars, sum_space)
from catmeas.measures import MeasureAlgebra, VectorMeasure
from catmeas.shcosh import (PreCosheaf, Verdict, _random_atom_spaces, from_atom_spaces,
                            make_precosheaf, make_presheaf, partition_map)
from catmeas.simple import characteristic, l1_space

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


def partitions_by_assignment(omega, e: int) -> list:
    """`boolalg.partitions_of(omega, e)` as a list, by restricted growth
    over assignment lists: atom i of e gets a block number at most one
    past the largest used before it, in increasing order.  Each finished
    assignment is turned into its block masks, checked to be nonzero,
    disjoint and joining to e, and sorted by lowest atom."""
    idx = omega.atom_indices(e)
    out = []

    def grow(assign, used):
        if len(assign) == len(idx):
            blocks = [0] * used
            for pos, block_no in enumerate(assign):
                blocks[block_no] |= 1 << idx[pos]
            total = 0
            for b in blocks:
                assert b and not total & b, (e, assign)
                total |= b
            assert total == e, (e, assign)
            out.append(tuple(sorted(blocks, key=lambda b: b & -b)))
            return
        for block_no in range(used + 1):
            assign.append(block_no)
            grow(assign, max(used, block_no + 1))
            assign.pop()

    grow([], 0)
    return out


def semivariation_bruteforce(nu, e: int, functionals) -> Fraction:
    """Explicit sup over all partitions of e and the supplied dual
    vectors.  Never exceeds `measures.semivariation`."""
    if e == 0:
        return ZERO
    best = ZERO
    for part in partitions_of(nu.algebra, e):
        for phi in functionals:
            total = ZERO
            for block in part:
                val = nu(block)
                total += abs(sum((phi[k] * val[k] for k in range(len(phi))), ZERO))
            if total > best:
                best = total
    return best


def operator_norm_by_vertices(t) -> Fraction:
    """The max of the target norm of t(v) over the vertices v of the
    source unit ball, each image a Fraction product."""
    return max((t.target.norm(t(v)) for v in t.source.ball_extreme_points()), default=ZERO)


def lipschitz_by_elements(nu, mu):
    """max over elements E with mu(E) > 0 of ||nu(E)|| / mu(E), computed
    on each of the 2^n elements; None when a mu-null atom carries
    nonzero nu."""
    null_mask = 0
    for i in range(mu.algebra.n):
        if mu.atom_value(i) == 0:
            null_mask |= 1 << i
    if null_mask and any(
            x != 0 for i in mu.algebra.atom_indices(null_mask)
            for x in nu.atom_values[i]):
        return None
    best = ZERO
    for e in nu.algebra.nonzero_elements():
        m = mu.value(e)
        if m == 0:
            continue
        val = nu.target.norm(nu(e)) / m
        if val > best:
            best = val
    return best


def lift_matches_by_elements(lift, nu) -> bool:
    """lift(chi(E)) == nu(E) on each of the 2^n elements E."""
    omega = nu.algebra
    return all(tuple(lift(characteristic(omega, x).coeffs)) == tuple(nu(x))
               for x in omega.elements())


def projective_norm_oracle(a, b, u) -> Fraction:
    """inf over representations u = sum_n a_n (x) b_n of sum ||a_n|| ||b_n||.

    Any representation can be regrouped so that the right factors are
    vertices of the right unit ball without increasing the cost, which
    makes the infimum a finite LP: minimise the total weighted l1 mass of
    the left coefficient vectors, one per right-ball vertex, subject to
    reproducing u.
    """
    verts = list(b.ball_extreme_points())
    n, m = a.dim, b.dim
    if n * m == 0:
        return ZERO
    k = len(verts)
    # variables: c[t][i] split into +/- parts, t over vertices, i over a-basis
    nv = 2 * k * n
    cost = []
    for _ in range(2):
        for _t in range(k):
            cost.extend(a.weights)
    rows = []
    rhs = []
    for i in range(n):
        for j in range(m):
            row = [ZERO] * nv
            for t in range(k):
                coeff = verts[t][j]
                if coeff != 0:
                    row[t * n + i] = coeff
                    row[k * n + t * n + i] = -coeff
            rows.append(row)
            rhs.append(u[i * m + j])
    value, _ = simplex_min(cost, rows, rhs)
    return value


def split_projection(mu, e: int, f: int) -> LinMap:
    """For f <= e, the unique p : mu(e) -> mu(f) with p o ext_{f,e} = id
    and p o ext_{e-f,e} = 0; solved from the binary split, so it fails
    loudly (NotACosheaf) when the split map is singular."""
    omega = mu.algebra
    if not omega.leq(f, e):
        raise InvalidModel("projection needs f <= e")
    if f == e:
        return LinMap.identity(mu.space(e))
    if f == 0:
        return LinMap.zero(mu.space(e), mu.space(0))
    eps = partition_map(mu, e, [f, e & ~f])
    if eps.source.dim != eps.target.dim:
        raise NotACosheaf("partition map is not square")
    inv = eps.inverse()
    if inv is None:
        raise NotACosheaf("partition map is singular")
    return LinMap(mu.space(e), mu.space(f), inv.rows[: mu.space(f).dim])


def spectral_laws_by_pairs(spec) -> bool:
    """Unit, idempotence, meet-multiplicativity and disjoint additivity of
    the table `spec.projections`, checked on every pair of elements."""
    omega = spec.cosheaf.algebra
    p = spec.projections
    if not p[omega.top].is_identity() or not p[0].is_zero():
        return False
    for e in omega.elements():
        for f in omega.elements():
            if (p[e] @ p[f]).rows != p[e & f].rows:
                return False
            if e & f == 0 and p[e].add(p[f]).rows != p[e | f].rows:
                return False
    return True


def isometric_monomial_by_fractions(entries, source_weights, target_weights,
                                    blocks=None) -> bool:
    """`finban._isometric_monomial` with |c| w'(row) = w(col) compared as
    Fractions, the product |c| w' built for each coefficient other than
    +-1; blocks onto blocks compared as there."""
    if len(entries) < len(source_weights):
        return False
    for j, i, c in entries:
        w = target_weights[i] if c == 1 or c == -1 else abs(c) * target_weights[i]
        if w != source_weights[j]:
            return False
    if blocks is None:
        return True
    sb, tb = blocks
    pairs = {(sb[j], tb[i]) for j, i, _ in entries}
    return len(pairs) == len(set(sb)) == len(set(tb))


def contractive_both_ways(forward, backward) -> bool:
    """Both maps of an iso witness are contractions, by two operator norms."""
    return operator_norm(forward) <= 1 and operator_norm(backward) <= 1


def paths(poset, a: str, b: str) -> list:
    """All generating-arrow paths a -> b (empty path when a == b)."""
    if a == b:
        return [()]
    return [((s, t),) + rest for s, t in poset.arrows if s == a for rest in paths(poset, t, b)]


def path_independent_by_enumeration(poset, step, covariant: bool = True) -> bool:
    """Every two nonempty paths a -> b compose to the same map, for every
    pair a, b, each path composed from scratch."""
    for a in poset.objects:
        for b in poset.objects:
            maps = []
            for path in paths(poset, a, b):
                if path:
                    m = step(path[0])
                    for f in path[1:]:
                        m = step(f) @ m if covariant else m @ step(f)
                    maps.append(m.rows)
            if any(m != maps[0] for m in maps):
                return False
    return True


def annihilator_by_killers(x, e: int) -> list:
    """A basis of ann_E, the functionals at the root that kill the images
    of all of E's killers: the nullspace of every killer's columns stacked
    as rows.  The root is top for a precosheaf, whose killers are ~a for
    the atoms a of E, and bottom for a presheaf, whose killers are the
    atoms a outside E."""
    omega, up, top = x.algebra, x.covariant, x.algebra.top
    killers = ([top & ~(1 << i) for i in omega.atom_indices(e)] if up
               else [1 << i for i in omega.atom_indices(top & ~e)])
    rows = [list(col) for k in killers
            for col in zip(*(x.extension(k, top) if up else x.restriction(k, 0)).matrix)]
    return nullspace(rows) if rows else identity(x.space(top if up else 0).dim)


def containment_by_all_submasks(x) -> list:
    """(s, t, F) wherever a structure map s -> t of x's Isbell conjugate
    fails its containment check: some phi in ann_s (from
    `annihilator_by_killers`) has phi o x(F -> root) nonzero for an F in
    U_t - U_s.  For a precosheaf (the right conjugate, root top,
    s = t plus an atom) these F are t | g, g <= ~s; for a presheaf (the
    left one, root bottom, t = s plus an atom a) they are a | g, g <= s.
    Every g is tried, and each image phi . c is a dense sum over the
    entries of phi and of a column c of x(F -> root)."""
    up, top = x.covariant, x.algebra.top
    anns, found = {}, []
    for small, big in x.cover_maps:
        s, t = (big, small) if up else (small, big)
        if s not in anns:
            anns[s] = annihilator_by_killers(x, s)
        if not anns[s]:
            continue
        base, free = (t, top & ~s) if up else (big ^ small, s)
        for f in (base | g for g in range(free + 1) if not g & ~free):
            m = (x.extension(f, top) if up else x.restriction(f, 0)).matrix
            if any(sum((p * c for p, c in zip(phi, col) if p and c), ZERO)
                   for phi in anns[s] for col in zip(*m)):
                found.append((s, t, f))
    return found


def split_is_isometric_iso(x, e: int, blocks) -> bool:
    """Whether the partition map (precosheaf) or restriction cone
    (presheaf) of x on the blocks of e, built, is an isometric
    isomorphism; False where the blocks' values differ in flavor, so that
    `direct_sum` raises FlavorMismatch and there is no map to build."""
    try:
        return is_isometric_iso(partition_map(x, e, blocks))
    except FlavorMismatch:
        return False


def partition_condition_by_built_maps(x):
    """The verdict of `is_cosheaf`/`is_sheaf(x, exhaustive=True)` with
    every map built: for each nonzero element in increasing order, every
    partition of two or more blocks, its partition map (precosheaf) or
    restriction cone (presheaf) decided by `is_isometric_iso`; then the
    bottom value.  A partition whose blocks differ in flavor fails: its
    blocks' values have no direct sum."""
    reason = ("mediated partition map is not an isometric isomorphism" if x.covariant
              else "restriction cone is not an isometric isomorphism")
    omega = x.algebra
    for e in omega.nonzero_elements():
        for blocks in partitions_of(omega, e):
            if len(blocks) >= 2 and not split_is_isometric_iso(x, e, blocks):
                return Verdict(False, e, blocks, reason)
    if x.space(0).dim != 0:
        return Verdict(False, 0, (), "the bottom value must be the zero space")
    return Verdict(True)


def binary_splits_by_seen_set(omega, e: int) -> list:
    """`shcosh._binary_splits(omega, e)` as a list, by enumerating every
    set f of r atoms of e for r = 1 .. k - 1 in lexicographic order and
    keeping a split (f, e - f) unless f or e - f was kept before."""
    idx = omega.atom_indices(e)
    seen, out = set(), []
    for r in range(1, len(idx)):
        for picked in itertools.combinations(idx, r):
            f = 0
            for i in picked:
                f |= 1 << i
            if f in seen or (e & ~f) in seen:
                continue
            seen.add(f)
            out.append((f, e & ~f))
    return out


def from_atom_spaces_eager(omega, atom_spaces):
    """`shcosh.from_atom_spaces` with every cover map built at once into a
    plain dict, keyed by the covering pairs (small, small + atom k) in
    increasing small, then k: small's identity with the zero rows of k's
    block inserted at the dim of the atoms below small lower than k."""
    blocks = [(tuple(f"{a}:{b}" for b in atom_spaces[a].basis), tuple(atom_spaces[a].weights))
              for a in omega.atoms]
    spaces = {0: FinBanSpace((), (), Flavor.SUM)}
    for e in range(1, omega.top + 1):
        top = e.bit_length() - 1
        rest, (labels, weights) = spaces[e & ~(1 << top)], blocks[top]
        spaces[e] = FinBanSpace(rest.basis + labels, rest.weights + weights, Flavor.SUM)
    cover_maps = {}
    for small in range(omega.top + 1):
        for k in range(omega.n):
            if small >> k & 1:
                continue
            big = small | 1 << k
            source, target = spaces[small], spaces[big]
            eye = tuple(((i, ONE),) for i in range(source.dim))
            off = spaces[small & ((1 << k) - 1)].dim
            rows = eye[:off] + ((),) * (target.dim - source.dim) + eye[off:]
            cover_maps[(small, big)] = LinMap(source, target, rows)
    return PreCosheaf(omega, spaces, cover_maps)


def characteristic_sheaf_eager(omega, e: int):
    """`shcosh.characteristic_sheaf(omega, e)` assembled through
    `make_presheaf`: on F the unit sup line of each atom of E & F, in atom
    order, and on each covering pair (small, big) the dense 0/1 matrix
    that sends each basis label of small to the same label in big."""
    atoms = {f: [a for i, a in enumerate(omega.atoms) if (e & f) >> i & 1]
             for f in range(omega.top + 1)}
    spaces = {f: FinBanSpace(tuple(a), (ONE,) * len(a), Flavor.SUP) for f, a in atoms.items()}
    cover_maps = {}
    for small, big in omega.covering_pairs():
        src, tgt = spaces[big], spaces[small]
        cover_maps[(small, big)] = LinMap.from_matrix(
            src, tgt, [[ONE if u == v else ZERO for u in src.basis] for v in tgt.basis])
    return make_presheaf(omega, spaces, cover_maps)


def block_sum_cases():
    """(label, algebra, atom fibers) on 1 to 7 atoms: SUM fibers of dim 0
    to 2 with random weights, and on each algebra every fiber zero and
    exactly one fiber nonzero."""
    rng = random.Random(41)
    for n in range(1, 8):
        omega = BoolAlg(tuple(f"x{i}" for i in range(n)))

        def fibers(dims):
            return {a: sum_space([f"b{j}" for j in range(d)],
                                 [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d)])
                    for a, d in zip(omega.atoms, dims)}

        yield f"{n}/zero", omega, fibers([0] * n)
        one = rng.randrange(n)
        yield f"{n}/one", omega, fibers([rng.randint(1, 2) * (i == one) for i in range(n)])
        for k in range(3):
            yield f"{n}/random{k}", omega, fibers([rng.randint(0, 2) for _ in range(n)])


def indicator_eager(omega, inside, line, covariant: bool):
    """`shcosh._indicator` with every cover map built at once into a plain
    dict, as (spaces, cover_maps): `line` on the elements where `inside`
    holds, the zero space of its flavor elsewhere, and on each covering
    pair (small, small + atom k), in increasing small, then k, the dense
    identity matrix between two nonzero spaces and the zero matrix
    otherwise, small -> big when covariant, big -> small when not."""
    zero = FinBanSpace((), (), line.flavor)
    spaces = {f: line if inside(f) else zero for f in range(omega.top + 1)}
    cover_maps = {}
    for small in range(omega.top + 1):
        for k in range(omega.n):
            if small >> k & 1:
                continue
            big = small | 1 << k
            src, tgt = (spaces[small], spaces[big]) if covariant else (spaces[big], spaces[small])
            one = ONE if src.dim and tgt.dim else ZERO
            matrix = [[one if i == j else ZERO for j in range(src.dim)] for i in range(tgt.dim)]
            cover_maps[(small, big)] = LinMap.from_matrix(src, tgt, matrix)
    return spaces, cover_maps


def random_cosheaf_by_composition(rng, omega):
    """`shcosh.random_cosheaf` with every map built: the same draws in the
    same order, each twist T_e a map e_i |-> c_i e_perm(i) with its
    inverse, and every cover map the product T_t o c(s, t) o T_s^-1 of
    the canonical one c, in a plain dict."""
    atom_spaces = {}
    for a in omega.atoms:
        d = rng.randint(1, 2)
        atom_spaces[a] = FinBanSpace(
            tuple(f"{a}{k}" for k in range(d)),
            tuple(Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(d)),
            Flavor.SUM)
    canonical = from_atom_spaces_eager(omega, atom_spaces)
    twists = {}
    for e in omega.elements():
        space = canonical.space(e)
        perm = list(range(space.dim))
        rng.shuffle(perm)
        coeffs = [Fraction(rng.choice([1, -1]) * rng.randint(1, 3), rng.randint(1, 3))
                  for _ in range(space.dim)]
        weights, rows = [ZERO] * space.dim, [()] * space.dim
        for i, (p, c) in enumerate(zip(perm, coeffs)):
            weights[p] = space.weights[i] / abs(c)
            rows[p] = ((i, c),)
        twisted = FinBanSpace(tuple(f"v{e}_{k}" for k in range(space.dim)), tuple(weights),
                              Flavor.SUM)
        forward = LinMap(space, twisted, tuple(rows))
        twists[e] = forward, forward.inverse()
    cover_maps = {(small, big): twists[big][0] @ c @ twists[small][1]
                  for (small, big), c in canonical.cover_maps.items()}
    return PreCosheaf(omega, {e: forward.target for e, (forward, _) in twists.items()},
                      cover_maps)


def measure_at_by_sums(nu, e: int) -> tuple:
    """nu(e) as the Fraction sum of the atom values below e."""
    out = tuple(ZERO for _ in range(nu.target.dim))
    for i in nu.algebra.atom_indices(e):
        out = tuple(x + y for x, y in zip(out, nu.atom_values[i]))
    return out


def norm_by_fractions(space, v) -> Fraction:
    """The norm of v as Fraction sums: the weighted l1 sum (SUM), or its
    max over the blocks (SUP); zero coordinates add exactly 0, so they
    are skipped."""
    if space.flavor is Flavor.SUM:
        return sum((w * abs(x) for w, x in zip(space.weights, v) if x), ZERO)
    best = ZERO
    for g in space.effective_groups():
        s = sum((space.weights[i] * abs(v[i]) for i in g if v[i]), ZERO)
        if s > best:
            best = s
    return best


def variation_by_norms(nu, e: int) -> Fraction:
    """The sum of the target norms of the atom values below e."""
    return sum((norm_by_fractions(nu.target, nu.atom_values[i])
                for i in nu.algebra.atom_indices(e)), ZERO)


def integrate_by_fractions(f, nu) -> tuple:
    """sum_a f(a) nu(a), one Fraction product and sum per coordinate."""
    out = tuple(ZERO for _ in range(nu.target.dim))
    for k, v in zip(f.coeffs, nu.atom_values):
        if k != 0:
            out = tuple(x + k * y for x, y in zip(out, v))
    return out


def bochner_by_fractions(f, mu) -> tuple:
    """(sum_a mu(a) f(a), sum_a mu(a) ||f(a)||) in Fractions."""
    total = tuple(ZERO for _ in range(f.target.dim))
    norm = ZERO
    for i, v in enumerate(f.coeffs):
        w = mu.atom_value(i)
        if w != 0:
            total = tuple(x + w * y for x, y in zip(total, v))
            norm += w * norm_by_fractions(f.target, v)
    return total, norm


def mediate_coproduct_by_labels(cop, phi, psi):
    """theta(a*b) = phi(a) & psi(b), with a and b read off the label."""
    images = []
    for label in cop.algebra.atoms:
        a, b = label.split("*", 1)
        images.append(phi(cop.left.element([a])) & psi(cop.right.element([b])))
    return BoolMorphism(cop.algebra, phi.target, tuple(images))


def product_measure_by_labels(mu, nu, cop):
    """(mu (x) nu)(a*b) = mu(a) nu(b), with a and b read off the label."""
    values = []
    for label in cop.algebra.atoms:
        a, b = label.split("*", 1)
        va = mu(mu.algebra.element([a]))[0]
        vb = nu(nu.algebra.element([b]))[0]
        values.append((va * vb,))
    return VectorMeasure(cop.algebra, scalars(), tuple(values))


def fubini_by_labels(f, cop, mu, nu):
    """Fubini's product integral, both iterated integrals and the
    permutation of its witness: f is read at each pair by the label
    'a*b', and each product basis label a*b is matched to a(x)b."""
    def pair_value(a, b):
        return f.coeffs[cop.algebra.atom_index(cop.pair_atom(a, b))]

    total = ZERO
    for i, a in enumerate(cop.left.atoms):
        for j, b in enumerate(cop.right.atoms):
            total += pair_value(a, b) * mu.atom_value(i) * nu.atom_value(j)
    left_then_right = ZERO
    for i, a in enumerate(cop.left.atoms):
        inner = sum((pair_value(a, b) * nu.atom_value(j)
                     for j, b in enumerate(cop.right.atoms)), ZERO)
        left_then_right += inner * mu.atom_value(i)
    right_then_left = ZERO
    for j, b in enumerate(cop.right.atoms):
        inner = sum((pair_value(a, b) * mu.atom_value(i)
                     for i, a in enumerate(cop.left.atoms)), ZERO)
        right_then_left += inner * nu.atom_value(j)
    prod = MeasureAlgebra(cop.algebra, product_measure_by_labels(mu.mu, nu.mu, cop))
    tens = projective_tensor(l1_space(mu), l1_space(nu))
    perm = []
    for label in l1_space(prod).basis:
        a, b = label.split("*", 1)
        perm.append(tens.space.basis.index(f"{a}(x){b}"))
    return total, left_then_right, right_then_left, perm


def coend_relations_by_basis_vectors(bif) -> list:
    """The relations of a coend, one per basis vector z of F(b,a) for each
    arrow f = (a, b): inj_a F(f,a) z - inj_b F(b,f) z, each map applied
    to z and the two images subtracted coordinate by coordinate."""
    objs = bif.index.objects
    injections = direct_sum([bif.space(a, a) for a in objs], tags=list(objs)).injections
    relations = []
    for f in bif.index.arrows:
        a, b = f
        fa, fb = bif.left(f, a), bif.right(b, f)
        src = bif.space(b, a)
        for k in range(src.dim):
            z = src.basis_vector(k)
            relations.append(tuple(x - y for x, y in zip(
                injections[objs.index(a)](fa(z)), injections[objs.index(b)](fb(z)))))
    return relations


def end_constraints_by_offsets(bif) -> list:
    """The constraints of an end, one per row of F(a,b) for each arrow
    f = (a, b): the row of F(a,f) added at the offset of a in the diagonal
    product, the row of F(f,b) subtracted at the offset of b."""
    objs = bif.index.objects
    diag = direct_sum([bif.space(a, a) for a in objs], tags=list(objs))
    constraints = []
    for f in bif.index.arrows:
        a, b = f
        ia, ib = objs.index(a), objs.index(b)
        for r_row, l_row in zip(bif.right(a, f).rows, bif.left(f, b).rows):
            row = [ZERO] * diag.space.dim
            for j, x in r_row:
                row[diag.offsets[ia] + j] += x
            for j, x in l_row:
                row[diag.offsets[ib] + j] -= x
            constraints.append(row)
    return constraints


def show_matrix_by_dense_rows(m) -> list:
    """A report's matrix as `show_rational` of every entry of the dense
    `.matrix`, zeros included."""
    return [[show_rational(x) for x in row] for row in m.matrix]


# -- seeded generators that only tests use ------------------------------------

def random_vector_measure(rng, omega: BoolAlg, target: FinBanSpace) -> VectorMeasure:
    """Seeded random measure with small rational atom values."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return VectorMeasure(
        omega, target,
        tuple(tuple(q() for _ in range(target.dim)) for _ in range(omega.n)))


def random_scaled_precosheaf(rng, omega: BoolAlg,
                             force_noncosheaf: bool = False) -> PreCosheaf:
    """A functorial, contractive precosheaf that is generically not a
    cosheaf: block inclusions damped per atom by factors that accumulate
    multiplicatively along inclusions."""
    atom_spaces = _random_atom_spaces(rng, omega, 2)
    canonical = from_atom_spaces(omega, atom_spaces)
    choices = [ONE, ONE, Fraction(1, 2), Fraction(2, 3)]
    damp = {(a, b): rng.choice(choices)
            for a in omega.atoms for b in omega.atoms if a != b}
    if force_noncosheaf and omega.n >= 2 and all(
            v == 1 for v in damp.values()):
        damp[(omega.atoms[0], omega.atoms[1])] = Fraction(1, 2)
    spaces = {e: canonical.space(e) for e in omega.elements()}
    cover_maps = {}
    for small, big in omega.covering_pairs():
        # below e, a is damped by damp[(a, b)] for each other atom b <= e
        new = omega.atoms[(big ^ small).bit_length() - 1]
        factors = [damp[(a, new)] for a in omega.atoms_below(small)
                   for _ in range(atom_spaces[a].dim)]
        cover_maps[(small, big)] = LinMap(spaces[small], spaces[big], tuple(
            tuple((j, factors[j] * x) for j, x in row)
            for row in canonical.extension(small, big).rows))
    return make_precosheaf(omega, spaces, cover_maps)
