"""Rational Mackey functors: data model, axiom checker, standard constructions,
the Burnside-ring action, and the change-of-group functors.

A Mackey functor here stores one exact-rational vector space per subgroup
(every subgroup, not just class representatives), restriction and induction
matrices for every comparable pair, and conjugation matrices for the group's
generators; conjugation by an arbitrary element is assembled from the word
decomposition recorded in the group.  Redundant storage is deliberate: the
axiom checker verifies transitivity instead of defining maps by it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType

from .burnside import BurnsideElement, burnside_ring
from .groups import GMap, GSet, SubgroupLattice, coset_gset, restrict_gset
from .linalg import (
    QMatrix,
    WModule,
    averaging_projector,
    block_matrix,
    direct_sum as mat_direct_sum,
    fixed_subspace,
    hstack,
    quotient_space,
    restrict_map,
    selection_matrix,
    vstack,
)


class MackeyError(ValueError):
    pass


@dataclass(frozen=True)
class MackeyFunctor:
    """Levels, restrictions, inductions and generator conjugations over a lattice.

    A functor is an immutable value: the three map tables are read-only views
    of private copies, so the cache below cannot go stale.  Variants come
    from ``dataclasses.replace``, which starts them with an empty cache.
    """

    lattice: SubgroupLattice
    dims: tuple[int, ...]
    res: MappingProxyType  # (h, k) -> QMatrix, M(G/H) -> M(G/K), for K <= H
    ind: MappingProxyType  # (h, k) -> QMatrix, M(G/K) -> M(G/H), for K <= H
    cgen: MappingProxyType  # (gen position, h) -> QMatrix, M(G/H) -> M(G/sHs^-1)
    name: str = "M"
    _conj_cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        for table in ("res", "ind", "cgen"):
            object.__setattr__(self, table, MappingProxyType(dict(getattr(self, table))))

    @property
    def group(self):
        return self.lattice.group

    def conj(self, g: int, h: int) -> QMatrix:
        """Conjugation by an arbitrary group element, assembled from generators.

        With s the last letter of the word of g and p = gs^-1 (whose word is
        the rest), C_g = C_p C_s: one product from the cached C_p.
        """
        key = (g, h)
        mat = self._conj_cache.get(key)
        if mat is None:
            G = self.group
            word = G.word(g)
            if not word:
                mat = QMatrix.identity(self.dims[h])
            else:
                s = G.gens[word[-1]]
                mat = self.cgen[(word[-1], h)]
                if len(word) > 1:
                    mat = self.conj(G.mul(g, G.inv(s)), self.lattice.conjugate(s, h)).matmul(mat)
            self._conj_cache[key] = mat
        return mat

    def __repr__(self) -> str:
        return f"MackeyFunctor({self.name} over {self.group.name}, dims={self.dims})"


def comparable_pairs(lattice: SubgroupLattice):
    for h in range(len(lattice)):
        for k in lattice.subgroups_of(h):
            yield (h, k)


def build_functor(lattice, dims, resfn, indfn, conjfn, name="M") -> MackeyFunctor:
    """Assemble a functor from per-pair map constructors."""
    dims = tuple(dims)
    res, ind, cgen = {}, {}, {}
    for h, k in comparable_pairs(lattice):
        res[(h, k)] = resfn(h, k)
        ind[(h, k)] = indfn(h, k)
    for pos, s in enumerate(lattice.group.gens):
        for h in range(len(lattice)):
            cgen[(pos, h)] = conjfn(pos, s, h)
    return MackeyFunctor(lattice, dims, res, ind, cgen, name=name)


# ---------------------------------------------------------------------------
# the axiom checker
# ---------------------------------------------------------------------------


@dataclass
class AxiomViolation:
    axiom: str
    detail: str

    def __str__(self):
        return f"[{self.axiom}] {self.detail}"


@dataclass
class AxiomReport:
    """The verdict, the violations found, and per rule the number of identities
    evaluated on the path that decided the verdict (not compared)."""

    ok: bool
    violations: list
    checked: dict = field(default_factory=dict, compare=False)

    def __str__(self):
        if self.ok:
            return "all axioms hold"
        return "\n".join(str(v) for v in self.violations)


def check_axioms(M: MackeyFunctor, fail_fast: bool = False, exhaustive: bool = False) -> AxiomReport:
    """Exact verification of the four axioms plus shape consistency.

    Shapes are checked for every map.  Then a reduced pass checks

    (a) R^H_H = I^H_H = id, and C_x = id on M(G/H) for x in ``lat.gens(H)``;
    (b) R^H_L = R^K_L R^H_K and I^H_L = I^H_K I^K_L for K maximal in H (a
        cover pair) and L < K;
    (c) C_{gs} = C_g C_s at every level, for g in G and s a generator such
        that the word of gs is not the word of g followed by s;
    (d) R^{sH}_{sK} C_s = C_s R^H_K and I^{sH}_{sK} C_s = C_s I^H_K for s a
        generator and K maximal in H;
    (e) the Mackey formula at (H, K, L) with H a class representative and K,
        L representatives of the H-classes of maximal subgroups of H.

    When all of these hold, so does every identity of the full check, as
    shown below.  When any of them fails, or with ``exhaustive``, the full
    check runs: axioms 1-3 at every level, chain, element and comparable
    pair, then the formula at every triple.  Its violations, up to the first
    with ``fail_fast``, are the report, and ``checked`` counts the identities
    per rule on the path that decided the verdict (``_check_identities``).

    Why (a)-(e) suffice.  ``conj`` builds C_g from the word of g that the
    group's breadth-first search found, as C_p C_s with ps = g and the word
    of p a prefix of the word of g.  So C_{gs} = C_g C_s holds by
    construction on the edges of that word tree, and (c) checks it on every
    other edge.

    - C_{ab} = C_a C_b for all a, b, by induction on the word length of b:
      C_1 = id, and for b = b's with the word of b' a prefix,
      C_{ab} = C_{ab'} C_s = C_a C_{b'} C_s = C_a C_b.  The full check's
      C_{sg} = C_s C_g is the case a = s.
    - C_x = id on M(G/H) for every x in H: the set of such x contains
      ``gens(H)`` by (a), and C_{xy} = C_x C_y on M(G/H) for x, y in H, so it
      is closed under products and is all of H.
    - Transitivity for every chain L < K' < H, by induction on |H|: take K
      maximal in H with K' <= K.  If K' = K this is (b).  Otherwise
      R^{K'}_L R^H_{K'} = R^{K'}_L R^K_{K'} R^H_K = R^K_L R^H_K = R^H_L,
      by (b) twice and the induction hypothesis at K; likewise for I.
    - Equivariance for every K < H, by induction on the length of a longest
      chain from K up to H: if K is maximal this is (d); otherwise take K'
      maximal in H with K < K', and
      R^{sH}_{sK} C_s = R^{sK'}_{sK} R^{sH}_{sK'} C_s = R^{sK'}_{sK} C_s R^H_{K'}
      = C_s R^{K'}_K R^H_{K'} = C_s R^H_K, as conjugation preserves the
      chain.  K = H is axiom 1, and likewise for I.

    With axioms 1-3 in hand, the Mackey formula at (H, K, L),

        R^H_K I^H_L = sum over x in K\\H/L of I^K_{K n xLx^-1} C_x R^L_{L n x^-1Kx},

    has three properties.  Each term does not depend on the representative
    x: C_{kxl} = C_k C_x C_l, and C_k, C_l are absorbed by equivariance and
    C_h = id on M(G/H) for h in H.  The identity at (gH, gK, gL), and at
    (H, hKh^-1, L) or (H, K, hLh^-1) for h in H, is the one at (H, K, L)
    composed with invertible C's, since x -> hx and x -> xh^-1 are
    bijections of the double cosets.  And it holds at (H, H, L) and
    (H, K, H): there is one double coset, its representative x lies in H,
    and the right side is I^H_{xLx^-1} C_x = C_x I^H_L = I^H_L, or its
    mirror.

    Now the formula holds at every triple, by induction on |H|.  By the
    second property it suffices that it holds at class representatives H,
    and there (e) and the second and third properties give it for K and L
    each maximal in H or equal to H.  For K < K' with K' maximal in H,

        R^H_K I^H_L = R^{K'}_K R^H_{K'} I^H_L
                    = sum over y in K'\\H/L of R^{K'}_K I^{K'}_{K' n yLy^-1} C_y R^L_{L n y^-1K'y},

    and the formula at the smaller level (K', K, K' n yLy^-1) expands each
    R^{K'}_K I^{K'}_{K' n yLy^-1} as a sum over z in K\\K'/(K' n yLy^-1).
    Equivariance, transitivity and C_z C_y = C_{zy} turn the term at (y, z)
    into the term at x = zy of the formula at (H, K, L), and (y, z) -> zy
    is a bijection onto K\\H/L, since the K-orbits on K'yL/L are
    K\\K'/(K' n yLy^-1).  So the formula holds for every K, with L maximal
    in H or equal to H.  The same argument on the right, through L < L'
    maximal and the formula at (L', L' n y^-1Ky, L), gives every L.
    """
    reduced = None if exhaustive else _axiom_identities(M, True)
    found, checked = _check_identities(reduced, _axiom_identities(M, False), fail_fast)
    return AxiomReport(not found, [AxiomViolation(*v) for v in found], checked)


def _check_identities(reduced, exhaustive, fail_fast: bool = False):
    """The one loop of every checker, over generators of ``(rule, holds, detail)``.

    ``reduced`` yields identities that imply all of ``exhaustive``, or is None
    to request the exhaustive path.  If every reduced identity holds, nothing
    is violated.  Otherwise, or on request, the exhaustive failures are the
    report, up to the first with ``fail_fast``, as ``(rule, detail())`` pairs:
    ``detail`` formats the message, only there and before the generator
    resumes, so it may read the loop variables.  Also returns per rule the
    number of identities evaluated on the path that decided the verdict.
    """
    if reduced is not None:
        checked = Counter()
        for rule, holds, _ in reduced:
            checked[rule] += 1
            if not holds:
                break
        else:
            return [], dict(checked)
    checked, found = Counter(), []
    for rule, holds, detail in exhaustive:
        checked[rule] += 1
        if not holds:
            found.append((rule, detail()))
            if fail_fast:
                break
    return found, dict(checked)


def _axiom_identities(M: MackeyFunctor, reduced: bool):
    """``(rule, holds, detail)`` for the shape of every map, then, if all are
    well-shaped, for axioms 1-4 on the reduced or the full scope."""
    lat = M.lattice
    G = M.group
    nm = lat.name
    shaped = True
    for (h, k), m in M.res.items():
        shaped &= (fits := (m.rows, m.cols) == (M.dims[k], M.dims[h]))
        yield "shape", fits, lambda: f"restriction {nm(h)}>{nm(k)} has shape {m.rows}x{m.cols}"
    for (h, k), m in M.ind.items():
        shaped &= (fits := (m.rows, m.cols) == (M.dims[h], M.dims[k]))
        yield "shape", fits, lambda: f"induction {nm(k)}<{nm(h)} has shape {m.rows}x{m.cols}"
    for (pos, h), m in M.cgen.items():
        shaped &= (fits := (m.rows, m.cols) == (M.dims[lat.conjugate(G.gens[pos], h)], M.dims[h]))
        yield "shape", fits, lambda: f"conjugation {G.elem_name(G.gens[pos])}@{nm(h)} has wrong shape"
    # nothing downstream is well-posed with mismatched shapes
    if shaped:
        yield from _structure_identities(M, reduced)
        yield from _formula_identities(M, _maximal_triples(lat) if reduced else _all_triples(lat))


def _structure_identities(M: MackeyFunctor, reduced: bool = False):
    """Axioms 1-3 as ``(rule, holds, detail)``: (a)-(d) of ``check_axioms``, or the full check's."""
    lat = M.lattice
    G = M.group
    nm, en = lat.name, G.elem_name
    R, I, C = M.res, M.ind, M.cgen

    # axiom 1: R^H_H = I^H_H = id, C_x = id on M(G/H) for x in H (up to the first x that fails)
    for h in range(len(lat)):
        eye = QMatrix.identity(M.dims[h])
        yield "identity-restriction", R[(h, h)] == eye, lambda: f"R at {nm(h)} is not the identity"
        yield "identity-induction", I[(h, h)] == eye, lambda: f"I at {nm(h)} is not the identity"
        for x in lat.gens(h) if reduced else lat.elements(h):
            holds = M.conj(x, h) == eye
            yield "inner-conjugation", holds, lambda: f"C_{en(x)} is not the identity on level {nm(h)}"
            if not holds:
                break

    # axiom 2: transitivity of R and I along L < K < H, K maximal in H on the reduced scope
    for h, k in lat.cover_pairs() if reduced else comparable_pairs(lat):
        for l in lat.subgroups_of(k):
            if l != k != h:
                holds = R[(h, l)] == R[(k, l)].matmul(R[(h, k)])
                yield "restriction-transitivity", holds, lambda: f"{nm(h)} > {nm(k)} > {nm(l)}"
                holds = I[(h, l)] == I[(h, k)].matmul(I[(k, l)])
                yield "induction-transitivity", holds, lambda: f"{nm(l)} < {nm(k)} < {nm(h)}"
    # and multiplicativity of C: C_{ab} = C_a C_b for (a, b) = (s, g), s a generator, on the full
    # scope; on the reduced one for the edges (g, s) off the word tree, as ``conj`` builds it on the tree
    edges = [(g, pos, s) for g in range(G.order) for pos, s in enumerate(G.gens)]
    if reduced:
        edges = [(g, pos, s) for g, pos, s in edges if G.word(G.mul(g, s)) != G.word(g) + (pos,)]
    for h in range(len(lat)):
        for g, pos, s in edges:
            if reduced:
                a, b, rhs = g, s, M.conj(g, lat.conjugate(s, h)).matmul(C[(pos, h)])
            else:
                a, b, rhs = s, g, C[(pos, lat.conjugate(g, h))].matmul(M.conj(g, h))
            holds = M.conj(G.mul(a, b), h) == rhs
            yield "conjugation-multiplicativity", holds, lambda: f"C_({en(a)}*{en(b)}) != C_{en(a)} C_{en(b)} at {nm(h)}"

    # axiom 3: equivariance of R and I (generators suffice given axiom 2)
    for pos, s in enumerate(G.gens):
        for h, k in lat.cover_pairs() if reduced else comparable_pairs(lat):
            hs, ks = lat.conjugate(s, h), lat.conjugate(s, k)
            holds = R[(hs, ks)].matmul(C[(pos, h)]) == C[(pos, k)].matmul(R[(h, k)])
            yield "restriction-equivariance", holds, lambda: f"conjugating {nm(h)} > {nm(k)} by {en(s)}"
            holds = I[(hs, ks)].matmul(C[(pos, k)]) == C[(pos, h)].matmul(I[(h, k)])
            yield "induction-equivariance", holds, lambda: f"conjugating {nm(k)} < {nm(h)} by {en(s)}"


def _all_triples(lat: SubgroupLattice):
    """Every (H, K, L) with K, L <= H."""
    return ((h, k, l) for h in range(len(lat)) for k in lat.subgroups_of(h) for l in lat.subgroups_of(h))


def _maximal_triples(lat: SubgroupLattice):
    """(H, K, L) with H a class representative and K, L representatives of the H-classes of maximal subgroups of H."""
    for h in lat.class_reps():
        reps = [cls[0] for cls in lat.local_classes(h) if cls[0] in lat.maximal(h)]
        yield from ((h, k, l) for k in reps for l in reps)


def _formula_identities(M: MackeyFunctor, triples):
    """``(rule, holds, detail)`` for axiom 4, the double-coset formula, at each of ``triples``.

    The term I^K_{K n xLx^-1} C_x R^L_{L n x^-1Kx} depends only on (K, L, x), so
    one table keyed by (K, L, x) per check is exact.  Because x is the least
    member of KxL (``double_cosets``), and KxL is the same set of G in every H
    containing K and L, levels that share a double coset share the key, and
    the term is built once.
    """
    lat = M.lattice
    G = M.group
    nm = lat.name
    terms = {}
    for h, k, l in triples:
        lhs = M.res[(h, k)].matmul(M.ind[(h, l)])
        blocks = []
        for x in lat.double_cosets(k, l, h):
            term = terms.get((k, l, x))
            if term is None:
                upper = lat.meet(k, lat.conjugate(x, l))  # K n xLx^-1
                lower = lat.conjugate(G.inv(x), upper)  # L n x^-1Kx
                term = terms[(k, l, x)] = M.ind[(k, upper)].matmul(M.conj(x, lower)).matmul(M.res[(l, lower)])
            blocks.append((0, 0, term))
        rhs = block_matrix(M.dims[k], M.dims[l], blocks)
        yield "double-coset", lhs == rhs, lambda: f"R^{nm(h)}_{nm(k)} I^{nm(h)}_{nm(l)} mismatch"


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def zero_functor(lattice: SubgroupLattice) -> MackeyFunctor:
    return constant(lattice, 0, name="0")


def constant(lattice: SubgroupLattice, dim: int = 1, name: str | None = None) -> MackeyFunctor:
    """Identity restrictions; induction multiplies by the subgroup index."""
    eye = QMatrix.identity(dim)
    return build_functor(
        lattice,
        [dim] * len(lattice),
        lambda h, k: eye,
        lambda h, k: QMatrix.scalar(dim, lattice.index(k, h)),
        lambda pos, s, h: eye,
        name=name or f"const({dim})",
    )


def coconstant(lattice: SubgroupLattice, dim: int = 1, name: str | None = None) -> MackeyFunctor:
    """Identity inductions; restriction multiplies by the subgroup index."""
    eye = QMatrix.identity(dim)
    return build_functor(
        lattice,
        [dim] * len(lattice),
        lambda h, k: QMatrix.scalar(dim, lattice.index(k, h)),
        lambda h, k: eye,
        lambda pos, s, h: eye,
        name=name or f"coconst({dim})",
    )


def dual(M: MackeyFunctor) -> MackeyFunctor:
    """Swap restriction and induction through transposes; C_g dualizes C_{g inverse}."""
    lat = M.lattice
    return build_functor(
        lat,
        M.dims,
        lambda h, k: M.ind[(h, k)].transpose(),
        lambda h, k: M.res[(h, k)].transpose(),
        lambda pos, s, h: M.conj(M.group.inv(s), lat.conjugate(s, h)).transpose(),
        name=f"D({M.name})",
    )


def direct_sum(*summands: MackeyFunctor, name: str | None = None) -> MackeyFunctor:
    """The direct sum of one or more functors over one lattice, built in one pass."""
    first = summands[0]
    if any(M.lattice is not first.lattice for M in summands):
        raise MackeyError("direct sum needs a common lattice")
    dims = tuple(map(sum, zip(*(M.dims for M in summands))))
    res = {p: mat_direct_sum(*(M.res[p] for M in summands)) for p in first.res}
    ind = {p: mat_direct_sum(*(M.ind[p] for M in summands)) for p in first.ind}
    cgen = {p: mat_direct_sum(*(M.cgen[p] for M in summands)) for p in first.cgen}
    return MackeyFunctor(first.lattice, dims, res, ind, cgen, name=name or "+".join(M.name for M in summands))


def rebase(M: MackeyFunctor, lattice: SubgroupLattice) -> MackeyFunctor:
    """Move a functor onto another lattice object for the same group.

    Lattice construction is deterministic, so two lattices built from equal
    multiplication tables number subgroups identically.  The conjugation maps
    are keyed by generator position, so the generators must agree as well;
    then every matrix carries over unchanged.
    """
    if M.lattice is lattice:
        return M
    if (M.group._mul, M.group.gens) != (lattice.group._mul, lattice.group.gens):
        raise MackeyError("cannot rebase onto a lattice of a different group")
    return replace(M, lattice=lattice)


def basis_change(M: MackeyFunctor, mats: list[QMatrix], name: str | None = None) -> MackeyFunctor:
    """Rewrite every level in a new basis; ``mats[h]`` sends old coordinates to new."""
    lat = M.lattice
    inv = [m.inverse() for m in mats]
    return build_functor(
        lat,
        M.dims,
        lambda h, k: mats[k].matmul(M.res[(h, k)]).matmul(inv[h]),
        lambda h, k: mats[h].matmul(M.ind[(h, k)]).matmul(inv[k]),
        lambda pos, s, h: mats[lat.conjugate(s, h)].matmul(M.cgen[(pos, h)]).matmul(inv[h]),
        name=name or M.name,
    )


# -- fixed points and quotients ----------------------------------------------


def _check_module_over(lattice: SubgroupLattice, V: WModule) -> None:
    if not lattice.group.same_table(V.group):
        raise MackeyError("module must be a representation of the lattice's group")


def fp_functor(lattice: SubgroupLattice, V: WModule, name: str | None = None) -> MackeyFunctor:
    """Fixed points of a rational representation at every level.

    Restriction includes a fixed subspace into a larger one; induction sums a
    vector over coset representatives.
    """
    return _fp_with_bases(lattice, V, name)[0]


def _fp_with_bases(lattice: SubgroupLattice, V: WModule, name: str | None):
    """``fp_functor`` together with the basis of fixed vectors of each level."""
    _check_module_over(lattice, V)
    bases = [fixed_subspace(V, lattice.gens(h)) for h in range(len(lattice))]
    dims = [b.cols for b in bases]

    def resfn(h, k):
        return restrict_map(QMatrix.identity(V.dim), bases[h], bases[k])

    def indfn(h, k):
        acc = block_matrix(V.dim, V.dim, [(0, 0, V.matrix(r)) for r in lattice.cosets(k, h)])
        return restrict_map(acc, bases[k], bases[h])

    def conjfn(pos, s, h):
        return restrict_map(V.matrix(s), bases[h], bases[lattice.conjugate(s, h)])

    return build_functor(lattice, dims, resfn, indfn, conjfn, name=name or "FP"), bases


def _coinvariants(V: WModule, elems) -> tuple[QMatrix, QMatrix]:
    """``quotient_space`` of V by the span of the vectors xv - v, x in ``elems``.

    Generators of H give the span for all of H, as stv - v = (s(tv) - tv) + (tv - v),
    and likewise the fixed space; both results depend on the subspace alone.
    """
    eye = QMatrix.identity(V.dim)
    return quotient_space(V.dim, hstack(*[V.matrix(x) - eye for x in elems]))


def fq_functor(lattice: SubgroupLattice, V: WModule, name: str | None = None) -> MackeyFunctor:
    """Coinvariants of a rational representation at every level (dual route).

    Restriction sums the inverses of a left transversal; only then is the sum
    independent of the representatives on both sides of the quotients.
    """
    return _fq_with_quotients(lattice, V, name)[0]


def _fq_with_quotients(lattice: SubgroupLattice, V: WModule, name: str | None):
    """``fq_functor`` together with the projections and sections of the levels' quotients."""
    _check_module_over(lattice, V)
    G = lattice.group
    projs, secs = zip(*(_coinvariants(V, lattice.gens(h)) for h in range(len(lattice))))
    dims = [p.rows for p in projs]

    def resfn(h, k):
        acc = block_matrix(V.dim, V.dim, [(0, 0, V.matrix(G.inv(r))) for r in lattice.cosets(k, h)])
        return projs[k].matmul(acc).matmul(secs[h])

    def indfn(h, k):
        return projs[h].matmul(secs[k])

    def conjfn(pos, s, h):
        return projs[lattice.conjugate(s, h)].matmul(V.matrix(s)).matmul(secs[h])

    return build_functor(lattice, dims, resfn, indfn, conjfn, name=name or "FQ"), projs, secs


def fp_fq_iso(lattice: SubgroupLattice, V: WModule) -> MackeyMorphism:
    """The canonical isomorphism from fixed points to coinvariants.

    Levelwise, including the fixed subspace into V and passing to the
    quotient is invertible with inverse the averaging composite; that is
    certified here.  Those raw maps pick up index factors against restriction
    and induction, so the returned morphism carries the 1/|H| normalization
    that makes the collection commute with all structure maps.
    """
    FP, bases = _fp_with_bases(lattice, V, None)
    FQ, projs, secs = _fq_with_quotients(lattice, V, None)
    maps = []
    for h, basis, proj, sec in zip(range(len(lattice)), bases, projs, secs):
        fwd = proj.matmul(basis)
        # the averaging composite inverts the raw include-then-quotient map
        avg = averaging_projector(V, lattice.elements(h))
        back = basis.solve(avg.matmul(sec))
        if back is None or fwd.matmul(back) != QMatrix.identity(fwd.rows) or back.matmul(fwd) != QMatrix.identity(fwd.cols):
            raise MackeyError("averaging composite failed to invert the comparison")
        maps.append(fwd.scale(Fraction(1, lattice.order(h))))
    iso = MackeyMorphism(FP, FQ, tuple(maps))
    iso.validate()
    return iso


# -- the Burnside-ring Mackey functor -------------------------------------------


def burnside_mackey(lattice: SubgroupLattice, name: str = "A") -> MackeyFunctor:
    """Level H is the rational Burnside ring of H; maps are restriction of sets,
    induction [K/L] -> [H/L] and conjugation [H/L] -> [sHs^-1/sLs^-1]."""
    rings = [burnside_ring(lattice, h) for h in range(len(lattice))]

    def resfn(h, k):
        return rings[h].restriction_table(k)

    def indfn(h, k):
        return selection_matrix(rings[h].size, [rings[h].class_index[rep] for rep in rings[k].reps])

    def conjfn(pos, s, h):
        target = rings[lattice.conjugate(s, h)]
        return selection_matrix(target.size, [target.class_index[lattice.conjugate(s, rep)] for rep in rings[h].reps])

    return build_functor(lattice, [r.size for r in rings], resfn, indfn, conjfn, name=name)


# -- the Burnside action ------------------------------------------------------------


def burnside_action(M: MackeyFunctor, h: int, a: BurnsideElement) -> QMatrix:
    """The action of an element of A_Q(H) on M(G/H), classwise I o R."""
    ring = a.ring
    if ring.lattice is not M.lattice or ring.top != h:
        raise MackeyError("element must live in the Burnside ring of the level")
    terms = [(0, 0, M.ind[(h, rep)].matmul(M.res[(h, rep)]).scale(c)) for rep, c in zip(ring.reps, a.coeffs) if c]
    return block_matrix(M.dims[h], M.dims[h], terms)


def idempotent_part(M: MackeyFunctor, e: BurnsideElement, name: str | None = None) -> MackeyFunctor:
    """The summand eM cut out by an idempotent of the top-level Burnside ring.

    Level H is the image of the action of the restricted idempotent; structure
    maps are restricted to those images (restriction, induction and
    conjugation all commute with the idempotent action).
    """
    lat = M.lattice
    ring = burnside_ring(lat)
    if e.ring != ring:
        raise MackeyError("idempotent must live in the top-level Burnside ring")
    if not e.is_idempotent():
        raise MackeyError("element is not idempotent")
    bases = [burnside_action(M, h, ring.restrict(e, h)).image() for h in range(len(lat))]
    return build_functor(
        lat,
        [b.cols for b in bases],
        lambda h, k: restrict_map(M.res[(h, k)], bases[h], bases[k]),
        lambda h, k: restrict_map(M.ind[(h, k)], bases[k], bases[h]),
        lambda pos, s, h: restrict_map(M.cgen[(pos, h)], bases[h], bases[lat.conjugate(s, h)]),
        name=name or f"e*{M.name}",
    )


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


@dataclass
class MackeyMorphism:
    """Levelwise linear maps commuting with all structure maps."""

    source: MackeyFunctor
    target: MackeyFunctor
    maps: tuple

    def __post_init__(self):
        self.maps = tuple(QMatrix(m) for m in self.maps)
        lat = self.source.lattice
        if self.target.lattice is not lat:
            raise MackeyError("morphism endpoints live over different lattices")
        for h in range(len(lat)):
            m = self.maps[h]
            if (m.rows, m.cols) != (self.target.dims[h], self.source.dims[h]):
                raise MackeyError(f"component at {lat.name(h)} has the wrong shape")

    def validate(self, full: bool = False) -> None:
        """Check commutation with R, I and C, raising ``MackeyError`` at a square that fails.

        The reduced pass checks covering pairs and generators, which suffices
        when both endpoints satisfy the axioms, and passes a square whose
        composite has 0 rows or 0 columns, as both sides are then empty.  On a
        failure, or with ``full``, every pair and every group element is
        checked, and the message names the first square that fails there.
        """
        M, N, f = self.source, self.target, self.maps
        lat = M.lattice
        G = M.group
        nm = lat.name

        def squares(every):
            def commutes(t, m, n, s):  # f_t m = n f_s for maps m, n from level s to level t of M, N
                return not (every or (f[t].rows and m.cols)) or f[t].matmul(m) == n.matmul(f[s])

            for h, k in comparable_pairs(lat) if every else lat.cover_pairs():
                yield "restriction", commutes(k, M.res[(h, k)], N.res[(h, k)], h), lambda: f"restriction {nm(h)} > {nm(k)}"
                yield "induction", commutes(h, M.ind[(h, k)], N.ind[(h, k)], k), lambda: f"induction {nm(k)} < {nm(h)}"
            for h in range(len(lat)):
                for s in range(G.order) if every else G.gens:
                    holds = commutes(lat.conjugate(s, h), M.conj(s, h), N.conj(s, h), h)
                    yield "conjugation", holds, lambda: f"conjugation by {G.elem_name(s)} at {nm(h)}"

        found, _ = _check_identities(None if full else squares(False), squares(True), fail_fast=True)
        if found:
            raise MackeyError(f"does not commute with {found[0][1]}")

    def is_levelwise_iso(self) -> bool:
        return all(m.is_invertible() for m in self.maps)

    def __repr__(self):
        return f"MackeyMorphism({self.source.name} -> {self.target.name})"


# ---------------------------------------------------------------------------
# evaluation on finite G-sets
# ---------------------------------------------------------------------------


@dataclass
class EvaluatedSet:
    """A Mackey functor value on an explicit G-set via chosen orbit data.

    Each orbit is identified with cosets of the stabilizer of its smallest
    point p; the block order follows the orbit order.  Point q lies in orbit
    ``orbit_of[q]``, and ``transporter[q]`` is the least t with t.p = q.
    """

    orbit_reps: tuple
    stabilizers: tuple  # lattice ids
    offsets: tuple
    dim: int
    orbit_of: tuple
    transporter: tuple


def evaluate_at_set(M: MackeyFunctor, X: GSet) -> EvaluatedSet:
    """M on X, reading each orbit and every point's transporter in one ascending pass over the group."""
    if not M.group.same_table(X.group):
        raise MackeyError(f"G-set is over {X.group.name}, not over the functor's group {M.group.name}")
    orbit_of, transporter = [None] * X.size, [None] * X.size
    reps, stabs, offsets = [], [], [0]
    for p in range(X.size):
        if orbit_of[p] is None:
            for g, row in enumerate(X.act):  # g ascends, so the first g with g.p = q is the least
                if orbit_of[row[p]] is None:
                    orbit_of[row[p]], transporter[row[p]] = len(reps), g
            reps.append(p)
            stabs.append(M.lattice.subgroup_id(tuple(g for g, row in enumerate(X.act) if row[p] == p)))
            offsets.append(offsets[-1] + M.dims[stabs[-1]])
    return EvaluatedSet(
        tuple(reps), tuple(stabs), tuple(offsets[:-1]), offsets[-1], tuple(orbit_of), tuple(transporter)
    )


def _map_matrix(M: MackeyFunctor, points, ev_x: EvaluatedSet, ev_y: EvaluatedSet, covariant: bool) -> QMatrix:
    """M applied to the equivariant map ``p -> points[p]`` from X to Y, one block per orbit of X.

    The orbit of p (stabilizer A) maps into the orbit of q = points[p], where
    q = t.r for the orbit's smallest point r (stabilizer B), so t^-1 A t <= B.
    """
    lat, inv = M.lattice, M.lattice.group.inv
    blocks = []
    for i, p in enumerate(ev_x.orbit_reps):
        q = points[p]
        j, t, a = ev_y.orbit_of[q], ev_y.transporter[q], ev_x.stabilizers[i]
        b, twisted = ev_y.stabilizers[j], lat.conjugate(inv(t), a)
        if covariant:
            blocks.append((ev_y.offsets[j], ev_x.offsets[i], M.ind[(b, twisted)].matmul(M.conj(inv(t), a))))
        else:
            blocks.append((ev_x.offsets[i], ev_y.offsets[j], M.conj(t, twisted).matmul(M.res[(b, twisted)])))
    return block_matrix(ev_y.dim, ev_x.dim, blocks) if covariant else block_matrix(ev_x.dim, ev_y.dim, blocks)


def covariant_map(M: MackeyFunctor, f: GMap) -> QMatrix:
    """M applied in the induction direction to a map of G-sets."""
    return _map_matrix(M, f.points, evaluate_at_set(M, f.src), evaluate_at_set(M, f.dst), covariant=True)


def contravariant_map(M: MackeyFunctor, f: GMap) -> QMatrix:
    """M applied in the restriction direction to a map of G-sets."""
    return _map_matrix(M, f.points, evaluate_at_set(M, f.src), evaluate_at_set(M, f.dst), covariant=False)


# ---------------------------------------------------------------------------
# change of groups
# ---------------------------------------------------------------------------


def _coset_position(lattice: SubgroupLattice, g: int, k: int) -> int:
    """The position of the coset gK in ``lattice.cosets(k)``; both index cosets by their least member."""
    return lattice.cosets(k).index(lattice.coset_of(g, k))


def _pull_back(M: MackeyFunctor, view, lift, name: str):
    """M read along a lattice view: level a is M at ``view.parent_sub(a)``, and the
    view group's element s acts by M's conjugation by ``lift[s]``.

    Returns ``(functor over the view's lattice, view)``.
    """
    sub, up = view.lattice, view.parent_sub
    return build_functor(
        sub,
        [M.dims[up(a)] for a in range(len(sub))],
        lambda a, b: M.res[(up(a), up(b))],
        lambda a, b: M.ind[(up(a), up(b))],
        lambda pos, s, a: M.conj(lift[s], up(a)),
        name=name,
    ), view


def i_lower(M: MackeyFunctor, h: int, name: str | None = None):
    """Forget a functor over G down to the subgroup H (evaluation along induced sets).

    Returns ``(functor over H, lattice view)``.
    """
    view = M.lattice.sub_lattice(h)
    return _pull_back(M, view, view.to_parent_elem, name or f"i_({M.name})")


def _restricted_cosets(N: MackeyFunctor, parent: SubgroupLattice, h: int):
    """``(view of H, [N on G/K restricted to H for every K <= G])`` for N over the view of H <= G."""
    view = parent.sub_lattice(h)
    if N.lattice is not view.lattice:
        raise MackeyError("functor must live over the sub-lattice view of H")
    G, Hstar = parent.group, view.lattice.group
    evals = [
        evaluate_at_set(N, restrict_gset(coset_gset(G, parent.elements(k)), Hstar, view.to_parent_elem))
        for k in range(len(parent))
    ]
    return view, evals


def i_upper(N: MackeyFunctor, parent: SubgroupLattice, h: int, name: str | None = None) -> MackeyFunctor:
    """Extend a functor over H <= G up to G by evaluating on restricted cosets."""
    _, evals = _restricted_cosets(N, parent, h)
    G = parent.group

    def along(g, k, l, covariant):
        # N on the map G/K -> G/L, rK -> r g^-1 L, of restricted coset spaces
        points = tuple(_coset_position(parent, G.mul(r, G.inv(g)), l) for r in parent.cosets(k))
        return _map_matrix(N, points, evals[k], evals[l], covariant)

    def resfn(h1, k1):
        return along(G.identity, k1, h1, covariant=False)

    def indfn(h1, k1):
        return along(G.identity, k1, h1, covariant=True)

    def conjfn(pos, s, k):
        return along(s, k, parent.conjugate(s, k), covariant=True)

    return build_functor(parent, [ev.dim for ev in evals], resfn, indfn, conjfn, name=name or f"i^({N.name})")


def eps_lower(Mq: MackeyFunctor, parent: SubgroupLattice, n: int, name: str | None = None) -> MackeyFunctor:
    """Inflate a functor over G/N to one over G, zero off subgroups containing N."""
    view = parent.quotient_lattice(n)
    if Mq.lattice is not view.lattice:
        raise MackeyError("functor must live over the quotient lattice view")
    local_of = {view.parent_sub(i): i for i in range(len(view.lattice))}
    dims = [Mq.dims[local_of[k]] if k in local_of else 0 for k in range(len(parent))]

    def resfn(h, k):
        if h in local_of and k in local_of:
            return Mq.res[(local_of[h], local_of[k])]
        return QMatrix.zeros(dims[k], dims[h])

    def indfn(h, k):
        if h in local_of and k in local_of:
            return Mq.ind[(local_of[h], local_of[k])]
        return QMatrix.zeros(dims[h], dims[k])

    def conjfn(pos, s, h):
        if h in local_of:
            return Mq.conj(view.proj[s], local_of[h])
        return QMatrix.zeros(dims[parent.conjugate(s, h)], dims[h])

    return build_functor(parent, dims, resfn, indfn, conjfn, name=name or f"eps_({Mq.name})")


def eps_upper(M: MackeyFunctor, n: int, name: str | None = None):
    """Deflate a functor that vanishes off supergroups of a normal N to one over G/N.

    Returns ``(functor over G/N, quotient lattice view)``.
    """
    lat = M.lattice
    if not lat.is_normal(n):
        raise MackeyError(f"{lat.name(n)} is not normal")
    for k in range(len(lat)):
        if not lat.leq(n, k) and M.dims[k] != 0:
            raise MackeyError(
                f"functor is not trivial off supergroups of {lat.name(n)}: level {lat.name(k)} has dimension {M.dims[k]}"
            )
    view = lat.quotient_lattice(n)
    return _pull_back(M, view, view.reps, name or f"eps^({M.name})")


# -- evaluation at the bottom level and its adjoint -----------------------------


def evaluate_bottom(M: MackeyFunctor) -> WModule:
    """The value at the free orbit, with the conjugation action of the group."""
    lat = M.lattice
    w = lat.weyl(lat.bottom)
    mats = tuple(M.conj(w.reps[s], lat.bottom) for s in w.group.gens)
    return WModule(w.group, M.dims[lat.bottom], mats)


def fp_unit(M: MackeyFunctor) -> MackeyMorphism:
    """The unit morphism into the fixed-point functor on the bottom level."""
    lat = M.lattice
    V = evaluate_bottom(M)
    F, bases = _fp_with_bases(lat, V, f"FP({M.name}(G/e))")
    maps = tuple(basis.solve(M.res[(h, lat.bottom)]) for h, basis in enumerate(bases))
    if None in maps:
        raise MackeyError("restriction to the bottom level does not land in fixed vectors")
    unit = MackeyMorphism(M, F, maps)
    unit.validate()
    return unit


# -- adjunction transposes for the subgroup change -------------------------------


def i_transpose_down(f_maps, N: MackeyFunctor, parent: SubgroupLattice, h: int):
    """Turn levelwise maps M -> i^upper(N) into maps i_lower(M) -> N.

    ``f_maps[k]`` is the component at the parent subgroup k, with the i^upper
    value decomposed by the canonical orbit data.  The result has one
    component per subgroup of H.
    """
    view, evals = _restricted_cosets(N, parent, h)
    sub = view.lattice
    out = []
    for a in range(len(sub)):
        pa = view.parent_sub(a)
        ev = evals[pa]
        # the identity coset of pa sits in some orbit; project onto that block
        ident_pt = _coset_position(parent, parent.group.identity, pa)
        j, t = ev.orbit_of[ident_pt], ev.transporter[ident_pt]
        b = ev.stabilizers[j]
        # stabilizer of the identity coset is the subgroup itself: t b t^-1 = a
        if sub.conjugate(t, b) != a:
            raise MackeyError("stabilizer mismatch in transpose")
        proj = block_matrix(N.dims[b], ev.dim, [(0, ev.offsets[j], QMatrix.identity(N.dims[b]))])
        out.append(N.conj(t, b).matmul(proj).matmul(f_maps[pa]))
    return out


def i_transpose_up(g_maps, M: MackeyFunctor, N: MackeyFunctor, parent: SubgroupLattice, h: int):
    """Turn levelwise maps i_lower(M) -> N into maps M -> i^upper(N)."""
    view, evals = _restricted_cosets(N, parent, h)
    G = parent.group
    out = []
    for k, ev in enumerate(evals):
        reps = parent.cosets(k)
        blocks = []
        for j, orb_rep in enumerate(ev.orbit_reps):
            g_rep = reps[orb_rep]
            s_local = ev.stabilizers[j]
            twisted = parent.conjugate(G.inv(g_rep), view.parent_sub(s_local))  # g^-1 S g <= K
            blocks.append(g_maps[s_local].matmul(M.conj(g_rep, twisted)).matmul(M.res[(k, twisted)]))
        out.append(vstack(*blocks))  # G/K is not empty, so neither is its orbit list
    return out
