"""The box product of Mackey functors and Green-functor verification.

The level at H of a box product is the quotient of T(H), the direct sum over K <= H of the levelwise tensor products,
by R, the span of the Frobenius relations, which identify restriction against induction in both variables, and of
the conjugation relations, which balance C_x in one factor against its inverse in the other.  No relation is built:
each level is read off a map on T(H) whose kernel is R (``_read_off``).  ``box`` reads it off the Brauer marks, one
block per H-class of subgroups of H; ``box_unit_iso`` reads it off the unit map onto M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import accumulate
from types import MappingProxyType

from .burnside import burnside_ring
from .groups import SubgroupLattice
from .linalg import QMatrix, block_matrix, hstack, permutation_matrix, quotient_by, selection_matrix, tensor
from .mackey import (
    _brauer_functionals,
    _check_identities,
    _require_mackey,
    MackeyError,
    MackeyFunctor,
    MackeyMorphism,
    build_functor,
    comparable_pairs,
    burnside_mackey,
    check_axioms,
)


@dataclass(frozen=True)
class _BoxLevel:
    summands: tuple  # subgroup ids K <= H in lattice order
    offsets: MappingProxyType  # id -> row offset of M(G/K) (x) N(G/K) in T(H)
    t_dim: int
    proj: QMatrix
    section: QMatrix


def _read_off(M: MackeyFunctor, N: MackeyFunctor, h: int, q: QMatrix) -> _BoxLevel:
    """Level H of the box product of M and N from a map q on T(H) with ker q = R, T(H)'s summands in lattice order:
    ``linalg.quotient_by(q)``, the canonical quotient of T(H) by R, which depends on R alone."""
    summands = M.lattice.subgroups_of(h)
    ends = list(accumulate(M.dims[k] * N.dims[k] for k in summands))
    offsets = MappingProxyType(dict(zip(summands, [0, *ends])))
    return _BoxLevel(summands, offsets, ends[-1], *quotient_by(q))


def _level_map(src: _BoxLevel, dst: _BoxLevel, blocks) -> QMatrix:
    """The map of box levels induced by ``(dst summand, src summand, block)`` maps of summands: proj F section, F the
    map placing the blocks.  F is never built: F section places each block times the rows of ``section`` at its
    source summand, and ``proj`` comes once.  A block overrunning T(src) or T(dst) raises ``LinAlgError``."""
    placed = [(dst.offsets[t], 0, b.matmul(src.section.row_block(src.offsets[k], b.cols))) for t, k, b in blocks]
    return dst.proj.matmul(block_matrix(dst.t_dim, src.section.cols, placed))


@dataclass(frozen=True, repr=False, eq=False)
class BoxProduct(MackeyFunctor):
    """A box product with its factors (M, N) and the quotient data of each level, for maps between box products."""

    levels: tuple = field(kw_only=True)
    factors: tuple = field(kw_only=True)


def box(M: MackeyFunctor, N: MackeyFunctor, name: str | None = None) -> BoxProduct:
    """The box product, with its induced restriction, induction and conjugation.

    M and N must be Mackey functors: the level rule below needs L = M[]N to be one, and on other input it is wrong.

    Level H is read off (``_read_off``) the Brauer-mark map q_H: T(H) -> sum of Mb(K) (x) Nb(K), one block per
    K in ``local_classes(H)``, Mb(K) the Brauer quotient M(G/K) / sum of im I^K_J, J < K, in the coordinates of
    Y^M_K (``mackey._brauer_functionals``).  At summand J, q_H sends a (x) b to the sum over xJ in (H/J)^K of
    Y^M_K R^{xJx^-1}_K C_x a (x) Y^N_K R^{xJx^-1}_K C_x b.  A term does not depend on H, so each is built once
    per product, keyed by (K, J, x).  ker q_H = R:

    - The terms of R^H_K on T(H) that land in summand K of T(K) are those of the double cosets KxJ = xJ.  So the
      block of K is q^K_H = s_K R^H_K, where s_K keeps summand K as Y (x) Y and sends the other summands to 0.
    - s_K kills the relations of T(K): those placed at K are a (x) ind b and ind a (x) b, and C_x a (x) b against
      a (x) C_x^-1 b with C_x = id for x in K.  It kills every im I^K_J, which lies in the summands below K.  So
      it descends to Lb(K), where it inverts t_K: Mb(K) (x) Nb(K) -> Lb(K), a (x) b -> a (x) b at K, which is
      onto as the other summands lie in im I^K_J.  As R^H_K maps R into the relations of T(K), q_H kills R, and
      on L(H) it is the Brauer marks x -> (p_K R^H_K x)_K, p_K: L(K) -> Lb(K) the quotient map, followed by the
      inverses of the t_K.
    - The Brauer marks are injective on a rational Mackey functor (Thevenaz and Webb, *Trans. AMS* 347, 1995).
      Let x != 0, e^H_K the primitive idempotents of A_Q(H) and K one with e^H_K x != 0.  Then e^H_K x = I^H_K u
      with u != 0 in U_K L, fixed by N_H(K).  p_K R^H_K kills e^H_K' x for K' not H-conjugate to K, as res_K e^H_K'
      sums the e^K_J with J H-conjugate to K', and p_K kills e^K_J L(K) = I^K_J U_J L when J < K.  By the Mackey
      formula the mark at K is p_K R^H_K I^H_K u = |W_H(K)| p_K u, nonzero as L(K) = U_K L (+) sum of im I^K_J.
    - So ker q_H = R, and ``_read_off`` gives the canonical quotient.

    Only R and I on cover pairs, and C_s for a generator s outside H, are induced: each is the unique f with
    f proj = proj F for its summand map F.  B is a Mackey functor as M and N are, so the rest follow by uniqueness:
    R^H_H = I^H_H = id, C_s = id on B(H) for s in H (C_s (x) C_s is the identity modulo the conjugation relation
    of s), and for L < H not a cover, K the first cover of H above L, R^H_L = R^K_L R^H_K and I^H_L = I^H_K I^K_L.
    So B's R and I compose along cover pairs by construction, whatever M and N are; box(A, M) referees ``box_unit_iso``.
    """
    if M.lattice is not N.lattice:
        raise MackeyError("box product needs a common lattice")
    lat = M.lattice

    @cache
    def functionals(k):  # (Y^M_K, Y^N_K), computed once when N is M
        ym = _brauer_functionals(M, k)
        return ym, ym if N is M else _brauer_functionals(N, k)

    @cache
    def mark(k, j, x):  # the term of q at K, J and xJ, for K <= xJx^-1; its factor Y R C is built once when N is M
        xj = lat.conjugate(x, j)
        ym, yn = functionals(k)
        fm = ym.matmul(M.res[(xj, k)]).matmul(M.conj(x, j))
        return tensor(fm, fm if N is M else yn.matmul(N.res[(xj, k)]).matmul(N.conj(x, j)))

    def marks(h):  # q_H, with a row block per representative K and a column block per summand J
        reps = [k for k, *_ in lat.local_classes(h)]
        tops = [0, *accumulate(ym.rows * yn.rows for ym, yn in map(functionals, reps))]
        # (H/J)^K is empty unless K <=_G J, and asking for it would still fill the lattice's memo
        return hstack(*(block_matrix(tops[-1], M.dims[j] * N.dims[j], [
            (top, 0, mark(k, j, x)) for k, top in zip(reps, tops) if lat.is_subconjugate(k, j)
            for x in lat.fixed_cosets(j, k, h)
        ]) for j in lat.subgroups_of(h)))

    return _box_product(M, N, tuple(_read_off(M, N, h, marks(h)) for h in range(len(lat))), name)


def _box_product(M: MackeyFunctor, N: MackeyFunctor, levels: tuple, name: str | None) -> BoxProduct:
    """The box product on prebuilt ``levels``, its maps induced as ``box`` says and assembled by ``build_functor``,
    which asks only where both levels are nonzero.  For Mackey input no composite passes a zero level, as the support
    of a rational Mackey functor is upward closed: M(G/K) != 0 exactly when some U_J M != 0 with J <=_G K."""
    lat, dims = M.lattice, tuple(level.proj.rows for level in levels)
    live = [[k for k in level.summands if M.dims[k] * N.dims[k]] for level in levels]  # the summands with blocks

    @cache
    def maps(h, k):  # (R^H_K, I^H_K)
        if k == h:
            return (QMatrix.identity(dims[h]),) * 2
        if k not in lat.maximal(h):  # composed through the first K' maximal in H above K
            kp = next(kp for kp in lat.maximal(h) if lat.leq(k, kp))
            (r1, i1), (r2, i2) = maps(h, kp), maps(kp, k)
            return r2.matmul(r1), i1.matmul(i2)
        down = []
        for s in live[h]:
            for l in lat.double_cosets(k, s, h):
                sl = lat.conjugate(l, s)
                meet = lat.meet(k, sl)
                mm, nn = M.res[(sl, meet)].matmul(M.conj(l, s)), N.res[(sl, meet)].matmul(N.conj(l, s))
                down.append((meet, s, tensor(mm, nn)))
        incl = [(s, s, QMatrix.identity(M.dims[s] * N.dims[s])) for s in live[k]]
        return _level_map(levels[h], levels[k], down), _level_map(levels[k], levels[h], incl)

    def conjfn(pos, s, h):
        if s in lat.elements(h):
            return QMatrix.identity(dims[h])
        blocks = [(lat.conjugate(s, k), k, tensor(M.conj(s, k), N.conj(s, k))) for k in live[h]]
        return _level_map(levels[h], levels[lat.conjugate(s, h)], blocks)

    B = build_functor(lat, dims, lambda h, k: maps(h, k)[0], lambda h, k: maps(h, k)[1], conjfn)
    del maps  # it recurses through its own name: unbinding it frees the memo now, not at the next cycle collection
    return BoxProduct(lat, dims, B.res, B.ind, B.cgen, name=name or f"{M.name}[]{N.name}", levels=levels, factors=(M, N))


def box_swap_iso(M: MackeyFunctor, N: MackeyFunctor) -> MackeyMorphism:
    """The symmetry of the box product, certified."""
    MN, NM = box(M, N), box(N, M)
    flip = [permutation_matrix([j * dm + i for i in range(dm) for j in range(dn)]) for dm, dn in zip(M.dims, N.dims)]
    maps = [_level_map(src, dst, [(k, k, flip[k]) for k in src.summands]) for src, dst in zip(MN.levels, NM.levels)]
    iso = MackeyMorphism(MN, NM, tuple(maps))
    iso.validate()
    if not iso.is_levelwise_iso():
        raise MackeyError("box symmetry failed to invert")
    return iso


def box_morphism(f: MackeyMorphism, g: MackeyMorphism, src: BoxProduct, dst: BoxProduct) -> MackeyMorphism:
    """Functoriality: apply f (x) g summandwise between prebuilt box products, f and g from src's factors to dst's."""
    if (f.source, g.source) != src.factors or (f.target, g.target) != dst.factors:
        raise MackeyError("box morphism needs f and g to map the factors of its source to those of its target")
    fg = [tensor(a, b) for a, b in zip(f.maps, g.maps)]
    maps = [_level_map(s, t, [(k, k, fg[k]) for k in s.summands]) for s, t in zip(src.levels, dst.levels)]
    return MackeyMorphism(src, dst, tuple(maps))


def box_unit_iso(M: MackeyFunctor) -> MackeyMorphism:
    """The certified isomorphism from box(A, M) onto M, A the Burnside functor; M failing ``check_axioms`` is refused.

    The unit map q_H: T(H) -> M(H) sends a (x) m at K to I^H_K of a acting on m, [K/J] acting as I^K_J R^K_J.
    T(H) = R + iota(M(H)), R the span of the box relations and iota putting m at [H/H] (x) m: [K/J] (x) n steps down
    to J along cover pairs L < K above J by the second Frobenius family, as ind^K_L [L/J] = [K/J] in A, then up to H
    by the first, as res^K'_K [K'/K'] = [K/K].  q_H kills the second family by transitivity, the conjugation family
    by equivariance and C_x = id on M(H), and the first by the Frobenius lemma [K/J] I^K_L = I^K_L res^K_L [K/J]:
    with xJ = xJx^-1, the Mackey formula makes its left side the sum over x in J\\K/L of I^K_(J n xL) C_x
    R^L_(L n x^-1J) = I^K_(L n x^-1J) R^L_(L n x^-1J) (equivariance, C_x = id on M(K)), res^K_L [K/J] is the sum
    over y in L\\K/J of [L/L n yJ], and x -> x^-1 matches the terms.  As q_H iota = id, ker q_H = R by dimension.
    So the levels are read off q_H (``_read_off``), as ``box`` reads them off the Brauer marks.
    """
    _require_mackey(M.name, M)
    lat = M.lattice
    A = burnside_mackey(lat)
    # a summand's tensor basis runs over the basis [K/L] of A(G/K), then that of M(G/K); [K/L] acts as I^K_L R^K_L
    acts = [hstack(*(M.ind[(k, cls[0])].matmul(M.res[(k, cls[0])]) for cls in lat.local_classes(k))) for k in range(len(lat))]
    levels, maps = [], []
    for h in range(len(lat)):
        q = hstack(*(M.ind[(h, k)].matmul(acts[k]) for k in lat.subgroups_of(h)))
        levels.append(_read_off(A, M, h, q))
        maps.append(q.matmul(levels[-1].section))
    iso = MackeyMorphism(_box_product(A, M, tuple(levels), None), M, tuple(maps))
    iso.validate()
    return iso


# ---------------------------------------------------------------------------
# Green functors
# ---------------------------------------------------------------------------


@dataclass
class GreenStructure:
    """A Mackey functor with levelwise multiplications and units."""

    base: MackeyFunctor
    mult: dict  # h -> QMatrix, M(G/H) (x) M(G/H) -> M(G/H)
    unit: dict  # h -> QMatrix column


@dataclass
class GreenReport:
    """Like ``AxiomReport``, with ``commutative``; ``checked`` is not compared."""

    ok: bool
    commutative: bool
    violations: list
    checked: dict = field(default_factory=dict, compare=False)


def green_check(S: GreenStructure) -> GreenReport:
    """Exact verification of the algebra, homomorphism and Frobenius rules.

    Each rule is one sparse matrix identity, with mu_H and u_H the
    multiplication and unit at H, and m any R or C from level H to level T:

    - unit: ``mu_H (u_H (x) 1) = 1 = mu_H (1 (x) u_H)``;
    - associativity: ``mu_H (mu_H (x) 1) = mu_H (1 (x) mu_H)``, checked as its
      column blocks ``mu_H (L_i (x) 1) = L_i mu_H``, one for each basis vector
      e_i with ``L_i = mu_H (e_i (x) 1)``, so that no matrix has d^3 columns;
    - ring maps: ``m mu_H = mu_T (m (x) m)`` and ``m u_H = u_T``;
    - Frobenius for K < H: ``mu_H (1 (x) I) = I mu_K (R (x) 1)`` (left) and
      ``mu_H (I (x) 1) = I mu_K (1 (x) R)`` (right).

    Both sides are multilinear, and column (i, j), or column (j, l) of block
    i, of each side is the rule on ``e_i (x) e_j``, or on ``e_i (x) e_j (x) e_l``.
    So an identity holds exactly when the pairwise rule holds on every basis
    tuple, and the nonzero columns of the difference are the tuples where it
    fails, in lexicographic order.  Each rule is reported once per level, pair
    of levels or generator.  The Frobenius rules of K < H are ordered by their
    first failing pair (x, y), left first on a tie; the right rule's column
    (y, x) is that pair.  The map rules need well-shaped multiplications, so
    they run only when no level has a shape violation.  ``commutative`` is
    False when mu_H and mu_H after the swap of factors differ at a pair no
    later than the level's first associativity failure.

    When the base passes ``check_axioms``, a reduced pass checks the level
    rules, the R and Frobenius rules on cover pairs K < H only, and C on the
    generators.  When all of these hold, so does every rule at every K < H,
    by induction on the length of a longest chain from K up to H: take K'
    maximal in H with K < K'.  R and I compose, so R^H_K = R^{K'}_K R^H_{K'}
    is a composite of unital ring maps, hence one, and with I^H_K =
    I^H_{K'} I^{K'}_K the left rule at K' < H, then at K < K' by induction,
    gives

        mu_H (a (x) I^H_K b) = I^H_{K'} mu_{K'} (R^H_{K'} a (x) I^{K'}_K b)
                             = I^H_K mu_K (R^H_K a (x) b),

    and the right rule likewise.  On any failure, or when the base fails the
    axioms, every comparable pair is checked and the report is what that
    exhaustive pass finds.  ``checked`` counts the identities per rule on the
    pass that decided the verdict.
    """
    M = S.base
    lat = M.lattice
    G = lat.group
    eye = QMatrix.identity
    commutative = True

    def differ(lhs, rhs) -> set:
        return (lhs - rhs).nonzero_cols()

    def ring_map(m, h, t, kind, at):
        yield f"{kind}-unit", m.matmul(S.unit[h]) == S.unit[t], at
        yield f"{kind}-homomorphism", m.matmul(S.mult[h]) == S.mult[t].matmul(tensor(m, m)), at

    def identities(pairs):
        nonlocal commutative
        shaped = True
        for h in range(len(lat)):
            d, mult, unit, at = M.dims[h], S.mult[h], S.unit[h], partial(lat.name, h)
            fits = (mult.rows, mult.cols, unit.rows, unit.cols) == (d, d * d, d, 1)
            shaped &= fits
            yield "shape", fits, at
            if not fits:
                continue
            yield "unit", mult.matmul(tensor(unit, eye(d))) == eye(d) == mult.matmul(tensor(eye(d), unit)), at
            last = d * d
            for i in range(d):
                left = mult.matmul(block_matrix(d * d, d, [(i * d, 0, eye(d))]))
                if bad := differ(left.matmul(mult), mult.matmul(tensor(left, eye(d)))):
                    last = i * d + min(bad) // d
                    break
            swap = permutation_matrix([b * d + a for a in range(d) for b in range(d)])
            if any(c <= last for c in differ(mult, mult.matmul(swap))):
                commutative = False
            yield "associativity", last == d * d, at
        if not shaped:
            return
        for h, k in pairs:
            r, ind = M.res[(h, k)], M.ind[(h, k)]
            dh, dk = M.dims[h], M.dims[k]
            yield from ring_map(r, h, k, "restriction", partial("{} > {}".format, lat.name(h), lat.name(k)))
            left = differ(S.mult[h].matmul(tensor(eye(dh), ind)), ind.matmul(S.mult[k].matmul(tensor(r, eye(dk)))))
            right = differ(S.mult[h].matmul(tensor(ind, eye(dh))), ind.matmul(S.mult[k].matmul(tensor(eye(dk), r))))
            right = {(c % dh) * dk + c // dh for c in right}
            first = {"frobenius-left": min(left, default=dh * dk), "frobenius-right": min(right, default=dh * dk)}
            for rule in sorted(first, key=first.get):
                yield rule, first[rule] == dh * dk, partial("{} < {}".format, lat.name(k), lat.name(h))
        for pos, s in enumerate(G.gens):
            for h in range(len(lat)):
                at = partial("{}@{}".format, G.elem_name(s), lat.name(h))
                yield from ring_map(M.cgen[(pos, h)], h, lat.conjugate(s, h), "conjugation", at)

    reduced = identities(lat.cover_pairs()) if check_axioms(M).ok else None
    violations, checked = _check_identities(reduced, identities((h, k) for h, k in comparable_pairs(lat) if k != h))
    return GreenReport(not violations, commutative, violations, checked)


def burnside_green(lattice: SubgroupLattice) -> GreenStructure:
    """The Burnside functor with its ring multiplications levelwise; the unit is the class of the level itself."""
    rings = [burnside_ring(lattice, h) for h in range(len(lattice))]
    mult = {h: ring.multiplication_table() for h, ring in enumerate(rings)}
    unit = {h: selection_matrix(ring.size, [ring.class_index[h]]) for h, ring in enumerate(rings)}
    return GreenStructure(burnside_mackey(lattice), mult, unit)

