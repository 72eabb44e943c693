"""The box product of Mackey functors and Green-functor verification.

The level at H of a box product is a quotient of the direct sum over K <= H
of the levelwise tensor products: Frobenius-style relations identify
restriction against induction in both variables, and a conjugation family
balances C_x in one factor against its inverse in the other.  Only the
relations on cover pairs L < K <= H and for x generating H are built, as they
span the rest (``_box_level``); the quotient is exact, in one elimination.
Each relation family is built once per product and placed by every level above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial

from .burnside import burnside_ring
from .groups import SubgroupLattice
from .linalg import QMatrix, block_matrix, hstack, permutation_matrix, quotient_space, selection_matrix, tensor
from .mackey import (
    _check_identities,
    MackeyError,
    MackeyFunctor,
    MackeyMorphism,
    burnside_action,
    comparable_pairs,
    burnside_mackey,
    check_axioms,
)


@dataclass
class _BoxLevel:
    summands: tuple  # subgroup ids K <= H in lattice order
    offsets: dict  # id -> row offset of M(G/K) (x) N(G/K) in T(H)
    t_dim: int
    proj: QMatrix
    section: QMatrix


def _relation_families(M: MackeyFunctor, N: MackeyFunctor):
    """``(frobenius, conjugation)``: the families of a cover pair L < K and of (x, K), each built on first use.

    A family is listed as ``(summand, block, summand, -block)``; none depends on the level, so every H >= K
    places the same blocks.  Left out are the families with no columns and that of x at a K containing x:
    there xKx^-1 = K and C_x is the identity on M(G/K) and on N(G/K) by axiom 1, so its columns are zero."""
    lat = M.lattice
    eye = QMatrix.identity

    @cache
    def frobenius(k, l):
        pairs = [(M.res[(k, l)], eye(N.dims[l]), eye(M.dims[k]), N.ind[(k, l)]),
                 (eye(M.dims[l]), N.res[(k, l)], M.ind[(k, l)], eye(N.dims[k]))]
        return [(l, tensor(a, b), k, -tensor(c, d)) for a, b, c, d in pairs if a.cols * b.cols]

    @cache
    def conjugation(x, k):
        kx, xi = lat.conjugate(x, k), lat.group.inv(x)
        pairs = [] if x in lat.elements(k) else [(M.conj(x, k), eye(N.dims[kx]), eye(M.dims[k]), N.conj(xi, kx))]
        return [(kx, tensor(a, b), k, -tensor(c, d)) for a, b, c, d in pairs if a.cols * b.cols]

    return frobenius, conjugation


def _box_level(M: MackeyFunctor, N: MackeyFunctor, h: int, families=None) -> _BoxLevel:
    """T(H), the sum over K <= H of M(G/K) (x) N(G/K), and its quotient by the relations.

    Each relation family is one block column: a tensor block at one summand
    minus a tensor block at another.  For L < K the Frobenius families are
    res (x) 1 at L against 1 (x) ind at K, and 1 (x) res at L against
    ind (x) 1 at K; for x in H the conjugation family is C_x (x) 1 at xKx^-1
    against 1 (x) C_x^-1 at K.  The last two blocks share a summand when x
    normalizes K.  The blocks come from ``families``, the product's, or are built anew.

    Only L maximal in K and x among the generators of H are emitted; for
    Mackey functors the rest lie in their span.  For L < K' < K, the first
    family has a (x) ind^K_L b = a (x) ind^K_K' ind^K'_L b ~ res^K_K' a (x)
    ind^K'_L b ~ res^K_L a (x) b as R and I compose, the second likewise, and
    covers chain any L < K.
    C_yz a (x) b = C_y C_z a (x) b ~ C_z a (x) C_y^-1 b ~ a (x) C_(yz)^-1 b,
    by y then z, as C is multiplicative; generators give all of finite H.
    """
    lat = M.lattice
    frobenius, conjugation = families or _relation_families(M, N)
    summands = lat.subgroups_of(h)
    offsets, t_dim = {}, 0
    for k in summands:
        offsets[k] = t_dim
        t_dim += M.dims[k] * N.dims[k]
    blocks, n_rel = [], 0
    relations = [f for k, l in lat.cover_pairs() if k in offsets for f in frobenius(k, l)]
    for k1, a, k2, b in relations + [f for x in lat.gens(h) for k in summands for f in conjugation(x, k)]:
        blocks += [(offsets[k1], n_rel, a), (offsets[k2], n_rel, b)]
        n_rel += a.cols
    proj, section = quotient_space(t_dim, block_matrix(t_dim, n_rel, blocks))
    return _BoxLevel(summands, offsets, t_dim, proj, section)


def _level_map(src: _BoxLevel, dst: _BoxLevel, blocks) -> QMatrix:
    """The map of box levels induced by ``(dst summand, src summand, block)`` maps of summands: proj F section, F the
    map placing the blocks.  F is never built: each block meets the rows of ``section`` at its source summand, and
    ``proj`` comes once.  A block overrunning T(src) or T(dst) raises ``LinAlgError``, as placing it in F would."""
    lifted = [(dst.offsets[t], 0, b.matmul(src.section.row_block(src.offsets[k], b.cols))) for t, k, b in blocks]
    return dst.proj.matmul(block_matrix(dst.t_dim, src.section.cols, lifted))


@dataclass(frozen=True, repr=False, eq=False)
class BoxProduct(MackeyFunctor):
    """A box product with the quotient data of each level, for maps between box products."""

    levels: tuple = field(kw_only=True)


def box(M: MackeyFunctor, N: MackeyFunctor, name: str | None = None) -> BoxProduct:
    """The box product, with its induced restriction, induction and conjugation.

    M and N must be Mackey functors: ``_box_level`` relies on R and I being
    transitive and C multiplicative, and on other input the quotient is wrong.

    Only R and I on cover pairs, and C_s for a generator s outside H, are
    induced: each is the unique f with f proj = proj F for its summand map F.
    B is a Mackey functor as M and N are, so the rest follow by uniqueness:
    R^H_H = I^H_H = id, C_s = id on B(H) for s in H (C_s (x) C_s is the
    identity modulo the conjugation relation of s), and for L < H not a cover,
    K the first cover of H above L, R^H_L = R^K_L R^H_K and I^H_L = I^H_K
    I^K_L, where K's maps exist as ids follow subgroup order.
    """
    if M.lattice is not N.lattice:
        raise MackeyError("box product needs a common lattice")
    lat = M.lattice
    G = lat.group
    families = _relation_families(M, N)
    levels = tuple(_box_level(M, N, h, families) for h in range(len(lat)))
    dims = tuple(level.proj.rows for level in levels)
    # summands whose tensor space is zero contribute no blocks
    live = [[k for k in level.summands if M.dims[k] * N.dims[k]] for level in levels]

    res, ind = {}, {}
    for h in range(len(lat)):
        r, i = {}, {}  # the maps between level h and each lower level
        for k in lat.maximal(h):
            # induction: include the smaller sum of summands, then project
            incl = [(s, s, QMatrix.identity(M.dims[s] * N.dims[s])) for s in live[k]]
            i[k] = _level_map(levels[k], levels[h], incl)
            down = []
            for s in live[h]:
                for l in lat.double_cosets(k, s, h):
                    sl = lat.conjugate(l, s)
                    meet = lat.meet(k, sl)
                    mm = M.res[(sl, meet)].matmul(M.conj(l, s))
                    nn = N.res[(sl, meet)].matmul(N.conj(l, s))
                    down.append((meet, s, tensor(mm, nn)))
            r[k] = _level_map(levels[h], levels[k], down)
        for l in lat.subgroups_of(h):
            if l == h:
                r[l] = i[l] = QMatrix.identity(dims[h])
            elif l not in r:
                k = next(k for k in lat.maximal(h) if lat.leq(l, k))
                r[l], i[l] = res[(k, l)].matmul(r[k]), i[k].matmul(ind[(k, l)])
            res[(h, l)], ind[(h, l)] = r[l], i[l]

    cgen = {}
    for pos, s in enumerate(G.gens):
        for h in range(len(lat)):
            if s in lat.elements(h):
                cgen[(pos, h)] = QMatrix.identity(dims[h])
                continue
            blocks = [(lat.conjugate(s, k), k, tensor(M.conj(s, k), N.conj(s, k))) for k in live[h]]
            cgen[(pos, h)] = _level_map(levels[h], levels[lat.conjugate(s, h)], blocks)

    return BoxProduct(lat, dims, res, ind, cgen, name=name or f"{M.name}[]{N.name}", levels=levels)


def box_swap_iso(M: MackeyFunctor, N: MackeyFunctor) -> MackeyMorphism:
    """The symmetry of the box product, certified."""
    MN = box(M, N)
    NM = box(N, M)
    maps = []
    for src, dst in zip(MN.levels, NM.levels):
        flips = []
        for k in src.summands:
            dm, dn = M.dims[k], N.dims[k]
            flips.append((k, k, permutation_matrix([j * dm + i for i in range(dm) for j in range(dn)])))
        maps.append(_level_map(src, dst, flips))
    iso = MackeyMorphism(MN, NM, tuple(maps))
    iso.validate()
    if not iso.is_levelwise_iso():
        raise MackeyError("box symmetry failed to invert")
    return iso


def box_morphism(f: MackeyMorphism, g: MackeyMorphism, src: BoxProduct, dst: BoxProduct) -> MackeyMorphism:
    """Functoriality: apply f (x) g summandwise between prebuilt box products."""
    maps = []
    for lvl_src, lvl_dst in zip(src.levels, dst.levels):
        blocks = [(k, k, tensor(f.maps[k], g.maps[k])) for k in lvl_src.summands]
        maps.append(_level_map(lvl_src, lvl_dst, blocks))
    return MackeyMorphism(src, dst, tuple(maps))


def box_unit_iso(M: MackeyFunctor) -> MackeyMorphism:
    """The certified isomorphism from box(A, M) onto M, A the Burnside functor.

    The map sends a summand element a (x) m at K to the induction of a acting
    on m; the relation generators are verified to die under it before the
    quotient is inverted.
    """
    lat = M.lattice
    A = burnside_mackey(lat)
    B = box(A, M)
    # a summand's tensor basis runs over the basis of A(G/K), then that of M(G/K)
    acts = []
    for k in range(len(lat)):
        ring_k = burnside_ring(lat, k)
        acts.append(hstack(*(burnside_action(M, k, ring_k.basis(r)) for r in ring_k.reps)))
    maps = []
    for h, lvl in enumerate(B.levels):
        big = hstack(*(M.ind[(h, k)].matmul(acts[k]) for k in lvl.summands))
        down = big.matmul(lvl.section)
        # the map must kill every relation before it can descend
        if down.matmul(lvl.proj) != big:
            raise MackeyError("unit map does not descend to the box quotient")
        maps.append(down)
    iso = MackeyMorphism(B, M, tuple(maps))
    iso.validate()
    if not iso.is_levelwise_iso():
        raise MackeyError("box unit map failed to invert")
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

