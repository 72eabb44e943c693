"""The box product of Mackey functors and Green-functor verification.

The level at H of a box product is a quotient of the direct sum over K <= H
of the levelwise tensor products: Frobenius-style relations identify
restriction against induction in both variables, and a conjugation family
balances C_h in one factor against its inverse in the other, generated for
every h in H and every K <= H.  All generators are materialized and the
quotient is taken exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .burnside import burnside_ring
from .classify import u_module
from .groups import SubgroupLattice
from .linalg import QMatrix, block_matrix, permutation_matrix, quotient_space, tensor
from .mackey import (
    MackeyError,
    MackeyFunctor,
    MackeyMorphism,
    burnside_action,
    comparable_pairs,
    burnside_mackey,
    idempotent_part,
)


@dataclass
class _BoxLevel:
    summands: tuple  # subgroup ids K <= H in lattice order
    offsets: dict  # id -> row offset of M(G/K) (x) N(G/K) in T(H)
    t_dim: int
    proj: QMatrix
    section: QMatrix


def _box_level(M: MackeyFunctor, N: MackeyFunctor, h: int) -> _BoxLevel:
    """T(H), the sum over K <= H of M(G/K) (x) N(G/K), and its quotient by the relations.

    Each relation family is one block column: a tensor block at one summand
    minus a tensor block at another.  For L < K the Frobenius families are
    res (x) 1 at L against 1 (x) ind at K, and 1 (x) res at L against
    ind (x) 1 at K; for x in H the conjugation family is C_x (x) 1 at xKx^-1
    against 1 (x) C_x^-1 at K.  The last two blocks share a summand when x
    normalizes K.
    """
    lat = M.lattice
    G = lat.group
    summands = lat.subgroups_of(h)
    offsets, t_dim = {}, 0
    for k in summands:
        offsets[k] = t_dim
        t_dim += M.dims[k] * N.dims[k]
    blocks, n_rel = [], 0

    def relate(k1, a, k2, b):
        nonlocal n_rel
        blocks.append((offsets[k1], n_rel, a))
        blocks.append((offsets[k2], n_rel, -b))
        n_rel += a.cols

    eye = QMatrix.identity
    for k in summands:
        for l in lat.subgroups_of(k):
            if l != k:
                relate(l, tensor(M.res[(k, l)], eye(N.dims[l])), k, tensor(eye(M.dims[k]), N.ind[(k, l)]))
                relate(l, tensor(eye(M.dims[l]), N.res[(k, l)]), k, tensor(M.ind[(k, l)], eye(N.dims[k])))
    for x in lat.elements(h):
        if x == G.identity:
            continue
        xi = G.inv(x)
        for k in summands:
            kx = lat.conjugate(x, k)
            relate(kx, tensor(M.conj(x, k), eye(N.dims[kx])), k, tensor(eye(M.dims[k]), N.conj(xi, kx)))
    proj, section = quotient_space(t_dim, block_matrix(t_dim, n_rel, blocks))
    return _BoxLevel(summands, offsets, t_dim, proj, section)


def _level_map(src: _BoxLevel, dst: _BoxLevel, blocks) -> QMatrix:
    """The map of box levels induced by ``(dst summand, src summand, block)`` maps of summands."""
    big = block_matrix(dst.t_dim, src.t_dim, [(dst.offsets[t], src.offsets[k], b) for t, k, b in blocks])
    return dst.proj.matmul(big).matmul(src.section)


@dataclass(frozen=True, repr=False, eq=False)
class BoxProduct(MackeyFunctor):
    """A box product with the quotient data of each level, for maps between box products."""

    levels: tuple = field(kw_only=True)


def box(M: MackeyFunctor, N: MackeyFunctor, name: str | None = None) -> BoxProduct:
    """The box product, with its induced restriction, induction and conjugation."""
    if M.lattice is not N.lattice:
        raise MackeyError("box product needs a common lattice")
    lat = M.lattice
    G = lat.group
    levels = tuple(_box_level(M, N, h) for h in range(len(lat)))
    dims = tuple(level.proj.rows for level in levels)
    # summands whose tensor space is zero contribute no blocks
    live = [[k for k in level.summands if M.dims[k] * N.dims[k]] for level in levels]

    res, ind = {}, {}
    for h in range(len(lat)):
        for k in lat.subgroups_of(h):
            # induction: include the smaller sum of summands, then project
            incl = [(s, s, QMatrix.identity(M.dims[s] * N.dims[s])) for s in live[k]]
            ind[(h, k)] = _level_map(levels[k], levels[h], incl)
            down = []
            for s in live[h]:
                for l in lat.double_cosets(k, s, h):
                    sl = lat.conjugate(l, s)
                    meet = lat.meet(k, sl)
                    mm = M.res[(sl, meet)].matmul(M.conj(l, s))
                    nn = N.res[(sl, meet)].matmul(N.conj(l, s))
                    down.append((meet, s, tensor(mm, nn)))
            res[(h, k)] = _level_map(levels[h], levels[k], down)

    cgen = {}
    for pos, s in enumerate(G.gens):
        for h in range(len(lat)):
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
    maps = []
    for h, lvl in enumerate(B.levels):
        cols = []
        for k in lvl.summands:
            ring_k = burnside_ring(lat, k)
            for ci in range(ring_k.size):
                act = burnside_action(M, k, ring_k.basis(ring_k.reps[ci]))
                through = M.ind[(h, k)].matmul(act)
                for j in range(M.dims[k]):
                    cols.append(through.col(j))
        big = (
            QMatrix.from_cols(cols, rows=M.dims[h]) if cols else QMatrix.zeros(M.dims[h], 0)
        )
        # the map must kill every relation before it can descend
        kernel_probe = big.matmul(lvl.section.matmul(lvl.proj)) - big
        if not kernel_probe.is_zero():
            raise MackeyError("unit map does not descend to the box quotient")
        maps.append(big.matmul(lvl.section))
    iso = MackeyMorphism(B, M, tuple(maps))
    iso.validate()
    if not iso.is_levelwise_iso():
        raise MackeyError("box unit map failed to invert")
    return iso


@dataclass
class BoxIdempotentReport:
    dims_local_box: tuple
    dims_box_local: tuple
    tensor_dim_at_h: int
    value_dim_at_h: int
    ok: bool


def box_idempotent_check(M: MackeyFunctor, N: MackeyFunctor, h: int) -> BoxIdempotentReport:
    """Compare the local piece of a box product with the box of local pieces.

    Checks levelwise dimensions, certifies the induced map, and confirms the
    value at G/H is the plain tensor product of the two local values.
    """
    lat = M.lattice
    ring = burnside_ring(lat)
    e = ring.idempotent(h)
    B = box(M, N)
    eB, incl_b = idempotent_part(B, e, with_inclusion=True)
    eM, incl_m = idempotent_part(M, e, with_inclusion=True)
    eN, incl_n = idempotent_part(N, e, with_inclusion=True)
    B2 = box(eM, eN)
    tensor_dim = eM.dims[h] * eN.dims[h]
    ok = eB.dims == B2.dims and B2.dims[h] == tensor_dim
    if ok:
        into_box = box_morphism(incl_m, incl_n, B2, B)
        # project onto the idempotent part of the big box
        maps = []
        for k in range(len(lat)):
            P = burnside_action(B, k, ring.restrict(e, k))
            coords = incl_b.maps[k].solve(P.matmul(into_box.maps[k]))
            if coords is None:
                ok = False
                break
            maps.append(coords)
        if ok:
            psi = MackeyMorphism(B2, eB, tuple(maps))
            psi.validate()
            ok = psi.is_levelwise_iso()
    return BoxIdempotentReport(tuple(eB.dims), tuple(B2.dims), tensor_dim, B2.dims[h], ok)


def u_monoidal_dims_ok(M: MackeyFunctor, N: MackeyFunctor) -> bool:
    """Dimension part of strong monoidality of the class evaluations."""
    B = box(M, N)
    lat = M.lattice
    for h in lat.class_reps():
        um, _ = u_module(M, h)
        un, _ = u_module(N, h)
        ub, _ = u_module(B, h)
        if ub.dim != um.dim * un.dim:
            return False
    return True


def u_monoidal_certificate(M: MackeyFunctor, N: MackeyFunctor, h: int, B: BoxProduct | None = None) -> bool:
    """Full strong-monoidality check at one class: an explicit Weyl-equivariant
    isomorphism from the tensor of the local pieces onto the local piece of
    the box product."""
    lat = M.lattice
    if B is None:
        B = box(M, N)
    UM, BM = u_module(M, h)
    UN, BN = u_module(N, h)
    UB, BB = u_module(B, h)
    if UB.dim != UM.dim * UN.dim:
        return False
    if UB.dim == 0:
        return True
    lvl = B.levels[h]
    pair = tensor(BM, BN)  # columns span the tensor of the two local pieces
    via = lvl.proj.matmul(block_matrix(lvl.t_dim, pair.cols, [(lvl.offsets[h], 0, pair)]))
    ring_h = burnside_ring(lat, h)
    P = burnside_action(B, h, ring_h.idempotent(h))
    candidate = BB.solve(P.matmul(via))
    if candidate is None or not candidate.is_invertible():
        return False
    w = lat.weyl(h)
    for pos, s in enumerate(w.group.gens):
        lhs = candidate.matmul(tensor(UM.gen_matrices[pos], UN.gen_matrices[pos]))
        if lhs != UB.gen_matrices[pos].matmul(candidate):
            return False
    return True


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
    ok: bool
    commutative: bool
    violations: list

    def rules_violated(self) -> set:
        return {name for name, _ in self.violations}


def green_check(S: GreenStructure) -> GreenReport:
    """Exact verification of algebra, homomorphism and Frobenius conditions.

    All identities are checked bilinearly on basis vectors, which keeps the
    cost at a few vector operations per basis pair instead of Kronecker-sized
    matrix products.  Each rule is reported once per level, pair of levels or
    generator, at its first failure.  The map rules need well-shaped
    multiplications, so they run only when no level has a shape violation.
    ``commutative`` is False when two basis vectors fail to commute at a level,
    among the pairs scanned before that level's first associativity failure.
    """
    M = S.base
    lat = M.lattice
    G = lat.group
    basis = [[tuple(int(t == i) for t in range(d)) for i in range(d)] for d in M.dims]
    products = {}  # h -> per basis pair a * d + b, the nonzero (t, value) entries of e_a e_b
    noncommuting = []

    def prod(h, u, v):
        # bilinear product of two coordinate vectors at level h
        d = M.dims[h]
        if h not in products:
            products[h] = S.mult[h].transpose().sparse_rows()
        table = products[h]
        out = [0] * d
        for a, ua in enumerate(u):
            if ua == 0:
                continue
            for b, vb in enumerate(v):
                if vb == 0:
                    continue
                for t, x in table[a * d + b]:
                    out[t] += ua * vb * x
        return tuple(out)

    def apply(m, v):
        return m.matmul(QMatrix.column(v)).col(0)

    def associates(h, ei, ej):
        # (e_i e_j) e_l == e_i (e_j e_l) for every l, noting on the way whether e_i and e_j commute
        ij = prod(h, ei, ej)
        if prod(h, ej, ei) != ij:
            noncommuting.append(h)
        return all(prod(h, ij, el) == prod(h, ei, prod(h, ej, el)) for el in basis[h])

    def multiplicative(m, h, t, cols):
        # m(e_i e_j) == m(e_i) m(e_j) for every pair, cols[i] being m(e_i)
        pairs = product(enumerate(basis[h]), repeat=2)
        return all(apply(m, prod(h, ei, ej)) == prod(t, cols[i], cols[j]) for (i, ei), (j, ej) in pairs)

    def level_rules():
        for h in range(len(lat)):
            d, E = M.dims[h], basis[h]
            mult, unit = S.mult[h], S.unit[h]
            if (mult.rows, mult.cols) != (d, d * d) or (unit.rows, unit.cols) != (d, 1):
                yield ("shape", lat.name(h))
                continue
            u = unit.col(0)
            if any(prod(h, u, e) != e or prod(h, e, u) != e for e in E):
                yield ("unit", lat.name(h))
            if not all(associates(h, ei, ej) for ei, ej in product(E, repeat=2)):
                yield ("associativity", lat.name(h))

    def map_rules():
        for h, k in comparable_pairs(lat):
            if k == h:
                continue
            r, ind = M.res[(h, k)], M.ind[(h, k)]
            rc = [r.col(i) for i in range(M.dims[h])]
            ic = [ind.col(y) for y in range(M.dims[k])]
            if r.matmul(S.unit[h]).col(0) != S.unit[k].col(0):
                yield ("restriction-unit", f"{lat.name(h)} > {lat.name(k)}")
            if not multiplicative(r, h, k, rc):
                yield ("restriction-homomorphism", f"{lat.name(h)} > {lat.name(k)}")
            # both Frobenius rules scan the pairs (x, y) in one order and are reported by first failure
            pairs = list(product(range(M.dims[h]), range(M.dims[k])))
            Eh, Ek = basis[h], basis[k]
            rules = (
                ("frobenius-left", lambda x, y: prod(h, Eh[x], ic[y]) == apply(ind, prod(k, rc[x], Ek[y]))),
                ("frobenius-right", lambda x, y: prod(h, ic[y], Eh[x]) == apply(ind, prod(k, Ek[y], rc[x]))),
            )
            first = sorted(
                (next((n for n, p in enumerate(pairs) if not holds(*p)), len(pairs)), rule) for rule, holds in rules
            )
            for n, rule in first:
                if n < len(pairs):
                    yield (rule, f"{lat.name(k)} < {lat.name(h)}")
        for pos, s in enumerate(G.gens):
            for h in range(len(lat)):
                t = lat.conjugate(s, h)
                c = M.cgen[(pos, h)]
                if c.matmul(S.unit[h]).col(0) != S.unit[t].col(0):
                    yield ("conjugation-unit", f"{G.elem_name(s)}@{lat.name(h)}")
                if not multiplicative(c, h, t, [c.col(i) for i in range(M.dims[h])]):
                    yield ("conjugation-homomorphism", f"{G.elem_name(s)}@{lat.name(h)}")

    violations = list(level_rules())
    if all(rule != "shape" for rule, _ in violations):
        violations += map_rules()
    return GreenReport(not violations, not noncommuting, violations)


def burnside_green(lattice: SubgroupLattice) -> GreenStructure:
    """The Burnside functor with its ring multiplications levelwise."""
    M = burnside_mackey(lattice)
    mult, unit = {}, {}
    for h in range(len(lattice)):
        ring = burnside_ring(lattice, h)
        n = ring.size
        cols = []
        for i in range(n):
            for j in range(n):
                cols.append(ring._mul_basis(i, j))
        mult[h] = QMatrix.from_cols(cols, rows=n)
        unit[h] = QMatrix.from_cols([ring.unit().coeffs], rows=n)
    return GreenStructure(M, mult, unit)


def constant_green(lattice: SubgroupLattice) -> GreenStructure:
    """The constant functor on the rationals with plain multiplication."""
    from .mackey import constant

    M = constant(lattice, 1)
    mult = {h: QMatrix.identity(1) for h in range(len(lattice))}
    unit = {h: QMatrix.identity(1) for h in range(len(lattice))}
    return GreenStructure(M, mult, unit)
