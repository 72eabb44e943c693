"""The box product over every relation, with every map induced, the referee for ``qmackey.monoidal.box``.

``box_level`` materializes the Frobenius pair at every comparable L < K <= H
and the conjugation family at every x in H, and takes the quotient in two
eliminations: the canonical basis of the relation span, then the reduced
form of ``[span | I]``.  That is the construction ``qmackey.monoidal`` made
before it emitted relations only on cover pairs and generators and took the
quotient in one elimination.  ``box_maps`` induces R and I on every
comparable pair and C_s for every generator at every level through the
quotient, where ``monoidal.box`` induces only the cover pairs and the
generators outside each level and composes the rest.  ``level_map`` induces
a map as proj F section with the whole T(dst) x T(src) map F of summands
built, the referee of ``monoidal._level_map``, which never builds F.

``box_idempotent_check`` (the idempotent part of a box product is the box
of the idempotent parts) and ``u_monoidal_certificate`` (the local piece
U_H of a box product is the tensor of the local pieces, Weyl-equivariantly)
are criterion 9's checks of idempotent locality and strong monoidality, and
``test_monoidal``'s; the package has no copy of them.  Both rebuild every
idempotent action from the Burnside ring and solve for its image in the
local basis.
"""

from dataclasses import dataclass

from qmackey import monoidal
from qmackey.burnside import burnside_ring
from qmackey.classify import u_module
from qmackey.linalg import QMatrix, _new, block_matrix, hstack, tensor
from qmackey.mackey import MackeyMorphism, burnside_action, idempotent_part


def quotient_space(ambient_dim, relations):
    """``(projection, section)`` from rows k: of the reduced ``[span | I]``, k the rank of the span."""
    span = relations.image() if relations.cols else QMatrix.zeros(ambient_dim, 0)
    k = span.cols
    R, pivots = hstack(span, QMatrix.identity(ambient_dim)).rref()
    section = [{} for _ in range(ambient_dim)]
    for t, p in enumerate(pivots[k:]):
        section[p - k][t] = 1
    proj = [{j - k: x for j, x in row.items() if j >= k} for row in R._rows[k:]]
    return _new(ambient_dim - k, ambient_dim, proj), _new(ambient_dim, ambient_dim - k, section)


def box_level(M, N, h):
    """T(H) and its quotient by the relations at every comparable pair and every element of H."""
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
    return monoidal._BoxLevel(summands, offsets, t_dim, proj, section)


def level_map(src, dst, blocks):
    """The map of box levels induced by ``(dst summand, src summand, block)`` maps of summands, through F."""
    big = block_matrix(dst.t_dim, src.t_dim, [(dst.offsets[t], src.offsets[k], b) for t, k, b in blocks])
    return dst.proj.matmul(big).matmul(src.section)


def box_maps(M, N, levels):
    """``(res, ind, cgen)`` on ``levels``, each map induced from its summand maps by ``level_map``."""
    lat = M.lattice
    G = lat.group
    # summands whose tensor space is zero contribute no blocks
    live = [[k for k in level.summands if M.dims[k] * N.dims[k]] for level in levels]
    res, ind = {}, {}
    for h in range(len(lat)):
        for k in lat.subgroups_of(h):
            # induction: include the smaller sum of summands, then project
            incl = [(s, s, QMatrix.identity(M.dims[s] * N.dims[s])) for s in live[k]]
            ind[(h, k)] = level_map(levels[k], levels[h], incl)
            down = []
            for s in live[h]:
                for l in lat.double_cosets(k, s, h):
                    sl = lat.conjugate(l, s)
                    meet = lat.meet(k, sl)
                    mm = M.res[(sl, meet)].matmul(M.conj(l, s))
                    nn = N.res[(sl, meet)].matmul(N.conj(l, s))
                    down.append((meet, s, tensor(mm, nn)))
            res[(h, k)] = level_map(levels[h], levels[k], down)
    cgen = {}
    for pos, s in enumerate(G.gens):
        for h in range(len(lat)):
            blocks = [(lat.conjugate(s, k), k, tensor(M.conj(s, k), N.conj(s, k))) for k in live[h]]
            cgen[(pos, h)] = level_map(levels[h], levels[lat.conjugate(s, h)], blocks)
    return res, ind, cgen


def box(M, N, level=box_level):
    """The box product on the quotients ``level`` builds, with every map from ``box_maps``."""
    levels = tuple(level(M, N, h) for h in range(len(M.lattice)))
    dims = tuple(lvl.proj.rows for lvl in levels)
    return monoidal.BoxProduct(M.lattice, dims, *box_maps(M, N, levels), name=f"{M.name}[]{N.name}", levels=levels)


def _with_inclusion(M, e):
    """eM and its inclusion into M, levelwise the image of e's action."""
    eM = idempotent_part(M, e)
    bases = [burnside_action(M, k, e.ring.restrict(e, k)).image() for k in range(len(M.lattice))]
    return eM, MackeyMorphism(eM, M, tuple(bases))


@dataclass
class BoxIdempotentReport:
    dims_local_box: tuple
    dims_box_local: tuple
    tensor_dim_at_h: int
    value_dim_at_h: int
    ok: bool


def box_idempotent_check(M, N, h):
    """Compare eB with the box of eM and eN, for B the box of M and N and e the primitive idempotent of A(G) at (H).

    Checks levelwise dimensions, that the value at G/H is the tensor of the
    two local values, and that the box of the inclusions of eM and eN,
    followed by the projection onto eB solved at every level, is an
    isomorphism of Mackey functors.
    """
    lat = M.lattice
    ring = burnside_ring(lat)
    e = ring.idempotent(h)
    B = monoidal.box(M, N)
    (eB, incl_b), (eM, incl_m), (eN, incl_n) = (_with_inclusion(F, e) for F in (B, M, N))
    B2 = monoidal.box(eM, eN)
    tensor_dim = eM.dims[h] * eN.dims[h]
    ok = eB.dims == B2.dims and B2.dims[h] == tensor_dim
    if ok:
        into_box = monoidal.box_morphism(incl_m, incl_n, B2, B)
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


def u_monoidal_certificate(M, N, h, B):
    """Strong monoidality at the class of H, for B the box of M and N: an explicit Weyl-equivariant
    isomorphism from U_H M (x) U_H N onto U_H B, with the top idempotent's action on B(G/H) rebuilt and solved."""
    lat = M.lattice
    UM, BM = u_module(M, h)
    UN, BN = u_module(N, h)
    UB, BB = u_module(B, h)
    if UB.dim != UM.dim * UN.dim:
        return False
    if UB.dim == 0:
        return True
    lvl = B.levels[h]
    pair = tensor(BM, BN)
    via = lvl.proj.matmul(block_matrix(lvl.t_dim, pair.cols, [(lvl.offsets[h], 0, pair)]))
    P = burnside_action(B, h, burnside_ring(lat, h).idempotent(h))
    candidate = BB.solve(P.matmul(via))
    if candidate is None or not candidate.is_invertible():
        return False
    for pos in range(len(lat.weyl(h).group.gens)):
        lhs = candidate.matmul(tensor(UM.gen_matrices[pos], UN.gen_matrices[pos]))
        if lhs != UB.gen_matrices[pos].matmul(candidate):
            return False
    return True
