"""The box product over every relation, with every map induced, the referee for ``qmackey.monoidal.box``.

``box_level`` materializes the Frobenius pair at every comparable L < K <= H
and the conjugation family at every x in H, and takes the quotient in two
eliminations: the canonical basis of the relation span, then the reduced
form of ``[span | I]``.  That is the construction ``qmackey.monoidal`` made
before it emitted relations only on cover pairs and generators and took the
quotient in one elimination.  ``box_maps`` induces R and I on every
comparable pair and C_s for every generator at every level through the
quotient, where ``monoidal.box`` induces only the cover pairs and the
generators outside each level and composes the rest.
"""

from qmackey import monoidal
from qmackey.linalg import QMatrix, _new, block_matrix, hstack, tensor


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


def box_maps(M, N, levels):
    """``(res, ind, cgen)`` on ``levels``, each map induced from its summand maps by ``monoidal._level_map``."""
    lat = M.lattice
    G = lat.group
    # summands whose tensor space is zero contribute no blocks
    live = [[k for k in level.summands if M.dims[k] * N.dims[k]] for level in levels]
    res, ind = {}, {}
    for h in range(len(lat)):
        for k in lat.subgroups_of(h):
            # induction: include the smaller sum of summands, then project
            incl = [(s, s, QMatrix.identity(M.dims[s] * N.dims[s])) for s in live[k]]
            ind[(h, k)] = monoidal._level_map(levels[k], levels[h], incl)
            down = []
            for s in live[h]:
                for l in lat.double_cosets(k, s, h):
                    sl = lat.conjugate(l, s)
                    meet = lat.meet(k, sl)
                    mm = M.res[(sl, meet)].matmul(M.conj(l, s))
                    nn = N.res[(sl, meet)].matmul(N.conj(l, s))
                    down.append((meet, s, tensor(mm, nn)))
            res[(h, k)] = monoidal._level_map(levels[h], levels[k], down)
    cgen = {}
    for pos, s in enumerate(G.gens):
        for h in range(len(lat)):
            blocks = [(lat.conjugate(s, k), k, tensor(M.conj(s, k), N.conj(s, k))) for k in live[h]]
            cgen[(pos, h)] = monoidal._level_map(levels[h], levels[lat.conjugate(s, h)], blocks)
    return res, ind, cgen


def box(M, N, level=box_level):
    """The box product on the quotients ``level`` builds, with every map from ``box_maps``."""
    levels = tuple(level(M, N, h) for h in range(len(M.lattice)))
    dims = tuple(lvl.proj.rows for lvl in levels)
    return monoidal.BoxProduct(M.lattice, dims, *box_maps(M, N, levels), name=f"{M.name}[]{N.name}", levels=levels)
