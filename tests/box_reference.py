"""The box product over every relation, the referee for the reduced relations.

``box_level`` materializes the Frobenius pair at every comparable L < K <= H
and the conjugation family at every x in H, and takes the quotient in two
eliminations: the canonical basis of the relation span, then the reduced
form of ``[span | I]``.  That is the construction ``qmackey.monoidal`` made
before it emitted relations only on cover pairs and generators and took the
quotient in one elimination.  ``box`` is ``monoidal.box`` on these levels.
"""

from unittest import mock

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


def box(M, N):
    """``monoidal.box`` with every level built by ``box_level``."""
    with mock.patch.object(monoidal, "_box_level", box_level):
        return monoidal.box(M, N)
