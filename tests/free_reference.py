"""Free functors, the diagonal check and ``certify_iso`` as built before, the referees.

``stacked_kernel_basis`` is the Weyl-fixed basis of Q[X] (x) V as the null
space of P_s (x) rho(s) - I stacked over the generators s of W = W_G(H).
``free_maps`` solves for every restriction, induction and conjugation map
with ``restrict_map``, on pairs and levels of dimension 0 too, so every
containment check runs.  ``diagonal_check`` cuts the fixed part out with
every element of N_H(K) rather than its generators.  ``certify_iso`` builds
the free blocks of both functors and lifts an intertwiner between them;
``comparison_block`` pairs a block rebuilt from a local piece with
``classify._compare``'s map into it.
``compare`` solves for the local-piece coordinates at every fixed coset,
where ``classify._compare`` applies the piece's coordinates Q of P at the
base coset of each Weyl orbit alone.  ``free_bases`` stacks the per-coset
blocks of ``classify._weyl_fixed_level`` into each level's basis B, and
``compare`` and ``free_lift`` solve in ``span_basis(B)``, the same basis
with unit rows kept, so each solve selects rows and checks one product.
``span_basis(B)`` is the ``kernel`` basis of the annihilator of B's columns,
whose null space is their span.
"""

from burnside_reference import burnside_action
from qmackey import classify
from qmackey.burnside import burnside_ring
from qmackey.linalg import (
    LinAlgError,
    QMatrix,
    block_matrix,
    direct_sum,
    intertwiner,
    permutation_matrix,
    restrict_map,
    tensor,
    vstack,
)
from qmackey.mackey import MackeyError, MackeyMorphism


def span_basis(B):
    """The kernel basis of a matrix whose null space is the column span of B; for B already in that echelon form,
    as the free bases are, it is B with its unit rows kept."""
    return B.transpose().kernel().transpose().kernel()


def stacked_kernel_basis(lattice, h, k, V):
    w = lattice.weyl(h)
    X = lattice.fixed_cosets(k, h)
    amb = len(X) * V.dim
    if amb == 0:
        return QMatrix.zeros(0, 0)
    eye = QMatrix.identity(amb)
    stack = [
        tensor(permutation_matrix(classify._weyl_coset_perm(lattice, h, k, w.reps[s])), V.gen_matrices[pos]) - eye
        for pos, s in enumerate(w.group.gens)
    ]
    return vstack(*stack).kernel() if stack else eye


def free_maps(lattice, h, V):
    """``(bases, res, ind, cgen)`` of the free functor, every map solved for."""
    G = lattice.group
    cosets = [lattice.fixed_cosets(k, h) for k in range(len(lattice))]
    bases = [stacked_kernel_basis(lattice, h, k, V) for k in range(len(lattice))]
    eye_v = QMatrix.identity(V.dim)

    def coset_map(src, dst, image):
        pos = {g: i for i, g in enumerate(cosets[dst])}
        blocks = [(pos[image(g)] * V.dim, j * V.dim, eye_v) for j, g in enumerate(cosets[src])]
        return block_matrix(len(cosets[dst]) * V.dim, len(cosets[src]) * V.dim, blocks)

    res, ind, cgen = {}, {}, {}
    for kb in range(len(lattice)):
        for ks in lattice.subgroups_of(kb):
            a = coset_map(ks, kb, lambda g: lattice.coset_of(g, kb))
            ind[(kb, ks)] = restrict_map(a, bases[ks], bases[kb])
            res[(kb, ks)] = restrict_map(a.transpose(), bases[kb], bases[ks])
    for pos, s in enumerate(G.gens):
        si = G.inv(s)
        for k in range(len(lattice)):
            ks = lattice.conjugate(s, k)
            amb = coset_map(k, ks, lambda g: lattice.coset_of(G.mul(g, si), ks))
            cgen[(pos, k)] = restrict_map(amb, bases[k], bases[ks])
    return bases, res, ind, cgen


def diagonal_check(M, k, h):
    """``classify.diagonal_check`` with the constraints of every element of N_H(K)."""
    lat = M.lattice
    upper = burnside_action(M, h, burnside_ring(lat, h).idempotent(k)).image()
    lower = burnside_action(M, k, burnside_ring(lat, k).idempotent(k)).image()
    eye = QMatrix.identity(lower.cols)
    elems = [n for n in lat.elements(lat.normalizer_in(k, h)) if n != lat.group.identity] if lower.cols else []
    fixed_coords = vstack(*[restrict_map(M.conj(n, k), lower, lower) - eye for n in elems]).kernel() if elems else eye
    fixed = lower.matmul(fixed_coords)
    try:
        mat = restrict_map(M.res[(h, k)], upper, fixed)
    except LinAlgError:
        return classify.DiagonalReport(upper.cols, fixed.cols, QMatrix.zeros(fixed.cols, upper.cols), False)
    ok = upper.cols == fixed.cols and (upper.cols == 0 or mat.is_invertible())
    return classify.DiagonalReport(upper.cols, fixed.cols, mat, ok)


def free_bases(block):
    """Each level's Weyl-fixed basis of ``block``, its per-coset blocks from ``classify._weyl_fixed_level`` stacked."""
    lat, h, V, fixed_of = block.lattice, block.h, block.module, {}
    levels = [classify._weyl_fixed_level(lat, h, k, V, fixed_of)[0] if X and V.dim else () for k, X in enumerate(block.cosets)]
    return tuple(vstack(*blocks) if blocks else QMatrix.zeros(0, 0) for blocks in levels)


def compare(M, block, basis, P, psi=None):
    """The natural map from M into a free block at H, each coset's component solved in ``basis``, then mapped by psi."""
    lat, G = M.lattice, M.lattice.group
    maps, bases = [], free_bases(block)
    for k, X in enumerate(block.cosets):
        if not block.functor.dims[k]:
            maps.append(QMatrix.zeros(0, M.dims[k]))
            continue
        rows = []
        for g in X:
            hg = lat.conjugate(G.inv(g), block.h)  # g^-1 H g <= K
            coords = basis.solve(P.matmul(M.conj(g, hg)).matmul(M.res[(k, hg)]))
            if coords is None:
                raise MackeyError("comparison component escapes the local piece")
            rows.append(coords)
        ambient = vstack(*rows) if psi is None else tensor(QMatrix.identity(len(X)), psi).matmul(vstack(*rows))
        coords = span_basis(bases[k]).solve(ambient)
        if coords is None:
            raise MackeyError("comparison component is not Weyl-fixed")
        maps.append(coords)
    mor = MackeyMorphism(M, block.functor, tuple(maps))
    if block.module.dim:
        mor.validate()
    return mor


def comparison_block(M, h):
    """The free block rebuilt from M's local piece at H, and M's validated comparison map into it."""
    V, _, Q = classify._local_piece(M, h)
    block = classify.build_free_block(M.lattice, h, V)
    return block, classify._compare(M, block, Q)


def stacked_comparison(M):
    """The nonzero free blocks of M and the comparison maps stacked over them, certified invertible."""
    pieces = [piece for piece in (comparison_block(M, h) for h in M.lattice.class_reps()) if piece[0].module.dim]
    maps = [vstack(QMatrix.zeros(0, d), *(mor.maps[k] for _, mor in pieces)) for k, d in enumerate(M.dims)]
    if not all(m.is_invertible() for m in maps):
        raise MackeyError("comparison morphism fails to be invertible")
    return [block for block, _ in pieces], maps


def free_lift(b1, b2, phi):
    """F_H(phi) between free blocks at one class, id (x) phi in the Weyl-fixed bases, validated."""
    maps = tuple(
        restrict_map(tensor(QMatrix.identity(len(X)), phi), src, span_basis(dst)) if src.cols else QMatrix.zeros(dst.cols, 0)
        for X, src, dst in zip(b1.cosets, free_bases(b1), free_bases(b2))
    )
    lift = MackeyMorphism(b1.functor, b2.functor, maps)
    lift.validate()
    return lift


def certify_iso(M1, M2):
    """iso2^-1 . lift . iso1, the lift F_H of phi_H = intertwiner(U_H M1, U_H M2) at every class."""
    if M1.lattice is not M2.lattice:
        raise MackeyError("functors live over different lattices")
    blocks1, iso1 = stacked_comparison(M1)
    blocks2, iso2 = stacked_comparison(M2)
    if [b.h for b in blocks1] != [b.h for b in blocks2]:
        return None
    try:
        phis = [intertwiner(b1.module, b2.module) for b1, b2 in zip(blocks1, blocks2)]
        if None in phis:
            return None
        lifts = [free_lift(b1, b2, phi) for b1, b2, phi in zip(blocks1, blocks2, phis)]
        maps = tuple(
            iso2[k].inverse().matmul(direct_sum(*(lift.maps[k] for lift in lifts))).matmul(iso1[k])
            for k in range(len(M1.lattice))
        )
    except LinAlgError as exc:
        raise MackeyError(f"isomorphic Weyl modules failed to lift: {exc}") from exc
    return MackeyMorphism(M1, M2, maps)
