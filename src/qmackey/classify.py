"""Classification of rational Mackey functors by Weyl-group modules.

For each conjugacy class of subgroups (H) there is a pair of inverse
constructions: ``u_module`` extracts the local piece of a functor at H (the
image of the top idempotent of A_Q(H), carrying an action of the Weyl group),
read off R and I alone as the Brauer quotient, and ``free_functor`` rebuilds a
functor from such a module, with level K the Weyl-fixed part of the coset
space Q[(G/K)^H] tensored with the module.

``split``/``assemble``/``classify_iso`` package these into a certified
equivalence: every functor is isomorphic to the direct sum of its rebuilt
pieces, and the comparison morphism is validated and certified invertible
level by level rather than assumed.  ``certify_iso`` compares a second
functor straight into the first one's free pieces, one intertwiner per class.

One memo holds the local pieces, the free block on each piece's module and
the comparison of the last functor asked for, so these four build each once
on one functor.  It is matched by identity through a weak reference, and
functors and modules are immutable, so it cannot go stale.
"""

from __future__ import annotations

import functools
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from .groups import SubgroupLattice, coset_gset
from .linalg import (
    LinAlgError,
    QMatrix,
    WModule,
    block_matrix,
    fixed_subspace,
    intertwiner,
    restrict_map,
    selection_matrix,
    span_basis,
    vstack,
)
from .mackey import (
    MackeyError,
    MackeyFunctor,
    MackeyMorphism,
    constant,
    direct_sum,
    basis_change,
    zero_functor,
)


# ---------------------------------------------------------------------------
# the free functor F_H
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeBlock:
    """A free functor together with its chosen ambient data.

    ``cosets[k]`` lists the H-fixed cosets of G/K; ``bases[k]`` is the basis
    of the Weyl-fixed subspace of Q[cosets] (x) V in coset-major coordinates.
    """

    lattice: SubgroupLattice
    h: int
    module: WModule
    functor: MackeyFunctor
    cosets: tuple
    bases: tuple


def _weyl_coset_perm(lattice: SubgroupLattice, h: int, k: int, n: int) -> list[int]:
    """Left multiplication by a normalizer representative on the fixed cosets X = (G/K)^H."""
    X = lattice.fixed_cosets(k, h)
    pos = {g: i for i, g in enumerate(X)}
    G = lattice.group
    return [pos[lattice.coset_of(G.mul(n, g), k)] for g in X]


def _weyl_of(lattice: SubgroupLattice, h: int, V: WModule):
    """The Weyl group data of H, once V is checked to be a module over that group."""
    w = lattice.weyl(h)
    if not w.group.same_table(V.group):
        raise MackeyError("module must live over the Weyl group of H")
    return w


def free_level_dims(lattice: SubgroupLattice, h: int, V: WModule) -> tuple[int, ...]:
    """Level dimensions of the free functor, by the fixed-point character count.

    The dimension of the Weyl-fixed subspace of Q[X] (x) V is the averaged
    product of the permutation fixed counts with the module's character; this
    is independent of the kernel computation used to build the functor.
    """
    w = _weyl_of(lattice, h, V)
    chars = V.character()
    out = []
    for k in range(len(lattice)):
        fixed = [sum(i == p for i, p in enumerate(_weyl_coset_perm(lattice, h, k, n))) for n in w.reps]
        dim = sum((f * c for f, c in zip(fixed, chars)), Fraction(0)) / w.group.order
        if dim.denominator != 1:
            raise MackeyError("character count is not integral")
        out.append(int(dim))
    return tuple(out)


def _weyl_fixed_basis(lattice: SubgroupLattice, h: int, k: int, V: WModule) -> QMatrix:
    """The canonical basis of (Q[X] (x) V)^W, X = (G/K)^H and W = W_G(H), orbit by orbit.

    Proof.  Q[X] (x) V is the sum of the W-stable Q[O] (x) V over the orbits O = W.x.
    sum_{y in O} e_y (x) v_y is W-fixed exactly when v_{w.y} = rho(w) v_y for all w, y,
    that is when v_x is in V^{W_x} and v_{t.x} = rho(t) v_x; so v -> sum_{t in W/W_x}
    e_{t.x} (x) rho(t) v is an isomorphism from V^{W_x} onto (Q[O] (x) V)^W.  A search
    over the generators s of W reaches each y in O by some t_y, and the t_{s.y}^-1 s t_y
    generate W_x (Schreier's lemma).  The fixed space is the null space of the stacked
    P_s (x) rho(s) - I, so ``span_basis`` gives the basis its ``kernel`` gives.
    """
    w = lattice.weyl(h)
    W, d, X = w.group, V.dim, lattice.fixed_cosets(k, h)
    perms = [_weyl_coset_perm(lattice, h, k, w.reps[s]) for s in W.gens]
    via = [None] * len(X)  # via[y] = t_y, with t_y.x = y for x the first coset of the orbit of y
    blocks, cols = [], 0
    for x in range(len(X)):
        if via[x] is not None:
            continue
        via[x], orbit, stabilizer = W.identity, [x], set()
        for y in orbit:
            for pos, s in enumerate(W.gens):
                z, t = perms[pos][y], W.mul(s, via[y])
                if via[z] is None:
                    via[z] = t
                    orbit.append(z)
                else:
                    stabilizer.add(W.mul(W.inv(via[z]), t))
        fixed = fixed_subspace(V, stabilizer)
        blocks += [(y * d, cols, V.matrix(via[y]).matmul(fixed)) for y in orbit]
        cols += fixed.cols
    return span_basis(block_matrix(len(X) * d, cols, blocks))


def build_free_block(lattice: SubgroupLattice, h: int, V: WModule) -> FreeBlock:
    """Construct the free functor ``F[class]`` on a Weyl-group module at the class of H.

    The block on the very module object of the memoized local piece at H, on
    its lattice, is built once and kept in the memo.
    """
    memo = _last_comparison[1]
    kept = lattice is memo.lattice and h in memo.pieces and memo.pieces[h][0] is V
    if kept and h in memo.blocks:
        return memo.blocks[h]
    _weyl_of(lattice, h, V)
    G = lattice.group
    n_levels = len(lattice)
    cosets = [lattice.fixed_cosets(k, h) for k in range(n_levels)]
    bases = [_weyl_fixed_basis(lattice, h, k, V) if X and V.dim else QMatrix.zeros(0, 0) for k, X in enumerate(cosets)]
    dims = tuple(b.cols for b in bases)

    pos_of = [{g: i for i, g in enumerate(X)} for X in cosets]

    def coset_map(src, dst, image):
        # send the fixed coset g of src to the fixed coset image(g) of dst, tensored with V: a 0/1 matrix
        targets = [pos_of[dst][image(g)] * V.dim + i for g in cosets[src] for i in range(V.dim)]
        return selection_matrix(len(cosets[dst]) * V.dim, targets)

    zeros = functools.cache(QMatrix.zeros)  # a level is 0 unless H <=_G K; maps into or out of 0 are 0
    res, ind = {}, {}
    for kb in range(n_levels):
        for ks in lattice.subgroups_of(kb):
            if ks == kb:
                res[(kb, kb)] = ind[(kb, kb)] = QMatrix.identity(dims[kb])
            elif not (dims[kb] and dims[ks]):
                res[(kb, ks)], ind[(kb, ks)] = zeros(dims[ks], dims[kb]), zeros(dims[kb], dims[ks])
            else:
                # project fixed cosets of the smaller subgroup onto the bigger one
                a = coset_map(ks, kb, lambda g: lattice.coset_of(g, kb))
                ind[(kb, ks)] = restrict_map(a, bases[ks], bases[kb])
                # restriction sends a coset to the sum of its fixed preimages
                res[(kb, ks)] = restrict_map(a.transpose(), bases[kb], bases[ks])
    cgen = {}
    for pos, s in enumerate(G.gens):
        si = G.inv(s)
        for k in range(n_levels):
            ks = lattice.conjugate(s, k)
            cgen[(pos, k)] = (
                restrict_map(coset_map(k, ks, lambda g: lattice.coset_of(G.mul(g, si), ks)), bases[k], bases[ks])
                if dims[k] else zeros(0, 0)
            )
    functor = MackeyFunctor(lattice, dims, res, ind, cgen, name=f"F[{lattice.class_name_of(h)}]")
    block = FreeBlock(lattice, h, V, functor, tuple(cosets), tuple(bases))
    return memo.blocks.setdefault(h, block) if kept else block


def free_functor(lattice: SubgroupLattice, h: int, V: WModule) -> MackeyFunctor:
    return build_free_block(lattice, h, V).functor


# ---------------------------------------------------------------------------
# the evaluation U_H
# ---------------------------------------------------------------------------


@dataclass
class _Memo:
    """What has been computed of one functor M, filled as it is asked for."""

    lattice: SubgroupLattice | None
    pieces: dict = field(default_factory=dict)  # h -> M's ``_local_piece`` triple (V, basis, Q) at H
    blocks: dict = field(default_factory=dict)  # h -> the FreeBlock on the module object of pieces[h]
    comparison: tuple | None = None  # M's ``_stacked_comparison``


_last_comparison: list = [lambda: None, _Memo(None)]  # (weak reference to the last M, its memo)


def _memo(M: MackeyFunctor) -> _Memo:
    ref, memo = _last_comparison  # one read, so a concurrent store cannot pair M with another memo
    if ref() is not M:
        memo = _Memo(M.lattice)
        _last_comparison[:] = weakref.ref(M), memo
    return memo


def _piece(M: MackeyFunctor, h: int) -> tuple[WModule, QMatrix, QMatrix]:
    """``_local_piece(M, h)`` through the memo; the first piece stored is the one kept."""
    pieces = _memo(M).pieces
    return pieces[h] if h in pieces else pieces.setdefault(h, _local_piece(M, h))


def u_module(M: MackeyFunctor, h: int) -> tuple[WModule, QMatrix]:
    """The local piece of M at H: the top-idempotent part of M(G/H) with its
    Weyl action.  Returns the module and its basis inside M(G/H)."""
    return _piece(M, h)[:2]


def _common_kernel(mats, n: int) -> QMatrix:
    """A basis of what every matrix of ``mats`` kills in Q^n, cut down one matrix at a time:
    unlike the kernel of the stacked matrices, this eliminates no row that depends on others."""
    B = QMatrix.identity(n)
    for A in mats:
        if A.rows and B.cols:  # else A kills all that is left
            B = B.matmul(A.matmul(B).kernel())
    return B


def _brauer_basis(M: MackeyFunctor, h: int) -> QMatrix:
    """The canonical basis of U_H M, the intersection of ker R^H_K over K maximal in H (``_local_piece``)."""
    return _common_kernel([M.res[(h, k)] for k in M.lattice.maximal(h)], M.dims[h]).image()


def _local_piece(M: MackeyFunctor, h: int) -> tuple[WModule, QMatrix, QMatrix]:
    """``u_module`` and Q, with P = basis Q the action of the top idempotent e of A_Q(H) on M(G/H).

    Proof (the Brauer quotient; Thevenaz and Webb, *Trans. AMS* 347, 1995).  For K < H,
    res_K e = 0, so e I^H_K = I^H_K res_K(e) = 0 by Frobenius and R^H_K e = res_K(e) R^H_K = 0,
    and 1 - e is a combination of [H/L] = I^H_L R^H_L with L < H.  So im e is the intersection
    of ker R^H_K, on which x = e x, and ker e is the sum W of im I^H_K; K maximal in H suffice,
    as R and I are transitive.  The rows of Y span the functionals that vanish on W, so Q is
    the solution of (Y basis) Q = Y.  Y basis is square and invertible exactly when M(G/H) =
    im e (+) W; otherwise M is no Mackey functor.
    """
    lat = M.lattice
    basis = _brauer_basis(M, h)
    Y = _common_kernel([M.ind[(h, k)].transpose() for k in lat.maximal(h)], M.dims[h]).transpose()
    Q = Y.matmul(basis).solve(Y) if Y.rows == basis.cols else None
    if Q is None:
        raise MackeyError(f"level {lat.name(h)} is not its local piece plus the images of induction: not a Mackey functor")
    w = lat.weyl(h)
    mats = tuple(restrict_map(M.conj(w.reps[s], h), basis, basis) for s in w.group.gens)
    return WModule(w.group, basis.cols, mats), basis, Q


# ---------------------------------------------------------------------------
# the comparison morphism
# ---------------------------------------------------------------------------


def _compare(M: MackeyFunctor, block: FreeBlock, Q: QMatrix) -> MackeyMorphism:
    """The natural map from M into a free block at H, through Q: M(G/H) -> ``block.module``.

    Q is M's top idempotent action P at H in its local piece's coordinates, or that
    followed by psi: U_H M -> ``block.module``.  The component at a fixed coset gK
    restricts to the conjugate of H inside K, conjugates back to H and applies Q.  It
    lies in the local piece by construction, as Q x are the coordinates of P x in im P.
    Membership in the Weyl-fixed subspace and the morphism property are verified, not
    assumed, except into zero levels and for a zero module: a map into 0 is unique.
    """
    lat, G = M.lattice, M.lattice.group
    maps = []
    for k, X in enumerate(block.cosets):
        if not block.functor.dims[k]:
            maps.append(QMatrix.zeros(0, M.dims[k]))
            continue
        conjugates = [lat.conjugate(G.inv(g), block.h) for g in X]  # g^-1 H g <= K
        rows = [Q.matmul(M.conj(g, hg)).matmul(M.res[(k, hg)]) for g, hg in zip(X, conjugates)]
        component = block.bases[k].solve(vstack(*rows))
        if component is None:
            raise MackeyError("comparison component is not Weyl-fixed")
        maps.append(component)
    mor = MackeyMorphism(M, block.functor, tuple(maps))
    if block.module.dim:
        mor.validate()
    return mor


def comparison_block(M: MackeyFunctor, h: int) -> tuple[FreeBlock, MackeyMorphism]:
    """The natural map from M into the free functor rebuilt from its piece at H, validated."""
    V, _, Q = _piece(M, h)
    block = build_free_block(M.lattice, h, V)
    return block, _compare(M, block, Q)


def comparison_map(M: MackeyFunctor, h: int) -> MackeyMorphism:
    return comparison_block(M, h)[1]


# ---------------------------------------------------------------------------
# split / assemble / certified equivalence
# ---------------------------------------------------------------------------


@dataclass
class SplitData:
    """One Weyl-group module per conjugacy class representative."""

    lattice: SubgroupLattice
    modules: dict  # class rep id -> WModule


def split(M: MackeyFunctor) -> SplitData:
    return SplitData(M.lattice, {h: u_module(M, h)[0] for h in M.lattice.class_reps()})


def assemble(S: SplitData, name: str | None = None) -> MackeyFunctor:
    lat, reps = S.lattice, S.lattice.class_reps()
    name = name or "assembled"
    if stray := [h for h in S.modules if h not in reps]:
        raise MackeyError(f"split data key {stray[0]!r} is not a class representative")
    pieces = [free_functor(lat, h, V) for h in reps if (V := S.modules.get(h)) is not None and V.dim]
    return direct_sum(*pieces, name=name) if pieces else constant(lat, 0, name=name)


def _stacked(mors: list[MackeyMorphism], M: MackeyFunctor) -> tuple[QMatrix, ...]:
    """The components of morphisms out of M stacked level by level."""
    return tuple(vstack(QMatrix.zeros(0, d), *(mor.maps[k] for mor in mors)) for k, d in enumerate(M.dims))


def _stacked_comparison(M: MackeyFunctor) -> tuple[tuple[FreeBlock, ...], tuple[QMatrix, ...]]:
    """The nonzero free blocks of M in class order, and the comparison maps
    stacked over them level by level, certified invertible.  Each local piece
    is computed once, and a class with U_H M = 0 gets no block.  Pieces,
    blocks and the result are kept in M's memo."""
    memo = _memo(M)
    if memo.comparison is None:
        lat = M.lattice
        blocks, mors = [], []
        for h in lat.class_reps():
            V, _, Q = _piece(M, h)
            if V.dim:
                blocks.append(build_free_block(lat, h, V))
                mors.append(_compare(M, blocks[-1], Q))
        maps = _stacked(mors, M)
        for k, m in enumerate(maps):
            if m.rows != m.cols or not m.is_invertible():
                raise MackeyError(f"comparison morphism fails to be invertible at level {lat.name(k)}")
        memo.comparison = tuple(blocks), maps
    return memo.comparison


def classify_iso(M: MackeyFunctor) -> MackeyMorphism:
    """The certified isomorphism from M onto the direct sum of its free pieces.

    Stacks the comparison morphisms classwise, validates the result as a
    morphism, and certifies exact invertibility at every level.  Failure of
    any of these is a hard error: it would contradict the splitting theorem.
    M's pieces, blocks and comparison stay in the one-entry memo, for
    ``split``, ``assemble`` and ``certify_iso`` to reuse.
    """
    blocks, maps = _stacked_comparison(M)
    target = direct_sum(*(block.functor for block in blocks)) if blocks else zero_functor(M.lattice)
    return MackeyMorphism(M, target, maps)


def certify_iso(M1: MackeyFunctor, M2: MackeyFunctor) -> MackeyMorphism | None:
    """A certified isomorphism M1 -> M2, or None exactly when none exists.

    By the classification M = (+)_(H) F_H(U_H M), so M1 and M2 are
    isomorphic exactly when U_H M1 and U_H M2 are at every class (H).  None
    is returned only when the classes with nonzero Weyl modules differ or
    ``intertwiner`` finds two modules with different dimensions or characters.

    Otherwise M2 is compared straight into M1's free blocks by ``_compare``
    through psi_H Q_H, with Q_H from M2's ``_local_piece`` at H and psi_H =
    ``intertwiner(U_H M2, U_H M1)``, each level K solved in the Weyl-fixed
    basis of F_H(U_H M1).  Stacked over the classes this is iso2': M2 ->
    (+)_(H) F_H(U_H M1), the target of M1's certified comparison iso1, and the
    answer is X with iso2' X = iso1.  Proof: iso2' is square and iso1
    invertible, so a solution forces iso2' to full rank and X = iso2'^-1 iso1
    is unique, or ``MackeyError`` is raised.  Each block of iso2' is validated
    natural, so iso2' is, and so is the inverse of a natural levelwise
    isomorphism; iso1 is certified.  So X is a natural isomorphism, whatever
    psi_H is.
    """
    if M1.lattice is not M2.lattice:
        raise MackeyError("functors live over different lattices")
    blocks, iso1 = _stacked_comparison(M1)
    pieces = {h: _local_piece(M2, h) for h in M1.lattice.class_reps()}  # past the memo, which keeps M1
    if [h for h, (V2, _, _) in pieces.items() if V2.dim] != [block.h for block in blocks]:
        return None
    mors = []
    try:
        for block in blocks:
            V2, _, Q = pieces[block.h]
            if (psi := intertwiner(V2, block.module)) is None:
                return None
            mors.append(_compare(M2, block, psi.matmul(Q)))
        maps = tuple(m.solve(a) if m.rows == m.cols else None for m, a in zip(_stacked(mors, M2), iso1))
        if None in maps:
            raise LinAlgError("matrix is singular")
    except LinAlgError as exc:
        raise MackeyError(f"M2 does not compare invertibly into the free blocks of M1: {exc}") from exc
    return MackeyMorphism(M1, M2, maps)


# ---------------------------------------------------------------------------
# the diagonal decomposition
# ---------------------------------------------------------------------------


@dataclass
class DiagonalReport:
    """Both sides of the levelwise decomposition identity and the connecting map."""

    dim_upper: int  # image of the class-K idempotent of A_Q(H) on M(G/H)
    dim_fixed: int  # Weyl-fixed part of the class-K idempotent piece of M(G/K)
    matrix: QMatrix  # induced by restriction, in the chosen bases
    ok: bool


def diagonal_check(M: MackeyFunctor, k: int, h: int) -> DiagonalReport:
    """Verify e_K^H M(G/H) ~ (e_K^K M(G/K))^{W_H K} via the restriction map.

    e_K^K M(G/K) = U_K M (``_brauer_basis``), and e_K^H M(G/H) = I^H_K U_K M: e_K^H is a
    combination of [H/L] = I^H_K I^K_L R^H_L, L <= K, so e_K^H M(G/H) = e_K^H I^H_K M(G/K) =
    I^H_K e_K^K M(G/K) by Frobenius, as res^H_K e_K^H = e_K^K.  The generators of N_H(K) fix
    what every element fixes, as C_{gs} = C_g C_s, and the kernel basis depends on that space alone.
    """
    lat = M.lattice
    if not lat.leq(k, h):
        raise MackeyError("diagonal check needs K <= H")
    lower = _brauer_basis(M, k)
    upper = M.ind[(h, k)].matmul(lower).image()
    # Weyl group of K inside H acting on the local piece at K
    gens = [n for n in lat.gens(lat.normalizer_in(k, h)) if n != lat.group.identity] if lower.cols else []
    fixed = lower.matmul(vstack(*[M.conj(n, k).matmul(lower) - lower for n in gens]).kernel()) if gens else lower
    try:
        mat = restrict_map(M.res[(h, k)], upper, fixed)
    except LinAlgError:
        return DiagonalReport(upper.cols, fixed.cols, QMatrix.zeros(fixed.cols, upper.cols), False)
    ok = upper.cols == fixed.cols and (upper.cols == 0 or mat.is_invertible())
    return DiagonalReport(upper.cols, fixed.cols, mat, ok)


# ---------------------------------------------------------------------------
# random functors for round-trip testing
# ---------------------------------------------------------------------------


def random_wmodule(W, rng: random.Random) -> WModule:
    """A small exact W-module: trivial, regular, or a coset permutation module."""
    roll = rng.random()
    if roll < 0.35:
        return WModule.trivial(W, 1)
    if roll < 0.55 and W.order <= 6:
        return WModule.regular(W)
    seeds = [rng.randrange(W.order) for _ in range(rng.randint(1, 2))]
    return WModule.from_gset(W, coset_gset(W, W.closure(seeds)))


def random_split_data(lattice: SubgroupLattice, rng: random.Random, max_level_dim: int = 4) -> SplitData:
    """Random class modules whose assembled functor stays within the level cap."""
    reps = lattice.class_reps()
    for _ in range(200):
        count = rng.randint(1, min(3, len(reps)))
        chosen = rng.sample(reps, count)
        modules, level_dims = {}, [0] * len(lattice)
        for h in chosen:
            V = random_wmodule(lattice.weyl(h).group, rng)
            level_dims = [a + b for a, b in zip(level_dims, free_level_dims(lattice, h, V))]
            if max(level_dims) > max_level_dim:
                break
            modules[h] = V
        else:
            if any(v.dim for v in modules.values()):
                return SplitData(lattice, modules)
    raise MackeyError("could not sample a functor within the level cap")


def random_invertible(dim: int, rng: random.Random) -> QMatrix:
    if dim == 0:
        return QMatrix.identity(0)
    lower = [[Fraction(1 if i == j else (rng.randint(-2, 2) if i > j else 0)) for j in range(dim)] for i in range(dim)]
    upper = [[Fraction(1 if i == j else (rng.randint(-2, 2) if i < j else 0)) for j in range(dim)] for i in range(dim)]
    return QMatrix(lower).matmul(QMatrix(upper))


def random_functor(lattice: SubgroupLattice, rng: random.Random, max_level_dim: int = 4) -> MackeyFunctor:
    """Assemble random split data, then scramble every level by a basis change."""
    S = random_split_data(lattice, rng, max_level_dim)
    M = assemble(S, name="random")
    mats = [random_invertible(d, rng) for d in M.dims]
    return basis_change(M, mats, name="random")
