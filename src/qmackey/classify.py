"""Classification of rational Mackey functors by Weyl-group modules.

For each conjugacy class of subgroups (H) there is a pair of inverse
constructions: the local piece of a functor at H (the image of the top
idempotent of A_Q(H), carrying an action of the Weyl group), read off R and I
alone as the Brauer quotient and kept in ``split(M).modules``, and
``free_functor``, which rebuilds a functor from such a module, with level K the
Weyl-fixed part of the coset space Q[(G/K)^H] tensored with the module.

``split``/``assemble``/``classify_iso`` package these into a certified
equivalence: every functor is isomorphic to the direct sum of its rebuilt
pieces, and the comparison morphism is validated and certified invertible
level by level rather than assumed.  ``certify_iso`` compares a second
functor straight into the first one's free pieces, one intertwiner per class.

``split(M)`` returns one value, a ``SplitData``, that holds M's classification:
its modules, and privately M, the basis and Q of each local piece, and the free
blocks, their direct sum and the stacked comparison, each built the first time
it is asked for.
``assemble``, ``classify_iso`` and ``certify_iso`` read it, and ``split(M)``
hands back the value it last built for M for as long as some caller holds it.
Functors and modules are immutable, so the value cannot go stale.
"""

from __future__ import annotations

import functools
import random
import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType

from .groups import SubgroupLattice, coset_gset
from .linalg import (
    LinAlgError,
    QMatrix,
    WModule,
    block_matrix,
    fixed_subspace,
    intertwiner,
    restrict_map,
    vstack,
)
from .mackey import (
    _brauer_basis,
    _brauer_functionals,
    _require_composable,
    MackeyError,
    MackeyFunctor,
    MackeyMorphism,
    build_functor,
    constant,
    direct_sum,
    basis_change,
)


# ---------------------------------------------------------------------------
# the free functor F_H
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeBlock:
    """A free functor together with its chosen ambient data.

    ``cosets[k]`` lists the H-fixed cosets of G/K, and ``orbits[k]`` the (b, F_b) of their Weyl
    orbits (``_weyl_fixed_level``), whose unit rows index the coordinates of level k.
    """

    lattice: SubgroupLattice
    h: int
    module: WModule
    functor: MackeyFunctor
    cosets: tuple
    orbits: tuple


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


def _weyl_fixed_level(lattice: SubgroupLattice, h: int, k: int, V: WModule, fixed_of: dict) -> tuple[tuple, tuple]:
    """The canonical basis B of (Q[X] (x) V)^W, X = (G/K)^H and W = W_G(H), as its dim V-row block at
    each coset of X, and (b, F_b) for each orbit.

    Proof.  Q[X] (x) V is the sum of the W-stable Q[O] (x) V over the orbits O = W.b.
    sum_{y in O} e_y (x) v_y is W-fixed exactly when v_{w.y} = rho(w) v_y for all w, y,
    that is when v_b is in V^{W_b} and v_{t.b} = rho(t) v_b; so v -> sum_{t in W/W_b}
    e_{t.b} (x) rho(t) v is an isomorphism from V^{W_b} onto (Q[O] (x) V)^W.  Walking X from
    its end, b is the last coset of O.  A search over the generators s of W reaches each y in
    O by some t_y, and the t_{s.y}^-1 s t_y, or those the earlier ones do not generate, generate
    W_b (Schreier's lemma).  F_b, their ``fixed_subspace``, is a kernel basis with unit rows q:
    its column j ends at q_j and is 0 at the other q.  The block of B at y is rho(t_y) F_b at its
    orbit's columns, so in coset-major coordinates the column of f_j ends at b d + q_j and is 0
    at every other b' d + q, as orbits have disjoint blocks.  Ordered by b d + q, the columns are
    the reduced echelon basis with last entries leading, ``span_basis``'s and the ``kernel``'s of
    the stacked P_s (x) rho(s) - I, with no elimination wider than dim V.
    """
    w = lattice.weyl(h)
    W, d, X = w.group, V.dim, lattice.fixed_cosets(k, h)
    perms = [_weyl_coset_perm(lattice, h, k, w.reps[s]) for s in W.gens]
    via, found = [None] * len(X), []  # via[y] = t_y, with t_y.b = y for b the last coset of the orbit of y
    for b in reversed(range(len(X))):
        if via[b] is not None:
            continue
        via[b], orbit, stabilizer, gens = W.identity, [b], set(), []
        for y in orbit:
            for pos, s in enumerate(W.gens):
                z, t = perms[pos][y], W.mul(s, via[y])
                if via[z] is None:
                    via[z] = t
                    orbit.append(z)
                else:
                    stabilizer.add(W.mul(W.inv(via[z]), t))
        for s in sorted(stabilizer):
            if s not in W.closure(gens):
                gens.append(s)
        if (key := W.closure(gens)) not in fixed_of:  # W_b, whose fixed space other orbits and levels share
            fixed_of[key] = fixed_subspace(V, gens)
        found.append((b, orbit, fixed_of[key]))
    dim, blocks, cols = sum(fixed.cols for _, _, fixed in found), [None] * len(X), 0
    for _, orbit, fixed in reversed(found):
        for y in orbit:
            blocks[y] = block_matrix(d, dim, [(0, cols, V.matrix(via[y]).matmul(fixed))])
        cols += fixed.cols
    return tuple(blocks), tuple((b, fixed) for b, _, fixed in reversed(found))


def _orbit_coords(orbits: tuple, values: list[QMatrix], what: str) -> QMatrix:
    """The coordinates of a Weyl-fixed vector of a level, its rows at the unit rows b d + q, from its
    base block at each orbit: ``F_b.solve`` reads rows q and checks that the block lies in V^{W_b}."""
    coords = [fixed.solve(value) for (_, fixed), value in zip(orbits, values)]
    if None in coords:
        raise MackeyError(f"{what} is not Weyl-fixed")
    return vstack(*coords)


def build_free_block(lattice: SubgroupLattice, h: int, V: WModule) -> FreeBlock:
    """Construct the free functor ``F[class]`` on a Weyl-group module at the class of H.

    (G/K)^H is empty unless H <=_G K, so the fixed cosets are asked for only there.  A map is
    A (x) id, A a coset map, its transpose or a conjugation, and its matrix is the coordinates
    of A B_src (``_orbit_coords``), so only the base blocks of dst's orbits are computed: R picks
    B_src's block at the image coset, I sums its blocks at the preimages, C picks the preimage.
    A commutes with the left W-action, so A B_src is W-fixed, the rho(t)-transport of those blocks.
    R and I compose by construction, as the coset maps they restrict do.
    """
    _weyl_of(lattice, h, V)
    G, d = lattice.group, V.dim
    cosets = [lattice.fixed_cosets(k, h) if lattice.is_subconjugate(h, k) else () for k in range(len(lattice))]
    fixed_of = {}
    levels = [_weyl_fixed_level(lattice, h, k, V, fixed_of) if X and d else ((), ()) for k, X in enumerate(cosets)]
    blocks, orbits = tuple(b for b, _ in levels), tuple(o for _, o in levels)
    dims = tuple(sum(fixed.cols for _, fixed in o) for o in orbits)
    pos_of = [{g: i for i, g in enumerate(X)} for X in cosets]

    def coords(src, dst, preimages):
        # at each base b of dst, the sum of B_src's blocks at the src cosets preimages[b]
        values = [block_matrix(d, dims[src], [(0, 0, blocks[src][y]) for y in ys]) for ys in preimages]
        return _orbit_coords(orbits[dst], values, "free functor map")

    def resfn(kb, ks):
        return coords(kb, ks, [[pos_of[kb][lattice.coset_of(cosets[ks][b], kb)]] for b, _ in orbits[ks]])

    def indfn(kb, ks):
        image = [pos_of[kb][lattice.coset_of(g, kb)] for g in cosets[ks]]
        return coords(ks, kb, [[y for y, c in enumerate(image) if c == b] for b, _ in orbits[kb]])

    def conjfn(pos, s, k):
        # C_s sends gK to g s^-1 (sKs^-1), so the coset z of ks comes from zsK
        ks = lattice.conjugate(s, k)
        return coords(k, ks, [[pos_of[k][lattice.coset_of(G.mul(cosets[ks][b], s), k)]] for b, _ in orbits[ks]])

    # a level is 0 unless H <=_G K, so most maps are zero maps, which ``build_functor`` supplies
    name = f"F[{lattice.class_name_of(h)}]"
    functor = build_functor(lattice, dims, resfn, indfn, conjfn, name=name)
    return FreeBlock(lattice, h, V, functor, tuple(cosets), orbits)


def free_functor(lattice: SubgroupLattice, h: int, V: WModule) -> MackeyFunctor:
    return build_free_block(lattice, h, V).functor


# ---------------------------------------------------------------------------
# the evaluation U_H
# ---------------------------------------------------------------------------


def _local_piece(M: MackeyFunctor, h: int) -> tuple[WModule, QMatrix, QMatrix]:
    """The local piece of M at H as a ``WModule``, its basis and Q: P = basis Q is the top idempotent e of A_Q(H) on M(G/H).

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
    Y = _brauer_functionals(M, h)
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
    It is computed at each orbit's base coset b alone and checked to lie in V^{W_b}
    (``_orbit_coords``); the morphism property is verified, not assumed, except into
    zero levels: a map into 0 is unique.
    """
    lat, G = M.lattice, M.lattice.group
    maps = []
    for k, X in enumerate(block.cosets):
        if not block.functor.dims[k]:
            maps.append(QMatrix.zeros(0, M.dims[k]))
            continue
        conjugates = [(X[b], lat.conjugate(G.inv(X[b]), block.h)) for b, _ in block.orbits[k]]  # g^-1 H g <= K
        values = [Q.matmul(M.conj(g, hg)).matmul(M.res[(k, hg)]) for g, hg in conjugates]
        maps.append(_orbit_coords(block.orbits[k], values, "comparison component"))
    mor = MackeyMorphism(M, block.functor, tuple(maps))
    mor.validate()
    return mor


# ---------------------------------------------------------------------------
# split / assemble / certified equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitData:
    """One Weyl-group module per conjugacy class representative: the classification of a functor.

    ``modules`` is a read-only copy.  The value ``split(M)`` returns also holds M and, at
    each class, the basis and Q of its local piece (``_local_piece``).  Every value builds
    its free blocks and their direct sum, and one from ``split(M)`` M's stacked comparison,
    the first time they are asked for; ``assemble`` and ``classify_iso`` share the sum.
    """

    lattice: SubgroupLattice
    modules: MappingProxyType  # class rep id -> WModule
    _functor: MackeyFunctor | None = field(default=None, repr=False, compare=False)
    _pieces: dict | None = field(default=None, repr=False, compare=False)  # class rep id -> (basis, Q)

    def __post_init__(self):
        object.__setattr__(self, "modules", MappingProxyType(dict(self.modules)))

    @functools.cached_property
    def _blocks(self) -> tuple[FreeBlock, ...]:
        """The free block on each nonzero module, in class order."""
        lat = self.lattice
        return tuple(build_free_block(lat, h, V) for h in lat.class_reps() if (V := self.modules.get(h)) is not None and V.dim)

    @functools.cached_property
    def _sum(self) -> MackeyFunctor:
        """The direct sum of ``_blocks``, named "assembled"."""
        if stray := [h for h in self.modules if h not in self.lattice.class_reps()]:
            raise MackeyError(f"split data key {stray[0]!r} is not a class representative")
        pieces = [block.functor for block in self._blocks]
        return direct_sum(*pieces, name="assembled") if pieces else constant(self.lattice, 0, name="assembled")

    @functools.cached_property
    def _comparison(self) -> tuple[QMatrix, ...]:
        """M's comparison maps into ``_blocks``, stacked level by level, certified invertible."""
        M = self._functor
        maps = _stacked([_compare(M, block, self._pieces[block.h][1]) for block in self._blocks], M)
        for k, m in enumerate(maps):
            if m.rows != m.cols or not m.is_invertible():
                raise MackeyError(f"comparison morphism fails to be invertible at level {self.lattice.name(k)}")
        return maps


def split(M: MackeyFunctor) -> SplitData:
    """M's classification: the value last built for M while a caller holds it, else a new one, after ``_require_composable(M)``."""
    if (S := M._split_data and M._split_data()) is None:
        _require_composable(M)
        pieces = {h: _local_piece(M, h) for h in M.lattice.class_reps()}
        S = SplitData(M.lattice, {h: V for h, (V, _, _) in pieces.items()}, M, {h: p[1:] for h, p in pieces.items()})
        object.__setattr__(M, "_split_data", weakref.ref(S))
    return S


def assemble(S: SplitData, name: str | None = None) -> MackeyFunctor:
    """The direct sum of S's free blocks, built once per value: named "assembled", or a renamed copy."""
    return replace(S._sum, name=name) if name else S._sum


def _stacked(mors: list[MackeyMorphism], M: MackeyFunctor) -> tuple[QMatrix, ...]:
    """The components of morphisms out of M stacked level by level."""
    return tuple(vstack(QMatrix.zeros(0, d), *(mor.maps[k] for mor in mors)) for k, d in enumerate(M.dims))


def classify_iso(M: MackeyFunctor) -> MackeyMorphism:
    """The certified isomorphism from M onto ``assemble(split(M))``, the direct sum of its free pieces.

    Stacks the validated comparison morphisms classwise and certifies exact invertibility at every
    level.  A failure is a hard error, as it would contradict the splitting theorem, and so is an M
    whose R and I do not compose, which ``split`` refuses.  Runs on ``split(M)``, so a caller that
    holds that value builds M's pieces, blocks, their sum and the comparison once, and its target
    is ``assemble`` of that value.
    """
    S = split(M)
    return MackeyMorphism(M, S._sum, S._comparison)


def certify_iso(M1: MackeyFunctor, M2: MackeyFunctor) -> MackeyMorphism | None:
    """A certified isomorphism M1 -> M2, or None exactly when none exists.

    By the classification M = (+)_(H) F_H(U_H M), so M1 and M2 are isomorphic exactly when U_H M1
    and U_H M2 are at every class (H).  None is returned only when the classes with nonzero Weyl
    modules differ or ``intertwiner`` finds two modules with different dimensions or characters.
    ``split`` refuses an M1 or M2 whose R and I do not compose, as the validations below assume.

    Otherwise M2 is compared straight into M1's free blocks by ``_compare`` through psi_H Q_H, with
    Q_H from M2's ``_local_piece`` at H and psi_H = ``intertwiner(U_H M2, U_H M1)``, each level K
    solved in the Weyl-fixed basis of F_H(U_H M1).  Stacked over the classes this is iso2': M2 ->
    (+)_(H) F_H(U_H M1), the target of M1's certified comparison iso1, and the answer is X with
    iso2' X = iso1.  Proof: iso2' is square and iso1 invertible, so a solution forces iso2' to full
    rank and X = iso2'^-1 iso1 is unique, or ``MackeyError`` is raised.  Each block of iso2' is
    validated natural, so iso2' is, and so is the inverse of a natural levelwise isomorphism; iso1
    is certified.  So X is a natural isomorphism, whatever psi_H is.
    """
    if M1.lattice is not M2.lattice:
        raise MackeyError("functors live over different lattices")
    S1 = split(M1)
    blocks, iso1 = S1._blocks, S1._comparison
    S2 = split(M2)
    if [h for h, V2 in S2.modules.items() if V2.dim] != [block.h for block in blocks]:
        return None
    mors = []
    try:
        for block in blocks:
            if (psi := intertwiner(S2.modules[block.h], block.module)) is None:
                return None
            mors.append(_compare(M2, block, psi.matmul(S2._pieces[block.h][1])))
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
    lower = [[Fraction(1 if i == j else (rng.randint(-2, 2) if i > j else 0)) for j in range(dim)] for i in range(dim)]
    upper = [[Fraction(1 if i == j else (rng.randint(-2, 2) if i < j else 0)) for j in range(dim)] for i in range(dim)]
    return QMatrix(lower).matmul(QMatrix(upper))


def random_functor(lattice: SubgroupLattice, rng: random.Random) -> MackeyFunctor:
    """Assemble random split data with levels of dimension at most 4, then scramble every level by a basis change."""
    M = assemble(random_split_data(lattice, rng, 4), name="random")
    mats = [random_invertible(d, rng) for d in M.dims]
    return basis_change(M, mats, name="random")
