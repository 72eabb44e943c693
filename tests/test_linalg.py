import functools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmackey.classify import random_invertible
from qmackey.groups import FiniteGroup, SubgroupLattice, coset_gset, cyclic, from_permutations, quaternion, symmetric
from qmackey.linalg import (
    LinAlgError,
    QMatrix,
    SingularMatrixError,
    WModule,
    averaging_projector,
    block_matrix,
    direct_sum,
    fixed_subspace,
    hstack,
    intertwiner,
    permutation_matrix,
    quotient_space,
    restrict_map,
    tensor,
    vstack,
)


def trivial_multiplicity(V):
    """Multiplicity of the trivial representation, by the character inner product."""
    return sum(V.character(), Fraction(0)) / V.group.order


fractions_st = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(fractions_st, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(QMatrix)
        )
    )


class TestBasics:
    def test_kernel_of_zero_map_is_identity(self):
        K = QMatrix.zeros(2, 2).kernel()
        assert K == QMatrix.identity(2)

    def test_inverse_of_unipotent(self):
        M = QMatrix([[1, 1], [0, 1]])
        assert M.inverse() == QMatrix([[1, -1], [0, 1]])

    def test_tensor_of_identities(self):
        assert tensor(QMatrix.identity(2), QMatrix.identity(3)) == QMatrix.identity(6)

    def test_singular_inverse_raises(self):
        with pytest.raises(SingularMatrixError):
            QMatrix([[1, 2], [2, 4]]).inverse()

    def test_solve_none_when_inconsistent(self):
        M = QMatrix([[1, 0], [1, 0]])
        rhs = QMatrix([[1], [2]])
        assert M.solve(rhs) is None

    def test_shape_mismatch(self):
        with pytest.raises(LinAlgError):
            QMatrix.identity(2).matmul(QMatrix.identity(3))

    def test_zero_dimensional_matrices(self):
        z = QMatrix.zeros(0, 3)
        assert z.rank() == 0
        assert z.kernel() == QMatrix.identity(3)
        assert QMatrix.zeros(3, 0).matmul(QMatrix.zeros(0, 2)) == QMatrix.zeros(3, 2)

    def test_direct_sum_blocks(self):
        A = QMatrix([[2]])
        B = QMatrix([[0, 1], [1, 0]])
        S = direct_sum(A, B)
        assert S == QMatrix([[2, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_direct_sum_of_any_number_of_blocks(self):
        A = QMatrix([[2]])
        B = QMatrix([[0, 1], [1, 0]])
        C = QMatrix.zeros(1, 0)
        assert direct_sum(A, B, C, A) == direct_sum(direct_sum(direct_sum(A, B), C), A)
        assert direct_sum(A, B, C, A).rows == 5 and direct_sum(A, B, C, A).cols == 4
        assert direct_sum(B) == B
        assert direct_sum() == QMatrix.zeros(0, 0)

    def test_image_canonical(self):
        M = QMatrix([[2, 4], [1, 2]])
        assert M.image() == QMatrix([[1], [Fraction(1, 2)]])


class TestProperties:
    @settings(deadline=None, max_examples=60)
    @given(matrices())
    def test_rank_nullity(self, M):
        assert M.rank() + M.kernel().cols == M.cols

    @settings(deadline=None, max_examples=60)
    @given(matrices())
    def test_kernel_annihilated(self, M):
        K = M.kernel()
        assert M.matmul(K).is_zero()

    @settings(deadline=None, max_examples=60)
    @given(matrices())
    def test_image_spans_columns(self, M):
        B = M.image()
        assert B.cols == M.rank()
        sol = B.solve(M)
        assert sol is not None and B.matmul(sol) == M

    @settings(deadline=None, max_examples=40)
    @given(matrices(3), matrices(3))
    def test_tensor_multiplicative(self, A, B):
        # (A (x) B)(A' (x) B') = AA' (x) BB' on square matrices
        A2 = A.matmul(A.transpose())
        B2 = B.matmul(B.transpose())
        lhs = tensor(A2, B2)
        assert lhs == tensor(A2, QMatrix.identity(B2.rows)).matmul(
            tensor(QMatrix.identity(A2.rows), B2)
        )

    @settings(deadline=None, max_examples=60)
    @given(matrices())
    def test_solve_is_exact(self, M):
        rhs = M.matmul(QMatrix.identity(M.cols))
        X = M.solve(rhs)
        assert X is not None
        assert M.matmul(X) == rhs


def unit(n, i):
    return [Fraction(1 if r == i else 0) for r in range(n)]


def greedy_complement(relations):
    """Reference: take e_i whenever it raises the rank of the span so far."""
    chosen, current = [], relations
    for i in range(relations.rows):
        candidate = hstack(current, QMatrix([unit(relations.rows, i)]).transpose())
        if candidate.rank() > current.rank():
            chosen.append(i)
            current = candidate
    return chosen


def sparse_relations(max_dim=6):
    """Small integer matrices, mostly zero, so that spans are often proper and degenerate."""
    entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2])
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(QMatrix)
        )
    )


class TestQuotient:
    def test_no_relations_gives_identity(self):
        proj, sec = quotient_space(3, QMatrix.zeros(3, 0))
        assert proj == QMatrix.identity(3)
        assert sec == QMatrix.identity(3)

    def test_diagonal_line(self):
        proj, sec = quotient_space(2, QMatrix([[1], [1]]))
        assert proj.rows == 1
        assert proj.matmul(sec) == QMatrix.identity(1)
        # the relation itself dies
        assert proj.matmul(QMatrix([[1], [1]])).is_zero()

    @settings(deadline=None, max_examples=40)
    @given(matrices())
    def test_projection_section_identity(self, M):
        proj, sec = quotient_space(M.rows, M)
        q = M.rows - M.rank()
        assert proj.rows == q
        assert proj.matmul(sec) == QMatrix.identity(q)
        assert proj.matmul(M).is_zero()

    @settings(deadline=None, max_examples=60)
    @given(sparse_relations())
    def test_section_is_greedy_complement(self, M):
        proj, sec = quotient_space(M.rows, M)
        chosen = greedy_complement(M)
        assert sec == QMatrix([unit(M.rows, i) for i in chosen], cols=M.rows).transpose()
        # and the projection is the bottom block of [span | section]^-1
        k = M.rows - len(chosen)
        inv = hstack(M.image(), sec).inverse()
        assert proj == QMatrix(inv.data[k:], rows=len(chosen), cols=M.rows)


class TestBlockMatrix:
    def test_overlapping_blocks_add(self):
        A = QMatrix([[1, 2], [3, 4]])
        B = QMatrix([[10, 0], [0, 10]])
        M = block_matrix(3, 3, [(0, 0, A), (1, 1, B)])
        assert M == QMatrix([[1, 2, 0], [3, 14, 0], [0, 0, 10]])

    def test_partial_overlap_then_overlap_past_it(self):
        blocks = [(0, 0, QMatrix([[1, 1]])), (0, 1, QMatrix([[1, 1, 1]])), (0, 3, QMatrix([[5, 5]]))]
        M = block_matrix(1, 5, blocks)
        assert M == QMatrix([[1, 2, 1, 6, 5]])

    def test_cancelling_blocks_leave_zero(self):
        A = QMatrix([[1, -2], [3, 4]])
        assert block_matrix(2, 3, [(0, 1, A), (0, 1, -A)]) == QMatrix.zeros(2, 3)

    def test_matches_padded_sum(self):
        A = QMatrix([[1, 2, 3]])
        B = QMatrix([[5], [6]])
        padded_a = QMatrix([[0, 1, 2, 3], [0, 0, 0, 0]])
        padded_b = QMatrix([[0, 5, 0, 0], [0, 6, 0, 0]])
        assert block_matrix(2, 4, [(0, 1, A), (0, 1, B)]) == padded_a + padded_b

    def test_block_must_fit(self):
        with pytest.raises(LinAlgError):
            block_matrix(2, 2, [(1, 0, QMatrix.identity(2))])


class TestWModule:
    def test_regular_module_valid(self):
        V = WModule.regular(cyclic(6))
        V.validate()
        assert V.dim == 6

    def test_fixed_subspace_of_c3_inside_regular_c6(self):
        # independent oracle: the fixed space of a permutation module is
        # spanned by orbit sums, so its dimension is the number of orbits
        G = cyclic(6)
        V = WModule.regular(G)
        c3 = (0, 2, 4)
        orbits = {tuple(sorted((x + s) % 6 for s in c3)) for x in range(6)}
        B = fixed_subspace(V, c3)
        assert B.cols == len(orbits) == 2

    def test_fixed_subspace_of_identity_is_everything(self):
        V = WModule.regular(cyclic(4))
        assert fixed_subspace(V, (0,)).cols == 4

    def test_coset_module_full_fixed_space_is_line(self):
        # W = C6/C3 acting on itself: one orbit
        W = cyclic(2)
        V = WModule.regular(W)
        assert fixed_subspace(V, range(2)).cols == 1

    def test_averaging_projector_trivial_subgroup(self):
        V = WModule.regular(cyclic(3))
        assert averaging_projector(V, (0,)) == QMatrix.identity(3)

    def test_averaging_projector_c2_regular(self):
        V = WModule.regular(cyclic(2))
        P = averaging_projector(V, (0, 1))
        assert P == QMatrix([[Fraction(1, 2)] * 2] * 2)

    def test_averaging_projector_idempotent_with_fixed_image(self):
        G = cyclic(6)
        V = WModule.regular(G)
        for sub in [(0, 3), (0, 2, 4), tuple(range(6))]:
            P = averaging_projector(V, sub)
            assert P.matmul(P) == P
            assert P.image() == fixed_subspace(V, sub)

    def test_trivial_multiplicity_matches_fixed_dim(self):
        for G in (cyclic(6), symmetric(3)):
            V = WModule.regular(G)
            full = fixed_subspace(V, range(G.order))
            assert trivial_multiplicity(V) == full.cols == 1

    def test_trivial_multiplicity_on_assorted_modules(self):
        from qmackey.groups import coset_gset

        G = symmetric(3)
        pieces = []
        for seed in ((1,), (0,), (3,)):
            sub = G.closure(seed)
            pieces.append(WModule.from_gset(G, coset_gset(G, sub)))
        V = pieces[0].direct_sum(pieces[1]).direct_sum(pieces[2])
        T = QMatrix([[1 if i <= j else 0 for j in range(V.dim)] for i in range(V.dim)])
        for mod in pieces + [V, V.conjugated(T)]:
            full = fixed_subspace(mod, range(G.order))
            assert trivial_multiplicity(mod) == full.cols

    def test_invalid_generator_matrices_rejected(self):
        G = cyclic(3)
        bad = WModule(G, 1, (QMatrix([[2]]),))
        with pytest.raises(LinAlgError):
            bad.validate()

    def test_singular_generator_rejected(self):
        G = cyclic(2)
        bad = WModule(G, 1, (QMatrix([[0]]),))
        with pytest.raises(LinAlgError):
            bad.validate()

    def test_intertwiner_between_conjugated_modules(self):
        G = symmetric(3)
        V = WModule.regular(G)
        T = QMatrix([[1 if i <= j else 0 for j in range(6)] for i in range(6)])
        V2 = V.conjugated(T)
        V2.validate()
        X = intertwiner(V, V2)
        assert X is not None
        for g in range(G.order):
            assert X.matmul(V.matrix(g)) == V2.matrix(g).matmul(X)

    def test_intertwiner_refuses_groups_of_one_order_with_different_tables(self):
        """C4 and V4 have the same order: their trivial and their regular modules have equal
        dimensions and characters, but modules over different groups do not compare."""
        C4, V4 = cyclic(4), from_permutations(["(1 2)", "(3 4)"], name="V4")
        for make in (WModule.trivial, WModule.regular):
            with pytest.raises(LinAlgError, match="different groups"):
                intertwiner(make(C4), make(V4))
        twin = cyclic(4)
        assert twin is not C4 and twin.same_table(C4)
        for make in (WModule.trivial, WModule.regular):
            assert intertwiner(make(C4), make(twin)).is_invertible()

    def test_from_gset_refuses_a_set_over_another_group(self):
        """A V4-set is not read as a C4-module, though the orders agree; a set over a twin of C4 is."""
        C4, V4 = cyclic(4), from_permutations(["(1 2)", "(3 4)"], name="V4")
        with pytest.raises(LinAlgError, match="G-set is over V4, not over C4"):
            WModule.from_gset(C4, coset_gset(V4, (V4.identity,)))
        twin = cyclic(4)
        assert WModule.from_gset(C4, coset_gset(twin, (twin.identity,))) == WModule.regular(C4)

    def test_direct_sum_over_a_group_with_the_same_table(self):
        """Like ``intertwiner``, the sum takes a module over another copy of the group, here one
        generated by the inverse of C4's generator, and refuses one over V4."""
        C4 = cyclic(4)
        twin = FiniteGroup([list(row) for row in C4._mul], gens=[C4.inv(C4.gens[0])])
        assert twin.gens != C4.gens and twin.same_table(C4)
        V, W = WModule.regular(C4), WModule.regular(twin)
        S = V.direct_sum(W)
        S.validate()
        assert S.group is C4
        for g in range(C4.order):
            assert S.matrix(g) == direct_sum(V.matrix(g), W.matrix(g))
        assert V.direct_sum(WModule.trivial(cyclic(4))).dim == 5
        with pytest.raises(LinAlgError, match="common group"):
            V.direct_sum(WModule.trivial(from_permutations(["(1 2)", "(3 4)"])))

    def test_intertwiner_none_for_nonisomorphic(self):
        W = cyclic(2)
        triv = WModule.trivial(W, 1)
        sign = WModule(W, 1, (QMatrix([[-1]]),))
        assert intertwiner(triv, sign) is None


WEYL_GROUPS = {"C2": cyclic(2), "C3": cyclic(3), "S3": symmetric(3), "C4": cyclic(4), "Q8": quaternion()}
MAX_MODULE_DIM = 10


def _sign_module(W):
    """A one-dimensional module with a nontrivial character, or None when W has no subgroup of index 2."""
    lat = SubgroupLattice(W)
    for k in range(len(lat)):
        if 2 * lat.order(k) == W.order:
            kernel = set(lat.elements(k))
            return WModule(W, 1, tuple(QMatrix([[1 if s in kernel else -1]]) for s in W.gens))
    return None


SIGN_MODULES = {name: _sign_module(W) for name, W in WEYL_GROUPS.items()}


@st.composite
def permutation_sums(draw):
    """(group name, permutation-module summands, conjugation seed, index of a summand to swap)."""
    name = draw(st.sampled_from(sorted(WEYL_GROUPS)))
    W = WEYL_GROUPS[name]
    seeds = draw(st.lists(st.lists(st.integers(0, W.order - 1), max_size=2), min_size=1, max_size=4))
    summands, dim = [], 0
    for gens in seeds:
        P = WModule.from_gset(W, coset_gset(W, W.closure(gens)))
        if dim + P.dim <= MAX_MODULE_DIM:
            summands.append(P)
            dim += P.dim
    if not summands:
        summands.append(WModule.trivial(W, 1))
    return name, summands, draw(st.integers(0, 2**32)), draw(st.integers(0, len(summands) - 1))


class TestReynoldsIntertwiner:
    """``intertwiner`` answers None exactly on differing characters, and otherwise an isomorphism."""

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(permutation_sums())
    def test_sums_of_permutation_modules(self, case):
        name, summands, seed, swap = case
        W = WEYL_GROUPS[name]
        V = functools.reduce(WModule.direct_sum, summands)
        V2 = V.conjugated(random_invertible(V.dim, random.Random(seed)))
        state = random.getstate()
        X = intertwiner(V, V2)
        assert X is not None and X.is_invertible()
        for g in range(W.order):
            assert X.matmul(V.matrix(g)) == V2.matrix(g).matmul(X)
        assert intertwiner(V, V2) == X
        assert random.getstate() == state
        # a summand of the same dimension but another character
        d = summands[swap].dim
        other = WModule.trivial(W, d) if d > 1 else SIGN_MODULES[name]
        if other is not None:
            swapped = functools.reduce(WModule.direct_sum, summands[:swap] + [other] + summands[swap + 1 :])
            assert intertwiner(V2, swapped) is None

    def test_runs_out_of_tries_with_an_error(self, monkeypatch):
        # V is not isomorphic to V2 = sign, but the characters are faked equal
        W = cyclic(2)
        V, V2 = WModule.trivial(W, 1), SIGN_MODULES["C2"]
        monkeypatch.setattr(WModule, "character", lambda self: [1, 1])
        with pytest.raises(LinAlgError):
            intertwiner(V, V2)


class TestRestrictMap:
    def test_restrict_onto_subspace(self):
        amb = QMatrix([[0, 1], [1, 0]])
        basis = QMatrix([[1], [1]])
        assert restrict_map(amb, basis, basis) == QMatrix([[1]])

    def test_restrict_rejects_escaping_map(self):
        amb = QMatrix([[1, 1], [0, 1]])
        basis = QMatrix([[1], [0]])
        other = QMatrix([[0], [1]])
        with pytest.raises(LinAlgError):
            restrict_map(amb, other, other)


def test_stacking():
    A = QMatrix.identity(2)
    assert hstack(A, A).cols == 4
    assert vstack(A, A).rows == 4
    assert permutation_matrix((1, 0)) == QMatrix([[0, 1], [1, 0]])
