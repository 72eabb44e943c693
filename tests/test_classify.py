import gc
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import free_reference
from burnside_reference import burnside_action
from corruptions import all_corruptions
from qmackey import classify, linalg
from qmackey.burnside import burnside_ring
from qmackey.classify import (
    FreeBlock,
    SplitData,
    assemble,
    certify_iso,
    classify_iso,
    diagonal_check,
    free_functor,
    free_level_dims,
    random_functor,
    random_invertible,
    random_split_data,
    split,
)
from qmackey.groups import SubgroupLattice, corpus, coset_gset
from qmackey.linalg import LinAlgError, QMatrix, WModule, intertwiner
from qmackey.mackey import (
    MackeyError,
    basis_change,
    burnside_mackey,
    check_axioms,
    coconstant,
    comparable_pairs,
    constant,
    direct_sum,
    fp_functor,
    idempotent_part,
    zero_functor,
)
from qmackey.monoidal import box_unit_iso


def ids_of(lat):
    return {lat.name(h): h for h in range(len(lat))}


def free_functor_idempotent_rank(lattice, a, b, c, V):
    """The rank of the class-C idempotent of A_Q(B) acting on F_A(V)(G/B)."""
    return burnside_action(free_functor(lattice, a, V), b, burnside_ring(lattice, b).idempotent(c)).rank()


@pytest.fixture(scope="module")
def c6A(c6_lattice):
    return burnside_mackey(c6_lattice)


class TestFreeFunctorsC6:
    """The four order-6 free functors on the trivial line, with the drawn maps."""

    def test_f2_line(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C2"]).group
        F = free_functor(c6_lattice, ids["C2"], WModule.trivial(W, 1))
        assert F.dims == (0, 1, 0, 1)
        assert F.res[(ids["C6"], ids["C2"])] == QMatrix.identity(1)
        assert F.ind[(ids["C6"], ids["C2"])] == QMatrix.scalar(1, 3)
        assert check_axioms(F).ok

    def test_f3_line(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.trivial(W, 1))
        assert F.dims == (0, 0, 1, 1)
        assert F.res[(ids["C6"], ids["C3"])] == QMatrix.identity(1)
        assert F.ind[(ids["C6"], ids["C3"])] == QMatrix.scalar(1, 2)

    def test_f6_line(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C6"]).group
        F = free_functor(c6_lattice, ids["C6"], WModule.trivial(W, 1))
        assert F.dims == (0, 0, 0, 1)

    def test_f1_line_is_constant_shape(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C1"]).group
        F = free_functor(c6_lattice, ids["C1"], WModule.trivial(W, 1))
        assert F.dims == (1, 1, 1, 1)
        assert F.res[(ids["C6"], ids["C1"])] == QMatrix.identity(1)
        assert F.ind[(ids["C2"], ids["C1"])] == QMatrix.scalar(1, 2)
        assert F.ind[(ids["C3"], ids["C1"])] == QMatrix.scalar(1, 3)

    def test_f3_on_group_ring(self, c6_lattice):
        # the free functor on the regular Weyl module: fixed-point inclusion
        # as restriction, augmentation as induction
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.regular(W))
        assert F.dims == (0, 0, 2, 1)
        assert F.res[(ids["C6"], ids["C3"])] == QMatrix([[1], [1]])
        assert F.ind[(ids["C6"], ids["C3"])] == QMatrix([[1, 1]])
        assert check_axioms(F).ok

    def test_f1_on_group_ring_matches_fixed_points(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C1"]).group
        F = free_functor(c6_lattice, ids["C1"], WModule.regular(W))
        FP = fp_functor(c6_lattice, WModule.regular(c6_lattice.group))
        assert F.dims == FP.dims == (6, 3, 2, 1)
        iso = certify_iso(F, FP)
        assert iso is not None and iso.is_levelwise_iso()


class TestFreeFunctorGeneral:
    def test_zero_module_gives_zero_functor(self, s3_lattice):
        W = s3_lattice.weyl(s3_lattice.top).group
        F = free_functor(s3_lattice, s3_lattice.top, WModule.zero(W))
        assert F.dims == tuple(0 for _ in s3_lattice.subgroups)

    def test_zero_module_keeps_every_map(self, corpus_lattices):
        """The zero free functor has the name, the map keys and the 0x0 maps of the general construction."""
        for lat in corpus_lattices.values():
            pairs = [(b, s) for b in range(len(lat)) for s in lat.subgroups_of(b)]
            gens = [(pos, k) for pos in range(len(lat.group.gens)) for k in range(len(lat))]
            for h in lat.class_reps():
                F = free_functor(lat, h, WModule.zero(lat.weyl(h).group))
                assert F.name == f"F[{lat.class_name_of(h)}]"
                assert F.dims == (0,) * len(lat)
                assert list(F.res) == pairs and list(F.ind) == pairs and list(F.cgen) == gens
                assert all(m == QMatrix.zeros(0, 0) for maps in (F.res, F.ind, F.cgen) for m in maps.values())

    def test_top_class_concentrates_at_top(self, s3_lattice):
        W = s3_lattice.weyl(s3_lattice.top).group
        F = free_functor(s3_lattice, s3_lattice.top, WModule.trivial(W, 3))
        assert F.dims[s3_lattice.top] == 3
        assert all(F.dims[k] == 0 for k in range(len(s3_lattice) - 1))

    def test_vanishes_off_superconjugates(self, s4_lattice):
        reps = s4_lattice.class_reps()
        h = reps[3]
        W = s4_lattice.weyl(h).group
        F = free_functor(s4_lattice, h, WModule.trivial(W, 1))
        for k in range(len(s4_lattice)):
            if not s4_lattice.is_subconjugate(h, k):
                assert F.dims[k] == 0

    def test_level_dims_match_character_count(self, s3_lattice):
        for h in s3_lattice.class_reps():
            W = s3_lattice.weyl(h).group
            V = WModule.regular(W)
            F = free_functor(s3_lattice, h, V)
            assert F.dims == free_level_dims(s3_lattice, h, V)

    def test_module_over_another_group_is_rejected(self, s3_lattice):
        """The order-6 Weyl group of C1 in S3 is not C6: the count and the construction refuse alike."""
        V = WModule.regular(corpus()["C6"])
        for build in (free_level_dims, free_functor):
            with pytest.raises(MackeyError, match="Weyl group of H"):
                build(s3_lattice, s3_lattice.bottom, V)

    def test_axioms_nonabelian(self, s4_lattice):
        k = next(h for h in s4_lattice.class_reps() if s4_lattice.order(h) == 2)
        W = s4_lattice.weyl(k).group
        F = free_functor(s4_lattice, k, WModule.regular(W))
        assert check_axioms(F).ok

    def test_free_functor_is_idempotent_local(self, c6_lattice):
        ids = ids_of(c6_lattice)
        ring = burnside_ring(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.regular(W))
        eF = idempotent_part(F, ring.idempotent(ids["C3"]))
        assert eF.dims == F.dims
        other = idempotent_part(F, ring.idempotent(ids["C2"]))
        assert all(d == 0 for d in other.dims)


class TestUModule:
    def test_u_c2_of_burnside_c6_is_trivial_line(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        V, basis = classify._local_piece(c6A, ids["C2"])[:2]
        assert V.dim == 1
        for g in range(V.group.order):
            assert V.matrix(g) == QMatrix.identity(1)

    def test_u_of_zero_functor(self, c6_lattice):
        Z = zero_functor(c6_lattice)
        for h in c6_lattice.class_reps():
            V, _ = classify._local_piece(Z, h)[:2]
            assert V.dim == 0

    def test_unit_u_of_free_is_module(self, s3_lattice):
        for h in s3_lattice.class_reps():
            W = s3_lattice.weyl(h).group
            V = WModule.regular(W)
            F = free_functor(s3_lattice, h, V)
            U, _ = classify._local_piece(F, h)[:2]
            assert U.dim == V.dim
            X = intertwiner(V, U)
            assert X is not None and X.is_invertible()
            for g in range(W.order):
                assert X.matmul(V.matrix(g)) == U.matrix(g).matmul(X)


class TestUModuleQuotientCharacterization:
    def test_local_dim_complements_induction_images(self, corpus_lattices):
        # independent route: the local piece at H has the dimension of the
        # quotient of M(G/H) by the images of inductions from proper subgroups
        from qmackey.linalg import hstack

        for name in ("C6", "S3", "D8"):
            lat = corpus_lattices[name]
            rng = random.Random(31)
            functors = [burnside_mackey(lat), random_functor(lat, rng)]
            for M in functors:
                for h in lat.class_reps():
                    U, _ = classify._local_piece(M, h)[:2]
                    proper = [M.ind[(h, k)] for k in lat.subgroups_of(h) if k != h]
                    if proper:
                        rank = hstack(*proper).rank()
                    else:
                        rank = 0
                    assert U.dim == M.dims[h] - rank, (name, lat.name(h))


class TestCyclicTowerSummands:
    def test_c8_levels_split_into_fixed_pieces_of_the_modules(self, corpus_lattices):
        # assemble from known Weyl modules, then match each diagonal summand
        # against the directly computed fixed subspace of that module
        from qmackey.linalg import fixed_subspace

        lat = corpus_lattices["C8"]
        modules = {}
        for h in lat.class_reps():
            modules[h] = WModule.regular(lat.weyl(h).group)
        M = assemble(SplitData(lat, modules))
        for h in range(len(lat)):
            for k in lat.subgroups_of(h):
                rep = diagonal_check(M, k, h)
                assert rep.ok
                w = lat.weyl(k)
                upstairs = [w.proj[g] for g in lat.elements(h)]
                expected = fixed_subspace(modules[k], upstairs).cols
                assert rep.dim_fixed == expected, (lat.name(k), lat.name(h))


class TestComparison:
    def test_comparison_on_free_functor_is_iso(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.regular(W))
        mor = free_reference.comparison_block(F, ids["C3"])[1]
        assert mor.is_levelwise_iso()

    def test_comparison_on_functor_vanishing_at_h(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W2 = c6_lattice.weyl(ids["C2"]).group
        F = free_functor(c6_lattice, ids["C2"], WModule.trivial(W2, 1))
        mor = free_reference.comparison_block(F, ids["C3"])[1]
        assert all(m.rows == 0 for m in mor.maps)

    def test_comparison_levelwise_ranks_burnside_c6(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        mor = free_reference.comparison_block(c6A, ids["C3"])[1]
        assert [m.rank() for m in mor.maps] == [0, 0, 1, 1]


class TestSplitAssemble:
    def test_split_burnside_c6_gives_four_trivial_lines(self, c6_lattice, c6A):
        S = split(c6A)
        assert sorted(v.dim for v in S.modules.values()) == [1, 1, 1, 1]
        for V in S.modules.values():
            for g in range(V.group.order):
                assert V.matrix(g) == QMatrix.identity(1)

    def test_assemble_reproduces_burnside_c6(self, c6_lattice, c6A):
        N = assemble(split(c6A))
        assert N.dims == c6A.dims
        iso = classify_iso(c6A)
        assert iso.target.dims == c6A.dims
        assert iso.is_levelwise_iso()

    def test_split_of_free_concentrates_in_one_class(self, s3_lattice):
        h = next(k for k in s3_lattice.class_reps() if s3_lattice.order(k) == 3)
        W = s3_lattice.weyl(h).group
        F = free_functor(s3_lattice, h, WModule.regular(W))
        S = split(F)
        for k, V in S.modules.items():
            if k == h:
                assert V.dim == W.order
            else:
                assert V.dim == 0

    def test_split_additive_on_direct_sums(self, c6_lattice, c6A):
        twice = direct_sum(c6A, c6A)
        S1 = split(c6A)
        S2 = split(twice)
        for h in c6_lattice.class_reps():
            assert S2.modules[h].dim == 2 * S1.modules[h].dim

    def test_assemble_is_built_once_and_is_the_target_of_classify_iso(self, corpus_lattices):
        """While S is held, ``assemble(S)`` is one functor, named "assembled", and ``classify_iso``'s target;
        ``assemble(S, name="x")`` has the same maps and the name "x"."""
        M = random_functor(corpus_lattices["D8"], random.Random(5))
        S = split(M)
        F = assemble(S)
        assert F is assemble(S) is classify_iso(M).target and F.name == "assembled"
        named = assemble(S, name="x")
        assert named.name == "x" and named is not F
        assert (named.dims, dict(named.res), dict(named.ind), dict(named.cgen)) == (F.dims, dict(F.res), dict(F.ind), dict(F.cgen))

    def test_assemble_empty_is_zero(self, c6_lattice):
        Z = assemble(SplitData(c6_lattice, {}))
        assert all(d == 0 for d in Z.dims)

    def test_assemble_rejects_keys_off_the_class_representatives(self, s3_lattice):
        stray = next(h for h in range(len(s3_lattice)) if s3_lattice.class_rep(h) != h)
        V = WModule.trivial(s3_lattice.weyl(stray).group, 1)
        for key in (stray, 999):
            with pytest.raises(MackeyError, match=f"key {key} is not a class representative"):
                assemble(SplitData(s3_lattice, {key: V}))


class TestClassifyRoundTrip:
    @pytest.mark.parametrize("name", ["C6", "S3", "D8"])
    def test_random_round_trips(self, corpus_lattices, name):
        lat = corpus_lattices[name]
        rng = random.Random(2024)
        for _ in range(8):
            M = random_functor(lat, rng)
            assert max(M.dims) <= 4
            iso = classify_iso(M)
            assert iso.is_levelwise_iso()

    def test_random_functors_pass_axioms(self, s3_lattice):
        rng = random.Random(5)
        for _ in range(3):
            M = random_functor(s3_lattice, rng)
            assert check_axioms(M).ok

    def test_round_trip_split_dims_stable(self, s3_lattice):
        rng = random.Random(77)
        S = random_split_data(s3_lattice, rng)
        M = assemble(S)
        S2 = split(M)
        for h in s3_lattice.class_reps():
            want = S.modules[h].dim if h in S.modules else 0
            assert S2.modules[h].dim == want


class TestCertifyIso:
    def test_functor_isomorphic_to_scramble(self, c6_lattice, c6A):
        rng = random.Random(9)
        mats = [random_invertible(d, rng) for d in c6A.dims]
        M2 = basis_change(c6A, mats)
        iso = certify_iso(c6A, M2)
        assert iso is not None and iso.is_levelwise_iso()

    def test_nonisomorphic_detected(self, c6_lattice, c6A):
        assert certify_iso(c6A, direct_sum(c6A, c6A)) is None

    def test_comparison_memo(self, s3_lattice):
        """Holding ``split(M)`` changes no answer, and the value keeps no functor alive once it is dropped."""
        rng = random.Random(31)
        M = random_functor(s3_lattice, rng)
        N = basis_change(M, [random_invertible(d, rng) for d in M.dims])
        cold = certify_iso(M, N)
        first = classify_iso(M)
        S = split(M)
        assert split(M) is S and S._comparison is S._comparison
        assert classify_iso(M).maps == first.maps
        warm = certify_iso(M, N)
        assert cold is not None and warm.maps == cold.maps
        assert N._split_data() is None  # certify_iso keeps nothing of N
        same = certify_iso(M, M)
        assert same is not None and (same.source, same.target) == (M, M) and same.is_levelwise_iso()
        ref = weakref.ref(M)
        del M, N, S, cold, first, warm, same
        gc.collect()
        assert ref() is None


class TestClassificationMemo:
    """``split``, ``assemble``, ``classify_iso`` and ``certify_iso`` share the pieces and blocks of a held ``split(M)``."""

    @pytest.fixture
    def pair(self, corpus_lattices):
        rng = random.Random(17)
        M = random_functor(corpus_lattices["D8"], rng)
        return M, basis_change(M, [random_invertible(d, rng) for d in M.dims])

    @staticmethod
    def counted_builds(monkeypatch):
        built = []
        monkeypatch.setattr(classify, "FreeBlock", lambda *args: built.append(args[1]) or FreeBlock(*args))
        return built

    @staticmethod
    def results(M, N):
        S = split(M)
        F = assemble(S)
        iso, cert = classify_iso(M), certify_iso(M, N)
        return (
            {h: (V.dim, V.gen_matrices) for h, V in S.modules.items()},
            (F.dims, dict(F.res), dict(F.ind), dict(F.cgen)),
            (iso.target.dims, iso.maps),
            cert.maps,
        )

    def test_each_block_is_built_once(self, pair, monkeypatch):
        M, N = pair
        built = self.counted_builds(monkeypatch)
        self.results(M, N)
        assert sorted(built) == [h for h, V in split(M).modules.items() if V.dim]

    def test_results_equal_those_on_a_copy(self, pair):
        M, N = pair
        warm = self.results(M, N)
        copy = replace(M)
        classify_iso(N)  # another functor's classification in between changes no answer
        assert self.results(copy, N) == warm

    def test_other_arguments_build_a_new_block(self, pair, monkeypatch):
        """A held value builds each block once; ``free_functor`` builds a new one on every call, with equal answers."""
        M, _ = pair
        lat = M.lattice
        S = split(M)
        built = self.counted_builds(monkeypatch)
        assert assemble(S) == assemble(S)
        block = S._blocks[0]
        assert built == [b.h for b in S._blocks]
        other = SubgroupLattice(lat.group)
        for F in (free_functor(lat, block.h, block.module), free_functor(other, block.h, block.module),
                  free_functor(lat, block.h, replace(block.module))):
            assert F.dims == block.functor.dims
        assert len(built) == len(S._blocks) + 3

    def test_no_block_of_an_earlier_functor_stays(self, pair):
        M, N = pair
        S = split(M)
        ref = weakref.ref(S._blocks[0])
        classify_iso(N)
        assert ref() is S._blocks[0]
        del S
        gc.collect()
        assert ref() is None

    def test_alternating_functors_build_each_piece_and_block_once(self, pair, monkeypatch):
        """Two held values do not evict each other, and a dropped one frees its blocks."""
        M1, M2 = pair
        local_piece, pieces = classify._local_piece, []
        monkeypatch.setattr(classify, "_local_piece", lambda M, h: pieces.append((M is M1, h)) or local_piece(M, h))
        built = self.counted_builds(monkeypatch)
        S1, S2 = split(M1), split(M2)
        certify_iso(M1, M2)
        classify_iso(M2)
        certify_iso(M1, M2)
        classify_iso(M1)
        reps = M1.lattice.class_reps()
        assert pieces == [(True, h) for h in reps] + [(False, h) for h in reps]
        assert sorted(built) == sorted(2 * [h for h, V in S1.modules.items() if V.dim])
        ref = weakref.ref(S1._blocks[0])
        del S1
        gc.collect()
        assert ref() is None and S2._blocks


# A 4x4 integer matrix conjugating R + R over C2 (R the regular module) to a
# module that the averages of single matrix units never map onto invertibly.
WITNESS_T = [[1, 1, 1, 1], [-1, 0, -2, -3], [2, 0, 5, 7], [0, -2, 3, 6]]


class TestRepeatedSummandWitness:
    """V = R + R over C2 and its conjugate by WITNESS_T have equal characters, so are isomorphic."""

    @pytest.fixture
    def pair(self, c2_lattice):
        R = WModule.regular(c2_lattice.weyl(c2_lattice.bottom).group)
        V = R.direct_sum(R)
        return V, V.conjugated(QMatrix(WITNESS_T))

    def test_intertwiner_is_invertible_and_equivariant(self, pair):
        V, V2 = pair
        X = intertwiner(V, V2)
        assert X is not None and X.is_invertible()
        for g in range(V.group.order):
            assert X.matmul(V.matrix(g)) == V2.matrix(g).matmul(X)

    def test_certify_iso_on_free_functors(self, c2_lattice, pair):
        V, V2 = pair
        M = free_functor(c2_lattice, c2_lattice.bottom, V)
        N = free_functor(c2_lattice, c2_lattice.bottom, V2)
        iso = certify_iso(M, N)
        assert iso is not None and (iso.source, iso.target) == (M, N)
        iso.validate(full=True)
        assert iso.is_levelwise_iso()


class TestDiagonal:
    def test_s4_transposition_example(self, s4_lattice):
        G = s4_lattice.group
        k = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
        h = s4_lattice.subgroup_id(
            G.closure([G.elem_names.index("(1 2)"), G.elem_names.index("(3 4)")])
        )
        assert s4_lattice.normalizers[k] == h
        W = s4_lattice.weyl(k).group
        assert W.order == 2
        F = free_functor(s4_lattice, k, WModule.regular(W))
        # the composite I o R on the two fixed cosets has a line as image
        image = F.ind[(h, k)].matmul(F.res[(h, k)])
        assert image.rank() == 1
        rep = diagonal_check(F, k, h)
        assert rep.ok and rep.dim_upper == 1 and rep.dim_fixed == 1

    def test_equal_subgroups_identity(self, c6_lattice, c6A):
        for k in range(len(c6_lattice)):
            rep = diagonal_check(c6A, k, k)
            assert rep.ok
            assert rep.matrix.is_identity()

    def test_c8_tower_dimension_formula(self, corpus_lattices):
        # over the order-8 cyclic tower the level dimension splits as the sum
        # of Weyl-fixed pieces of the lower local modules
        lat = corpus_lattices["C8"]
        rng = random.Random(42)
        S = random_split_data(lat, rng)
        M = assemble(S)
        for h in range(len(lat)):
            total = 0
            for k in lat.subgroups_of(h):
                rep = diagonal_check(M, k, h)
                assert rep.ok
                total += rep.dim_fixed
            assert total == M.dims[h]

    def test_all_pairs_on_random_functors(self, corpus_lattices):
        for name in ("C6", "S3"):
            lat = corpus_lattices[name]
            rng = random.Random(11)
            M = random_functor(lat, rng)
            for h in range(len(lat)):
                for k in lat.subgroups_of(h):
                    rep = diagonal_check(M, k, h)
                    assert rep.ok, (name, lat.name(k), lat.name(h))

    def test_requires_containment(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        with pytest.raises(MackeyError):
            diagonal_check(c6A, ids["C2"], ids["C3"])

    @pytest.mark.parametrize("error, fails", [(LinAlgError, True), (KeyError, False)])
    def test_only_linear_algebra_failures_mean_not_ok(self, c2_lattice, monkeypatch, error, fails):
        # at the bottom no Weyl element acts, so the restriction is the only restrict_map call
        def broken(*args):
            raise error("no map")

        monkeypatch.setattr(classify, "restrict_map", broken)
        A = burnside_mackey(c2_lattice)
        if fails:
            assert not diagonal_check(A, c2_lattice.bottom, c2_lattice.bottom).ok
        else:
            with pytest.raises(error):
                diagonal_check(A, c2_lattice.bottom, c2_lattice.bottom)


class TestFreeFunctorIdempotent:
    def test_c6_nonconjugate_vanishes(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        V = WModule.trivial(W, 1)
        rank = free_functor_idempotent_rank(c6_lattice, ids["C3"], ids["C6"], ids["C2"], V)
        assert rank == 0

    def test_s4_conjugate_case_nonzero(self, s4_lattice):
        G = s4_lattice.group
        k = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
        h = s4_lattice.normalizers[k]
        W = s4_lattice.weyl(k).group
        rank = free_functor_idempotent_rank(s4_lattice, k, h, k, WModule.regular(W))
        assert rank == 1

    def test_vanishing_sweep(self, s3_lattice):
        for a in s3_lattice.class_reps():
            W = s3_lattice.weyl(a).group
            V = WModule.trivial(W, 1)
            for b in range(len(s3_lattice)):
                for c in s3_lattice.subgroups_of(b):
                    rank = free_functor_idempotent_rank(s3_lattice, a, b, c, V)
                    if s3_lattice.class_of[c] != s3_lattice.class_of[a]:
                        assert rank == 0


# -- free functors on their support, against the stacked-kernel, every-pair referee ------------------

MODULE_KINDS = ("trivial", "regular", "conjugated", "coset", "zero")


def _module(W, kind, seed):
    rng = random.Random(seed)
    if kind == "trivial":
        return WModule.trivial(W, 1)
    if kind == "zero":
        return WModule.zero(W)
    if kind == "coset":
        return WModule.from_gset(W, coset_gset(W, W.closure([rng.randrange(W.order) for _ in range(2)])))
    R = WModule.regular(W)
    return R if kind == "regular" else R.conjugated(random_invertible(R.dim, rng))


@pytest.fixture(scope="module")
def free_groups(corpus_lattices, past_corpus_lattices):
    return {**corpus_lattices, **{name: past_corpus_lattices[name] for name in ("C2^4", "S3xS3")}}


@pytest.mark.parametrize("group", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4", "C2^4", "S3xS3"])
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(
    pick=st.integers(0, 10**6),
    kind=st.sampled_from(MODULE_KINDS),
    seed=st.integers(0, 10**6),
)
def test_free_block_matches_every_pair_reference(free_groups, group, pick, kind, seed):
    """Bases equal the stacked kernel's, maps equal every-pair ``restrict_map``, and the axioms hold."""
    lat = free_groups[group]
    h = lat.class_reps()[pick % len(lat.class_reps())]
    V = _module(lat.weyl(h).group, kind, seed)
    assume(V.dim <= 8)
    block = classify.build_free_block(lat, h, V)
    bases, res, ind, cgen = free_reference.free_maps(lat, h, V)
    assert free_reference.free_bases(block) == tuple(bases)
    F = block.functor
    assert (dict(F.res), dict(F.ind), dict(F.cgen)) == (res, ind, cgen)
    assert (list(F.res), list(F.ind), list(F.cgen)) == (list(res), list(ind), list(cgen))
    assert check_axioms(F).ok


@pytest.mark.parametrize("group", ["S4", "C2^4"])
def test_free_block_asks_for_fixed_cosets_only_above_a_conjugate_of_h(free_groups, group, monkeypatch):
    """(G/K)^H is empty unless H <=_G K: the other levels get no coset lookup and no cosets."""
    lat = free_groups[group]
    asked, fixed_cosets = [], lat.fixed_cosets
    monkeypatch.setattr(lat, "fixed_cosets", lambda k, h, *rest: asked.append((k, h)) or fixed_cosets(k, h, *rest))
    for h in lat.class_reps():
        block = classify.build_free_block(lat, h, WModule.trivial(lat.weyl(h).group))
        assert [bool(X) for X in block.cosets] == [lat.is_subconjugate(h, k) for k in range(len(lat))]
    assert asked and [(k, h) for k, h in asked if not lat.is_subconjugate(h, k)] == []


def test_classify_iso_product_guard(past_corpus_lattices, monkeypatch):
    """A machine-independent guard: matrix products of ``classify_iso`` on the C2^4 Burnside functor."""
    A = replace(burnside_mackey(past_corpus_lattices["C2^4"]))
    calls = 0
    matmul = QMatrix.matmul

    def counted(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    monkeypatch.setattr(QMatrix, "matmul", counted)
    classify_iso(A)
    assert 0 < calls <= 40_000


def test_certify_iso_rejects_a_non_equivariant_intertwiner(c2_lattice, monkeypatch):
    """The lift of phi is checked: a matrix that does not commute with the Weyl action raises."""
    R = WModule.regular(c2_lattice.weyl(c2_lattice.bottom).group)
    V = R.direct_sum(R)
    M = free_functor(c2_lattice, c2_lattice.bottom, V)
    N = free_functor(c2_lattice, c2_lattice.bottom, V.conjugated(QMatrix(WITNESS_T)))
    skew = QMatrix([[1 if i <= j else 0 for j in range(4)] for i in range(4)])
    swap = V.gen_matrices[0]
    assert skew.is_invertible() and skew.matmul(swap) != swap.matmul(skew)
    monkeypatch.setattr(classify, "intertwiner", lambda V1, V2: skew)
    with pytest.raises(MackeyError):
        certify_iso(M, N)


def test_certify_iso_validates_each_lift(c2_lattice, monkeypatch):
    """A lift that is not natural, psi_H Q_H doubled on the one-coset levels only, raises."""
    A = burnside_mackey(c2_lattice)
    S = split(A)  # held across the call, so M1's own comparison is built before the fault and kept
    classify_iso(A)
    coords = classify._orbit_coords
    # a level has one coset exactly when its one orbit's base, the last coset of the orbit, is coset 0
    double = lambda orbits, values, what: coords(orbits, values, what).scale(2 if [b for b, _ in orbits] == [0] else 1)
    monkeypatch.setattr(classify, "_orbit_coords", double)
    with pytest.raises(MackeyError, match="does not commute"):
        certify_iso(A, replace(A))


def test_compare_refuses_a_base_value_outside_the_stabilizer_fixed_space(c2_lattice):
    """At the one coset of G/G, W_b = W = C2, and V^{W_b} is the line of (1, 1) in the regular module.  A Q that is
    not equivariant puts the base value off that line, so ``_compare`` raises rather than read rows q of it."""
    lat = c2_lattice
    V = WModule.regular(lat.weyl(lat.bottom).group)
    M = free_functor(lat, lat.bottom, V)
    Q = classify._local_piece(M, lat.bottom)[2]
    block = classify.build_free_block(lat, lat.bottom, V)
    assert [len(orbits) for orbits in block.orbits] == [1, 1] and block.orbits[lat.top][0][1].cols == 1
    assert classify._compare(M, block, Q).is_levelwise_iso()
    with pytest.raises(MackeyError, match="comparison component is not Weyl-fixed"):
        classify._compare(M, block, QMatrix([[1, 0], [0, 0]]).matmul(Q))


def test_free_block_of_a_dense_module_matches_the_reference_in_eliminations_of_width_dim_v(corpus_lattices, monkeypatch):
    """The Weyl module at e of a scrambled FP(Q[D12]) is dense, of dimension 12: its free block equals ``free_maps``'s,
    and no elimination inside ``build_free_block`` is wider than dim V, where |X| dim V reaches 144."""
    lat = corpus_lattices["D12"]
    V = classify._local_piece(_scrambled(fp_functor(lat, WModule.regular(lat.group)), 3), lat.bottom)[0]
    assert V.dim == 12 and sum(x != 0 for m in V.gen_matrices for row in m.data for x in row) > 12 * 12
    widths, rref_rows = [], linalg._rref_rows
    monkeypatch.setattr(linalg, "_rref_rows", lambda body: widths.append(max((max(r) + 1 for r in body if r), default=0)) or rref_rows(body))
    block = classify.build_free_block(lat, lat.bottom, V)
    monkeypatch.undo()
    assert widths and max(widths) <= V.dim
    bases, res, ind, cgen = free_reference.free_maps(lat, lat.bottom, V)
    assert free_reference.free_bases(block) == tuple(bases)
    F = block.functor
    assert (dict(F.res), dict(F.ind), dict(F.cgen)) == (res, ind, cgen)


def _scrambled(M, seed):
    rng = random.Random(seed)
    return basis_change(M, [random_invertible(d, rng) for d in M.dims])


def _agrees_with_referee(M, N):
    """``certify_iso`` and the free-lift referee give the same verdict, and every answer is a natural iso."""
    got, want = certify_iso(M, N), free_reference.certify_iso(M, N)
    assert (got is None) == (want is None), (M.name, N.name)
    for iso in filter(None, (got, want)):
        assert (iso.source, iso.target) == (M, N)
        iso.validate(full=True)
        assert iso.is_levelwise_iso()
    return got


def _corpus_panel(lat, rng):
    """The Burnside, constant, co-constant and regular fixed-point functors, and two random functors."""
    FP = fp_functor(lat, WModule.regular(lat.group))
    return [burnside_mackey(lat), constant(lat, 1), coconstant(lat, 1), FP, random_functor(lat, rng), random_functor(lat, rng)]


@pytest.mark.parametrize("group", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4", "C2^4", "C2xS4"])
def test_local_piece_keeps_the_idempotent_action_exactly(corpus_lattices, past_corpus_lattices, group):
    """basis Q is the top idempotent's action P on M(G/H), at every class of every panel functor;
    past the corpus, of the Burnside functor and one random functor."""
    if group in corpus_lattices:
        lat = corpus_lattices[group]
        panel = _corpus_panel(lat, random.Random(group))
    else:
        lat = past_corpus_lattices[group]
        panel = [burnside_mackey(lat), random_functor(lat, random.Random(group))]
    for M in panel:
        for h in lat.class_reps():
            V, basis, Q = classify._local_piece(M, h)
            assert (basis.cols, Q.rows, Q.cols) == (V.dim, V.dim, M.dims[h])
            assert basis.matmul(Q) == burnside_action(M, h, burnside_ring(lat, h).idempotent(h))


@pytest.mark.parametrize("group", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4"])
def test_compare_matches_the_per_coset_solve_referee(corpus_lattices, group):
    """``_compare`` through Q, and through psi Q into the block of a scrambled copy's piece,
    gives the maps of the referee that solves for the local-piece coordinates at every coset."""
    lat = corpus_lattices[group]
    for seed, M in enumerate(_corpus_panel(lat, random.Random(group))):
        N = _scrambled(M, seed)
        for h in lat.class_reps():
            (V, basis, Q), (V2, basis2, Q2) = classify._local_piece(M, h), classify._local_piece(N, h)
            if not V.dim:
                continue
            block = classify.build_free_block(lat, h, V)
            e = burnside_ring(lat, h).idempotent(h)
            assert classify._compare(M, block, Q).maps == free_reference.compare(M, block, basis, burnside_action(M, h, e)).maps
            psi = intertwiner(V2, V)
            want = free_reference.compare(N, block, basis2, burnside_action(N, h, e), psi)
            assert classify._compare(N, block, psi.matmul(Q2)).maps == want.maps


@pytest.mark.parametrize(
    "group", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", pytest.param("S4", marks=pytest.mark.slow)]
)
def test_certify_iso_matches_free_lift_referee(corpus_lattices, group):
    """Scrambled copies of the standard functors and random pairs, isomorphic or not, get the referee's verdict."""
    lat = corpus_lattices[group]
    rng = random.Random(group)
    A, const, coconst, R = burnside_mackey(lat), constant(lat, 1), coconstant(lat, 1), random_functor(lat, rng)
    FP = fp_functor(lat, WModule.regular(lat.group))
    for seed, M in enumerate((A, const, coconst, FP, R)):
        assert _agrees_with_referee(M, _scrambled(M, seed)) is not None
    assert _agrees_with_referee(const, coconst) is not None  # the norm map is an isomorphism over Q
    assert _agrees_with_referee(A, direct_sum(A, A)) is None
    assert _agrees_with_referee(A, direct_sum(const, coconst)) is None
    for _ in range(3):
        _agrees_with_referee(R, random_functor(lat, rng))


@pytest.mark.parametrize("group, copies, witness", [("C2", 2, True), ("C2", 2, False), ("C3", 2, False), ("S3", 1, False)])
def test_certify_iso_matches_referee_on_repeated_summands(corpus_lattices, group, copies, witness):
    """The ROADMAP 4a pairs: the free functor on copies of the regular module against a conjugate of it."""
    lat = corpus_lattices[group]
    R = WModule.regular(lat.group)
    V = R.direct_sum(R) if copies == 2 else R
    T = QMatrix(WITNESS_T) if witness else random_invertible(V.dim, random.Random(group))
    M = free_functor(lat, lat.bottom, V)
    assert _agrees_with_referee(M, free_functor(lat, lat.bottom, V.conjugated(T))) is not None


def test_certify_iso_raises_on_a_singular_intertwiner(corpus_lattices, monkeypatch):
    """The zero matrix is equivariant but singular: the comparison of M2 fails to invert, never None."""
    monkeypatch.setattr(classify, "intertwiner", lambda V2, V1: QMatrix.zeros(V1.dim, V2.dim))
    for M in (burnside_mackey(corpus_lattices["S3"]), random_functor(corpus_lattices["D8"], random.Random(4))):
        with pytest.raises(MackeyError):
            certify_iso(M, _scrambled(M, 5))


@pytest.mark.slow
def test_certify_iso_product_guard(past_corpus_lattices, monkeypatch):
    """A machine-independent guard: matrix products of ``certify_iso`` on the C2^4 Burnside functor, with M1's
    comparison built beforehand on a held ``split(M1)``."""
    A = replace(burnside_mackey(past_corpus_lattices["C2^4"]))
    N = _scrambled(A, 5)
    S = split(A)
    classify_iso(A)
    calls = 0
    matmul = QMatrix.matmul

    def counted(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    monkeypatch.setattr(QMatrix, "matmul", counted)
    assert certify_iso(A, N) is not None
    assert 0 < calls <= 25_000


def test_diagonal_check_on_generators_matches_all_elements(corpus_lattices):
    """The generators of N_H(K) give the report that all its elements give."""
    for lat in corpus_lattices.values():
        functors = [burnside_mackey(lat)]
        functors += [free_functor(lat, h, WModule.regular(lat.weyl(h).group)) for h in lat.class_reps()[1:3]]
        for M in functors:
            for h in range(len(lat)):
                for k in lat.subgroups_of(h):
                    assert diagonal_check(M, k, h) == free_reference.diagonal_check(M, k, h)


# ---------------------------------------------------------------------------
# the premise of the reduced ``validate``: R and I compose along cover pairs
# ---------------------------------------------------------------------------


def _doubled_off_the_covers(lat, table):
    """The Burnside functor and a copy with R or I doubled at its last pair (H, L), L < H, that is not a cover pair."""
    A = burnside_mackey(lat)
    pair = [(h, l) for h, l in comparable_pairs(lat) if l != h and l not in lat.maximal(h)][-1]
    return A, replace(A, name="bad", **{table: {**getattr(A, table), pair: getattr(A, table)[pair].scale(2)}})


@pytest.mark.parametrize("certifier", ["classify_iso", "certify_iso", "box_unit_iso"])
@pytest.mark.parametrize("table", ["res", "ind"])
@pytest.mark.parametrize("group", ["C8", "S3", "D8"])
def test_a_functor_whose_maps_do_not_compose_is_refused(corpus_lattices, group, table, certifier):
    """A doubled R or I off the cover pairs can pass every square the reduced ``validate`` checks (it does in half of
    these cases), so the certifiers must refuse the functor before they validate against it."""
    A, bad = _doubled_off_the_covers(corpus_lattices[group], table)
    run = {"classify_iso": lambda: classify_iso(bad), "certify_iso": lambda: certify_iso(A, bad), "box_unit_iso": lambda: box_unit_iso(bad)}
    with pytest.raises(MackeyError):
        run[certifier]()


def test_no_certificate_for_a_corrupted_functor_fails_the_full_check(corpus_lattices):
    """On every corruption fixture over every corpus group, ``classify_iso`` and ``certify_iso`` raise ``MackeyError``
    or return a morphism that passes ``validate(full=True)``."""
    for lat in corpus_lattices.values():
        for bad, _ in all_corruptions(lat):
            for run in (lambda: classify_iso(bad), lambda: certify_iso(constant(lat, 1), bad)):
                try:
                    mor = run()
                except MackeyError:
                    continue
                assert mor is not None
                mor.validate(full=True)


def test_split_checks_the_premise_once_while_held(corpus_lattices, monkeypatch):
    """A held ``split(M)`` of an unbroken functor is built once, so its premise is checked once."""
    checked = []
    require = classify._require_composable
    monkeypatch.setattr(classify, "_require_composable", lambda M: checked.append(M) or require(M))
    A = replace(burnside_mackey(corpus_lattices["D8"]))
    S = split(A)
    assert classify_iso(A).is_levelwise_iso() and certify_iso(A, A) is not None
    assert split(A) is S and assemble(split(A)).dims == classify_iso(A).target.dims
    assert len(checked) == 1 and checked[0] is A
