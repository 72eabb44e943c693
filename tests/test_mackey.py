from pathlib import Path

import pytest

from corruptions import all_corruptions, axioms_violated, constant_with_identity_induction
from lattice_reference import orbits, stabilizer
from qmackey.burnside import burnside_ring
from qmackey.groups import GroupError, SubgroupLattice, coset_gset, cyclic, from_permutations, GMap, GSet, restrict_gset, trivial
from qmackey.linalg import QMatrix, WModule
from qmackey.mackey import (
    MackeyError,
    MackeyMorphism,
    burnside_action,
    burnside_mackey,
    check_axioms,
    coconstant,
    constant,
    contravariant_map,
    covariant_map,
    direct_sum,
    dual,
    eps_lower,
    eps_upper,
    evaluate_at_set,
    evaluate_bottom,
    fp_fq_iso,
    fp_functor,
    fp_unit,
    fq_functor,
    i_lower,
    i_transpose_down,
    i_transpose_up,
    i_upper,
    idempotent_part,
    zero_functor,
)
from qmackey.serialize import dump, functor_to_json

GOLDEN = Path(__file__).parent / "golden"


def identity_morphism(M):
    return MackeyMorphism(M, M, tuple(QMatrix.identity(d) for d in M.dims))


def disjoint_union_gset(parts):
    """The disjoint union of G-sets, each part's points numbered after those of the parts before it."""
    offsets = [sum(part.size for part in parts[:i]) for i in range(len(parts))]
    act = (tuple(o + q for o, part in zip(offsets, parts) for q in part.act[g]) for g in range(parts[0].group.order))
    return GSet(parts[0].group, tuple(act))


# the Burnside functor and the fixed points of the regular module, over any lattice
FAMILIES = {
    "burnside": burnside_mackey,
    "fixed": lambda lat: fp_functor(lat, WModule.regular(lat.group)),
}


def ids_of(lat):
    return {lat.name(h): h for h in range(len(lat))}


@pytest.fixture(scope="module")
def c6A(c6_lattice):
    return burnside_mackey(c6_lattice)


class TestAxiomChecker:
    def test_burnside_mackey_c6_passes(self, c6A):
        assert check_axioms(c6A).ok

    def test_zero_functor_passes(self, c6_lattice):
        assert check_axioms(zero_functor(c6_lattice)).ok

    def test_c2_identity_induction_fails_double_coset(self, c2_lattice):
        M, expected = constant_with_identity_induction(c2_lattice)
        report = check_axioms(M)
        assert not report.ok
        assert expected in axioms_violated(report)

    def test_every_corruption_is_caught(self, c6_lattice):
        for M, expected in all_corruptions(c6_lattice):
            report = check_axioms(M)
            assert not report.ok, M.name
            assert expected in axioms_violated(report), (M.name, axioms_violated(report))

    def test_corruptions_on_nonabelian_group(self, s3_lattice):
        for M, expected in all_corruptions(s3_lattice):
            report = check_axioms(M)
            assert not report.ok, M.name
            assert expected in axioms_violated(report)

    def test_fail_fast_stops_early(self, c6_lattice):
        M, _ = all_corruptions(c6_lattice)[0]
        report = check_axioms(M, fail_fast=True)
        assert not report.ok
        assert len(report.violations) == 1


class TestConstantFunctors:
    def test_constant_c2_induction_is_index(self, c2_lattice):
        M = constant(c2_lattice, 1)
        assert M.ind[(c2_lattice.top, 0)] == QMatrix.scalar(1, 2)
        assert check_axioms(M).ok

    def test_constant_on_trivial_group(self):
        lat = SubgroupLattice(trivial())
        M = constant(lat, 3)
        assert M.dims == (3,)
        assert M.res[(0, 0)] == QMatrix.identity(3)
        assert check_axioms(M).ok

    def test_coconstant_restriction_c6(self, c6_lattice):
        M = coconstant(c6_lattice, 1)
        ids = ids_of(c6_lattice)
        # transitivity forces x6 on the full drop through the two indices
        assert M.res[(ids["C6"], ids["C1"])] == QMatrix.scalar(1, 6)
        assert check_axioms(M).ok


class TestDual:
    def test_dual_constant_is_coconstant(self, c6_lattice):
        D = dual(constant(c6_lattice, 1))
        C = coconstant(c6_lattice, 1)
        assert D.dims == C.dims and D.res == C.res and D.ind == C.ind and D.cgen == C.cgen

    def test_dual_involution(self, s3_lattice):
        M = burnside_mackey(s3_lattice)
        DD = dual(dual(M))
        assert DD.dims == M.dims and DD.res == M.res and DD.ind == M.ind and DD.cgen == M.cgen

    def test_dual_of_burnside_c2_passes_axioms(self, c2_lattice):
        assert check_axioms(dual(burnside_mackey(c2_lattice))).ok

    def test_dual_of_fp_s3_passes_axioms(self, s3_lattice):
        V = WModule.regular(s3_lattice.group)
        assert check_axioms(dual(fp_functor(s3_lattice, V))).ok


class TestFixedPointFunctors:
    def test_fp_regular_c6_level_dims(self, c6_lattice):
        V = WModule.regular(c6_lattice.group)
        FP = fp_functor(c6_lattice, V)
        ids = ids_of(c6_lattice)
        assert FP.dims[ids["C3"]] == 2
        assert FP.dims == (6, 3, 2, 1)

    def test_fp_trivial_module_is_constant(self, s3_lattice):
        FP = fp_functor(s3_lattice, WModule.trivial(s3_lattice.group, 1))
        C = constant(s3_lattice, 1)
        assert FP.dims == C.dims and FP.res == C.res and FP.ind == C.ind and FP.cgen == C.cgen

    def test_fp_over_trivial_group_is_module(self):
        lat = SubgroupLattice(trivial())
        V = WModule.trivial(lat.group, 5)
        FP = fp_functor(lat, V)
        assert FP.dims == (5,)

    def test_fp_fq_axioms_nonabelian(self, s3_lattice):
        V = WModule.regular(s3_lattice.group)
        assert check_axioms(fp_functor(s3_lattice, V)).ok
        assert check_axioms(fq_functor(s3_lattice, V)).ok

    def test_fp_fq_iso_certified(self, corpus_lattices):
        for name in ("C6", "S3", "D8"):
            lat = corpus_lattices[name]
            iso = fp_fq_iso(lat, WModule.regular(lat.group))
            assert iso.is_levelwise_iso()

    def test_fq_dims_match_fp(self, s3_lattice):
        V = WModule.regular(s3_lattice.group)
        assert fq_functor(s3_lattice, V).dims == fp_functor(s3_lattice, V).dims


class TestBurnsideMackey:
    def test_c6_dims(self, c6A):
        assert c6A.dims == (1, 2, 2, 4)

    def test_trivial_group(self):
        lat = SubgroupLattice(trivial())
        assert burnside_mackey(lat).dims == (1,)

    def test_restriction_of_c6_c3_orbit(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        ring6 = burnside_ring(c6_lattice)
        ring3 = burnside_ring(c6_lattice, ids["C3"])
        vec = QMatrix([ring6.basis(ids["C3"]).coeffs]).transpose()
        down = c6A.res[(ids["C6"], ids["C3"])].matmul(vec)
        assert tuple(down.col(0)) == ring3.unit().scale(2).coeffs

    def test_passes_axioms_on_nonabelian_corpus(self, corpus_lattices):
        for name in ("S3", "D8", "Q8"):
            assert check_axioms(burnside_mackey(corpus_lattices[name])).ok

    def test_passes_axioms_a4_d12(self, corpus_lattices):
        for name in ("A4", "D12"):
            assert check_axioms(burnside_mackey(corpus_lattices[name])).ok


class TestBurnsideAction:
    def test_action_of_unit_is_identity(self, c6_lattice, c6A):
        ring = burnside_ring(c6_lattice)
        assert burnside_action(c6A, c6_lattice.top, ring.unit()) == QMatrix.identity(4)

    def test_doubling_action_on_constant_c2(self, c2_lattice):
        M = constant(c2_lattice, 1)
        ring = burnside_ring(c2_lattice)
        act = burnside_action(M, c2_lattice.top, ring.basis(0))
        assert act == QMatrix.scalar(1, 2)

    def test_action_commutes_with_restriction(self, c6_lattice, c6A):
        ring = burnside_ring(c6_lattice)
        for h in range(len(c6_lattice)):
            ring_h = burnside_ring(c6_lattice, h)
            for k in c6_lattice.subgroups_of(h):
                for rep in ring_h.reps:
                    a = ring_h.basis(rep)
                    lhs = c6A.res[(h, k)].matmul(burnside_action(c6A, h, a))
                    rhs = burnside_action(c6A, k, ring_h.restrict(a, k)).matmul(c6A.res[(h, k)])
                    assert lhs == rhs

    def test_frobenius_for_action(self, s3_lattice):
        M = fp_functor(s3_lattice, WModule.regular(s3_lattice.group))
        for h in range(len(s3_lattice)):
            ring_h = burnside_ring(s3_lattice, h)
            for k in s3_lattice.subgroups_of(h):
                for rep in ring_h.reps:
                    a = ring_h.basis(rep)
                    lhs = burnside_action(M, h, a).matmul(M.ind[(h, k)])
                    rhs = M.ind[(h, k)].matmul(burnside_action(M, k, ring_h.restrict(a, k)))
                    assert lhs == rhs


class TestIdempotentParts:
    def test_unit_gives_back_m(self, c6_lattice, c6A):
        ring = burnside_ring(c6_lattice)
        eM = idempotent_part(c6A, ring.unit())
        assert eM.dims == c6A.dims

    def test_e_c2_part_of_burnside_c6(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        ring = burnside_ring(c6_lattice)
        eM = idempotent_part(c6A, ring.idempotent(ids["C2"]))
        assert eM.dims == (0, 1, 0, 1)
        assert check_axioms(eM).ok

    def test_e_c3_part_of_burnside_c6(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        ring = burnside_ring(c6_lattice)
        eM = idempotent_part(c6A, ring.idempotent(ids["C3"]))
        assert eM.dims == (0, 0, 1, 1)

    def test_complementary_parts_fill_m(self, c6_lattice, c6A):
        ring = burnside_ring(c6_lattice)
        for rep in ring.reps:
            e = ring.idempotent(rep)
            eM = idempotent_part(c6A, e)
            fM = idempotent_part(c6A, ring.unit() - e)
            assert tuple(a + b for a, b in zip(eM.dims, fM.dims)) == c6A.dims

    def test_non_idempotent_rejected(self, c6_lattice, c6A):
        ring = burnside_ring(c6_lattice)
        with pytest.raises(MackeyError):
            idempotent_part(c6A, ring.basis(0))

    def test_inclusion_is_morphism(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        ring = burnside_ring(c6_lattice)
        e = ring.idempotent(ids["C3"])
        bases = [burnside_action(c6A, k, ring.restrict(e, k)).image() for k in range(len(c6_lattice))]
        MackeyMorphism(idempotent_part(c6A, e), c6A, bases).validate(full=True)


class TestEvaluateAtSet:
    def test_disjoint_union_is_direct_sum(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        X = coset_gset(c6_lattice.group, c6_lattice.elements(ids["C2"]))
        Y = coset_gset(c6_lattice.group, c6_lattice.elements(ids["C3"]))
        both = disjoint_union_gset([X, Y])
        ev = evaluate_at_set(c6A, both)
        assert ev.dim == c6A.dims[ids["C2"]] + c6A.dims[ids["C3"]]

    def test_empty_set_gives_zero(self, c6_lattice, c6A):
        empty = GSet(c6_lattice.group, tuple(() for _ in range(6)))
        assert evaluate_at_set(c6A, empty).dim == 0

    def test_orbit_data_of_restricted_cosets(self, s4_lattice):
        lat, G = s4_lattice, s4_lattice.group
        for h in lat.class_reps():
            view = lat.sub_lattice(h)
            N = burnside_mackey(view.lattice)
            for k in range(len(lat)):
                X = restrict_gset(coset_gset(G, lat.elements(k)), view.lattice.group, view.to_parent_elem)
                ev, found = evaluate_at_set(N, X), orbits(X)
                assert ev.orbit_reps == tuple(orbit[0] for orbit in found)
                assert ev.stabilizers == tuple(view.lattice.subgroup_id(stabilizer(X, orbit[0])) for orbit in found)
                for i, orbit in enumerate(found):
                    for q in orbit:
                        assert ev.orbit_of[q] == i
                        assert ev.transporter[q] == min(g for g, row in enumerate(X.act) if row[orbit[0]] == q)

    def test_a_set_over_another_group_is_refused(self):
        """C4 and V4 have the same order; a V4-set is neither read as a C4-set nor mapped to one."""
        A = burnside_mackey(SubgroupLattice(cyclic(4)))
        V4 = from_permutations(["(1 2)(3 4)", "(1 3)(2 4)"])
        for X in (coset_gset(V4, V4.closure([V4.gens[0]])), coset_gset(V4, (V4.identity,))):
            with pytest.raises(MackeyError, match="not over the functor's group"):
                evaluate_at_set(A, X)
        points = [coset_gset(G, tuple(range(G.order))) for G in (V4, A.group)]
        with pytest.raises(GroupError, match="source is a .*-set and its target"):
            GMap(*points, (0,))

    def test_covariant_respects_composition(self, s3_lattice):
        lat = s3_lattice
        M = burnside_mackey(lat)
        G = lat.group
        chain = [lat.bottom, next(h for h in range(len(lat)) if lat.order(h) == 3), lat.top]
        xs = [coset_gset(G, lat.elements(h)) for h in chain]

        def proj_points(small, big):
            reps_small = lat.cosets(small)
            pos = {}
            for idx, r in enumerate(lat.cosets(big)):
                for x in lat.elements(big):
                    pos[G.mul(r, x)] = idx
            return tuple(pos[r] for r in reps_small)

        f01 = GMap(xs[0], xs[1], proj_points(chain[0], chain[1]))
        f12 = GMap(xs[1], xs[2], proj_points(chain[1], chain[2]))
        f02 = GMap(xs[0], xs[2], proj_points(chain[0], chain[2]))
        m01 = covariant_map(M, f01)
        m12 = covariant_map(M, f12)
        m02 = covariant_map(M, f02)
        assert m12.matmul(m01) == m02
        r01 = contravariant_map(M, f01)
        r12 = contravariant_map(M, f12)
        r02 = contravariant_map(M, f02)
        assert r01.matmul(r12) == r02


class TestChangeOfGroup:
    def test_i_lower_full_group_is_identity(self, c6_lattice, c6A):
        N, view = i_lower(c6A, c6_lattice.top)
        assert N.dims == c6A.dims
        assert check_axioms(N).ok

    def test_i_lower_levels_are_parent_levels(self, s3_lattice):
        M = burnside_mackey(s3_lattice)
        c3 = next(h for h in range(len(s3_lattice)) if s3_lattice.order(h) == 3)
        N, view = i_lower(M, c3)
        for a in range(len(view.lattice)):
            assert N.dims[a] == M.dims[view.parent_sub(a)]
        assert check_axioms(N).ok

    def test_i_upper_of_burnside_c3_inside_c6(self, c6_lattice):
        ids = ids_of(c6_lattice)
        view = c6_lattice.sub_lattice(ids["C3"])
        N = burnside_mackey(view.lattice)
        up = i_upper(N, c6_lattice, ids["C3"])
        assert up.dims[ids["C6"]] == 2
        assert check_axioms(up).ok

    def test_i_upper_s3_from_c2(self, s3_lattice):
        c2 = next(h for h in range(len(s3_lattice)) if s3_lattice.order(h) == 2)
        view = s3_lattice.sub_lattice(c2)
        N = burnside_mackey(view.lattice)
        up = i_upper(N, s3_lattice, c2)
        assert check_axioms(up).ok

    @pytest.mark.parametrize("group", ["S3", "D8"])
    def test_i_upper_from_non_normal_c2_matches_golden(self, corpus_lattices, group):
        lat = corpus_lattices[group]
        h = lat.id_by_name("C2.0")
        assert not lat.is_normal(h)
        up = i_upper(burnside_mackey(lat.sub_lattice(h).lattice), lat, h)
        assert dump(functor_to_json(up)) == (GOLDEN / f"i_upper_{group.lower()}_c2.json").read_text()

    @pytest.mark.parametrize("family", list(FAMILIES))
    @pytest.mark.parametrize("group", ["S3", "D8", "Q8", "A4"])
    def test_adjunction_round_trips_at_every_subgroup(self, corpus_lattices, group, family):
        lat = corpus_lattices[group]
        M = FAMILIES[family](lat)
        for h in range(len(lat)):
            N, _ = i_lower(M, h)
            up = i_upper(N, lat, h)
            assert check_axioms(up).ok
            g_id = [QMatrix.identity(d) for d in N.dims]
            f = i_transpose_up(g_id, M, N, lat, h)
            MackeyMorphism(M, up, tuple(f)).validate(full=True)
            assert i_transpose_down(f, N, lat, h) == g_id

    def test_transposes_need_a_functor_over_the_view(self, c6_lattice, c6A):
        h = ids_of(c6_lattice)["C3"]
        N, _ = i_lower(c6A, h)
        maps = [QMatrix.identity(d) for d in c6A.dims]
        with pytest.raises(MackeyError, match="sub-lattice view"):
            i_transpose_up(maps, c6A, c6A, c6_lattice, h)
        with pytest.raises(MackeyError, match="sub-lattice view"):
            i_transpose_down(maps, c6A, c6_lattice, h)

    def test_adjunction_round_trips(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        h = ids["C3"]
        N, _ = i_lower(c6A, h)
        up = i_upper(N, c6_lattice, h)
        g_id = [QMatrix.identity(d) for d in N.dims]
        f = i_transpose_up(g_id, c6A, N, c6_lattice, h)
        MackeyMorphism(c6A, up, tuple(f)).validate(full=True)
        g_back = i_transpose_down(f, N, c6_lattice, h)
        assert [m for m in g_back] == g_id

    def test_adjunction_round_trips_nonabelian(self, s3_lattice):
        M = fp_functor(s3_lattice, WModule.regular(s3_lattice.group))
        c2 = next(h for h in range(len(s3_lattice)) if s3_lattice.order(h) == 2)
        N, _ = i_lower(M, c2)
        up = i_upper(N, s3_lattice, c2)
        g_id = [QMatrix.identity(d) for d in N.dims]
        f = i_transpose_up(g_id, M, N, s3_lattice, c2)
        MackeyMorphism(M, up, tuple(f)).validate()
        g_back = i_transpose_down(f, N, s3_lattice, c2)
        assert [m for m in g_back] == g_id


class TestQuotientFunctors:
    def test_eps_round_trip_c6(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        ring = burnside_ring(c6_lattice)
        eM = idempotent_part(c6A, ring.idempotent(ids["C3"]))
        Mq, view = eps_upper(eM, ids["C3"])
        assert check_axioms(Mq).ok
        back = eps_lower(Mq, c6_lattice, ids["C3"])
        assert back.dims == eM.dims
        assert check_axioms(back).ok
        assert back.res == eM.res and back.ind == eM.ind

    def test_eps_lower_zero_below(self, c6_lattice):
        ids = ids_of(c6_lattice)
        view = c6_lattice.quotient_lattice(ids["C3"])
        Mq = constant(view.lattice, 1)
        M = eps_lower(Mq, c6_lattice, ids["C3"])
        assert M.dims[ids["C1"]] == 0 and M.dims[ids["C2"]] == 0
        assert M.dims[ids["C3"]] == 1 and M.dims[ids["C6"]] == 1
        assert check_axioms(M).ok

    def test_eps_by_trivial_subgroup_is_identity(self, s3_lattice):
        M = burnside_mackey(s3_lattice)
        Mq, view = eps_upper(M, s3_lattice.bottom)
        assert Mq.dims == M.dims
        back = eps_lower(Mq, s3_lattice, s3_lattice.bottom)
        assert back.dims == M.dims and back.res == M.res

    def test_eps_upper_precondition(self, c6_lattice, c6A):
        ids = ids_of(c6_lattice)
        with pytest.raises(MackeyError, match="C1"):
            eps_upper(c6A, ids["C3"])

    def test_eps_upper_requires_normal(self, s3_lattice):
        M = zero_functor(s3_lattice)
        c2 = next(h for h in range(len(s3_lattice)) if s3_lattice.order(h) == 2)
        with pytest.raises(MackeyError, match="normal"):
            eps_upper(M, c2)

    def test_eps_round_trip_s4_klein(self, s4_lattice):
        lat = s4_lattice
        v4 = next(
            h
            for h in range(len(lat))
            if lat.order(h) == 4 and lat.is_normal(h)
        )
        view = lat.quotient_lattice(v4)
        Mq = burnside_mackey(view.lattice)
        M = eps_lower(Mq, lat, v4)
        back, _ = eps_upper(M, v4)
        assert back.dims == Mq.dims
        assert back.res == Mq.res and back.ind == Mq.ind and back.cgen == Mq.cgen


class TestBottomLevel:
    def test_bottom_of_burnside_is_trivial_line(self, c6_lattice, c6A):
        V = evaluate_bottom(c6A)
        assert V.dim == 1
        for g in range(V.group.order):
            assert V.matrix(g) == QMatrix.identity(1)

    def test_bottom_of_fp_recovers_module(self, s3_lattice):
        V = WModule.regular(s3_lattice.group)
        FP = fp_functor(s3_lattice, V)
        W = evaluate_bottom(FP)
        assert W.dim == V.dim
        for g in range(s3_lattice.group.order):
            assert W.matrix(g) == V.matrix(g)

    def test_fp_unit_is_morphism(self, c6_lattice, c6A):
        unit = fp_unit(c6A)
        unit.validate(full=True)

    def test_fp_unit_iso_on_fp_functors(self, s3_lattice):
        V = WModule.regular(s3_lattice.group)
        FP = fp_functor(s3_lattice, V)
        unit = fp_unit(FP)
        assert unit.is_levelwise_iso()


class TestDirectSumAndMorphisms:
    def test_direct_sum_dims_and_axioms(self, c6_lattice, c6A):
        M = direct_sum(c6A, constant(c6_lattice, 1))
        assert M.dims == tuple(a + 1 for a in c6A.dims)
        assert check_axioms(M).ok

    def test_direct_sum_of_many_summands_matches_the_pairwise_sum(self, c6_lattice, c6A):
        C, D = constant(c6_lattice, 1), coconstant(c6_lattice, 2)
        assert direct_sum(c6A, C, D) == direct_sum(direct_sum(c6A, C), D)
        assert direct_sum(c6A) == c6A
        assert direct_sum(c6A, C, name="S").name == "S"

    def test_direct_sum_needs_a_common_lattice(self, c6_lattice, c2_lattice):
        with pytest.raises(MackeyError):
            direct_sum(constant(c6_lattice, 1), constant(c6_lattice, 1), constant(c2_lattice, 1))

    def test_identity_morphism_validates(self, c6A):
        identity_morphism(c6A).validate(full=True)

    def test_morphism_shape_check(self, c6_lattice, c6A):
        with pytest.raises(MackeyError):
            MackeyMorphism(c6A, c6A, tuple(QMatrix.zeros(1, 1) for _ in c6A.dims))

    def test_bad_morphism_rejected(self, c2_lattice):
        M = constant(c2_lattice, 1)
        bad = MackeyMorphism(M, M, (QMatrix.identity(1), QMatrix.scalar(1, 2)))
        with pytest.raises(MackeyError):
            bad.validate()

    def test_reduced_failure_names_the_exhaustive_square(self, s3_lattice):
        """A failure of the reduced pass raises with the message of the full check.

        One changed entry at the top level of the identity of the S3 Burnside
        functor breaks commutation with G6 > C2.0, a cover pair, and first,
        in the full check's order, with G6 > C1.
        """
        A = burnside_mackey(s3_lattice)
        maps = list(identity_morphism(A).maps)
        top, d = s3_lattice.top, A.dims[s3_lattice.top]
        maps[top] = maps[top] + QMatrix([[int((i, j) == (0, 0)) for j in range(d)] for i in range(d)])
        bad = MackeyMorphism(A, A, tuple(maps))
        messages = []
        for full in (False, True):
            with pytest.raises(MackeyError) as err:
                bad.validate(full=full)
            messages.append(str(err.value))
        assert messages == ["does not commute with restriction G6 > C1"] * 2


class TestMackeyAxiomConsequenceC6:
    def test_relation_on_standard_functors(self, c6_lattice, c6A):
        # over the order-6 cyclic lattice the double-coset formula forces
        # R(top->C3) I(C2->top) = I(C1->C3) R(C2->C1)
        ids = ids_of(c6_lattice)
        functors = [
            c6A,
            constant(c6_lattice, 2),
            coconstant(c6_lattice, 1),
            fp_functor(c6_lattice, WModule.regular(c6_lattice.group)),
            fq_functor(c6_lattice, WModule.regular(c6_lattice.group)),
            dual(c6A),
        ]
        for M in functors:
            lhs = M.res[(ids["C6"], ids["C3"])].matmul(M.ind[(ids["C6"], ids["C2"])])
            rhs = M.ind[(ids["C3"], ids["C1"])].matmul(M.res[(ids["C2"], ids["C1"])])
            assert lhs == rhs, M.name
