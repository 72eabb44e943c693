import gc
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import box_reference
import green_reference
from qmackey import linalg, mackey, monoidal
from qmackey.burnside import BurnsideRing, burnside_ring
from qmackey.classify import free_functor
from qmackey.groups import SubgroupLattice, corpus, dihedral, from_permutations, trivial
from qmackey.linalg import QMatrix, WModule, permutation_matrix, tensor
from qmackey.mackey import (
    MackeyError,
    MackeyMorphism,
    burnside_mackey,
    check_axioms,
    coconstant,
    constant,
    zero_functor,
)
from qmackey.monoidal import (
    GreenStructure,
    box,
    box_morphism,
    box_swap_iso,
    box_unit_iso,
    burnside_green,
    green_check,
)
from test_box_reference import assert_same_product


def ids_of(lat):
    return {lat.name(h): h for h in range(len(lat))}


def constant_green(lattice):
    """The constant functor on the rationals with plain multiplication."""
    mult = {h: QMatrix.identity(1) for h in range(len(lattice))}
    unit = {h: QMatrix.identity(1) for h in range(len(lattice))}
    return GreenStructure(constant(lattice, 1), mult, unit)


def rules_violated(report):
    return {name for name, _ in report.violations}


def oracle_box_dim_c2():
    """Brute-force span of the relation generators inside the 5-dimensional
    sum of tensor squares of the order-2 Burnside functor."""
    # levels: A(C1) = <t>, A(C2) = <u = [C2/C1], v = [C2/C2]>
    # T = t(x)t, u(x)u, u(x)v, v(x)u, v(x)v in that order
    # R(u) = 2t, R(v) = t, I(t) = u
    rows = []
    # R(x) (x) t - x (x) I(t) for x in {u, v}
    rows.append([2, -1, 0, 0, 0])  # R(u)(x)t - u(x)u
    rows.append([1, 0, 0, -1, 0])  # R(v)(x)t - v(x)u
    # t (x) R(y) - I(t) (x) y for y in {u, v}
    rows.append([2, -1, 0, 0, 0])
    rows.append([1, 0, -1, 0, 0])
    span = QMatrix([list(map(Fraction, r)) for r in rows]).transpose()
    return 5 - span.rank()


class TestBoxBasics:
    def test_box_burnside_square_c2_dim(self, c2_lattice):
        A = burnside_mackey(c2_lattice)
        B = box(A, A)
        assert B.dims[c2_lattice.top] == oracle_box_dim_c2() == 2
        assert check_axioms(B).ok

    def test_box_with_zero_is_zero(self, c6_lattice):
        A = burnside_mackey(c6_lattice)
        Z = box(zero_functor(c6_lattice), A)
        assert all(d == 0 for d in Z.dims)

    def test_box_unit_dims_f2_over_c6(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        W = c6_lattice.weyl(ids["C2"]).group
        F2 = free_functor(c6_lattice, ids["C2"], WModule.trivial(W, 1))
        assert box(A, F2).dims == F2.dims

    def test_box_passes_axioms(self, s3_lattice):
        A = burnside_mackey(s3_lattice)
        B = box(A, constant(s3_lattice, 1))
        assert check_axioms(B).ok

    def test_box_bottom_level_is_plain_tensor(self, s3_lattice):
        M = constant(s3_lattice, 2)
        N = constant(s3_lattice, 3)
        B = box(M, N)
        assert B.dims[s3_lattice.bottom] == 6

    def test_box_requires_same_lattice(self, c2_lattice, c6_lattice):
        with pytest.raises(MackeyError):
            box(burnside_mackey(c2_lattice), burnside_mackey(c6_lattice))

    def test_box_products_build_through_build_functor(self, corpus_lattices, monkeypatch):
        """box(A, A) and the source of box_unit_iso(F) each assemble their maps in one ``build_functor`` call."""
        lat = corpus_lattices["D8"]
        A = burnside_mackey(lat)
        F = free_functor(lat, lat.bottom, WModule.regular(lat.weyl(lat.bottom).group))
        build, calls = monoidal.build_functor, []
        monkeypatch.setattr(monoidal, "build_functor", lambda *args, **kw: calls.append(args[1]) or build(*args, **kw))
        products = [box(A, A), box_unit_iso(F).source]
        assert calls == [B.dims for B in products]

    @pytest.mark.parametrize("name", ["D8", "S4"])
    def test_a_square_reads_each_brauer_functional_once(self, corpus_lattices, monkeypatch, name):
        """box(A, A) computes Y^A_K once per subgroup K for both factors, and its levels are those of box(A, A')
        for a second copy A' of A, whose functionals are computed apart."""
        lat = corpus_lattices[name]
        A = burnside_mackey(lat)
        functionals, calls = monoidal._brauer_functionals, []
        monkeypatch.setattr(monoidal, "_brauer_functionals", lambda M, k: calls.append(k) or functionals(M, k))
        square = box(A, A)
        assert sorted(calls) == list(range(len(lat)))
        assert square.levels == box(A, burnside_mackey(lat, "A'")).levels

    def test_no_level_map_is_built_at_a_zero_level(self, corpus_lattices, monkeypatch):
        """The support of a Mackey functor is upward closed, so no map of a box product composes through a zero
        level: ``_level_map`` is never asked for a map out of or into one, though F_H(Q[W]) has zero levels."""
        level_map, dims, sources = monoidal._level_map, [], []

        def spied(src, dst, blocks):
            dims.append((src.proj.rows, dst.proj.rows))
            return level_map(src, dst, blocks)

        monkeypatch.setattr(monoidal, "_level_map", spied)
        for lat in corpus_lattices.values():
            A = burnside_mackey(lat)
            if lat.group.order <= 12:
                box(A, A)
            for h in lat.class_reps():
                sources.append(box_unit_iso(free_functor(lat, h, WModule.regular(lat.weyl(h).group))).source)
        assert dims and all(d and e for d, e in dims)
        assert any(0 in B.dims for B in sources)

    def test_box_product_leaves_no_reference_cycle(self, corpus_lattices):
        """The maps memo of ``_box_product`` is freed by reference counting when the product is built."""
        A = burnside_mackey(corpus_lattices["D8"])
        box(A, A)
        gc.collect()
        gc.disable()
        try:
            box(A, A)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBoxUnitLaw:
    @pytest.mark.parametrize("name", ["C2", "C6", "S3", "C3", "C8", "D8", "Q8", "A4", "D12", "S4"])
    def test_unit_law_on_free_functor_basis(self, corpus_lattices, name):
        """box(A, F_H(V)) is certified isomorphic to F_H(V) at every class H, V trivial or regular,
        by the map whose lift to the summands is the referee's, with [K/L] acting through ``burnside_action``."""
        lat = corpus_lattices[name]
        for h in lat.class_reps():
            W = lat.weyl(h).group
            for V in (WModule.trivial(W, 1), WModule.regular(W)):
                F = free_functor(lat, h, V)
                iso = box_unit_iso(F)
                assert iso.is_levelwise_iso()
                lifts = [m.matmul(lvl.proj) for m, lvl in zip(iso.maps, iso.source.levels)]
                assert lifts == box_reference.unit_map(F, iso.source)

    def test_unit_law_on_burnside_itself(self, c6_lattice):
        iso = box_unit_iso(burnside_mackey(c6_lattice))
        assert iso.is_levelwise_iso()

    def test_unit_map_that_keeps_a_relation_raises(self, c2_lattice):
        """Restriction doubled at the bottom breaks Frobenius reciprocity, so the unit map would not descend;
        the Mackey formula fails with it, and the premise refuses the functor."""
        A = burnside_mackey(c2_lattice)
        pair = (c2_lattice.top, c2_lattice.bottom)
        with pytest.raises(MackeyError, match=r"is not a Mackey functor: \[double-coset\]"):
            box_unit_iso(replace(A, res={**A.res, pair: A.res[pair].scale(2)}))

    def test_singular_unit_map_raises(self, c2_lattice):
        """Zero inductions make the action zero, which kills every relation, but the unit map could not invert;
        I^H_H = 0 fails axiom 1, and the premise refuses the functor."""
        A = burnside_mackey(c2_lattice)
        with pytest.raises(MackeyError, match=r"is not a Mackey functor: \[identity-induction\]"):
            box_unit_iso(replace(A, ind={pair: QMatrix.zeros(m.rows, m.cols) for pair, m in A.ind.items()}))

    def test_burnside_tables_are_built_once_per_lattice(self, monkeypatch):
        """A, then the unit isos of five free functors over one D8 lattice: one restriction table per comparable pair."""
        calls = []
        table = BurnsideRing.restriction_table
        monkeypatch.setattr(BurnsideRing, "restriction_table", lambda ring, k: calls.append(k) or table(ring, k))
        lat = SubgroupLattice(dihedral(8))
        pairs = sum(len(lat.subgroups_of(h)) for h in range(len(lat)))
        assert check_axioms(burnside_mackey(lat)).ok and len(calls) == pairs
        functors = [free_functor(lat, h, WModule.trivial(lat.weyl(h).group)) for h in lat.class_reps()[:5]]
        for F in functors:
            assert box_unit_iso(F).is_levelwise_iso()
        assert len(calls) == pairs

    def test_the_unit_route_eliminates_no_relations(self, corpus_lattices, monkeypatch):
        """Each level of ``box_unit_iso`` is read off the unit map, and each level of ``box`` off the Brauer marks:
        neither runs ``quotient_space``.  The coinvariants functor runs it, so the spies see it."""
        lat = corpus_lattices["D8"]
        functors = [burnside_mackey(lat), constant(lat, 1), coconstant(lat, 1)]
        functors += [free_functor(lat, h, WModule.regular(lat.weyl(h).group)) for h in lat.class_reps()]
        calls = []
        for module, name in [(mackey, "quotient_space"), (linalg, "quotient_space")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        for M in functors:
            assert box_unit_iso(M).is_levelwise_iso()
            box(functors[1], M)
        assert calls == []
        mackey.fq_functor(lat, WModule.regular(lat.group))
        assert "quotient_space" in calls

    @pytest.mark.parametrize("name", [name for name, G in corpus().items() if G.order <= 12])
    def test_scaled_maps_are_refused_or_match_the_referee(self, corpus_lattices, name):
        """A, the constant, the co-constant functor and F_1(Q[G]) as they are, and with one R, I or C, picked by a
        seeded generator, scaled by 0, -1, 2 or 3: the unit iso raises ``MackeyError``, or its source is
        ``box(A, M)`` in levels and maps and it passes the full validation.  The unscaled four are certified."""
        lat = corpus_lattices[name]
        A = burnside_mackey(lat)
        kinds = {"A": A, "constant": constant(lat, 1), "coconstant": coconstant(lat, 1)}
        kinds["free"] = free_functor(lat, lat.bottom, WModule.regular(lat.weyl(lat.bottom).group))
        certified = []
        for kind, M in kinds.items():
            for c in (1, 0, -1, 2, 3):
                rng = random.Random(f"{name}-{kind}-{c}")
                table = rng.choice(["res", "ind", "cgen"])
                key = rng.choice(sorted(getattr(M, table)))
                scaled = replace(M, **{table: {**getattr(M, table), key: getattr(M, table)[key].scale(c)}})
                try:
                    iso = box_unit_iso(scaled)
                except MackeyError:
                    continue
                assert_same_product(iso.source, box(A, scaled))
                iso.validate(full=True)
                certified.append((kind, c))
        assert [(kind, 1) for kind in kinds] == [pair for pair in certified if pair[1] == 1]

    def test_the_two_facts_of_a_that_the_unit_route_reads(self, corpus_lattices, past_corpus_lattices):
        """On every cover pair L < K, ind^K_L [L/J] = [K/J] for each J <= L, and res^K_L [K/K] = [L/L].
        The basis of A(G/K) is [K/J] over ``local_classes(K)``, in that order."""
        for lat in [*corpus_lattices.values(), *past_corpus_lattices.values()]:
            A = burnside_mackey(lat)
            where = [{j: t for t, cls in enumerate(lat.local_classes(k)) for j in cls} for k in range(len(lat))]

            def unit(k, j):
                return tuple(int(t == where[k][j]) for t in range(A.dims[k]))

            for k, l in lat.cover_pairs():
                assert all(A.ind[(k, l)].col(t) == unit(k, cls[0]) for t, cls in enumerate(lat.local_classes(l)))
                assert A.res[(k, l)].col(where[k][k]) == unit(l, l)


class TestBoxMorphism:
    def test_maps_between_other_factors_are_refused(self, c2_lattice):
        """f and g must go from src's factors to dst's: id_C (x) id_C on box(A, A) would not commute with R."""
        A, C = burnside_mackey(c2_lattice), constant(c2_lattice, 1)
        AA = box(A, A)
        id_A, id_C = (MackeyMorphism(M, M, tuple(QMatrix.identity(d) for d in M.dims)) for M in (A, C))
        with pytest.raises(MackeyError, match="factors"):
            box_morphism(id_C, id_C, AA, AA)
        with pytest.raises(MackeyError, match="factors"):
            box_morphism(id_A, id_A, AA, box(A, C))
        assert all(m.is_identity() for m in box_morphism(id_A, id_A, AA, AA).maps)


class TestBoxSymmetry:
    def test_swap_iso_c6(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.regular(W))
        iso = box_swap_iso(A, F)
        assert iso.is_levelwise_iso()

    def test_swap_iso_s3(self, s3_lattice):
        A = burnside_mackey(s3_lattice)
        M = constant(s3_lattice, 1)
        assert box_swap_iso(A, M).is_levelwise_iso()


class TestBoxIdempotents:
    def test_burnside_square_c6_all_classes(self, c6_lattice):
        A = burnside_mackey(c6_lattice)
        ring = burnside_ring(c6_lattice)
        for h in c6_lattice.class_reps():
            rep = box_reference.box_idempotent_check(A, A, h)
            assert rep.ok
            assert rep.dims_local_box == rep.dims_box_local

    def test_value_at_c2_is_one_dimensional(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        rep = box_reference.box_idempotent_check(A, A, ids["C2"])
        assert rep.value_dim_at_h == rep.tensor_dim_at_h == 1

    def test_vanishing_class_gives_zero(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.trivial(W, 1))
        rep = box_reference.box_idempotent_check(A, F, ids["C2"])
        assert rep.ok
        assert all(d == 0 for d in rep.dims_box_local)

    def test_u_monoidal_dims_over_c6(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        W = c6_lattice.weyl(ids["C2"]).group
        F = free_functor(c6_lattice, ids["C2"], WModule.trivial(W, 1))
        for M, N in [(A, A), (A, F), (F, A)]:
            B = box(M, N)
            for h in c6_lattice.class_reps():
                assert box_reference.u_monoidal_certificate(M, N, h, B), (M.name, N.name, c6_lattice.name(h))

    def test_u_monoidal_certificates(self, c6_lattice, s3_lattice):
        for lat in (c6_lattice, s3_lattice):
            A = burnside_mackey(lat)
            B = box(A, A)
            for h in lat.class_reps():
                assert box_reference.u_monoidal_certificate(A, A, h, B), lat.name(h)

    def test_u_monoidal_certificate_nontrivial_weyl_module(self, c6_lattice):
        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.regular(W))
        B = box(F, F)
        for h in c6_lattice.class_reps():
            assert box_reference.u_monoidal_certificate(F, F, h, B)


class TestGreen:
    @pytest.mark.parametrize("name", ["C2", "C6", "S3", "D8", "Q8"])
    def test_burnside_green_passes(self, corpus_lattices, name):
        report = green_check(burnside_green(corpus_lattices[name]))
        assert report.ok
        assert report.commutative

    def test_burnside_green_a4_d12_s4(self, corpus_lattices):
        for name in ("A4", "D12", "S4"):
            assert green_check(burnside_green(corpus_lattices[name])).ok

    def test_constant_green_passes(self, c6_lattice):
        report = green_check(constant_green(c6_lattice))
        assert report.ok

    def test_scaled_multiplication_caught(self, c6_lattice):
        ids = ids_of(c6_lattice)
        S = burnside_green(c6_lattice)
        S.mult[ids["C2"]] = S.mult[ids["C2"]].scale(2)
        report = green_check(S)
        assert not report.ok
        assert "restriction-homomorphism" in rules_violated(report)

    def test_wrong_unit_caught(self, c2_lattice):
        S = burnside_green(c2_lattice)
        S.unit[0] = S.unit[0].scale(3)
        report = green_check(S)
        assert not report.ok
        assert "unit" in rules_violated(report) or "restriction-unit" in rules_violated(report)

    def test_green_on_trivial_group(self):
        lat = SubgroupLattice(trivial())
        assert green_check(burnside_green(lat)).ok

    def test_burnside_green_past_the_corpus(self):
        lat = SubgroupLattice(from_permutations(["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"], name="S3xS3"))
        report = green_check(burnside_green(lat))
        assert report.ok
        assert report.commutative

    def test_passing_check_runs_the_map_rules_on_cover_pairs(self, s4_lattice):
        report = green_check(burnside_green(s4_lattice))
        assert report.ok
        assert report.checked["restriction-homomorphism"] == len(s4_lattice.cover_pairs())
        assert report.checked["conjugation-homomorphism"] == len(s4_lattice.group.gens) * len(s4_lattice)

    def test_failing_check_counts_the_exhaustive_pass(self, c6_lattice):
        S = burnside_green(c6_lattice)
        S.unit[c6_lattice.top] = S.unit[c6_lattice.top].scale(3)
        report = green_check(S)
        strict = sum(len(c6_lattice.subgroups_of(h)) - 1 for h in range(len(c6_lattice)))
        assert not report.ok
        assert report.checked["frobenius-left"] == strict > len(c6_lattice.cover_pairs())

    def test_tensor_guard(self, past_corpus_lattices, monkeypatch):
        """A machine-independent guard: ``tensor`` calls of a passing ``green_check`` on C2^4."""
        S = burnside_green(past_corpus_lattices["C2^4"])
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return tensor(a, b)

        monkeypatch.setattr(monoidal, "tensor", counted)
        assert green_check(S).ok
        assert 0 < calls <= 2_500


REFEREE_GROUPS = ("C2", "C3", "C6", "S3", "D8", "Q8")
FAULTS = ("mult", "unit", "res", "ind", "cgen", "shape", "res off cover", "ind off cover", "mult below")


@cache
def referee_lattice(name):
    return SubgroupLattice(corpus()[name])


def bumped(m, i, j, delta):
    """``m`` with ``delta`` added at entry (i, j)."""
    return m + QMatrix([[delta if (r, c) == (i, j) else 0 for c in range(m.cols)] for r in range(m.rows)])


def reversed_bases(S):
    """The same Green structure with every level's basis listed backwards, so that e_0 is the unit [H/H]."""
    M, G = S.base, S.base.group
    P = [permutation_matrix(range(d - 1, -1, -1)) for d in M.dims]  # each P is its own inverse
    res = {(h, k): P[k].matmul(m).matmul(P[h]) for (h, k), m in M.res.items()}
    ind = {(h, k): P[h].matmul(m).matmul(P[k]) for (h, k), m in M.ind.items()}
    cgen = {(pos, h): P[M.lattice.conjugate(G.gens[pos], h)].matmul(m).matmul(P[h]) for (pos, h), m in M.cgen.items()}
    mult = {h: P[h].matmul(m).matmul(tensor(P[h], P[h])) for h, m in S.mult.items()}
    unit = {h: P[h].matmul(u) for h, u in S.unit.items()}
    return GreenStructure(replace(M, res=res, ind=ind, cgen=cgen), mult, unit)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(REFEREE_GROUPS), st.data())
def test_green_check_matches_pairwise_reference(name, data):
    """Random faults in mu, u, R, I and C, and a copied mu for a shape fault, get the reference's report.

    Some faults go to R or I on a pair K < H that is not a cover pair, or to
    mu at such a K, beyond what the reduced pass checks directly; C2 and C3
    have no such pair and take any pair or level.  Half the structures list
    their bases backwards, so that the first failing associativity block is
    not always the one of e_0 = [H/1].
    """
    lat = referee_lattice(name)
    covers = set(lat.cover_pairs())
    off_cover = [(h, k) for h in range(len(lat)) for k in lat.subgroups_of(h) if k != h and (h, k) not in covers]
    S = burnside_green(lat)
    if data.draw(st.booleans()):
        S = reversed_bases(S)
    maps = {"res": dict(S.base.res), "ind": dict(S.base.ind), "cgen": dict(S.base.cgen)}
    tables = {"mult": S.mult, "unit": S.unit, **maps}
    levels = st.integers(0, len(lat) - 1)
    kinds = data.draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3))
    # mu is commutative, so the Frobenius rules tie unless a bump of mu makes it one-sided
    if data.draw(st.booleans()):
        kinds.append("mult")
    for kind in kinds:
        if kind == "shape":
            src, dst = data.draw(levels), data.draw(levels)
            S.mult[dst] = S.mult[src]
            continue
        table = tables[kind.split()[0]]
        if kind.endswith("cover") and off_cover:
            key = data.draw(st.sampled_from(off_cover))
        elif kind == "mult below" and off_cover:
            key = data.draw(st.sampled_from(off_cover))[1]
        else:
            key = data.draw(st.sampled_from(sorted(table)))
        m = table[key]
        if m.rows and m.cols:
            i, j = data.draw(st.integers(0, m.rows - 1)), data.draw(st.integers(0, m.cols - 1))
            table[key] = bumped(m, i, j, data.draw(st.sampled_from((1, -1, 2, Fraction(1, 2)))))
    S = GreenStructure(replace(S.base, **maps), S.mult, S.unit)
    got, want = green_check(S), green_reference.green_check(S)
    assert (got.ok, got.commutative, got.violations) == (want.ok, want.commutative, want.violations)
