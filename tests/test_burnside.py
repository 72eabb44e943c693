import gc
import itertools
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmackey.burnside import BurnsideError, burnside_ring
from qmackey.groups import SubgroupLattice, symmetric

small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def by_name(lat):
    return {lat.name(h): h for h in range(len(lat))}


@pytest.fixture(scope="module")
def c6_ring(c6_lattice):
    return burnside_ring(c6_lattice)


class TestC6Products:
    """The six products of the order-6 worked example, exactly."""

    def test_all_six_products(self, c6_lattice, c6_ring):
        ids = by_name(c6_lattice)
        ring = c6_ring
        c6 = ring.basis(ids["C1"])  # the free orbit
        c6_c3 = ring.basis(ids["C3"])
        c6_c2 = ring.basis(ids["C2"])
        unit = ring.unit()
        assert c6 * c6 == c6.scale(6)
        assert c6 * c6_c3 == c6.scale(2)
        assert c6 * c6_c2 == c6.scale(3)
        assert c6_c3 * c6_c3 == c6_c3.scale(2)
        assert c6_c2 * c6_c3 == c6
        assert c6_c2 * c6_c2 == c6_c2.scale(3)
        assert unit * c6_c3 == c6_c3

    def test_unit_is_one_point_orbit(self, c6_lattice, c6_ring):
        ids = by_name(c6_lattice)
        assert c6_ring.unit() == c6_ring.basis(ids["C6"])

    def test_unit_times_anything(self, c6_ring):
        a = c6_ring.element([Fraction(1, 2), Fraction(-3), Fraction(7, 5), Fraction(0)])
        assert c6_ring.unit() * a == a


class TestC6Idempotents:
    def test_the_four_idempotents(self, c6_lattice, c6_ring):
        ids = by_name(c6_lattice)
        ring = c6_ring
        e1 = ring.idempotent(ids["C1"])
        e2 = ring.idempotent(ids["C2"])
        e3 = ring.idempotent(ids["C3"])
        e6 = ring.idempotent(ids["C6"])
        b = {n: ring.basis(ids[n]) for n in ("C1", "C2", "C3", "C6")}
        assert e1 == b["C1"].scale(Fraction(1, 6))
        assert e2 == b["C2"].scale(Fraction(1, 3)) - b["C1"].scale(Fraction(1, 6))
        assert e3 == b["C3"].scale(Fraction(1, 2)) - b["C1"].scale(Fraction(1, 6))
        assert e6 == (
            b["C6"]
            - b["C2"].scale(Fraction(1, 3))
            - b["C3"].scale(Fraction(1, 2))
            + b["C1"].scale(Fraction(1, 6))
        )

    def test_orthogonal_decomposition_of_unit(self, c6_ring):
        es = c6_ring.idempotents()
        total = c6_ring.zero()
        for e in es:
            total = total + e
            assert e * e == e
        assert total == c6_ring.unit()
        for e, f in itertools.combinations(es, 2):
            assert (e * f).is_zero()

    def test_marks_are_characteristic_vectors(self, c6_lattice, c6_ring):
        for ci, e in enumerate(c6_ring.idempotents()):
            m = e.marks()
            assert list(m) == [1 if i == ci else 0 for i in range(c6_ring.size)]

    def test_rendering(self, c6_lattice, c6_ring):
        ids = by_name(c6_lattice)
        assert c6_ring.idempotent(ids["C3"]).render() == "1/2*[C6/C3] - 1/6*[C6/C1]"


class TestC2:
    def test_idempotent_is_half_free_orbit(self, c2_lattice):
        ring = burnside_ring(c2_lattice)
        e1 = ring.idempotent(0)
        assert e1 == ring.basis(0).scale(Fraction(1, 2))
        assert e1.is_idempotent()

    def test_marks_of_free_orbit(self, c2_lattice):
        ring = burnside_ring(c2_lattice)
        assert ring.basis(0).marks() == (2, 0)

    def test_marks_of_unit_all_ones(self, c2_lattice):
        ring = burnside_ring(c2_lattice)
        assert ring.unit().marks() == (1, 1)


class TestMarks:
    def test_trivial_group_has_unit_only(self, corpus_lattices):
        from qmackey.groups import SubgroupLattice, trivial

        lat = SubgroupLattice(trivial())
        ring = burnside_ring(lat)
        assert ring.size == 1
        assert ring.idempotents() == [ring.unit()]

    def test_s4_basis_on_a4(self, s4_lattice):
        ring = burnside_ring(s4_lattice)
        a4 = next(h for h in range(len(s4_lattice)) if s4_lattice.order(h) == 12)
        el = ring.basis(a4)
        assert el.coeffs.count(0) == ring.size - 1

    def test_table_of_marks_lower_triangular(self, s4_lattice):
        T = burnside_ring(s4_lattice).table_of_marks()
        for i in range(T.rows):
            assert T.entry(i, i) != 0
            for j in range(i + 1, T.cols):
                assert T.entry(i, j) == 0

    @pytest.mark.parametrize("name", ["C6", "S3", "D8", "Q8", "A4", "D12", "S4"])
    def test_marks_is_ring_homomorphism(self, corpus_lattices, name):
        ring = burnside_ring(corpus_lattices[name])
        for i in range(ring.size):
            for j in range(ring.size):
                a, b = ring.basis(ring.reps[i]), ring.basis(ring.reps[j])
                lhs = (a * b).marks()
                rhs = tuple(x * y for x, y in zip(a.marks(), b.marks()))
                assert lhs == rhs

    def test_marks_of_actual_sets_are_nonneg_and_monotone(self, s4_lattice):
        ring = burnside_ring(s4_lattice)
        lat = s4_lattice
        for j in range(ring.size):
            row = ring.marks_basis(j)
            assert all(v >= 0 for v in row)
            for i, a in enumerate(ring.reps):
                for k, b in enumerate(ring.reps):
                    if lat.is_subconjugate(a, b):
                        assert row[i] >= row[k]


class TestRingLaws:
    @settings(deadline=None, max_examples=40)
    @given(st.lists(small_coeffs, min_size=12, max_size=12))
    def test_ring_laws_on_random_elements_s3(self, s3_lattice, coeffs):
        ring = burnside_ring(s3_lattice)
        n = ring.size
        a = ring.element(coeffs[:n])
        b = ring.element(coeffs[n : 2 * n])
        c = ring.element(coeffs[2 * n : 3 * n])
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert ring.unit() * a == a

    @settings(deadline=None, max_examples=30)
    @given(st.lists(small_coeffs, min_size=8, max_size=8))
    def test_marks_linear_and_multiplicative_c6(self, c6_lattice, coeffs):
        ring = burnside_ring(c6_lattice)
        a = ring.element(coeffs[:4])
        b = ring.element(coeffs[4:])
        assert (a + b).marks() == tuple(x + y for x, y in zip(a.marks(), b.marks()))
        assert (a * b).marks() == tuple(x * y for x, y in zip(a.marks(), b.marks()))


class TestIdempotentRoutes:
    @pytest.mark.parametrize(
        "name", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4"]
    )
    def test_gluck_matches_marks_inversion(self, corpus_lattices, name):
        ring = burnside_ring(corpus_lattices[name])
        assert ring.idempotents() == ring.idempotents_via_marks()

    @pytest.mark.parametrize("name", ["S3", "Q8", "A4", "S4"])
    def test_orthogonal_sum_is_unit(self, corpus_lattices, name):
        ring = burnside_ring(corpus_lattices[name])
        es = ring.idempotents()
        total = ring.zero()
        for e in es:
            assert (e * e) == e
            total = total + e
        assert total == ring.unit()
        for a, b in itertools.combinations(es, 2):
            assert (a * b).is_zero()


class TestExpressInIdempotents:
    def test_c2_free_orbit(self, c2_lattice):
        ring = burnside_ring(c2_lattice)
        coeffs = ring.express_in_idempotents(0)
        assert coeffs == (2, 0)
        rebuilt = ring.zero()
        for ci, c in enumerate(coeffs):
            rebuilt = rebuilt + ring.idempotent(ring.reps[ci]).scale(c)
        assert rebuilt == ring.basis(0)

    def test_unit_expands_to_sum_of_idempotents(self, s4_lattice):
        ring = burnside_ring(s4_lattice)
        coeffs = ring.express_in_idempotents(s4_lattice.top)
        assert all(c == 1 for c in coeffs)

    def test_expansion_coefficients_are_marks(self, c6_lattice, s3_lattice):
        # applying marks to both sides shows the coefficients must be the marks
        for lat in (c6_lattice, s3_lattice):
            ring = burnside_ring(lat)
            for k in ring.reps:
                assert ring.express_in_idempotents(k) == ring.basis(k).marks()

    def test_roundtrip_over_corpus(self, corpus_lattices):
        for name in ("C6", "S3", "D8", "A4"):
            ring = burnside_ring(corpus_lattices[name])
            for k in ring.reps:
                rebuilt = ring.zero()
                for ci, c in enumerate(ring.express_in_idempotents(k)):
                    if c:
                        rebuilt = rebuilt + ring.idempotent(ring.reps[ci]).scale(c)
                assert rebuilt == ring.basis(k)


class TestRestrictInduce:
    def test_restrict_c6_c3_to_c3(self, c6_lattice):
        ids = by_name(c6_lattice)
        ring = burnside_ring(c6_lattice)
        down = ring.restrict(ring.basis(ids["C3"]), ids["C3"])
        sub = burnside_ring(c6_lattice, ids["C3"])
        assert down == sub.unit().scale(2)

    def test_induce_free_c2_orbit(self, c6_lattice):
        ids = by_name(c6_lattice)
        ring = burnside_ring(c6_lattice)
        sub = burnside_ring(c6_lattice, ids["C2"])
        up = ring.induce(sub.basis(ids["C1"]))
        assert up == ring.basis(ids["C1"])

    def test_restrict_idempotent_c3(self, c6_lattice):
        ids = by_name(c6_lattice)
        ring = burnside_ring(c6_lattice)
        sub = burnside_ring(c6_lattice, ids["C3"])
        assert ring.restrict(ring.idempotent(ids["C3"]), ids["C3"]) == sub.idempotent(ids["C3"])

    def test_restrict_unrelated_idempotent_is_zero(self, c6_lattice):
        ids = by_name(c6_lattice)
        ring = burnside_ring(c6_lattice)
        assert ring.restrict(ring.idempotent(ids["C3"]), ids["C2"]).is_zero()

    def test_restriction_is_ring_map(self, s3_lattice):
        ring = burnside_ring(s3_lattice)
        for a_id in range(len(s3_lattice)):
            for i in range(ring.size):
                for j in range(ring.size):
                    x, y = ring.basis(ring.reps[i]), ring.basis(ring.reps[j])
                    lhs = ring.restrict(x * y, a_id)
                    rhs = ring.restrict(x, a_id) * ring.restrict(y, a_id)
                    assert lhs == rhs

    def test_restricted_idempotent_formula(self, corpus_lattices):
        # restriction of a support-(H) idempotent is the sum of the A-idempotents
        # at A-classes that are G-conjugate to H
        for name in ("C6", "S3", "D8", "Q8", "A4", "D12", "S4"):
            lat = corpus_lattices[name]
            ring = burnside_ring(lat)
            for h in ring.reps:
                e = ring.idempotent(h)
                for a_id in range(len(lat)):
                    sub = burnside_ring(lat, a_id)
                    expected = sub.zero()
                    for k in sub.reps:
                        if lat.class_of[k] == lat.class_of[h]:
                            expected = expected + sub.idempotent(k)
                    assert ring.restrict(e, a_id) == expected

    def test_frobenius_reciprocity(self, corpus_lattices):
        # induce(restrict(a) * b) == a * induce(b) on all basis pairs
        for name in ("C6", "S3", "D8"):
            lat = corpus_lattices[name]
            ring = burnside_ring(lat)
            for a_id in range(len(lat)):
                sub = burnside_ring(lat, a_id)
                for i in ring.reps:
                    a = ring.basis(i)
                    down = ring.restrict(a, a_id)
                    for j in sub.reps:
                        b = sub.basis(j)
                        assert ring.induce(down * b) == a * ring.induce(b)

    def test_errors(self, c6_lattice):
        ids = by_name(c6_lattice)
        ring = burnside_ring(c6_lattice)
        sub = burnside_ring(c6_lattice, ids["C2"])
        with pytest.raises(BurnsideError):
            ring.basis(ids["C1"]) + sub.basis(ids["C1"])
        with pytest.raises(BurnsideError):
            sub.basis(ids["C3"])
        with pytest.raises(BurnsideError):
            sub.restrict(sub.unit(), ids["C3"])


class TestRingCache:
    def test_lattice_freed_without_the_cycle_collector(self):
        """A lattice and its rings form no reference cycle, so reference counting frees them."""
        gc.disable()
        try:
            lat = SubgroupLattice(symmetric(3))
            ring = burnside_ring(lat)
            ring.idempotents()
            ring.restrict(ring.unit(), lat.bottom)
            ref = weakref.ref(lat)
            del lat, ring
            assert ref() is None
        finally:
            gc.enable()

    def test_same_ring_while_an_element_lives(self):
        lat = SubgroupLattice(symmetric(3))
        e = burnside_ring(lat).idempotent(lat.bottom)
        gc.collect()
        assert burnside_ring(lat) is e.ring
        assert e.ring.idempotent(lat.bottom) == e
