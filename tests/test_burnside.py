import gc
import itertools
import types
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import burnside_reference
from qmackey.burnside import BurnsideElement, BurnsideError, burnside_ring
from qmackey.groups import SubgroupLattice, corpus, symmetric
from qmackey.linalg import QMatrix
from qmackey.mackey import burnside_mackey
from qmackey.monoidal import burnside_green

small_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def by_name(lat):
    return {lat.name(h): h for h in range(len(lat))}


def table_of_marks(ring):
    """Rows indexed by basis classes [H/B], columns by fixing classes (A)."""
    return QMatrix([list(ring.marks_basis(j)) for j in range(ring.size)])


def express_in_idempotents(ring, k):
    """Coefficients of [H/K] in the idempotent basis: its marks, as e_(A_i) has marks delta_i."""
    return ring.basis(k).marks()


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
        T = table_of_marks(burnside_ring(s4_lattice))
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
        "name", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4", "C2^5", "D8xD8"]
    )
    def test_gluck_matches_marks_inversion(self, corpus_lattices, large_lattices, name):
        ring = burnside_ring({**corpus_lattices, **large_lattices}[name])
        assert ring.idempotents() == ring.idempotents_via_marks()

    @pytest.mark.parametrize("name", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4", "C2^5", "D8xD8"])
    def test_marks_route_has_unit_marks(self, corpus_lattices, large_lattices, name):
        """Each e_i times the table of marks is delta_i, by an exact product that no back substitution enters."""
        ring = burnside_ring({**corpus_lattices, **large_lattices}[name])
        T = table_of_marks(ring)
        for i, e in enumerate(ring.idempotents_via_marks()):
            assert QMatrix([e.coeffs]).matmul(T) == QMatrix([[int(i == j) for j in range(ring.size)]])

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
        coeffs = express_in_idempotents(ring, 0)
        assert coeffs == (2, 0)
        rebuilt = ring.zero()
        for ci, c in enumerate(coeffs):
            rebuilt = rebuilt + ring.idempotent(ring.reps[ci]).scale(c)
        assert rebuilt == ring.basis(0)

    def test_unit_expands_to_sum_of_idempotents(self, s4_lattice):
        ring = burnside_ring(s4_lattice)
        coeffs = express_in_idempotents(ring, s4_lattice.top)
        assert all(c == 1 for c in coeffs)

    def test_expansion_coefficients_are_marks(self, c6_lattice, s3_lattice):
        # applying marks to both sides shows the coefficients must be the marks
        for lat in (c6_lattice, s3_lattice):
            ring = burnside_ring(lat)
            for k in ring.reps:
                assert express_in_idempotents(ring, k) == ring.basis(k).marks()

    def test_roundtrip_over_corpus(self, corpus_lattices):
        for name in ("C6", "S3", "D8", "A4"):
            ring = burnside_ring(corpus_lattices[name])
            for k in ring.reps:
                rebuilt = ring.zero()
                for ci, c in enumerate(express_in_idempotents(ring, k)):
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
        up = burnside_reference.induce(ring, sub.basis(ids["C1"]))
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
                        assert burnside_reference.induce(ring, down * b) == a * burnside_reference.induce(ring, b)

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
        """Rings are values: every call over one lattice object and subgroup gives an equal ring."""
        lat = SubgroupLattice(symmetric(3))
        e = burnside_ring(lat).idempotent(lat.bottom)
        gc.collect()
        ring = burnside_ring(lat)
        assert ring == e.ring and hash(ring) == hash(e.ring)
        assert ring != burnside_ring(lat, lat.bottom)
        assert e.ring.idempotent(lat.bottom) == e
        a = ring.basis(lat.bottom)
        assert (a + e) * e == a * e + e

    def test_rings_over_another_lattice_object_differ(self):
        lat, twin = SubgroupLattice(symmetric(3)), SubgroupLattice(symmetric(3))
        ring, other = burnside_ring(lat), burnside_ring(twin)
        assert ring != other
        with pytest.raises(BurnsideError):
            ring.mul(ring.unit(), other.unit())

    def test_lattice_reaches_nothing_of_the_ring(self):
        """The lattice keeps tables of marks, not rings: no object reachable from it is of a class of ``burnside``."""
        lat = SubgroupLattice(symmetric(3))
        for h in range(len(lat)):
            ring = burnside_ring(lat, h)
            ring.idempotents()
            ring.idempotents_via_marks()
        burnside_mackey(lat)
        burnside_green(lat)
        seen, todo = {id(lat)}, [lat]
        while todo:
            obj = todo.pop()
            assert type(obj).__module__ != "qmackey.burnside"
            for ref in gc.get_referents(obj):
                if id(ref) not in seen and not isinstance(ref, (type, types.ModuleType)):
                    seen.add(id(ref))
                    todo.append(ref)


def _lattice(corpus_lattices, past_corpus_lattices, name):
    return past_corpus_lattices[name] if name in past_corpus_lattices else corpus_lattices[name]


class TestProductReferee:
    """The product through the marks against the double-coset expansion it replaced."""

    RINGS = ("C6", "S3", "D8", "Q8", "A4", "S4", "C2^4")  # every subgroup's ring; C2^4 only its top ring

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.sampled_from(RINGS), st.data())
    def test_product_matches_double_coset_expansion(self, corpus_lattices, past_corpus_lattices, name, data):
        if name == "C2^4":
            ring = burnside_ring(past_corpus_lattices[name])
        else:
            lat = corpus_lattices[name]
            ring = burnside_ring(lat, data.draw(st.integers(0, len(lat) - 1)))
        coeffs = st.lists(st.one_of(st.just(0), small_coeffs), min_size=ring.size, max_size=ring.size)
        a, b = ring.element(data.draw(coeffs)), ring.element(data.draw(coeffs))
        got, want = a * b, burnside_reference.product(a, b)
        assert got == want
        assert all(type(c) is Fraction for c in got.coeffs)

    @pytest.mark.parametrize("name", RINGS)
    def test_basis_products_match_structure_constants(self, corpus_lattices, past_corpus_lattices, name):
        lat = _lattice(corpus_lattices, past_corpus_lattices, name)
        tops = [lat.top] if name == "C2^4" else range(len(lat))
        for h in tops:
            ring = burnside_ring(lat, h)
            basis = [ring.basis(r) for r in ring.reps]
            for i, a in enumerate(basis):
                for j, b in enumerate(basis):
                    assert (a * b).coeffs == burnside_reference.structure_constants(ring, i, j)


    @pytest.mark.parametrize("name", [*corpus(), "C2^4"])
    def test_multiplication_table_columns_are_basis_products(self, corpus_lattices, past_corpus_lattices, name):
        """Column i n + j of ``multiplication_table`` holds [H/B_i] [H/B_j], though each unordered pair is solved once."""
        lat = _lattice(corpus_lattices, past_corpus_lattices, name)
        for h in range(len(lat)):
            ring = burnside_ring(lat, h)
            columns = ring.multiplication_table().transpose().data
            basis = [ring.basis(r) for r in ring.reps]
            assert len(columns) == ring.size**2
            for i, a in enumerate(basis):
                for j, b in enumerate(basis):
                    assert columns[i * ring.size + j] == (a * b).coeffs, (lat.name(h), i, j)


class TestRestrictReferee:
    """Restriction through the marks against the double-coset orbit decomposition it replaced."""

    CORPUS = ("C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4")

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.sampled_from(CORPUS + ("C2^4",)), st.data())
    def test_restrict_matches_double_coset_decomposition(self, corpus_lattices, past_corpus_lattices, name, data):
        lat = _lattice(corpus_lattices, past_corpus_lattices, name)
        top = lat.top if name == "C2^4" else data.draw(st.integers(0, len(lat) - 1))
        ring = burnside_ring(lat, top)
        to = data.draw(st.sampled_from(lat.subgroups_of(top)))
        coeffs = st.lists(st.one_of(st.just(0), small_coeffs), min_size=ring.size, max_size=ring.size)
        a = ring.element(data.draw(coeffs))
        got, want = ring.restrict(a, to), burnside_reference.restrict(a, to)
        assert got == want
        assert all(type(c) is Fraction for c in got.coeffs)

    @pytest.mark.parametrize("name", CORPUS + ("S3xS3", "C2^4"))
    def test_burnside_functor_and_green_tables(self, corpus_lattices, past_corpus_lattices, name):
        """Every res, ind and cgen of the Burnside functor, and every multiplication table and unit of its Green structure."""
        lat = _lattice(corpus_lattices, past_corpus_lattices, name)
        M = burnside_mackey(lat)
        for h, k in M.res:
            ring, sub = burnside_ring(lat, h), burnside_ring(lat, k)
            cols = [burnside_reference.restrict(ring.basis(rep), k).coeffs for rep in ring.reps]
            assert M.res[(h, k)] == QMatrix(cols).transpose(), (lat.name(h), lat.name(k))
            cols = [burnside_reference.induce(ring, sub.basis(rep)).coeffs for rep in sub.reps]
            assert M.ind[(h, k)] == QMatrix(cols).transpose(), (lat.name(h), lat.name(k))
        for (pos, h), conj in M.cgen.items():
            s = lat.group.gens[pos]
            target = burnside_ring(lat, lat.conjugate(s, h))
            cols = [target.basis(lat.conjugate(s, rep)).coeffs for rep in burnside_ring(lat, h).reps]
            assert conj == QMatrix(cols).transpose(), (lat.group.elem_name(s), lat.name(h))
        S = burnside_green(lat)
        for h in range(len(lat)):
            ring = burnside_ring(lat, h)
            n = ring.size
            cols = [burnside_reference.structure_constants(ring, i, j) for i in range(n) for j in range(n)]
            assert S.mult[h] == QMatrix(cols).transpose(), lat.name(h)
            assert S.unit[h] == QMatrix([ring.unit().coeffs]).transpose(), lat.name(h)

    def test_tables_build_no_element(self, past_corpus_lattices, monkeypatch):
        """The functor and Green tables are integer tables: building them makes no ``BurnsideElement``."""
        made = []
        init = BurnsideElement.__init__
        monkeypatch.setattr(BurnsideElement, "__init__", lambda self, *args: made.append(args) or init(self, *args))
        lat = past_corpus_lattices["C2^4"]
        burnside_mackey(lat)
        assert len(made) == 0
        burnside_green(lat)
        assert len(made) == 0


class TestMarksReferee:
    """Marks read off the lattice against counting the fixed cosets."""

    @staticmethod
    def check_every_ring(lat):
        for h in range(len(lat)):
            ring = burnside_ring(lat, h)
            for j, b in enumerate(ring.reps):
                assert ring.marks_basis(j) == tuple(len(lat.fixed_cosets(b, a, h)) for a in ring.reps)

    @pytest.mark.parametrize("name", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4"])
    def test_corpus(self, corpus_lattices, name):
        self.check_every_ring(corpus_lattices[name])

    @pytest.mark.parametrize("name", ["C2^4", "S3xS3", "C2xS4"])
    def test_past_corpus(self, past_corpus_lattices, name):
        self.check_every_ring(past_corpus_lattices[name])
