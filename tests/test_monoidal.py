from fractions import Fraction

import pytest

from qmackey.burnside import burnside_ring
from qmackey.classify import free_functor
from qmackey.groups import SubgroupLattice, trivial
from qmackey.linalg import QMatrix, WModule
from qmackey.mackey import (
    MackeyError,
    burnside_mackey,
    check_axioms,
    constant,
    zero_functor,
)
from qmackey.monoidal import (
    box,
    box_idempotent_check,
    box_swap_iso,
    box_unit_iso,
    burnside_green,
    constant_green,
    green_check,
    u_monoidal_dims_ok,
)


def ids_of(lat):
    return {lat.name(h): h for h in range(len(lat))}


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
    span = QMatrix.from_cols([list(map(Fraction, r)) for r in rows], rows=5)
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


class TestBoxUnitLaw:
    @pytest.mark.parametrize("name", ["C2", "C6", "S3", "C3", "C8", "D8", "Q8", "A4", "D12"])
    def test_unit_law_on_free_functor_basis(self, corpus_lattices, name):
        """box(A, F_H(V)) is certified isomorphic to F_H(V) at every class H, V trivial or regular.

        S4 is left out: its unit isos take about 20 s until the box product
        emits conjugation relations for generators only.
        """
        lat = corpus_lattices[name]
        for h in lat.class_reps():
            W = lat.weyl(h).group
            for V in (WModule.trivial(W, 1), WModule.regular(W)):
                F = free_functor(lat, h, V)
                iso = box_unit_iso(F)
                assert iso.is_levelwise_iso()

    def test_unit_law_on_burnside_itself(self, c6_lattice):
        iso = box_unit_iso(burnside_mackey(c6_lattice))
        assert iso.is_levelwise_iso()


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
            rep = box_idempotent_check(A, A, h)
            assert rep.ok
            assert rep.dims_local_box == rep.dims_box_local

    def test_value_at_c2_is_one_dimensional(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        rep = box_idempotent_check(A, A, ids["C2"])
        assert rep.value_dim_at_h == rep.tensor_dim_at_h == 1

    def test_vanishing_class_gives_zero(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.trivial(W, 1))
        rep = box_idempotent_check(A, F, ids["C2"])
        assert rep.ok
        assert all(d == 0 for d in rep.dims_box_local)

    def test_u_monoidal_dims_over_c6(self, c6_lattice):
        ids = ids_of(c6_lattice)
        A = burnside_mackey(c6_lattice)
        W = c6_lattice.weyl(ids["C2"]).group
        F = free_functor(c6_lattice, ids["C2"], WModule.trivial(W, 1))
        assert u_monoidal_dims_ok(A, A)
        assert u_monoidal_dims_ok(A, F)

    def test_u_monoidal_certificates(self, c6_lattice, s3_lattice):
        from qmackey.monoidal import u_monoidal_certificate

        for lat in (c6_lattice, s3_lattice):
            A = burnside_mackey(lat)
            B = box(A, A)
            for h in lat.class_reps():
                assert u_monoidal_certificate(A, A, h, B), lat.name(h)

    def test_u_monoidal_certificate_nontrivial_weyl_module(self, c6_lattice):
        from qmackey.monoidal import u_monoidal_certificate

        ids = ids_of(c6_lattice)
        W = c6_lattice.weyl(ids["C3"]).group
        F = free_functor(c6_lattice, ids["C3"], WModule.regular(W))
        B = box(F, F)
        for h in c6_lattice.class_reps():
            assert u_monoidal_certificate(F, F, h, B)


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
        assert "restriction-homomorphism" in report.rules_violated()

    def test_wrong_unit_caught(self, c2_lattice):
        S = burnside_green(c2_lattice)
        S.unit[0] = S.unit[0].scale(3)
        report = green_check(S)
        assert not report.ok
        assert "unit" in report.rules_violated() or "restriction-unit" in report.rules_violated()

    def test_green_on_trivial_group(self):
        lat = SubgroupLattice(trivial())
        assert green_check(burnside_green(lat)).ok
