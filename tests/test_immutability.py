"""Functors and modules are immutable values; variants come from ``dataclasses.replace``.

The axiom checker and the classification cache conjugation, action and
element matrices on the functor or module.  These tests pin that no data such
a cache depends on can change after construction, and that a variant built
with ``replace`` starts with empty caches.
"""

import random
from dataclasses import FrozenInstanceError, replace

import pytest

from qmackey.classify import random_invertible
from qmackey.groups import SubgroupLattice, symmetric
from qmackey.linalg import QMatrix, WModule
from qmackey.mackey import MackeyFunctor, burnside_mackey, check_axioms, constant
from qmackey import monoidal


@pytest.fixture(scope="module")
def lat():
    return SubgroupLattice(symmetric(3))


class TestFrozen:
    @pytest.mark.parametrize("field", ["lattice", "dims", "res", "ind", "cgen", "name"])
    def test_assigning_a_functor_field_raises(self, lat, field):
        M = constant(lat, 1)
        with pytest.raises(FrozenInstanceError):
            setattr(M, field, getattr(M, field))

    @pytest.mark.parametrize("table", ["res", "ind", "cgen"])
    def test_assigning_a_map_entry_raises(self, lat, table):
        M = constant(lat, 1)
        key = next(iter(getattr(M, table)))
        with pytest.raises(TypeError):
            getattr(M, table)[key] = QMatrix.scalar(1, 5)

    def test_the_functor_keeps_a_private_copy_of_its_maps(self, lat):
        M = constant(lat, 1)
        cgen = dict(M.cgen)
        N = MackeyFunctor(lat, M.dims, M.res, M.ind, cgen)
        cgen[(0, lat.top)] = QMatrix.scalar(1, -1)
        assert N.cgen[(0, lat.top)] == QMatrix.identity(1)
        assert check_axioms(N).ok

    @pytest.mark.parametrize("field", ["group", "dim", "gen_matrices"])
    def test_assigning_a_module_field_raises(self, lat, field):
        V = WModule.regular(lat.group)
        with pytest.raises(FrozenInstanceError):
            setattr(V, field, getattr(V, field))

    def test_box_keeps_its_levels_in_a_declared_field(self, lat):
        A = burnside_mackey(lat)
        B = monoidal.box(A, A)
        assert isinstance(B, monoidal.BoxProduct)
        assert len(B.levels) == len(lat)
        assert monoidal.box_unit_iso(A).is_levelwise_iso()


class TestReplace:
    def test_replaced_conjugation_is_checked_afresh(self, lat):
        """The S3 witness: a stale conjugation cache used to hide the inner-conjugation violation."""
        M = constant(lat, 1)
        assert check_axioms(M).ok  # fills the conjugation cache of M
        cgen = {**M.cgen, (0, lat.top): QMatrix.scalar(1, -1)}
        variant = check_axioms(replace(M, cgen=cgen))
        fresh = check_axioms(MackeyFunctor(lat, M.dims, M.res, M.ind, cgen))
        assert [str(v) for v in variant.violations] == [str(v) for v in fresh.violations]
        assert len(fresh.violations) == 11
        assert str(fresh.violations[0]) == "[inner-conjugation] C_(1 2) is not the identity on level G6"
        assert check_axioms(M).ok

    def test_replaced_generators_change_every_element_matrix(self, lat):
        G = lat.group
        V = WModule.regular(G)
        assert V.character()[G.identity] == G.order  # fills the cache of element matrices
        T = random_invertible(V.dim, random.Random(1))
        W = replace(V, gen_matrices=tuple(T.matmul(m).matmul(T.inverse()) for m in V.gen_matrices))
        fresh = V.conjugated(T)
        assert all(W.matrix(g) == fresh.matrix(g) != V.matrix(g) for g in range(G.order) if g != G.identity)

    def test_a_variant_starts_with_empty_caches(self, lat):
        M = burnside_mackey(lat)
        assert check_axioms(M).ok
        N = replace(M)
        assert N == M and M._conj_cache
        assert N._conj_cache == {}
        assert replace(M, name="B") != M
