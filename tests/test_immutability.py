"""Lattices, functors and modules are immutable values; variants come from ``dataclasses.replace``.

The axiom checker and the classification cache conjugation, action and
element matrices on the functor or module, and the lattice memoizes every
answer it derives.  These tests pin that no data such a cache depends on can
change after construction, and that a variant built with ``replace`` starts
with empty caches.
"""

import dataclasses
import random
from dataclasses import FrozenInstanceError, replace
from types import MappingProxyType

import pytest

from qmackey.burnside import burnside_ring
from qmackey.classify import SplitData, build_free_block, classify_iso, random_invertible, split
from qmackey.groups import FiniteGroup, SubgroupLattice, symmetric
from qmackey.linalg import QMatrix, WModule
from qmackey.mackey import MackeyFunctor, burnside_mackey, check_axioms, constant, i_lower
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

    @pytest.mark.parametrize("field", ["lattice", "h", "module", "functor", "cosets", "bases"])
    def test_assigning_a_free_block_field_raises(self, lat, field):
        block = build_free_block(lat, lat.top, WModule.trivial(lat.weyl(lat.top).group))
        with pytest.raises(FrozenInstanceError):
            setattr(block, field, getattr(block, field))

    def test_split_data_is_frozen_and_its_modules_read_only(self, lat):
        S = split(burnside_mackey(lat))
        h, V = next(iter(S.modules.items()))
        with pytest.raises(TypeError):
            S.modules[h] = V
        with pytest.raises(FrozenInstanceError):
            S.lattice = SubgroupLattice(lat.group)
        modules = {h: V}
        kept = SplitData(lat, modules)
        modules.clear()
        assert dict(kept.modules) == {h: V}

    def test_box_keeps_its_levels_in_a_declared_field(self, lat):
        A = burnside_mackey(lat)
        B = monoidal.box(A, A)
        assert isinstance(B, monoidal.BoxProduct)
        assert len(B.levels) == len(lat)
        assert monoidal.box_unit_iso(A).is_levelwise_iso()

    def test_a_write_to_a_box_level_raises(self, lat):
        """``_level_map`` and the box isomorphisms read each level's offsets after ``box`` returns."""
        A = burnside_mackey(lat)
        B = monoidal.box(A, A)
        level = B.levels[lat.top]
        with pytest.raises(TypeError):
            level.offsets[lat.bottom] = 1
        with pytest.raises(FrozenInstanceError):
            level.t_dim = 0
        assert monoidal.box(A, A).levels[lat.top] == level
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


LATTICE_TABLES = ("group", "subgroups", "conj_table", "classes", "class_of", "normalizers", "class_names", "subgroup_names")


def writable(value, path: str, seen: set[int]):
    """The paths to every list, dict or set reachable from ``value``.

    The walk descends through tuples, frozensets, read-only mappings, frozen
    dataclasses, groups (every attribute) and lattices (their tables and
    every memoized answer); any other object fails the walk.
    """
    if isinstance(value, (int, str)) or id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, (list, dict, set)):
        yield path
    elif isinstance(value, (tuple, frozenset)):
        for i, item in enumerate(value):
            yield from writable(item, f"{path}[{i}]", seen)
    elif isinstance(value, MappingProxyType):
        for key, item in value.items():
            yield from writable(key, f"{path} key {key!r}", seen)
            yield from writable(item, f"{path}[{key!r}]", seen)
    elif dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, path
        for f in dataclasses.fields(value):
            yield from writable(getattr(value, f.name), f"{path}.{f.name}", seen)
    elif isinstance(value, FiniteGroup):
        for name, item in vars(value).items():
            yield from writable(item, f"{path}.{name}", seen)
    elif isinstance(value, SubgroupLattice):
        for name in LATTICE_TABLES:
            yield from writable(getattr(value, name), f"{path}.{name}", seen)
        for key, item in value._memo.items():
            yield from writable(item, f"{path}.{key[0]}{key[1:]}", seen)
    else:
        raise AssertionError(f"{path}: the walk does not know a {type(value).__name__}")


class TestReadOnlyLattice:
    """A lattice hands out its tables and memoized answers read-only: no caller can change what a later one reads."""

    WRITES = {
        "mobius_to": lambda lat: lat.mobius_to(lat.top).__setitem__(0, 99),
        "class_index": lambda lat: burnside_ring(lat).class_index.__setitem__(0, 3),
        "ring classes": lambda lat: burnside_ring(lat).classes.append((0,)),
        "local_classes": lambda lat: lat.local_classes(lat.top).append((0,)),
        "cover_pairs": lambda lat: lat.cover_pairs().append((0, 0)),
        "marks row": lambda lat: lat.marks(lat.top)[1][0].__setitem__(0, 1),
    }

    @pytest.mark.parametrize("write", WRITES.values(), ids=list(WRITES))
    def test_a_write_to_a_memo_answer_raises_and_changes_nothing(self, write):
        lat = SubgroupLattice(symmetric(3))
        with pytest.raises((TypeError, AttributeError)):
            write(lat)
        ring = burnside_ring(lat)
        assert ring.idempotent(lat.top).is_idempotent()
        assert ring.basis(lat.bottom).render() == "[G6/C1]"

    def test_nothing_writable_is_reachable_from_a_used_lattice(self):
        lat = SubgroupLattice(symmetric(3))
        A = burnside_mackey(lat)
        assert check_axioms(A).ok
        assert monoidal.green_check(monoidal.burnside_green(lat)).ok
        classify_iso(A)
        monoidal.box(A, A)
        ring = burnside_ring(lat)
        assert ring.idempotents() == ring.idempotents_via_marks()
        i_lower(A, lat.class_reps()[1])
        assert len(lat._memo) > 20
        assert list(writable(lat, "lat", set())) == []
