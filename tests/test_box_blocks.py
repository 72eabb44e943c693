"""The relation blocks ``monoidal.box`` shares between levels, and the maps ``_level_map`` induces without F.

``box`` builds each Frobenius family of a cover pair and each conjugation
family of (x, K) once per product, leaving out the families with no columns
and those of x at a K containing x; every level H places the ones below it.
``_level_map`` reads each block straight into the kept coordinates that
``section`` picks at its source summand and applies ``proj`` once;
``box_reference.level_map`` builds the whole T(dst) x T(src) map F and is its
referee.
"""

import sys

import pytest

import box_reference
from qmackey import monoidal
from qmackey.classify import free_functor
from qmackey.linalg import LinAlgError, QMatrix, WModule
from qmackey.mackey import burnside_mackey
from qmackey.monoidal import _box_level, _relation_families, box, box_unit_iso
from test_box_reference import CASES, KINDS, assert_same_box, assert_same_product


@pytest.fixture
def referee_checked(monkeypatch):
    """Make every ``_level_map`` call check its answer against the dense referee; count the calls."""
    fast, calls = monoidal._level_map, []

    def checked(src, dst, blocks):
        got = fast(src, dst, blocks)
        assert got == box_reference.level_map(src, dst, blocks)
        calls.append(got)
        return got

    monkeypatch.setattr(monoidal, "_level_map", checked)
    return calls


@pytest.mark.parametrize("name,left,right", CASES)
def test_level_maps_match_the_dense_referee_on_corpus_pairs(corpus_lattices, referee_checked, name, left, right):
    lat = corpus_lattices[name]
    box(KINDS[left](lat), KINDS[right](lat))
    assert referee_checked


def test_level_maps_match_the_dense_referee_on_the_s3xs3_burnside_square(past_corpus_lattices, referee_checked):
    A = burnside_mackey(past_corpus_lattices["S3xS3"])
    box(A, A)
    assert referee_checked


def test_misfit_blocks_raise(s3_lattice):
    """A block one column too wide at the last source summand, or one row too tall at the last target summand."""
    A = burnside_mackey(s3_lattice)
    top = box(A, A).levels[s3_lattice.top]
    last = top.summands[-1]
    d = A.dims[last] ** 2
    for b in (QMatrix.zeros(d, d + 1), QMatrix.zeros(d + 1, d)):
        for level_map in (monoidal._level_map, box_reference.level_map):
            with pytest.raises(LinAlgError):
                level_map(top, top, [(last, last, b)])


@pytest.mark.parametrize("name", ["D8", pytest.param("S4", marks=pytest.mark.slow)])
def test_boxes_with_zero_summands_match_the_referee(corpus_lattices, name):
    """A (x) F_H(V) is zero at every summand K not above a conjugate of H, so families with no columns
    are left out there; the levels built alone are the product's.  The source of ``box_unit_iso``, its
    levels read off the unit map, is ``box(A, F)`` in levels and maps, and ``box(A, A)`` for A itself."""
    lat = corpus_lattices[name]
    A = burnside_mackey(lat)
    assert_same_product(box_unit_iso(A).source, box(A, A))
    for h in lat.class_reps():
        W = lat.weyl(h).group
        for V in (WModule.trivial(W), WModule.regular(W)):
            F = free_functor(lat, h, V)
            assert_same_box(A, F)
            B = box(A, F)
            assert_same_product(box_unit_iso(F).source, B)
            families = _relation_families(A, F)
            assert all(_box_level(A, F, k, families) == B.levels[k] for k in range(len(lat)))
            frobenius, _ = families
            assert any(len(frobenius(k, l)) < 2 for k, l in lat.cover_pairs()) == (0 in F.dims)


@pytest.mark.parametrize("name,fixture", [("D8", "corpus_lattices"), ("S3xS3", "past_corpus_lattices")])
def test_relation_blocks_are_built_once_per_product(request, monkeypatch, name, fixture):
    """Count ``tensor`` calls in box(A, A) by the function that makes them.  A is nonzero at every
    summand, so each cover pair has two Frobenius families of two blocks, and each (x, K) with x a
    generator of some H >= K and x not in K has one conjugation family of two blocks."""
    lat = request.getfixturevalue(fixture)[name]
    G = lat.group
    conj_pairs = {(x, k) for h in range(len(lat)) for x in lat.gens(h) for k in lat.subgroups_of(h)}
    expected = {
        "frobenius": 4 * len(lat.cover_pairs()),
        "conjugation": 2 * sum(x not in lat.elements(k) for x, k in conj_pairs),
        # R on each cover pair K < H: one block per summand S <= H and double coset in K\H/S
        "box": sum(len(lat.double_cosets(k, s, h)) for h, k in lat.cover_pairs() for s in lat.subgroups_of(h))
        # C_s for each generator s outside H: one block per summand of H
        + sum(len(lat.subgroups_of(h)) for s in G.gens for h in range(len(lat)) if s not in lat.elements(h)),
    }
    made = dict.fromkeys(expected, 0)
    tensor = monoidal.tensor

    def counted(a, b):
        frame = sys._getframe(1)  # past any comprehension, to the function that asked
        while frame.f_code.co_name not in expected:
            frame = frame.f_back
        made[frame.f_code.co_name] += 1
        return tensor(a, b)

    monkeypatch.setattr(monoidal, "tensor", counted)
    A = burnside_mackey(lat)
    box(A, A)
    assert made == expected
