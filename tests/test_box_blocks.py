"""The Brauer-mark blocks ``monoidal.box`` shares between levels, and the maps ``_level_map`` induces without F.

``box`` reads each level off the Brauer-mark map q_H, built from one block
per (K, J, x): K an H-class representative, J a summand and xJ a coset fixed
by K.  A block does not depend on H, so it is built once per product and
every level H above it places it.  ``box_unit_iso`` reads each level of
box(A, M) off the unit map, so the two routes must give the same product.
``_level_map`` multiplies each block by the rows of ``section`` at its source
summand, places the products with ``block_matrix`` and applies ``proj`` once,
so an overrunning block raises in ``row_block`` or ``block_matrix``;
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
from qmackey.monoidal import box, box_unit_iso
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
    """A (x) F_H(V) is zero at every summand K not above a conjugate of H, so its blocks there have no columns.
    The source of ``box_unit_iso``, its levels read off the unit map, is ``box(A, F)`` in levels and maps, and
    ``box(A, A)`` for A itself."""
    lat = corpus_lattices[name]
    A = burnside_mackey(lat)
    assert_same_product(box_unit_iso(A).source, box(A, A))
    for h in lat.class_reps():
        W = lat.weyl(h).group
        for V in (WModule.trivial(W), WModule.regular(W)):
            F = free_functor(lat, h, V)
            assert_same_box(A, F)
            assert_same_product(box_unit_iso(F).source, box(A, F))


@pytest.mark.parametrize("name", ["C2^4", "S3xS3", "C2xS4"])
def test_the_mark_and_unit_routes_agree_past_the_corpus(past_corpus_lattices, name):
    """box(A, A), its levels read off the Brauer marks, is the source of ``box_unit_iso(A)``, its levels read off
    the unit map, in levels and maps: two routes of one level rule, on groups the referee is too slow for."""
    A = burnside_mackey(past_corpus_lattices[name])
    assert_same_product(box_unit_iso(A).source, box(A, A))


@pytest.mark.parametrize("name,fixture", [("D8", "corpus_lattices"), ("S3xS3", "past_corpus_lattices")])
def test_mark_blocks_are_built_once_per_product(request, monkeypatch, name, fixture):
    """Count ``tensor`` calls in box(A, A) by the function that makes them.  The mark memo makes one block per
    distinct (K, J, x) over the levels H: K in ``local_classes(H)``, J <= H and xJ in (H/J)^K.  ``_box_product``
    makes the blocks of the induced maps."""
    lat = request.getfixturevalue(fixture)[name]
    G = lat.group
    marks = {(k, j, x) for h in range(len(lat)) for k, *_ in lat.local_classes(h)
             for j in lat.subgroups_of(h) for x in lat.fixed_cosets(j, k, h)}
    expected = {
        "mark": len(marks),
        # R on each cover pair K < H: one block per summand S <= H and double coset in K\H/S
        "_box_product": sum(len(lat.double_cosets(k, s, h)) for h, k in lat.cover_pairs() for s in lat.subgroups_of(h))
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
