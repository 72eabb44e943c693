"""The Mackey formula on class representatives against the full triple set.

``check_axioms`` checks the double-coset formula only on representative
triples once axioms 1-3 hold, and falls back to every triple on any failure.
These tests hold it to the exhaustive path: equal reports on the corruption
fixtures, on a broken equivariance the reduced set cannot see, and on the
functors the ``verify`` benchmark builds, and equal
verdicts of the formula alone on twisted constant functors, which satisfy
axioms 1-3 by construction and break the formula in many ways.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corruptions import all_corruptions
from qmackey.burnside import burnside_ring
from qmackey.groups import corpus
from qmackey.linalg import QMatrix, WModule
from qmackey.mackey import (
    _all_triples,
    _mackey_formula_violations,
    _representative_triples,
    _structure_violations,
    build_functor,
    burnside_mackey,
    check_axioms,
    coconstant,
    constant,
    dual,
    fp_functor,
    fq_functor,
    idempotent_part,
)

CORPUS = tuple(corpus())
SMALL = ("C2", "C3", "C6", "C8", "S3", "D8", "Q8")  # the corpus groups of order <= 8
TWIST_GROUPS = ("S3", "D8", "Q8", "A4", "D12", "S4")


def assert_same_reports(M):
    for fail_fast in (False, True):
        assert check_axioms(M, fail_fast=fail_fast) == check_axioms(M, fail_fast=fail_fast, exhaustive=True)


def _verify_family(lat, small):
    """The functors the ``verify`` benchmark checks over one corpus group."""
    A = burnside_mackey(lat)
    family = [A, constant(lat, 1), coconstant(lat, 2)]
    if small:
        R = WModule.regular(lat.group)
        family += [fp_functor(lat, R), fq_functor(lat, R), dual(A)]
        ring = burnside_ring(lat)
        family += [idempotent_part(A, ring.idempotent(k)) for k in ring.reps]
    return family


@pytest.mark.parametrize("group", CORPUS)
def test_corruptions_report_as_exhaustive(corpus_lattices, group):
    for M, _ in all_corruptions(corpus_lattices[group]):
        assert_same_reports(M)


@pytest.mark.parametrize("group", ("S3", "D8", "A4", "D12", "S4"))
def test_broken_equivariance_reports_every_triple(corpus_lattices, group):
    """R^G_K scaled for K off its class representative: axiom 3 fails, and the
    formula fails only at triples the reduced set leaves out, which the
    report must still name."""
    lat = corpus_lattices[group]
    k = next(cls[1] for cls in lat.classes if len(cls) > 1)
    M = constant(lat, 1)
    M = replace(M, res={**M.res, (lat.top, k): QMatrix.scalar(1, 2)})
    assert formula_holds(M, _representative_triples(lat)) and not formula_holds(M, _all_triples(lat))
    assert_same_reports(M)
    assert "double-coset" in check_axioms(M).axioms_violated()


@pytest.mark.parametrize("group", CORPUS)
def test_verify_functors_report_as_exhaustive(corpus_lattices, group):
    for M in _verify_family(corpus_lattices[group], group in SMALL):
        assert_same_reports(M)


@pytest.mark.parametrize("group", TWIST_GROUPS)
def test_representative_triples_reach_every_triple(corpus_lattices, group):
    """Conjugating K and L within H, then the whole triple by G, covers every triple."""
    lat = corpus_lattices[group]
    G = lat.group
    reached = set()
    for h, k, l in _representative_triples(lat):
        ks = {lat.conjugate(x, k) for x in lat.elements(h)}
        ls = {lat.conjugate(x, l) for x in lat.elements(h)}
        for g in range(G.order):
            gh = lat.conjugate(g, h)
            reached |= {(gh, lat.conjugate(g, k2), lat.conjugate(g, l2)) for k2 in ks for l2 in ls}
    assert reached == set(_all_triples(lat))


# -- twisted constant functors ----------------------------------------------------


def twisted_constant(lat, f):
    """Dimension 1, R = C = id and I^H_K = f(H)/f(K), for f a nonzero rational per conjugacy class."""
    one = QMatrix.identity(1)
    value = [Fraction(f[lat.class_of[h]]) for h in range(len(lat))]
    return build_functor(
        lat,
        [1] * len(lat),
        lambda h, k: one,
        lambda h, k: QMatrix.scalar(1, value[h] / value[k]),
        lambda pos, s, h: one,
        name="twisted",
    )


def orders(lat):
    return [lat.order(cls[0]) for cls in lat.classes]


def formula_holds(M, triples):
    return next(_mackey_formula_violations(M, triples), None) is None


def assert_reduction_agrees(M):
    lat = M.lattice
    assert next(_structure_violations(M), None) is None
    assert formula_holds(M, _representative_triples(lat)) == formula_holds(M, _all_triples(lat))
    assert_same_reports(M)


def test_twist_by_order_is_the_constant_functor(s4_lattice):
    M, C = twisted_constant(s4_lattice, orders(s4_lattice)), constant(s4_lattice)
    assert (M.res, M.ind, M.cgen) == (C.res, C.ind, C.cgen)
    assert check_axioms(M).ok


@pytest.mark.parametrize("cls", range(11))
def test_doubling_one_class_of_s4_breaks_the_formula(s4_lattice, cls):
    f = orders(s4_lattice)
    f[cls] *= 2
    M = twisted_constant(s4_lattice, f)
    assert not formula_holds(M, _representative_triples(s4_lattice))
    assert_reduction_agrees(M)


@settings(derandomize=True, deadline=None, max_examples=36, database=None)
@given(
    group=st.sampled_from(TWIST_GROUPS),
    factors=st.lists(st.sampled_from([1, 1, 1, 1, 2, -1, Fraction(1, 2), 3]), min_size=11, max_size=11),
)
def test_random_twists_agree(corpus_lattices, group, factors):
    lat = corpus_lattices[group]
    assert_reduction_agrees(twisted_constant(lat, [n * c for n, c in zip(orders(lat), factors)]))
