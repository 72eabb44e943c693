"""The box product, its levels read off the Brauer marks, against the exhaustive referee.

``monoidal.box`` builds no relation: it reads each level off the Brauer-mark
map, whose kernel is the span of the relations, and ``box_reference`` emits
every relation and eliminates twice.  The quotient depends only on the
relation span, so the level quotients and every induced map must be equal,
not merely isomorphic.  ``monoidal.box`` induces R and I only on cover pairs
and C_s only for s outside the level, and composes or takes the identity
elsewhere; the referee induces every map, so each composite and identity is
compared with a directly induced map.  ``box_reference.unit_map`` and
``box_reference.mark_map`` on the referee's levels check the lemmas that
``monoidal.box_unit_iso`` and ``monoidal.box`` prove: each map kills every
relation and has the rank of the level.
"""

import random
from dataclasses import replace

import pytest

import box_reference
from qmackey.classify import random_functor
from qmackey.groups import corpus
from qmackey.linalg import WModule
from qmackey.mackey import burnside_mackey, coconstant, constant, fp_functor, fq_functor
from qmackey.monoidal import box

PAIRS = [
    ("burnside", "burnside"),
    ("constant", "coconstant"),
    ("fixed", "coinvariants"),
    ("coinvariants", "burnside"),
    ("constant", "fixed"),
]
# on the fixed points and coinvariants of the regular module of S4 (24-dimensional at the
# bottom) the referee alone takes longer than every other case together
CASES = [(name, *pair) for name in corpus() for pair in PAIRS if (name, *pair) != ("S4", "fixed", "coinvariants")]

KINDS = {
    "burnside": burnside_mackey,
    "constant": lambda lat: constant(lat, 1),
    "coconstant": lambda lat: coconstant(lat, 1),
    "fixed": lambda lat: fp_functor(lat, WModule.regular(lat.group)),
    "coinvariants": lambda lat: fq_functor(lat, WModule.regular(lat.group)),
}


def assert_same_box(M, N, build=box_reference.box_level):
    assert_same_product(box(M, N), box_reference.box(M, N, build))


def assert_same_product(B, R):
    """Equal level quotients and equal maps, not merely isomorphic ones."""
    assert len(B.levels) == len(R.levels)
    for level, ref in zip(B.levels, R.levels):
        assert level.summands == ref.summands and level.offsets == ref.offsets
        assert level.proj == ref.proj
        assert level.section == ref.section
    assert B.dims == R.dims
    assert B.res == R.res
    assert B.ind == R.ind
    assert B.cgen == R.cgen


@pytest.mark.parametrize("name,left,right", CASES)
def test_corpus_functors_match_the_referee(corpus_lattices, name, left, right):
    lat = corpus_lattices[name]
    assert_same_box(KINDS[left](lat), KINDS[right](lat))


@pytest.mark.parametrize("name", list(corpus()))
@pytest.mark.parametrize("seed", [0, 1])
def test_random_functors_match_the_referee(corpus_lattices, name, seed):
    lat = corpus_lattices[name]
    rng = random.Random(f"{name}-{seed}")
    assert_same_box(random_functor(lat, rng), random_functor(lat, rng))


def test_burnside_square_on_s3xs3_matches_directly_induced_maps(past_corpus_lattices):
    """A (x) A on S3xS3, with many non-cover pairs: production levels, every map induced by the referee."""
    A = burnside_mackey(past_corpus_lattices["S3xS3"])
    B = box(A, A)
    assert_same_product(B, box_reference.box(A, A, lambda M, N, h: B.levels[h]))


@pytest.mark.parametrize("name", ["C2", "C3", "C6", "C8", "S3", "D8", "Q8"])
def test_idempotent_cut_checks_match_the_solving_referee(corpus_lattices, name):
    """Idempotent locality and strong monoidality, as the referee checks them by solving for every
    idempotent action, hold at every class: for the first three kind pairs and for a random pair."""
    lat = corpus_lattices[name]
    rng = random.Random(name)
    pairs = [(KINDS[left](lat), KINDS[right](lat)) for left, right in PAIRS[:3]]
    for M, N in [*pairs, (random_functor(lat, rng), random_functor(lat, rng))]:
        B = box(M, N)
        for h in lat.class_reps():
            assert box_reference.box_idempotent_check(M, N, h).ok, (M.name, N.name, lat.name(h))
            assert box_reference.u_monoidal_certificate(M, N, h, B) is True


def descent_checks(qs, B, dims):
    """Per level of B, a box product of ``box_reference``: whether q_H kills every relation, as q_H section proj = q_H,
    and whether its rank is dims[H]."""
    return [(q.matmul(lvl.section).matmul(lvl.proj) == q, q.rank() == d) for q, lvl, d in zip(qs, B.levels, dims)]


def unit_map_checks(M, B):
    """``descent_checks`` of the unit map of ``box_reference.unit_map`` on B = ``box_reference.box(A, M)``, onto M."""
    return descent_checks(box_reference.unit_map(M, B), B, M.dims)


def mark_map_checks(M, N, B):
    """``descent_checks`` of the Brauer-mark map of ``box_reference.mark_map`` on B = ``box_reference.box(M, N)``."""
    return descent_checks(box_reference.mark_map(M, N, B), B, B.dims)


SMALL = [name for name, G in corpus().items() if G.order <= 12]


@pytest.mark.parametrize("name", SMALL)
def test_the_unit_map_descends_on_mackey_functors(corpus_lattices, name):
    """The lemma ``monoidal.box_unit_iso`` proves and no longer checks: on a Mackey functor M, each unit map of
    box(A, M), with relations at every comparable pair and every x in H, kills them and is onto M(H)."""
    lat = corpus_lattices[name]
    A = burnside_mackey(lat)
    functors = [kind(lat) for kind in KINDS.values()]
    functors += [random_functor(lat, random.Random(f"{name}-{seed}")) for seed in (0, 1)]
    for M in functors:
        assert all(map(all, unit_map_checks(M, box_reference.box(A, M)))), M.name


@pytest.mark.parametrize("name", SMALL)
def test_the_mark_map_descends_on_mackey_functors(corpus_lattices, name):
    """The lemma ``monoidal.box`` proves and does not check: on Mackey functors M and N, each Brauer-mark map of
    box(M, N), with relations at every comparable pair and every x in H, kills them and has the rank of the level."""
    lat = corpus_lattices[name]
    rng = random.Random(f"{name}-marks")
    pairs = [(KINDS[left](lat), KINDS[right](lat)) for left, right in PAIRS]
    for M, N in [*pairs, (random_functor(lat, rng), random_functor(lat, rng))]:
        assert all(map(all, mark_map_checks(M, N, box_reference.box(M, N)))), (M.name, N.name)


@pytest.mark.parametrize("name", ["C2", "D8"])
def test_a_doubled_restriction_keeps_a_relation_at_the_top(corpus_lattices, name):
    """The negative control: A with R^G_1 doubled is not Mackey, and neither its unit map nor the Brauer-mark map
    of box(A, it) at G kills every relation."""
    lat = corpus_lattices[name]
    A = burnside_mackey(lat)
    pair = (lat.top, lat.bottom)
    bad = replace(A, res={**A.res, pair: A.res[pair].scale(2)})
    B = box_reference.box(A, bad)
    kills, _ = unit_map_checks(bad, B)[lat.top]
    assert not kills
    kills, _ = mark_map_checks(A, bad, B)[lat.top]
    assert not kills
