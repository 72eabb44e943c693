"""The box product on cover-pair and generator relations against the exhaustive referee.

``monoidal._box_level`` emits the Frobenius pairs only on cover pairs and the
conjugation families only for generators, and takes the quotient in one
elimination; ``box_reference`` emits every relation and eliminates twice.
The quotient depends only on the relation span, so the level quotients and
every induced map must be equal, not merely isomorphic.  ``monoidal.box``
induces R and I only on cover pairs and C_s only for s outside the level,
and composes or takes the identity elsewhere; the referee induces every map,
so each composite and identity is compared with a directly induced map.
"""

import random

import pytest

import box_reference
from qmackey.classify import random_functor
from qmackey.groups import corpus
from qmackey.linalg import WModule
from qmackey.mackey import burnside_mackey, coconstant, constant, fp_functor, fq_functor
from qmackey.monoidal import _box_level, box

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
    B, R = box(M, N), box_reference.box(M, N, build)
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
    assert_same_box(A, A, build=_box_level)


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
