"""End-to-end acceptance suite.

Each test covers one numbered criterion, runs it at exact tolerance, and
prints a single PASS line when it survives; budgets are asserted where the
criterion states one.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

import box_reference
from corruptions import all_corruptions, axioms_violated
from qmackey.burnside import burnside_ring
from qmackey.classify import (
    classify_iso,
    diagonal_check,
    free_functor,
    random_functor,
    split,
    certify_iso,
)
from qmackey.linalg import QMatrix, WModule
from qmackey.mackey import (
    burnside_mackey,
    check_axioms,
    coconstant,
    constant,
    dual,
    fp_functor,
    fq_functor,
    idempotent_part,
)
from qmackey.monoidal import box, box_unit_iso

CORPUS_NAMES = ["C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4"]


def report(number, elapsed, detail):
    print(f"PASS criterion {number} ({elapsed:.2f}s): {detail}")


def ids_of(lat):
    return {lat.name(h): h for h in range(len(lat))}


@pytest.fixture(scope="module")
def random_pool(corpus_lattices):
    """The shared pool of random functors for criteria 6 and 7."""
    pool = {}
    for name in CORPUS_NAMES:
        lat = corpus_lattices[name]
        rng = random.Random(20250811)
        pool[name] = [random_functor(lat, rng) for _ in range(50)]
    return pool


def test_criterion_1_c6_burnside_ring(corpus_lattices):
    t0 = time.monotonic()
    lat = corpus_lattices["C6"]
    ids = ids_of(lat)
    ring = burnside_ring(lat)
    b = {n: ring.basis(ids[n]) for n in ("C1", "C2", "C3", "C6")}
    assert b["C1"] * b["C1"] == b["C1"].scale(6)
    assert b["C1"] * b["C3"] == b["C1"].scale(2)
    assert b["C1"] * b["C2"] == b["C1"].scale(3)
    assert b["C3"] * b["C3"] == b["C3"].scale(2)
    assert b["C2"] * b["C3"] == b["C1"]
    assert b["C2"] * b["C2"] == b["C2"].scale(3)
    e1 = ring.idempotent(ids["C1"])
    e2 = ring.idempotent(ids["C2"])
    e3 = ring.idempotent(ids["C3"])
    e6 = ring.idempotent(ids["C6"])
    assert e1 == b["C1"].scale(Fraction(1, 6))
    assert e2 == b["C2"].scale(Fraction(1, 3)) - b["C1"].scale(Fraction(1, 6))
    assert e3 == b["C3"].scale(Fraction(1, 2)) - b["C1"].scale(Fraction(1, 6))
    assert e6 == b["C6"] - b["C2"].scale(Fraction(1, 3)) - b["C3"].scale(Fraction(1, 2)) + b["C1"].scale(Fraction(1, 6))
    total = ring.zero()
    for e in (e1, e2, e3, e6):
        assert e * e == e
        total = total + e
    assert total == ring.unit()
    for x, y in itertools.combinations((e1, e2, e3, e6), 2):
        assert (x * y).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, elapsed, "six products and four idempotents of the order-6 ring, exact")


def test_criterion_2_idempotent_cross_validation(corpus_lattices):
    t0 = time.monotonic()
    for name in CORPUS_NAMES:
        ring = burnside_ring(corpus_lattices[name])
        assert ring.idempotents() == ring.idempotents_via_marks(), name
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, elapsed, "Mobius and marks-inversion idempotents agree on all 10 groups")


def test_criterion_3_idempotent_restriction(corpus_lattices):
    t0 = time.monotonic()
    triples = 0
    for name in CORPUS_NAMES:
        lat = corpus_lattices[name]
        ring = burnside_ring(lat)
        for h in ring.reps:
            e = ring.idempotent(h)
            h_class = lat.class_of[h]
            for a in range(len(lat)):
                sub = burnside_ring(lat, a)
                down = ring.restrict(e, a)
                expected = sub.zero()
                marks_pattern = []
                for k in sub.reps:
                    if lat.class_of[k] == h_class:
                        expected = expected + sub.idempotent(k)
                        marks_pattern.append(Fraction(1))
                    else:
                        marks_pattern.append(Fraction(0))
                assert down == expected, (name, lat.name(h), lat.name(a))
                # independent verification through the marks homomorphism
                assert down.marks() == tuple(marks_pattern)
                triples += 1
    elapsed = time.monotonic() - t0
    report(3, elapsed, f"restricted idempotents match the subring sum on {triples} triples")


def test_criterion_4_free_functor_goldens(corpus_lattices):
    t0 = time.monotonic()
    lat = corpus_lattices["C6"]
    ids = ids_of(lat)
    lines = {}
    for n in ("C1", "C2", "C3", "C6"):
        W = lat.weyl(ids[n]).group
        lines[n] = free_functor(lat, ids[n], WModule.trivial(W, 1))
    assert lines["C1"].dims == (1, 1, 1, 1)
    assert lines["C2"].dims == (0, 1, 0, 1)
    assert lines["C3"].dims == (0, 0, 1, 1)
    assert lines["C6"].dims == (0, 0, 0, 1)
    assert lines["C2"].res[(ids["C6"], ids["C2"])] == QMatrix.identity(1)
    assert lines["C2"].ind[(ids["C6"], ids["C2"])] == QMatrix.scalar(1, 3)
    assert lines["C3"].res[(ids["C6"], ids["C3"])] == QMatrix.identity(1)
    assert lines["C3"].ind[(ids["C6"], ids["C3"])] == QMatrix.scalar(1, 2)
    assert lines["C1"].res[(ids["C6"], ids["C1"])] == QMatrix.identity(1)
    assert lines["C1"].ind[(ids["C2"], ids["C1"])] == QMatrix.scalar(1, 2)
    assert lines["C1"].ind[(ids["C3"], ids["C1"])] == QMatrix.scalar(1, 3)
    W3 = lat.weyl(ids["C3"]).group
    F3r = free_functor(lat, ids["C3"], WModule.regular(W3))
    assert F3r.dims == (0, 0, 2, 1)
    assert F3r.res[(ids["C6"], ids["C3"])] == QMatrix([[1], [1]])
    assert F3r.ind[(ids["C6"], ids["C3"])] == QMatrix([[1, 1]])
    W1 = lat.weyl(ids["C1"]).group
    F1r = free_functor(lat, ids["C1"], WModule.regular(W1))
    FP = fp_functor(lat, WModule.regular(lat.group))
    iso = certify_iso(F1r, FP)
    assert iso is not None and iso.is_levelwise_iso()
    elapsed = time.monotonic() - t0
    report(4, elapsed, "order-6 free functors match the drawn diagrams; group-ring case certified")


def test_criterion_5_splitting_golden(corpus_lattices):
    t0 = time.monotonic()
    lat = corpus_lattices["C6"]
    A = burnside_mackey(lat)
    S = split(A)
    assert len(S.modules) == 4
    for h, V in S.modules.items():
        assert V.dim == 1
        for g in range(V.group.order):
            assert V.matrix(g) == QMatrix.identity(1)
    iso = classify_iso(A)
    assert iso.target.dims == A.dims == (1, 2, 2, 4)
    assert iso.is_levelwise_iso()
    elapsed = time.monotonic() - t0
    report(5, elapsed, "Burnside functor splits into the four trivial lines, certified")


def test_criterion_6_classification_round_trip(corpus_lattices, random_pool):
    t0 = time.monotonic()
    total = 0
    for name in CORPUS_NAMES:
        for M in random_pool[name]:
            assert max(M.dims) <= 4
            iso = classify_iso(M)
            assert iso.is_levelwise_iso(), name
            total += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(6, elapsed, f"{total} random functors certified invertible at every level")


def test_criterion_7_diagonal_decomposition(corpus_lattices, random_pool, s4_lattice):
    t0 = time.monotonic()
    pairs_checked = 0
    for name in CORPUS_NAMES:
        lat = corpus_lattices[name]
        pairs = [(h, k) for h in range(len(lat)) for k in lat.subgroups_of(h)]
        for M in random_pool[name]:
            for h, k in pairs:
                rep = diagonal_check(M, k, h)
                assert rep.ok, (name, lat.name(k), lat.name(h))
                pairs_checked += 1
    # the symmetric-group example: a single line survives induction-restriction
    G = s4_lattice.group
    k = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
    h = s4_lattice.normalizers[k]
    W = s4_lattice.weyl(k).group
    F = free_functor(s4_lattice, k, WModule.regular(W))
    image = F.ind[(h, k)].matmul(F.res[(h, k)])
    assert image.rank() == 1
    rep = diagonal_check(F, k, h)
    assert rep.ok and rep.dim_upper == 1 and rep.dim_fixed == 1
    elapsed = time.monotonic() - t0
    report(7, elapsed, f"dimension identity and restriction isomorphism on {pairs_checked} pairs")


def test_criterion_8_axiom_checker_soundness(corpus_lattices):
    t0 = time.monotonic()
    constructed = 0
    for name in CORPUS_NAMES:
        lat = corpus_lattices[name]
        family = [burnside_mackey(lat), constant(lat, 1), coconstant(lat, 2)]
        if lat.group.order <= 12:
            V = WModule.regular(lat.group)
            family += [fp_functor(lat, V), fq_functor(lat, V), dual(burnside_mackey(lat))]
            ring = burnside_ring(lat)
            family.append(idempotent_part(family[0], ring.idempotent(ring.reps[-1])))
        for M in family:
            assert check_axioms(M).ok, (name, M.name)
            constructed += 1
    caught = 0
    for lat_name in ("C2", "C6", "S3"):
        lat = corpus_lattices[lat_name]
        fixtures = all_corruptions(lat)
        if lat_name == "C2":
            assert fixtures[0][0].name == "bad-induction"  # the doubling fixture
        for M, expected in fixtures:
            report_ = check_axioms(M)
            assert not report_.ok, (lat_name, M.name)
            assert expected in axioms_violated(report_), (lat_name, M.name)
            caught += 1
    assert caught >= 5
    elapsed = time.monotonic() - t0
    report(8, elapsed, f"{constructed} constructed functors pass; {caught} corruptions named correctly")


def test_criterion_9_box_product(corpus_lattices):
    t0 = time.monotonic()
    certified = 0
    for name in ("C2", "C6", "S3"):
        lat = corpus_lattices[name]
        for h in lat.class_reps():
            W = lat.weyl(h).group
            for V in (WModule.trivial(W, 1), WModule.regular(W)):
                F = free_functor(lat, h, V)
                iso = box_unit_iso(F)
                assert iso.is_levelwise_iso()
                certified += 1
    lat = corpus_lattices["C6"]
    A = burnside_mackey(lat)
    AA = box(A, A)
    for h in lat.class_reps():
        rep = box_reference.box_idempotent_check(A, A, h)
        assert rep.ok
        assert rep.value_dim_at_h == rep.tensor_dim_at_h
        assert box_reference.u_monoidal_certificate(A, A, h, AA)
    ids = ids_of(lat)
    W2 = lat.weyl(ids["C2"]).group
    F2 = free_functor(lat, ids["C2"], WModule.trivial(W2, 1))
    for M, N in [(A, F2), (F2, A)]:
        B = box(M, N)
        for h in lat.class_reps():
            assert box_reference.u_monoidal_certificate(M, N, h, B), (M.name, N.name, lat.name(h))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(9, elapsed, f"unit law certified on {certified} free functors; local tensor identity holds")


def test_criterion_10_double_coset_consequence_c6(corpus_lattices):
    t0 = time.monotonic()
    lat = corpus_lattices["C6"]
    ids = ids_of(lat)
    V = WModule.regular(lat.group)
    A = burnside_mackey(lat)
    functors = [
        A,
        dual(A),
        constant(lat, 1),
        constant(lat, 3),
        coconstant(lat, 2),
        fp_functor(lat, V),
        fq_functor(lat, V),
    ]
    for h in lat.class_reps():
        W = lat.weyl(h).group
        functors.append(free_functor(lat, h, WModule.trivial(W, 1)))
        functors.append(free_functor(lat, h, WModule.regular(W)))
    ring = burnside_ring(lat)
    functors.append(idempotent_part(A, ring.idempotent(ids["C3"])))
    functors.append(box(A, functors[8]))
    rng = random.Random(99)
    functors += [random_functor(lat, rng) for _ in range(5)]
    for M in functors:
        lhs = M.res[(ids["C6"], ids["C3"])].matmul(M.ind[(ids["C6"], ids["C2"])])
        rhs = M.ind[(ids["C3"], ids["C1"])].matmul(M.res[(ids["C2"], ids["C1"])])
        assert lhs == rhs, M.name
    elapsed = time.monotonic() - t0
    report(10, elapsed, f"restriction-induction exchange holds on {len(functors)} functors over C6")
