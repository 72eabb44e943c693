"""The reduced axiom pass against the full check.

``check_axioms`` checks axiom 1 on generators, transitivity and equivariance
on cover pairs, multiplicativity of C on the edges off the word tree, and the
double-coset formula on maximal triples at class representatives; any
failure reruns the full check.  These tests hold it to the exhaustive path:
equal reports on the corruption fixtures, on a broken equivariance the
reduced triples cannot see, on the functors the ``verify`` benchmark builds,
on single planted faults off the cover pairs, generators and word tree
that the reduced pass runs over, on a gauge twist that breaks equivariance
alone and on a sign that breaks C_x = id alone; equal verdicts of the
formula alone on twisted constant functors, which satisfy axioms 1-3 by
construction and break the formula in many ways; and a derivation of every
triple from the maximal ones along the induction of the proof.  The formula,
which reads each double-coset term from one table per check, gives the
verdict of ``formula_reference`` (every term built afresh) at every triple.
Counts of matrix products and of built terms keep the reduction and the
table from eroding.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corruptions import all_corruptions, axioms_violated
from formula_reference import formula_holds_at
from qmackey.burnside import burnside_ring
from qmackey.groups import SubgroupLattice, corpus
from qmackey.linalg import LinAlgError, QMatrix, WModule
from qmackey.mackey import (
    _all_triples,
    _formula_identities,
    _maximal_triples,
    _structure_identities,
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
    assert formula_holds(M, _maximal_triples(lat)) and not formula_holds(M, _all_triples(lat))
    assert_same_reports(M)
    assert "double-coset" in axioms_violated(check_axioms(M))


@pytest.mark.parametrize("group", CORPUS)
def test_verify_functors_report_as_exhaustive(corpus_lattices, group):
    for M in _verify_family(corpus_lattices[group], group in SMALL):
        assert_same_reports(M)


def derived_triples(lat):
    """The triples at which the proof in ``check_axioms`` gets the formula from the maximal triples.

    A triple is derived when it is a conjugate of a derived one (by G, or
    within H on K or L), when K or L is H, or when it is (H, K, L) with K
    below a maximal K' and the formula is derived at (H, K', L) and at
    (K', K, K' n yLy^-1) for every y in K'\\H/L; or the mirror of that on L.
    """
    G = lat.group
    covers = set(lat.cover_pairs())
    maximal = {h: [k for k in lat.subgroups_of(h) if (h, k) in covers] for h in range(len(lat))}
    found = set()

    def add(h, k, l):
        ks = {lat.conjugate(x, k) for x in lat.elements(h)}
        ls = {lat.conjugate(x, l) for x in lat.elements(h)}
        for g in range(G.order):
            found.update((lat.conjugate(g, h), lat.conjugate(g, k2), lat.conjugate(g, l2)) for k2 in ks for l2 in ls)

    def through_k(h, k, l):
        return any(
            lat.leq(k, k2)
            and (h, k2, l) in found
            and all((k2, k, lat.meet(k2, lat.conjugate(y, l))) in found for y in lat.double_cosets(k2, l, h))
            for k2 in maximal[h]
        )

    def through_l(h, k, l):
        return any(
            lat.leq(l, l2)
            and (h, k, l2) in found
            and all((l2, lat.meet(l2, lat.conjugate(G.inv(y), k)), l) in found for y in lat.double_cosets(k, l2, h))
            for l2 in maximal[h]
        )

    for triple in _maximal_triples(lat):
        add(*triple)
    for h, k, l in _all_triples(lat):
        if h in (k, l):
            add(h, k, l)
    grown = True
    while grown:
        grown = False
        for h, k, l in _all_triples(lat):
            if (h, k, l) not in found and (through_k(h, k, l) or through_l(h, k, l)):
                add(h, k, l)
                grown = True
    return found


@pytest.mark.parametrize("group", TWIST_GROUPS)
def test_representative_triples_reach_every_triple(corpus_lattices, group):
    """Conjugation and the induction on |H| over maximal subgroups reach every triple
    from the maximal triples at class representatives, which are far fewer."""
    lat = corpus_lattices[group]
    assert derived_triples(lat) == set(_all_triples(lat))
    assert len(list(_maximal_triples(lat))) < len(set(_all_triples(lat))) / 4


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
    return all(holds for _, holds, _ in _formula_identities(M, triples))


def assert_reduction_agrees(M):
    lat = M.lattice
    assert all(holds for _, holds, _ in _structure_identities(M))
    assert formula_holds(M, _maximal_triples(lat)) == formula_holds(M, _all_triples(lat))
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
    assert not formula_holds(M, _maximal_triples(s4_lattice))
    assert_reduction_agrees(M)


@settings(derandomize=True, deadline=None, max_examples=36, database=None)
@given(
    group=st.sampled_from(TWIST_GROUPS),
    factors=st.lists(st.sampled_from([1, 1, 1, 1, 2, -1, Fraction(1, 2), 3]), min_size=11, max_size=11),
)
def test_random_twists_agree(corpus_lattices, group, factors):
    lat = corpus_lattices[group]
    assert_reduction_agrees(twisted_constant(lat, [n * c for n, c in zip(orders(lat), factors)]))


# -- single planted faults ------------------------------------------------------------


def _bump(mat, i, j, delta):
    """``mat`` with ``delta`` added at entry (i, j), taken modulo the shape."""
    i, j = i % mat.rows, j % mat.cols
    return mat + QMatrix([[delta if (r, c) == (i, j) else 0 for c in range(mat.cols)] for r in range(mat.rows)])


def _non_cover_map(lat, A, table, pick, i, j, delta):
    """R^H_L or I^H_L perturbed at one entry, for L < K < H (so L is not maximal in H)."""
    covers = set(lat.cover_pairs())
    pairs = [(h, l) for h in range(len(lat)) for l in lat.subgroups_of(h) if l != h and (h, l) not in covers]
    key = pairs[pick % len(pairs)]
    return replace(A, **{table: {**getattr(A, table), key: _bump(getattr(A, table)[key], i, j, delta)}})


def _off_generator_cgen(lat, A, pick, i, j, delta):
    """C_s at a level H whose own generators ``lat.gens(H)`` do not include s, perturbed at one entry."""
    G = lat.group
    keys = [(pos, h) for pos, s in enumerate(G.gens) for h in range(len(lat)) if s not in lat.gens(h)]
    key = keys[pick % len(keys)]
    return replace(A, cgen={**A.cgen, key: _bump(A.cgen[key], i, j, delta)})


def _off_tree_conj(lat, A, pick, i, j, delta):
    """C_{gs} at one level perturbed, for (g, s) an edge off the word tree.

    ``conj`` reads C_{gs} from the functor's conjugation cache, so the fault
    goes there, after every C_x of every level is in it; the other C's keep
    their values, and (c) at that edge compares the two sides directly.
    """
    G = lat.group
    M = replace(A)
    for g in range(G.order):
        for h in range(len(lat)):
            M.conj(g, h)
    edges = [
        (G.mul(g, s), h)
        for g in range(G.order)
        for pos, s in enumerate(G.gens)
        if G.word(G.mul(g, s)) != G.word(g) + (pos,)
        for h in range(len(lat))
    ]
    key = edges[pick % len(edges)]
    M._conj_cache[key] = _bump(M._conj_cache[key], i, j, delta)
    return M


@pytest.fixture(scope="module")
def burnside_functors(corpus_lattices):
    return {group: burnside_mackey(corpus_lattices[group]) for group in TWIST_GROUPS}


@settings(derandomize=True, deadline=None, max_examples=48, database=None)
@given(
    group=st.sampled_from(TWIST_GROUPS),
    fault=st.sampled_from(["res", "ind", "cgen", "conj"]),
    pick=st.integers(0, 10**6),
    i=st.integers(0, 50),
    j=st.integers(0, 50),
    delta=st.sampled_from([1, -1, Fraction(1, 2), 3]),
)
def test_planted_faults_report_as_exhaustive(corpus_lattices, burnside_functors, group, fault, pick, i, j, delta):
    """One entry of the Burnside functor changed: in R or I on a non-cover pair, in C_s at a
    level whose generators lack s, or in C_{gs} on an edge off the word tree."""
    lat, A = corpus_lattices[group], burnside_functors[group]
    if fault in ("res", "ind"):
        M = _non_cover_map(lat, A, fault, pick, i, j, delta)
    elif fault == "cgen":
        M = _off_generator_cgen(lat, A, pick, i, j, delta)
    else:
        M = _off_tree_conj(lat, A, pick, i, j, delta)
    assert not check_axioms(M, exhaustive=True).ok
    assert_same_reports(M)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(group=st.sampled_from(TWIST_GROUPS), pick=st.integers(0, 10**6), factor=st.sampled_from([2, -1, Fraction(1, 3)]))
def test_gauge_twists_report_as_exhaustive(corpus_lattices, group, pick, factor):
    """The constant functor with R^H_K = f(K)/f(H), I^H_K = |H:K| f(H)/f(K) and C = id,
    for f = 1 except at one subgroup.  Axioms 1 and 2 hold by construction;
    equivariance fails unless that subgroup is normal, and the formula may
    hold at every maximal triple, so only (d) sees the fault."""
    lat = corpus_lattices[group]
    f = [1] * len(lat)
    f[pick % len(lat)] = factor
    one = QMatrix.identity(1)
    M = build_functor(
        lat,
        [1] * len(lat),
        lambda h, k: QMatrix.scalar(1, Fraction(f[k]) / f[h]),
        lambda h, k: QMatrix.scalar(1, lat.index(k, h) * Fraction(f[h]) / f[k]),
        lambda pos, s, h: one,
    )
    assert check_axioms(M, exhaustive=True).ok == lat.is_normal(pick % len(lat))
    assert_same_reports(M)


@pytest.mark.parametrize("group", TWIST_GROUPS)
def test_top_level_signs_report_as_exhaustive(corpus_lattices, group):
    """Q at G and 0 below, with C_g the sign of g modulo an index-2 subgroup N.

    Every identity but C_x = id on M(G/G) holds, so the report names
    inner-conjugation alone, which (a) finds only if it reads every generator
    of G."""
    lat = corpus_lattices[group]
    G = lat.group
    dims = [int(h == lat.top) for h in range(len(lat))]
    for n in (h for h in range(len(lat)) if 2 * lat.order(h) == G.order):
        sign = [1 if g in lat.elements(n) else -1 for g in range(G.order)]
        M = build_functor(
            lat,
            dims,
            lambda h, k: QMatrix.identity(dims[h]) if h == k else QMatrix.zeros(dims[k], dims[h]),
            lambda h, k: QMatrix.identity(dims[h]) if h == k else QMatrix.zeros(dims[h], dims[k]),
            lambda pos, s, h: QMatrix.scalar(dims[h], sign[s]),
        )
        assert axioms_violated(check_axioms(M, exhaustive=True)) == {"inner-conjugation"}
        assert_same_reports(M)


# -- the term table against the referee ----------------------------------------------


def verdicts(results):
    """The verdicts in order, then ``"raises"`` if a product of mismatched shapes stopped them."""
    out = []
    try:
        for holds in results:
            out.append(holds)
    except LinAlgError:
        out.append("raises")
    return out


def assert_formula_matches_referee(M):
    """At every triple of both scopes the term table gives the verdict of building each term afresh."""
    for triples in (list(_all_triples(M.lattice)), list(_maximal_triples(M.lattice))):
        table = verdicts(holds for _, holds, _ in _formula_identities(M, triples))
        assert table == verdicts(formula_holds_at(M, *t) for t in triples)


@pytest.mark.parametrize("group", CORPUS)
def test_term_table_matches_referee_on_corruptions_and_verify_family(corpus_lattices, group):
    lat = corpus_lattices[group]
    for M in [M for M, _ in all_corruptions(lat)] + _verify_family(lat, group in SMALL):
        assert_formula_matches_referee(M)


def shared_terms(lat, fault):
    """(K, L, x, levels, K n xLx^-1, L n x^-1Kx) for each term with a lower ``fault`` map
    (C_x with x != 1, R^L_{L n x^-1Kx} or I^K_{K n xLx^-1} off the diagonal) that enters
    the formula at two or more levels H whose left side R^H_K I^H_L does not read that map."""
    G = lat.group
    levels = {}
    for h, k, l in _all_triples(lat):
        for x in lat.double_cosets(k, l, h):
            levels.setdefault((k, l, x), []).append(h)
    out = []
    for (k, l, x), hs in levels.items():
        upper = lat.meet(k, lat.conjugate(x, l))
        lower = lat.conjugate(G.inv(x), upper)
        if fault == "res":
            lowered, hs = lower != l, [h for h in hs if (h, k) != (l, lower)]
        elif fault == "ind":
            lowered, hs = upper != k, [h for h in hs if (h, l) != (k, upper)]
        else:
            lowered = x != G.identity
        if lowered and len(hs) > 1:
            out.append((k, l, x, hs, upper, lower))
    return out


@pytest.mark.parametrize("fault", ["conj", "res", "ind"])
@pytest.mark.parametrize("group", ("D8", "Q8", "A4", "S4"))  # S3 shares no term with a lower R or I
def test_fault_in_a_shared_term_fails_at_every_level(corpus_lattices, group, fault):
    """One map of the constant functor doubled, C_x, R^L_{L n x^-1Kx} or I^K_{K n xLx^-1},
    in a term that two levels H share: the formula fails at every such level
    whose left side does not read that map, as the referee says at every triple."""
    lat = corpus_lattices[group]
    G = lat.group
    C = constant(lat, 1)
    candidates = shared_terms(lat, fault)
    k, l, x, hs, upper, lower = candidates[len(candidates) // 2]
    if fault == "conj":
        M = replace(C)
        for g in range(G.order):
            for h in range(len(lat)):
                M.conj(g, h)
        M._conj_cache[(x, lower)] = QMatrix.scalar(1, 2)
    elif fault == "res":
        M = replace(C, res={**C.res, (l, lower): QMatrix.scalar(1, 2)})
    else:
        M = replace(C, ind={**C.ind, (k, upper): C.ind[(k, upper)].scale(2)})
    assert not any(formula_holds_at(M, h, k, l) for h in hs)
    assert not any(holds for _, holds, _ in _formula_identities(M, [(h, k, l) for h in hs]))
    assert_formula_matches_referee(M)


@pytest.mark.parametrize("group, terms", [("D8", 195), ("Q8", 67)])
def test_exhaustive_check_builds_each_term_once(corpus_lattices, monkeypatch, group, terms):
    """A machine-independent guard: one K n xLx^-1, so one term, per distinct (K, L, x) of every triple."""
    lat = corpus_lattices[group]
    A = burnside_mackey(lat)
    keys = [(k, l, x) for h, k, l in _all_triples(lat) for x in lat.double_cosets(k, l, h)]
    assert len(set(keys)) == terms < len(keys)
    meets = 0
    meet = SubgroupLattice.meet

    def counted(self, a, b):
        nonlocal meets
        meets += 1
        return meet(self, a, b)

    monkeypatch.setattr(SubgroupLattice, "meet", counted)
    assert check_axioms(A, exhaustive=True).ok
    assert meets == terms


def test_reduced_pass_makes_at_most_half_the_products(past_corpus_lattices, monkeypatch):
    """A machine-independent guard: matrix products of a passing check on C2^4."""
    A = burnside_mackey(past_corpus_lattices["C2^4"])
    calls = 0
    matmul = QMatrix.matmul

    def counted(self, other):
        nonlocal calls
        calls += 1
        return matmul(self, other)

    monkeypatch.setattr(QMatrix, "matmul", counted)
    products = []
    for exhaustive in (False, True):
        calls = 0
        assert check_axioms(replace(A), exhaustive=exhaustive).ok
        products.append(calls)
    reduced, full = products
    assert 0 < reduced <= full / 2
