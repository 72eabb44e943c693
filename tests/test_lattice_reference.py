"""Groups and subgroup lattices built from generators, against the element-by-element referee.

``groups.from_permutations`` composes only the generator columns,
``FiniteGroup`` tests associativity on generators only, and
``SubgroupLattice`` joins one cyclic subgroup per conjugacy orbit, by cosets,
conjugates along words and answers inclusion from sets.  Every field must be
equal to what ``lattice_reference`` computes directly, element by element,
and the associativity verdict must be the exhaustive loop's, as must
``GSet``'s verdict on the action law.
"""

import random

import pytest

from conftest import LARGE_GROUPS, PAST_CORPUS
from lattice_reference import ReferenceLattice, action_violation, associativity_violation, permutation_table
from qmackey.groups import FiniteGroup, GroupError, GSet, SubgroupLattice, corpus, coset_gset, from_permutations

PERMUTATION_GROUPS = {name: gens for name, (gens, _) in PAST_CORPUS.items()} | {"A5": ["(1 2 3)", "(1 2 3 4 5)"]} | LARGE_GROUPS


def relabel_points(gens: list[str], rng: random.Random) -> list[str]:
    """The same generators with their points renamed by a random injection into 1..2*degree."""
    points = sorted({int(p) for g in gens for p in g.replace("(", " ").replace(")", " ").split()})
    image = dict(zip(points, rng.sample(range(1, 2 * max(points) + 1), len(points))))

    def rename(cycles: str) -> str:
        return "".join(
            "(" + " ".join(str(image[int(p)]) for p in body.split()) + ")" for body in cycles.strip("()").split(")(")
        )

    return [rename(g) for g in gens]


def relabel_elements(G: FiniteGroup, rng: random.Random) -> FiniteGroup:
    """An isomorphic copy of G on the same numbers, permuted at random."""
    pi = list(range(G.order))
    rng.shuffle(pi)
    table = [[0] * G.order for _ in range(G.order)]
    for a in range(G.order):
        for b in range(G.order):
            table[pi[a]][pi[b]] = pi[G.mul(a, b)]
    return FiniteGroup(table, name=G.name)


def assert_lattice_matches(G: FiniteGroup) -> None:
    lat, ref = SubgroupLattice(G), ReferenceLattice(G)
    assert [s.elements for s in lat.subgroups] == ref.elements
    assert [lat.gens(h) for h in range(len(lat))] == ref.gens
    assert lat.conj_table == ref.conj_table
    assert (lat._down, lat._up) == (ref.down, ref.up)
    assert all(lat.leq(k, h) == ref.leq(k, h) for k in range(len(lat)) for h in range(len(lat)))
    assert (lat.classes, lat.normalizers) == (ref.classes, ref.normalizers)
    assert (lat.class_names, lat.subgroup_names) == (ref.class_names, ref.subgroup_names)
    assert lat.cover_pairs() == ref.cover_pairs()
    mu = ref.mobius_to(lat.top)
    assert [lat.mobius(k, lat.top) for k in lat.subgroups_of(lat.top)] == [mu[k] for k in lat.subgroups_of(lat.top)]


@pytest.mark.parametrize("name", [*corpus(), "C2^4", "S3xS3", "C2xS4", "C2^5", "D8xD8"])
def test_mobius_sweep_matches_referee_at_every_subgroup(name):
    """``mobius_to(h)``, one sweep with zero values skipped, against the recursion over each whole interval."""
    G = corpus()[name] if name in corpus() else from_permutations(PERMUTATION_GROUPS[name], name=name)
    lat, ref = SubgroupLattice(G), ReferenceLattice(G)
    for h in range(len(lat)):
        mu = ref.mobius_to(h)
        assert lat.mobius_to(h) == {k: mu[k] for k in lat.subgroups_of(h)}


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name", list(corpus()))
def test_corpus_lattice_matches_referee(name, relabel):
    G = corpus()[name]
    assert_lattice_matches(relabel_elements(G, random.Random(name)) if relabel else G)


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name", list(PERMUTATION_GROUPS))
def test_permutation_group_and_lattice_match_referee(name, relabel):
    gens = PERMUTATION_GROUPS[name]
    if relabel:
        gens = relabel_points(gens, random.Random(name))
    G = from_permutations(gens, name=name)
    table, names, gen_ids = permutation_table(gens)
    assert [list(row) for row in G._mul] == table
    assert G.elem_names == names
    composed = FiniteGroup(table, elem_names=names, gens=gen_ids)
    assert (G.gens, G.words) == (composed.gens, composed.words)
    assert_lattice_matches(G)


# ---------------------------------------------------------------------------
# Light's test against the exhaustive loop
# ---------------------------------------------------------------------------


def random_loop(n: int, rng: random.Random) -> list[list[int]]:
    """A random Latin square on 0..n-1 with identity 0 and two-sided inverses (a random involution)."""
    others = rng.sample(range(1, n), n - 1)
    inv = list(range(n))
    for a, b in zip(others[0::2], others[1::2]):
        inv[a], inv[b] = b, a
    table = [[None] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = table[x][0] = x
        table[x][inv[x]] = 0
    cells = [(a, b) for a in range(1, n) for b in range(1, n) if table[a][b] is None]

    def fill(i: int) -> bool:
        if i == len(cells):
            return True
        a, b = cells[i]
        free = [v for v in range(1, n) if v not in table[a] and all(row[b] != v for row in table)]
        for v in rng.sample(free, len(free)):
            table[a][b] = v
            if fill(i + 1):
                return True
        table[a][b] = None
        return False

    assert fill(0)
    return table


def one_entry_corruptions(rng: random.Random, per_group: int):
    for G in corpus().values():
        for _ in range(per_group):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            table = [list(row) for row in G._mul]
            table[a][b] = rng.choice([v for v in range(G.order) if v != table[a][b]])
            yield table


def unchecked_group(table) -> FiniteGroup:
    """``FiniteGroup(table)`` with Light's test switched off, so that a loop that fails it still shows its generators."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteGroup, "_check_associativity", lambda self: None)
        return FiniteGroup(table)


def light_verdict(table) -> tuple[int, int, int] | None:
    """None when ``FiniteGroup`` accepts the table, else the triple it reports; identity and inverses must exist."""
    try:
        FiniteGroup(table)
    except GroupError as exc:
        assert "not associative" in str(exc)
        return tuple(int(x) for x in str(exc).rsplit("(", 1)[1].rstrip(")").split(","))
    return None


def test_light_test_agrees_with_exhaustive_loop():
    rng = random.Random(20)
    tables = [random_loop(n, rng) for n in range(4, 9) for _ in range(60)]
    tables += [[list(row) for row in relabel_elements(G, rng)._mul] for G in corpus().values()]
    tables += list(one_entry_corruptions(rng, 30))
    verdicts = {True: 0, False: 0}
    for table in tables:
        try:
            gens = unchecked_group(table).gens
        except GroupError:
            continue  # no identity or no two-sided inverse: rejected before either test
        violation = light_verdict(table)
        assert (violation is None) == (associativity_violation(table) is None)
        verdicts[violation is None] += 1
        if violation is not None:
            # the least failing (a, s, c), a first, then s in generator order, then c
            a, s, c = violation
            assert s in gens and table[table[a][s]][c] != table[a][table[s][c]]
            first = next(
                (x, t, y)
                for x in range(len(table))
                for t in gens
                for y in range(len(table))
                if table[table[x][t]][y] != table[x][table[t][y]]
            )
            assert violation == first
    assert verdicts[True] >= 30 and verdicts[False] >= 200


def test_reported_triple_names_a_generator():
    # an order-7 loop with generators (1, 3): the exhaustive loop first fails at (1,2,3), with 2 no generator
    table = [
        [0, 1, 2, 3, 4, 5, 6],
        [1, 2, 0, 4, 5, 6, 3],
        [2, 0, 1, 5, 6, 3, 4],
        [3, 6, 4, 2, 1, 0, 5],
        [4, 5, 3, 6, 2, 1, 0],
        [5, 4, 6, 0, 3, 2, 1],
        [6, 3, 5, 1, 0, 4, 2],
    ]
    assert unchecked_group(table).gens == (1, 3)
    assert associativity_violation(table) == (1, 2, 3)
    with pytest.raises(GroupError, match=r"^table is not associative at \(1,3,1\)$"):
        FiniteGroup(table)


def corrupted_actions(G: FiniteGroup, act, rng: random.Random):
    """Two rows of non-generators swapped, and one row composed with a wrong permutation, twice each."""
    others = [g for g in range(G.order) if g != G.identity and g not in G.gens]
    pairs = [(a, b) for a in others for b in others if a < b and act[a] != act[b]]
    for a, b in rng.sample(pairs, min(2, len(pairs))):
        rows = list(act)
        rows[a], rows[b] = rows[b], rows[a]
        yield tuple(rows)
    if len(act[0]) > 1:
        for _ in range(2):
            g = rng.choice([g for g in range(G.order) if g != G.identity])
            wrong = list(range(len(act[0])))
            while wrong == sorted(wrong):
                rng.shuffle(wrong)
            rows = list(act)
            rows[g] = tuple(act[g][p] for p in wrong)
            yield tuple(rows)


def gset_accepts(G: FiniteGroup, act) -> bool:
    try:
        GSet(G, act)
    except GroupError as exc:
        assert str(exc) == "not a group action"
        return False
    return True


def test_generator_action_check_agrees_with_all_pairs():
    rng = random.Random(22)
    verdicts = {True: 0, False: 0}
    for G in corpus().values():
        lat = SubgroupLattice(G)
        for k in range(len(lat)):
            act = coset_gset(G, lat.elements(k)).act
            assert action_violation(G, act) is None
            for bad in corrupted_actions(G, act, rng):
                accepted = gset_accepts(G, bad)
                assert accepted == (action_violation(G, bad) is None)
                verdicts[accepted] += 1
    assert verdicts[False] >= 200
