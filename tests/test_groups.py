import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import NON_ASSOCIATIVE_LOOP, PAST_CORPUS
from lattice_reference import ReferenceLattice, orbits, quotient_group, stabilizer
from qmackey.groups import (
    _NOTATION_RE,
    _cycles,
    _image,
    CapExceeded,
    FiniteGroup,
    GroupError,
    GMap,
    GSet,
    SubgroupLattice,
    alternating,
    corpus,
    coset_gset,
    cyclic,
    dihedral,
    from_permutations,
    load_group,
    quaternion,
    subgroup_group,
    symmetric,
    trivial,
)

# ---------------------------------------------------------------------------
# oracles: slow but independent routes used to pin expected values
# ---------------------------------------------------------------------------


def oracle_subgroups(G):
    """All subgroups by closing every 1- and 2-element subset, then verifying
    the collection is stable under pairwise joins (which makes it complete:
    every subgroup is the join of its cyclic subgroups)."""
    found = {G.closure([])}
    for g in range(G.order):
        found.add(G.closure([g]))
        for h in range(g + 1, G.order):
            found.add(G.closure([g, h]))
    for a, b in itertools.combinations(sorted(found), 2):
        assert G.closure(set(a) | set(b)) in found
    return sorted(found, key=lambda t: (len(t), t))


def oracle_join_enumeration(G):
    """Every subgroup by joining each found subgroup with every cyclic one as element sets,
    until no join is new."""
    cyclics = sorted({G.closure([g]) for g in range(G.order)})
    found = set(cyclics)
    frontier = set(cyclics)
    while frontier:
        new = set()
        for s in frontier:
            for c in cyclics:
                j = G.closure(set(s) | set(c))
                if j not in found:
                    found.add(j)
                    new.add(j)
        frontier = new
    return sorted(found, key=lambda t: (len(t), t))


def oracle_mobius(lat, k, h):
    """Chain-count definition: sum over i of (-1)^i times the number of
    strictly increasing subgroup chains from K to H with i steps."""
    if k == h:
        return 1
    total = 0

    def walk(bottom, length):
        nonlocal total
        if bottom == k:
            total += (-1) ** length
            return
        for nxt in lat.subgroups_of(bottom):
            if nxt != bottom and lat.leq(k, nxt):
                walk(nxt, length + 1)

    walk(h, 0)
    return total


def oracle_double_coset_partition(G, K, L):
    """Partition every group element by its double coset K x L."""
    blocks = {}
    for x in range(G.order):
        dc = frozenset(G.mul(G.mul(k, x), l) for k in K for l in L)
        blocks[dc] = min(dc)
    return sorted(blocks.values())


def oracle_orbits(gset):
    """Orbit enumeration by repeated expansion from each unvisited point."""
    out = []
    left = set(range(gset.size))
    while left:
        p = min(left)
        orbit = {p}
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for g in range(gset.group.order):
                r = gset.act[g][q]
                if r not in orbit:
                    orbit.add(r)
                    frontier.append(r)
        out.append(tuple(sorted(orbit)))
        left -= orbit
    return out


# ---------------------------------------------------------------------------
# loading groups
# ---------------------------------------------------------------------------


class TestLoadGroup:
    def test_cyclic_table_of_order_6(self):
        table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
        G = load_group({"name": "C6", "order": 6, "table": table})
        assert G.order == 6
        assert G.name == "C6"
        assert G.identity == 0

    def test_single_transposition_generates_c2(self):
        G = load_group({"name": "C2", "generators": ["(1 2)"]})
        assert G.order == 2

    def test_transposition_and_4cycle_generate_order_24(self):
        G = load_group({"name": "S4", "degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]})
        assert G.order == 24
        assert G.elem_names[0] == "()"

    def test_non_associative_table_rejected(self):
        with pytest.raises(GroupError, match="not associative"):
            load_group({"name": "bad", "table": NON_ASSOCIATIVE_LOOP})

    def test_non_invertible_table_rejected(self):
        table = [[0, 1], [1, 1]]
        with pytest.raises(GroupError):
            load_group({"name": "bad", "table": table})

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            from_permutations(["(1 2)", "(1 2 3 4 5 6 7)"], cap=64)

    def test_malformed_spec(self):
        with pytest.raises(GroupError):
            load_group({"name": "nothing"})
        with pytest.raises(GroupError):
            load_group({"name": "bad", "generators": ["(1 2"]})

    @pytest.mark.parametrize("gen", ["(1 2)(2 3)", "(1 2)(1 3)", "(1 2 3)(3 4)", "(1)(1)"])
    def test_cycles_sharing_a_point_rejected(self, gen):
        with pytest.raises(GroupError, match=re.escape(f"bad cycle notation: {gen!r}")):
            load_group({"name": "bad", "generators": [gen]})

    def test_declared_order_must_match_table(self):
        table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(GroupError):
            load_group({"name": "bad", "order": 4, "table": table})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"table": [[0, 1.7], [1, 0]]}, "rows of integers"),
            ({"table": [[0, 1.0], [1, 0]]}, "rows of integers"),
            ({"table": [[0, True], [True, 0]]}, "rows of integers"),
            ({"table": [[0, "1"], ["1", 0]]}, "rows of integers"),
            ({"table": [[0, None], [1, 0]]}, "rows of integers"),
            ({"table": [[0, 1], 7]}, "rows of integers"),
            ({"table": "0110"}, "rows of integers"),
            ({"order": 2.0, "table": [[0, 1], [1, 0]]}, "order must be an integer"),
            ({"order": True, "table": [[0]]}, "order must be an integer"),
            ({"order": "2", "table": [[0, 1], [1, 0]]}, "order must be an integer"),
            ({"generators": "(1 2)"}, "list of cycle strings"),
            ({"degree": 3, "generators": [1, 2]}, "list of cycle strings"),
            ({"generators": [["(1 2)"]]}, "list of cycle strings"),
            ({"degree": "5", "generators": ["(1 2)", "(1 2 3)"]}, "degree must be an integer"),
            ({"degree": True, "generators": ["(1 2)"]}, "degree must be an integer"),
            ({"degree": 3.0, "generators": ["(1 2)"]}, "degree must be an integer"),
            ({"degree": None, "generators": ["(1 2)"]}, "degree must be an integer"),
        ],
    )
    def test_json_types_are_not_coerced(self, spec, message):
        with pytest.raises(GroupError, match=message):
            load_group({"name": "bad", **spec})

    @pytest.mark.parametrize("degree, gens, top", [(-3, ["()"], 0), (1, ["(1 2 3)"], 3), (4, ["(1 2)", "(3 5)"], 5)])
    def test_degree_bounds_the_points(self, degree, gens, top):
        with pytest.raises(GroupError, match=f"smaller than the largest point {top}"):
            load_group({"name": "bad", "degree": degree, "generators": gens})

    @pytest.mark.parametrize(
        "spec",
        [
            {"degree": 100000, "generators": ["(1 2)", "(1 2 3)"]},
            {"generators": ["(1 2)", "(1 2 300000)"]},
            {"degree": 9, "generators": ["(5 9)", "(5 9 7)"]},
        ],
    )
    def test_relabelled_points_give_the_same_table(self, spec):
        S3 = load_group({"degree": 3, "generators": ["(1 2)", "(1 2 3)"]})
        G = load_group(spec)
        assert (G._mul, G.gens) == (S3._mul, S3.gens)
        assert G.elem_names[G.gens[1]] == spec["generators"][1]


class TestCycleNotation:
    """1-based cycle notation read into 0-based image tuples on a given number of points."""

    def test_parse_roundtrip(self):
        img = _image(_cycles("(1 2)(3 4 5)"), 6)
        assert img == (1, 0, 3, 4, 2, 5)

    def test_fixed_points_omitted(self):
        assert _image(_cycles("(2 3)"), 4) == (0, 2, 1, 3)

    def test_identity(self):
        assert _image(_cycles("()"), 3) == (0, 1, 2)

    def test_rejects_repeats(self):
        with pytest.raises(GroupError):
            _cycles("(1 1 2)")
        with pytest.raises(GroupError):
            load_group({"degree": 2, "generators": ["(1 1 2)"]})

    def test_long_bad_string_fails_in_linear_time(self):
        """A pattern with two adjacent ``\\s*`` once backtracked exponentially here, hence the subprocess timeout."""
        code = "from qmackey.groups import GroupError, _cycles\n"
        code += "try:\n    _cycles('(1 2)  ' * 5000 + ')')\nexcept GroupError:\n    print('rejected')\n"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rejected\n", "")

    def test_pattern_agrees_with_the_backtracking_one(self):
        """The validating pattern accepts exactly what the old ``(\\s*\\([^()]*\\)\\s*)+`` accepted."""
        old = re.compile(r"(\s*\([^()]*\)\s*)+")
        rng = random.Random(5)
        for _ in range(20000):
            text = "".join(rng.choice("() 12,\tx") for _ in range(rng.randint(0, 12))).strip()
            assert bool(_NOTATION_RE.fullmatch(text)) == bool(old.fullmatch(text)), text


# ---------------------------------------------------------------------------
# subgroup lattice
# ---------------------------------------------------------------------------


class TestNamedFamilies:
    """Members of the named families that the corpus does not reach."""

    def test_small_alternating_and_symmetric_groups(self):
        assert alternating(3).order == 3
        assert [(G.order, G.gens) for G in (alternating(2), symmetric(1))] == [(1, ())] * 2

    def test_a5_has_59_subgroups(self):
        G = alternating(5)
        assert G.order == 60 and len(SubgroupLattice(G)) == 59

    def test_odd_dihedral_order_raises(self):
        with pytest.raises(GroupError, match="must be even"):
            dihedral(7)

    def test_every_even_dihedral_order_is_reached(self):
        """The polygon on m <= 2 vertices is acted on unfaithfully, so D2 and D4 act on pairs of points instead."""
        for n in range(2, 65, 2):
            G = dihedral(n)
            assert G.order == n and G.is_abelian == (n <= 4)

    def test_identity_generators_of_the_trivial_group_are_dropped(self):
        G = load_group({"name": "one", "degree": 1, "generators": ["()"]})
        assert (G.order, G.gens, G.word(G.identity)) == (1, (), ())


class TestLattice:
    def test_c6_has_four_subgroups(self, c6_lattice):
        assert len(c6_lattice) == 4
        assert len(c6_lattice.classes) == 4
        assert c6_lattice.class_names == ("C1", "C2", "C3", "C6")

    def test_trivial_group(self):
        lat = SubgroupLattice(trivial())
        assert len(lat) == 1
        assert lat.mobius_to(0)[0] == 1

    def test_s4_subgroup_count_matches_oracle(self, s4_lattice):
        oracle = oracle_subgroups(s4_lattice.group)
        assert [s.elements for s in s4_lattice.subgroups] == oracle
        assert len(s4_lattice) == 30
        assert len(s4_lattice.classes) == 11

    @pytest.mark.parametrize("name", ["C8", "S3", "D8", "Q8", "A4", "D12"])
    def test_corpus_enumeration_matches_oracle(self, corpus_lattices, name):
        lat = corpus_lattices[name]
        assert [s.elements for s in lat.subgroups] == oracle_subgroups(lat.group)

    @pytest.mark.parametrize("name", sorted(PAST_CORPUS))
    def test_enumeration_past_the_corpus(self, past_corpus_lattices, name):
        """Rank-3 and rank-4 subgroups, which no 2-element subset generates, are found too."""
        lat = past_corpus_lattices[name]
        assert len(lat) == PAST_CORPUS[name][1]
        assert [s.elements for s in lat.subgroups] == oracle_join_enumeration(lat.group)

    def test_stored_generators_generate(self, corpus_lattices, past_corpus_lattices):
        """``gens(H)`` generates H, for every subgroup of the corpus and past it."""
        for lat in [*corpus_lattices.values(), *past_corpus_lattices.values()]:
            for h in range(len(lat)):
                assert lat.group.closure(lat.gens(h)) == lat.elements(h)

    @pytest.mark.parametrize(
        "G, cap, joins",
        [
            # one seed per S-conjugacy orbit alone makes 765 joins of C2^4
            (from_permutations(PAST_CORPUS["C2^4"][0]), 64, 240),
            # C2 v C67 has index 67 over C2, past the default cap, and answers the seed <1> as well (7 joins without the skip)
            (FiniteGroup([[(i + j) % 134 for j in range(134)] for i in range(134)], cap=200), 200, 5),
        ],
        ids=["C2^4", "C134"],
    )
    def test_joins_of_prime_index_answer_later_seeds(self, monkeypatch, G, cap, joins):
        """A seed inside a join of prime index over S is not joined again, and the subgroups keep their generators."""
        calls, join = [], SubgroupLattice._join
        monkeypatch.setattr(SubgroupLattice, "_join", lambda self, s, gens: calls.append(gens) or join(self, s, gens))
        lat, ref = SubgroupLattice(G, cap=cap), ReferenceLattice(G)
        assert len(calls) == joins
        assert [(s.elements, s.gens) for s in lat.subgroups] == list(zip(ref.elements, ref.gens))
        assert (lat._down, lat._above) == (ref.down, [frozenset(up) for up in ref.up])

    def test_subgroups_sorted_and_canonical(self, s4_lattice):
        orders = [s.order for s in s4_lattice.subgroups]
        assert orders == sorted(orders)
        for cls in s4_lattice.classes:
            rep = s4_lattice.subgroups[cls[0]].elements
            assert all(rep <= s4_lattice.subgroups[m].elements for m in cls)

    def test_conjugation_permutes_subgroups(self, s4_lattice):
        n = len(s4_lattice)
        for g in range(s4_lattice.group.order):
            row = s4_lattice.conj_table[g]
            assert sorted(row) == list(range(n))
            # conjugation preserves inclusion
            for k in range(n):
                for h in range(n):
                    if s4_lattice.leq(k, h):
                        assert s4_lattice.leq(row[k], row[h])

    def test_normalizer_contains_subgroup(self, corpus_lattices):
        for lat in corpus_lattices.values():
            for h in range(len(lat)):
                nid = lat.normalizers[h]
                assert lat.leq(h, nid)

    def test_weyl_order(self, corpus_lattices):
        for lat in corpus_lattices.values():
            for h in range(len(lat)):
                w = lat.weyl(h)
                assert w.group.order == lat.order(lat.normalizers[h]) // lat.order(h)
                # reps project onto each Weyl element
                for i, r in enumerate(w.reps):
                    assert w.proj[r] == i


class TestMobius:
    @pytest.mark.parametrize("name", ["C6", "C8", "S3", "D8", "Q8", "A4", "S4"])
    def test_recursion_matches_chain_count(self, corpus_lattices, name):
        lat = corpus_lattices[name]
        for h in range(len(lat)):
            for k in lat.subgroups_of(h):
                assert lat.mobius_to(h)[k] == oracle_mobius(lat, k, h)

    def test_defining_recursion(self, s4_lattice):
        lat = s4_lattice
        for h in range(len(lat)):
            for k in lat.subgroups_of(h):
                total = sum(
                    lat.mobius_to(h)[l]
                    for l in lat.subgroups_of(h)
                    if lat.leq(k, l)
                )
                assert total == (1 if k == h else 0)

    def test_c6_values(self, c6_lattice):
        lat = c6_lattice
        ids = {lat.name(h): h for h in range(4)}
        assert lat.mobius_to(ids["C6"])[ids["C6"]] == 1
        assert lat.mobius_to(ids["C6"])[ids["C3"]] == -1
        assert lat.mobius_to(ids["C6"])[ids["C2"]] == -1
        assert lat.mobius_to(ids["C6"])[ids["C1"]] == 1


# ---------------------------------------------------------------------------
# cosets
# ---------------------------------------------------------------------------


class TestCosets:
    def test_double_cosets_of_trivial_in_c2(self, c2_lattice):
        reps = c2_lattice.double_cosets(0, 0)
        assert reps == (0, 1)

    def test_full_group_double_coset(self, s4_lattice):
        top = s4_lattice.top
        assert s4_lattice.double_cosets(top, top) == (s4_lattice.group.identity,)

    def test_s4_transposition_double_cosets(self, s4_lattice):
        G = s4_lattice.group
        k = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
        reps = s4_lattice.double_cosets(k, k)
        assert len(reps) == 7
        K = s4_lattice.elements(k)
        assert list(reps) == oracle_double_coset_partition(G, K, K)

    def test_ambient_by_position_or_keyword(self, s4_lattice):
        """Memoized queries answer the same however the optional ambient is passed."""
        lat = s4_lattice
        k = lat.bottom
        amb = lat.normalizers[1]
        assert lat.cosets(k, ambient=amb) == lat.cosets(k, amb) != lat.cosets(k)
        assert lat.double_cosets(k, 1, ambient=lat.top) == lat.double_cosets(k, 1) == lat.double_cosets(k, 1, None)
        assert lat.fixed_cosets(k, 1, ambient=amb) == lat.fixed_cosets(k, 1, amb)

    def test_coset_of_is_least_member(self, corpus_lattices):
        for lat in corpus_lattices.values():
            G = lat.group
            for k in range(len(lat)):
                for g in range(G.order):
                    assert lat.coset_of(g, k) == min(G.mul(g, x) for x in lat.elements(k))

    def test_double_cosets_cover_group(self, corpus_lattices):
        for lat in corpus_lattices.values():
            G = lat.group
            subs = range(len(lat))
            for k in subs:
                for l in subs:
                    reps = lat.double_cosets(k, l)
                    K, L = lat.elements(k), lat.elements(l)
                    sizes = 0
                    all_elems = set()
                    for x in reps:
                        dc = {G.mul(G.mul(a, x), b) for a in K for b in L}
                        sizes += len(dc)
                        all_elems |= dc
                    assert sizes == G.order
                    assert len(all_elems) == G.order

    def test_fixed_cosets_s4_example(self, s4_lattice):
        G = s4_lattice.group
        h = s4_lattice.subgroup_id(
            G.closure([G.elem_names.index("(1 2)"), G.elem_names.index("(3 4)")])
        )
        k = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
        fixed = s4_lattice.fixed_cosets(h, k)
        assert len(fixed) == 2
        # the two fixed cosets are H itself and (1 4)(2 3)H
        first = {G.mul(fixed[0], x) for x in s4_lattice.elements(h)}
        second = {G.mul(fixed[1], x) for x in s4_lattice.elements(h)}
        assert G.identity in first
        assert G.elem_names.index("(1 4)(2 3)") in second

    def test_fixed_cosets_top(self, s4_lattice):
        for h in range(len(s4_lattice)):
            assert len(s4_lattice.fixed_cosets(s4_lattice.top, h)) == 1

    def test_c6_c3_has_no_c2_fixed_cosets(self, c6_lattice):
        ids = {c6_lattice.name(h): h for h in range(4)}
        assert c6_lattice.fixed_cosets(ids["C3"], ids["C2"]) == ()

    def test_fixed_nonempty_iff_subconjugate(self, corpus_lattices):
        for lat in corpus_lattices.values():
            for k in range(len(lat)):
                for h in range(len(lat)):
                    nonempty = len(lat.fixed_cosets(k, h)) > 0
                    assert nonempty == lat.is_subconjugate(h, k)

    @pytest.mark.parametrize("name", [*corpus(), "C2^4", "S3xS3"])
    def test_cosets_below_every_ambient(self, corpus_lattices, past_corpus_lattices, name):
        """Within every ambient H and for all K, L <= H: ``cosets``, ``double_cosets`` and
        ``fixed_cosets`` against the least members of element sets multiplied out, and
        ``weyl(h)`` against a standalone normalizer divided by H."""
        lat = {**corpus_lattices, **past_corpus_lattices}[name]
        G = lat.group
        for h in range(len(lat)):
            H = lat.elements(h)
            below = lat.subgroups_of(h)
            for k in below:
                K = lat.elements(k)
                left = {min(G.mul(a, x) for x in K) for a in H}
                assert lat.cosets(k, h) == tuple(sorted(left))
                for l in below:
                    L = lat.elements(l)
                    seen, reps = set(), set()
                    for x in H:
                        if x not in seen:
                            block = {G.mul(G.mul(a, x), b) for a in K for b in L}
                            reps.add(min(block))
                            seen |= block
                    assert lat.double_cosets(k, l, h) == tuple(sorted(reps))
                    kset = set(K)
                    fixed = [r for r in sorted(left) if all(G.mul(G.mul(G.inv(r), x), r) in kset for x in L)]
                    assert lat.fixed_cosets(k, l, h) == tuple(fixed)
            N, to_parent = subgroup_group(G, lat.elements(lat.normalizers[h]))
            W, proj = quotient_group(N, tuple(to_parent.index(x) for x in H))
            w = lat.weyl(h)
            assert (w.group._mul, w.group.elem_names, w.group.gens) == (W._mul, W.elem_names, W.gens)
            assert w.proj == {to_parent[i]: proj[i] for i in range(N.order)}
            assert w.reps == tuple(min(g for g in to_parent if w.proj[g] == i) for i in range(W.order))

    def test_index(self, c6_lattice):
        ids = {c6_lattice.name(h): h for h in range(4)}
        assert c6_lattice.index(ids["C2"], ids["C6"]) == 3

    def test_conjugate_transposition(self, s4_lattice):
        G = s4_lattice.group
        k12 = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
        k23 = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(2 3)")]))
        g13 = G.elem_names.index("(1 3)")
        assert s4_lattice.conjugate(g13, k12) == k23

    def test_coset_count(self, s4_lattice):
        for h in range(len(s4_lattice)):
            reps = s4_lattice.cosets(h)
            assert len(reps) == s4_lattice.group.order // s4_lattice.order(h)


# ---------------------------------------------------------------------------
# G-sets
# ---------------------------------------------------------------------------


class TestGSets:
    def test_orbit_decomposition_of_restricted_cosets(self, s4_lattice):
        from qmackey.groups import restrict_gset

        G = s4_lattice.group
        k = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
        h_elems = G.closure([G.elem_names.index("(1 2)"), G.elem_names.index("(3 4)")])
        X = coset_gset(G, s4_lattice.elements(k))
        assert X.size == 12
        H, to_parent = subgroup_group(G, h_elems)
        XH = restrict_gset(X, H, to_parent)
        found = orbits(XH)
        assert found == oracle_orbits(XH)
        assert sum(len(o) for o in found) == 12

    def test_stabilizer_of_identity_coset(self, s4_lattice):
        for h in (0, 3, len(s4_lattice) - 1):
            X = coset_gset(s4_lattice.group, s4_lattice.elements(h))
            assert stabilizer(X, 0) == s4_lattice.elements(h)

    def test_invalid_action_rejected(self):
        G = cyclic(2)
        with pytest.raises(GroupError):
            GSet(G, ((0, 1), (0, 1, 2)))

    def test_map_equivariance_on_generators_decides_every_element(self):
        """Of the 3^6 maps S3 -> S3/C2, ``GMap`` accepts exactly those equivariant under every
        element, the 3 maps g -> g y, and refuses each other one as not equivariant."""
        G = symmetric(3)
        X, Y = coset_gset(G, (G.identity,)), coset_gset(G, G.closure([G.elem_names.index("(1 2)")]))
        accepted = []
        for points in itertools.product(range(Y.size), repeat=X.size):
            every = all(points[X.act[g][p]] == Y.act[g][points[p]] for g in range(G.order) for p in range(X.size))
            if every:
                accepted.append(GMap(X, Y, points).points)
            else:
                with pytest.raises(GroupError, match="map is not equivariant"):
                    GMap(X, Y, points)
        assert accepted == sorted(tuple(Y.act[g][y] for g in range(G.order)) for y in range(Y.size))


# ---------------------------------------------------------------------------
# quotients and derived lattices
# ---------------------------------------------------------------------------


class TestQuotients:
    def test_quotient_by_trivial_is_same_table(self):
        G = symmetric(3)
        Q, proj = quotient_group(G, (G.identity,))
        assert Q.order == G.order
        assert list(proj) == list(range(G.order))

    def test_non_normal_rejected(self, s4_lattice):
        G = s4_lattice.group
        k = G.closure([G.elem_names.index("(1 2)")])
        with pytest.raises(GroupError):
            quotient_group(G, k)

    def test_s4_mod_klein_is_s3(self, s4_lattice):
        G = s4_lattice.group
        v4 = G.closure(
            [G.elem_names.index("(1 2)(3 4)"), G.elem_names.index("(1 3)(2 4)")]
        )
        Q, proj = quotient_group(G, v4)
        assert Q.order == 6
        assert not Q.is_abelian

    def test_quotient_lattice_is_quotient_group(self, corpus_lattices):
        for lat in corpus_lattices.values():
            G = lat.group
            for n in range(len(lat)):
                if not lat.is_normal(n):
                    with pytest.raises(GroupError, match="not normal"):
                        lat.quotient_lattice(n)
                    continue
                Q, proj = quotient_group(G, lat.elements(n), name=f"{G.name}/{lat.name(n)}")
                view = lat.quotient_lattice(n)
                W = view.lattice.group
                assert (W.name, W._mul, W.elem_names, W.gens) == (Q.name, Q._mul, Q.elem_names, Q.gens)
                assert (view.proj, view.reps) == (proj, lat.cosets(n))
                for local_id, s in enumerate(view.lattice.subgroups):
                    assert lat.elements(view.parent_sub(local_id)) == tuple(g for g in range(G.order) if proj[g] in s.elements)

    def test_sub_lattice_view(self, s4_lattice):
        G = s4_lattice.group
        h = s4_lattice.subgroup_id(G.closure([G.elem_names.index("(1 2 3)"), G.elem_names.index("(1 2)")]))
        view = s4_lattice.sub_lattice(h)
        assert view.lattice.group.order == 6
        assert len(view.lattice) == 6
        for local_id in range(len(view.lattice)):
            parent = view.parent_sub(local_id)
            assert s4_lattice.order(parent) == view.lattice.order(local_id)

    def test_quotient_lattice_view(self, s4_lattice):
        G = s4_lattice.group
        v4 = s4_lattice.subgroup_id(
            G.closure([G.elem_names.index("(1 2)(3 4)"), G.elem_names.index("(1 3)(2 4)")])
        )
        view = s4_lattice.quotient_lattice(v4)
        assert view.lattice.group.order == 6
        for local_id in range(len(view.lattice)):
            parent = view.parent_sub(local_id)
            assert s4_lattice.leq(v4, parent)
