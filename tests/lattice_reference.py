"""The element-by-element group and lattice construction that ``qmackey.groups`` replaced.

The package builds a permutation group's table from its generator columns,
tests associativity on generators only (Light's test), joins each subgroup
with one cyclic subgroup per conjugacy orbit, conjugates along words and
answers inclusion from one set per subgroup.  These are the direct routes,
kept as referees for it:

- ``permutation_table(generators)``: every product composed as permutations;
- ``associativity_violation(table)``: the exhaustive loop over all triples;
- ``ReferenceLattice(G)``: every join by ``closure``, conjugation of every
  subgroup by every element, inclusion by scanning tuples, and the classes,
  normalizers, names, cover pairs and Mobius values read off those;
- ``action_violation(G, act)``: the G-set action law on all pairs of
  elements, where ``GSet`` checks it on generators only;
- ``quotient_group(G, N)``: G/N from the cosets of N, where
  ``SubgroupLattice.quotient_lattice`` reads W_G(N) = G/N.

Nothing in the package imports this module.
"""

from __future__ import annotations

from qmackey.groups import FiniteGroup, GroupError, _compose, _cycles, _image, _least_members, cycle_string


def permutation_table(generators: list[str]) -> tuple[list[list[int]], list[str], list[int]]:
    """(table, element names, generator ids) of the breadth-first closure, every product composed."""
    gen_cycles = [_cycles(g) for g in generators]
    points = sorted({p for cycles in gen_cycles for cyc in cycles for p in cyc})
    rank = {p: i for i, p in enumerate(points, 1)}
    gen_imgs = [_image([[rank[p] for p in cyc] for cyc in cycles], len(points)) for cycles in gen_cycles]
    ident = tuple(range(len(points)))
    elems = [ident]
    index = {ident: 0}
    for p in elems:
        for g in gen_imgs:
            q = _compose(p, g)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    table = [[index[_compose(p, q)] for q in elems] for p in elems]
    return table, [cycle_string(p, points) for p in elems], [index[g] for g in gen_imgs]


def associativity_violation(table) -> tuple[int, int, int] | None:
    """The first triple (a, b, c) with (ab)c != a(bc), in lexicographic order, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def action_violation(G, act) -> tuple[int, int] | None:
    """The first pair (g, h) with act(gh) != act(g) act(h), in lexicographic order, or None."""
    for g in range(G.order):
        for h in range(G.order):
            if act[G.mul(g, h)] != tuple(act[g][p] for p in act[h]):
                return (g, h)
    return None


def quotient_group(G: FiniteGroup, N: tuple[int, ...], name: str = "Q") -> tuple[FiniteGroup, tuple[int, ...]]:
    """(G/N, proj) with ``proj[g]`` the element of the coset gN, cosets numbered by their least member.

    Raises GroupError if N is not normal.
    """
    nset = set(N)
    for g in range(G.order):
        if any(G.conj(g, x) not in nset for x in N):
            raise GroupError("subgroup is not normal; cannot form quotient")
    least = _least_members(G, N)
    reps = sorted(set(least))
    pos = {r: i for i, r in enumerate(reps)}
    proj = tuple(pos[r] for r in least)
    table = [[proj[G.mul(a, b)] for b in reps] for a in reps]
    names = [G.elem_name(r) + "N" for r in reps]
    return FiniteGroup(table, name=name, elem_names=names), proj


class ReferenceLattice:
    """Every subgroup of G with the fields ``SubgroupLattice`` exposes, each computed directly."""

    def __init__(self, G):
        self.group = G
        found: dict[tuple[int, ...], tuple[int, ...]] = {}
        for g in range(G.order):
            found.setdefault(G.closure([g]), (g,))
        cyclic_gens = [gens[0] for gens in found.values()]
        frontier = list(found.items())
        while frontier:
            new = []
            for s, gens in frontier:
                for g in cyclic_gens:
                    if g in s:
                        continue
                    j = G.closure(gens + (g,))
                    if j not in found:
                        found[j] = gens + (g,)
                        new.append((j, found[j]))
            frontier = new
        ordered = sorted(found, key=lambda t: (len(t), t))
        self.elements = ordered
        self.gens = [found[t] for t in ordered]
        id_of = {t: i for i, t in enumerate(ordered)}
        n = len(ordered)
        sets = [set(t) for t in ordered]
        self.down = [tuple(k for k in range(n) if sets[k] <= sets[h]) for h in range(n)]
        self.up = [tuple(h for h in range(n) if sets[k] <= sets[h]) for k in range(n)]
        self.conj_table = [
            [id_of[tuple(sorted(G.conj(g, x) for x in t))] for t in ordered] for g in range(G.order)
        ]
        self.classes = []
        for h in range(n):
            if not any(h in cls for cls in self.classes):
                self.classes.append(tuple(sorted({self.conj_table[g][h] for g in range(G.order)})))
        self.normalizers = [
            id_of[tuple(g for g in range(G.order) if self.conj_table[g][h] == h)] for h in range(n)
        ]
        counts: dict[str, int] = {}
        self.class_names = []
        for cls in self.classes:
            rep = ordered[cls[0]]
            base = ("C" if any(G.closure([g]) == rep for g in rep) else "G") + str(len(rep))
            self.class_names.append(base + "'" * counts.get(base, 0))
            counts[base] = counts.get(base, 0) + 1
        self.subgroup_names = [""] * n
        for ci, cls in enumerate(self.classes):
            for pos, member in enumerate(cls):
                self.subgroup_names[member] = self.class_names[ci] + (f".{pos}" if len(cls) > 1 else "")

    def leq(self, k: int, h: int) -> bool:
        return h in self.up[k]

    def cover_pairs(self) -> list[tuple[int, int]]:
        return [
            (h, k)
            for h, below in enumerate(self.down)
            for k in below
            if k != h and not any(l != k and l != h and self.leq(k, l) for l in below)
        ]

    def mobius_to(self, h: int) -> list[int]:
        """mu(K, H) for every K <= H, by the recursion over the interval, indexed by K's id (0 off the interval)."""
        mu = [0] * len(self.elements)
        for k in reversed(self.down[h]):
            mu[k] = 1 if k == h else -sum(mu[l] for l in self.down[h] if l != k and self.leq(k, l))
        return mu
