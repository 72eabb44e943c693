"""Finite groups as multiplication tables, plus subgroup/coset/conjugacy machinery.

Group elements are integers ``0..order-1``.  A :class:`FiniteGroup` is a full
Cayley table; groups can be loaded from an explicit table or generated from
permutations in cycle notation.  :class:`SubgroupLattice` enumerates every
subgroup together with the inclusion poset, conjugacy classes, normalizers,
Weyl quotients, the Mobius function of the lattice and the table of marks of
every subgroup.  A lattice keeps what it derives in one memo and refers to
nothing built on top of it, such as the rings that read its tables of marks.
A lattice is a read-only value: its tables and memoized answers are tuples,
read-only mappings (``types.MappingProxyType``) and frozen dataclasses, so no
caller can change what a later caller reads.

Both are built per generator, not per element.  A permutation group composes
only its generator columns.  Associativity is checked on generators only
(Light's test): the elements that associate with everything are closed under
products, so the generators decide.  The lattice joins each subgroup S with
one cyclic subgroup per S-conjugacy orbit, since conjugating by s in S fixes
S and so the join, and conjugates subgroups along the words of ``gens``.

All outputs are deterministic: subgroups are kept as sorted element tuples,
a coset (left, double, or a Weyl element) is named by its least member, and
conjugacy-class representatives are the lexicographically smallest member.
One table, ``_least_members``, computes every coset's least member.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

DEFAULT_ORDER_CAP = 64


class GroupError(ValueError):
    """Malformed group data (bad table, bad cycle notation, ...)."""


class CapExceeded(GroupError):
    """A group or closure grew past the configured order cap."""


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_NOTATION_RE = re.compile(r"(?:\([^()]*\)\s*)+")  # no two adjacent \s*, so a failing match cannot backtrack exponentially


def _cycles(text: str) -> list[list[int]]:
    """The disjoint cycles of 1-based cycle notation like ``"(1 2)(3 4 5)"``, as lists of points."""
    stripped = text.strip()
    if stripped in ("", "()"):
        return []
    if not _NOTATION_RE.fullmatch(stripped):
        raise GroupError(f"bad cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        pts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        if not pts:
            continue
        try:
            cycles.append([int(p) for p in pts])
        except ValueError:
            raise GroupError(f"bad cycle notation: {text!r}") from None
    points = [p for cyc in cycles for p in cyc]
    if min(points, default=1) < 1 or len(set(points)) != len(points):  # a point in two cycles is no permutation
        raise GroupError(f"bad cycle notation: {text!r}")
    return cycles


def _image(cycles: list[list[int]], n: int) -> tuple[int, ...]:
    """The 0-based image tuple on n points of a product of 1-based cycles."""
    image = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b - 1
    return tuple(image)


def cycle_string(image: tuple[int, ...], points) -> str:
    """Render a 0-based image tuple in cycle notation, naming position i by ``points[i]``."""
    seen = [False] * len(image)
    parts = []
    for start in range(len(image)):
        if seen[start] or image[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = image[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = image[nxt]
        parts.append("(" + " ".join(str(points[p]) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


# ---------------------------------------------------------------------------
# FiniteGroup
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by a complete multiplication table on ``0..order-1``."""

    def __init__(
        self,
        table: list[list[int]] | tuple[tuple[int, ...], ...],
        name: str = "G",
        elem_names: list[str] | None = None,
        gens: list[int] | None = None,
        cap: int = DEFAULT_ORDER_CAP,
    ):
        self.name = name
        self._mul = tuple(tuple(map(int, row)) for row in table)
        self.order = len(self._mul)
        if self.order == 0:
            raise GroupError("empty multiplication table")
        if self.order > cap:
            raise CapExceeded(f"group order {self.order} exceeds cap {cap}")
        if any(len(row) != self.order for row in self._mul):
            raise GroupError("multiplication table is not square")
        if any(min(row) < 0 or max(row) >= self.order for row in self._mul):
            raise GroupError("table entry out of range")
        self.identity = self._find_identity()
        self._inv = self._find_inverses()
        self.elem_names = tuple(elem_names) if elem_names else tuple(str(i) for i in range(self.order))
        self.gens = self._normalize_gens(gens)
        self.words = self._compute_words()
        self._check_associativity()

    # -- construction helpers ------------------------------------------------

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self._mul[e][x] == x and self._mul[x][e] == x for x in range(self.order)):
                return e
        raise GroupError("no two-sided identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.order
        e = self.identity
        for a in range(self.order):
            for b in range(self.order):
                if self._mul[a][b] == e and self._mul[b][a] == e:
                    inv[a] = b
                    break
            else:
                raise GroupError(f"element {a} has no inverse")
        return tuple(inv)

    def _check_associativity(self) -> None:
        """Light's test: (a s) c = a (s c) for every generator s and all a, c.

        The elements b with (x b) y = x (b y) for all x, y include the identity
        and are closed under products: for two such a and b,
        (x (ab)) y = ((xa) b) y = (xa)(by) = x (a (by)) = x ((ab) y).
        ``words`` reaches every element as ((e s1) s2)..., so when every
        generator passes, the whole group does.  The test makes |gens| |G|^2
        lookups where the loop over all triples makes |G|^3.
        """
        mul = self._mul
        for a, row_a in enumerate(mul):
            for s in self.gens:
                row_as, row_s = mul[row_a[s]], mul[s]
                if row_as != tuple(map(row_a.__getitem__, row_s)):
                    c = next(c for c in range(self.order) if row_as[c] != row_a[row_s[c]])
                    raise GroupError(f"table is not associative at ({a},{s},{c})")

    def _normalize_gens(self, gens: list[int] | None) -> tuple[int, ...]:
        if gens is not None:
            picked = [g for g in gens if g != self.identity]
            if self.closure(picked) != tuple(range(self.order)):
                raise GroupError("given generators do not generate the group")
            return tuple(dict.fromkeys(picked))
        picked = []
        generated = {self.identity}
        for x in range(self.order):
            if x not in generated:
                picked.append(x)
                generated = set(self.closure(picked))
                if len(generated) == self.order:
                    break
        return tuple(picked)

    def _compute_words(self) -> tuple[tuple[int, ...], ...]:
        # breadth-first words over self.gens; word entries are generator positions
        words: dict[int, tuple[int, ...]] = {self.identity: ()}
        queue = [self.identity]
        for x in queue:
            for pos, s in enumerate(self.gens):
                y = self._mul[x][s]
                if y not in words:
                    words[y] = words[x] + (pos,)
                    queue.append(y)
        if len(words) != self.order:
            raise GroupError("generators do not generate the group")
        return tuple(words[x] for x in range(self.order))

    # -- the group operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1"""
        return self._mul[self._mul[g][x]][self._inv[g]]

    def elem_name(self, a: int) -> str:
        return self.elem_names[a]

    @property
    def is_abelian(self) -> bool:
        return all(self._mul[a][b] == self._mul[b][a] for a in range(self.order) for b in range(a))

    def closure(self, seed) -> tuple[int, ...]:
        """Subgroup generated by ``seed``, as a sorted element tuple."""
        found = {self.identity}
        queue = [self.identity]
        gens = [g for g in seed]
        for x in queue:
            for s in gens:
                y = self._mul[x][s]
                if y not in found:
                    found.add(y)
                    queue.append(y)
        return tuple(sorted(found))

    def conjugate_elements(self, g: int, elems) -> tuple[int, ...]:
        return tuple(sorted(self.conj(g, x) for x in elems))

    def word(self, g: int) -> tuple[int, ...]:
        return self.words[g]

    def same_table(self, other: "FiniteGroup") -> bool:
        """Whether ``other`` multiplies as this group does, so that a module over one is a module over the other."""
        return other is self or other._mul == self._mul

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# loading and standard groups
# ---------------------------------------------------------------------------


def from_permutations(
    generators: list[str],
    degree: int | None = None,
    name: str = "G",
    cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """Close a list of cycle-notation generators into a FiniteGroup.

    Elements are enumerated breadth-first starting from the identity, so the
    numbering is reproducible for a fixed generator list.  Only the moved
    points are composed, renumbered in increasing order: the cost does not
    grow with ``degree`` or the point labels, and relabelling keeps the table.
    Only the generator columns a -> a*s are composed, |G| |gens| products;
    the search reaches every other y as x*s for an earlier x, and its column
    is read off them, a*y = (a*x)*s.
    """
    gen_cycles = [_cycles(g) for g in generators]
    points = sorted({p for cycles in gen_cycles for cyc in cycles for p in cyc})
    if degree is not None and degree < max(points, default=0):
        raise GroupError(f"degree {degree} is smaller than the largest point {max(points, default=0)}")
    rank = {p: i for i, p in enumerate(points, 1)}
    gen_imgs = [_image([[rank[p] for p in cyc] for cyc in cycles], len(points)) for cycles in gen_cycles]
    ident = tuple(range(len(points)))
    elems = [ident]
    index = {ident: 0}
    gen_cols: list[list[int]] = [[] for _ in gen_imgs]  # gen_cols[k][a] = a * generator k
    reached_by = [(0, 0)]  # reached_by[y] = (x, k) with y = x * generator k
    for x, p in enumerate(elems):
        for k, g in enumerate(gen_imgs):
            q = _compose(p, g)
            y = index.get(q)
            if y is None:
                if len(elems) >= cap:
                    raise CapExceeded(f"generated order exceeds cap {cap}")
                y = index[q] = len(elems)
                elems.append(q)
                reached_by.append((x, k))
            gen_cols[k].append(y)
    cols = [tuple(range(len(elems)))]
    for x, k in reached_by[1:]:
        cols.append(tuple(map(gen_cols[k].__getitem__, cols[x])))
    table = list(zip(*cols))
    names = [cycle_string(p, points) for p in elems]
    gen_ids = [index[g] for g in gen_imgs]
    return FiniteGroup(table, name=name, elem_names=names, gens=gen_ids, cap=cap)


def load_group(spec: dict, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a JSON-style dict.

    Accepted forms::

        {"name": str, "order": n, "table": [[...], ...], "generators": [i, ...]}
        {"name": str, "degree": n, "generators": ["(1 2)", ...]}

    With a table, ``generators`` is optional and lists element indices.  Table
    entries and ``order`` must be integers, not numbers that merely convert
    to one, and permutation generators must be a list of strings.
    """
    if not isinstance(spec, dict):
        raise GroupError("group spec must be an object")
    name = spec.get("name", "G")
    if "table" in spec:
        table = spec["table"]
        if not (isinstance(table, list) and all(isinstance(row, list) and all(type(x) is int for x in row) for row in table)):
            raise GroupError("a group table must be a list of rows of integers")
        if "order" in spec and type(spec["order"]) is not int:
            raise GroupError("declared order must be an integer")
        if "order" in spec and len(table) != spec["order"]:
            raise GroupError("declared order does not match table size")
        gens = spec.get("generators")
        if gens is not None and not (
            isinstance(gens, list) and all(type(g) is int and 0 <= g < len(table) for g in gens)
        ):
            raise GroupError("the generators of a table must be element indices")
        return FiniteGroup(table, name=name, gens=gens, cap=cap)
    if "generators" in spec:
        gens = spec["generators"]
        if not (isinstance(gens, list) and all(isinstance(g, str) for g in gens)):
            raise GroupError("permutation generators must be a list of cycle strings")
        if "degree" in spec and type(spec["degree"]) is not int:
            raise GroupError("degree must be an integer")
        return from_permutations(gens, spec.get("degree"), name=name, cap=cap)
    raise GroupError("group spec needs either 'table' or 'generators'")


def cyclic(n: int, name: str | None = None) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=name or f"C{n}")


def symmetric(n: int, name: str | None = None) -> FiniteGroup:
    if n == 1:
        return trivial(name or "S1")
    gens = ["(1 2)"] if n == 2 else ["(1 2)", "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"]
    return from_permutations(gens, degree=n, name=name or f"S{n}")


def alternating(n: int, name: str | None = None) -> FiniteGroup:
    if n <= 2:
        return trivial(name or f"A{n}")
    if n == 3:
        return from_permutations(["(1 2 3)"], degree=3, name=name or "A3")
    if n % 2 == 1:
        cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    else:
        cycle = "(" + " ".join(str(i) for i in range(2, n + 1)) + ")"
    return from_permutations(["(1 2 3)", cycle], degree=n, name=name or f"A{n}")


def dihedral(order: int, name: str | None = None) -> FiniteGroup:
    """Dihedral group of the given (even) order on a regular polygon; D2 = C2 and D4 = C2 x C2 on pairs of points."""
    if order % 2 != 0 or order < 2:
        raise GroupError("dihedral order must be even and >= 2")
    m = order // 2
    if m <= 2:
        return from_permutations(["(1 2)", "(3 4)"][:m], degree=2 * m, name=name or f"D{order}")
    rot = "(" + " ".join(str(i) for i in range(1, m + 1)) + ")"
    refl_pairs = [(i, m + 2 - i) for i in range(2, m // 2 + 2) if i < m + 2 - i]
    refl = "".join(f"({a} {b})" for a, b in refl_pairs) or "()"
    return from_permutations([rot, refl], degree=m, name=name or f"D{order}")


def quaternion(name: str = "Q8") -> FiniteGroup:
    # elements: (sign, unit) with units 1,i,j,k packed as 2*unit + (sign<0)
    prod = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul_pair(a: int, b: int) -> int:
        sa, ua = (-1 if a % 2 else 1), a // 2
        sb, ub = (-1 if b % 2 else 1), b // 2
        s, u = prod[(ua, ub)]
        s *= sa * sb
        return 2 * u + (0 if s > 0 else 1)

    table = [[mul_pair(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(table, name=name, elem_names=names)


def trivial(name: str = "C1") -> FiniteGroup:
    return FiniteGroup([[0]], name=name)


def corpus() -> dict[str, FiniteGroup]:
    """The standard test corpus of groups of order at most 24."""
    return {
        "C2": cyclic(2),
        "C3": cyclic(3),
        "C6": cyclic(6),
        "C8": cyclic(8),
        "S3": symmetric(3),
        "D8": dihedral(8),
        "Q8": quaternion(),
        "A4": alternating(4),
        "D12": dihedral(12),
        "S4": symmetric(4),
    }


# ---------------------------------------------------------------------------
# cosets, named by their least member
# ---------------------------------------------------------------------------


def _least_members(G: FiniteGroup, sub: tuple[int, ...]) -> tuple[int, ...]:
    """The table g -> least member of the coset g*sub, over every g in G."""
    out = [-1] * G.order
    for x in range(G.order):
        if out[x] < 0:
            # every element below x lies in a coset already named, so x is the least of x*sub
            for y in sub:
                out[G.mul(x, y)] = x
    return tuple(out)


def subgroup_group(G: FiniteGroup, elems: tuple[int, ...], name: str = "H") -> tuple[FiniteGroup, tuple[int, ...]]:
    """Realize a subgroup as a standalone FiniteGroup.

    Returns ``(H, to_parent)`` where ``to_parent[i]`` is the G-element behind
    H-element ``i``.  Elements are numbered in ascending G-order.
    """
    to_parent = tuple(sorted(elems))
    pos = {g: i for i, g in enumerate(to_parent)}
    table = [[pos[G.mul(a, b)] for b in to_parent] for a in to_parent]
    names = [G.elem_name(g) for g in to_parent]
    H = FiniteGroup(table, name=name, elem_names=names)
    return H, to_parent


# ---------------------------------------------------------------------------
# explicit finite G-sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GSet:
    """A finite left G-set given by the permutation action of every element."""

    group: FiniteGroup
    act: tuple[tuple[int, ...], ...]  # act[g][p]

    def __post_init__(self):
        """The action law act(g s) = act(g) act(s), checked for every g and generator s only.

        The b with act(g b) = act(g) act(b) for all g include the identity and
        are closed under products: act(g ab) = act(g a) act(b) = act(g) act(a) act(b)
        = act(g) act(ab).  ``words`` reaches every element from the generators,
        so the check makes |gens| |G| row comparisons where all pairs make |G|^2.
        """
        G, act = self.group, self.act
        if len(act) != G.order:
            raise GroupError("action table must have one row per group element")
        n = self.size
        if any(len(row) != n or sorted(row) != list(range(n)) for row in act):
            raise GroupError("each element must act by a permutation")
        if act[G.identity] != tuple(range(n)):
            raise GroupError("identity must act trivially")
        for g, row in enumerate(act):
            if any(act[G.mul(g, s)] != tuple(map(row.__getitem__, act[s])) for s in G.gens):
                raise GroupError("not a group action")

    @property
    def size(self) -> int:
        return len(self.act[0]) if self.act else 0


def coset_gset(G: FiniteGroup, sub: tuple[int, ...]) -> GSet:
    """The left-multiplication action of G on G/sub, cosets numbered in order of their least member."""
    least = _least_members(G, sub)
    reps = sorted(set(least))
    pos = {r: i for i, r in enumerate(reps)}
    act = tuple(tuple(pos[least[G.mul(g, r)]] for r in reps) for g in range(G.order))
    return GSet(G, act)


def restrict_gset(X: GSet, H: FiniteGroup, to_parent: tuple[int, ...]) -> GSet:
    """View a G-set as an H-set along an embedding of H into G."""
    act = tuple(X.act[to_parent[h]] for h in range(H.order))
    return GSet(H, act)


@dataclass(frozen=True)
class GMap:
    """An equivariant map of finite G-sets."""

    src: GSet
    dst: GSet
    points: tuple[int, ...]

    def __post_init__(self):
        """Equivariance f(g p) = g f(p), checked for generators g only: the g where it holds
        for every p include the identity and are closed under products, f(gh p) = g f(h p)
        = gh f(p), so the generators decide, by the closure argument of ``GSet.__post_init__``."""
        G, f = self.src.group, self.points
        if not G.same_table(self.dst.group):
            raise GroupError(f"map's source is a {G.name}-set and its target a {self.dst.group.name}-set")
        if len(f) != self.src.size:
            raise GroupError("point map has wrong size")
        if any(f[self.src.act[s][p]] != self.dst.act[s][f[p]] for s in G.gens for p in range(len(f))):
            raise GroupError("map is not equivariant")


# ---------------------------------------------------------------------------
# the subgroup lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup: sorted element tuple, its index in the lattice, and generators of it."""

    elements: tuple[int, ...]
    index: int
    gens: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _lattice_query(query):
    """A ``SubgroupLattice`` query, kept in the lattice's ``_memo`` and handed to every caller: a lattice never
    changes, nor does an answer, which is a tuple, a read-only mapping or a frozen value, never a list, dict or set."""
    name = query.__name__

    @functools.wraps(query)
    def memoized(self, *args, **kwargs):
        key = (name, args, *kwargs.items())
        if (value := self._memo.get(key)) is None:
            value = self._memo[key] = query(self, *args, **kwargs)
        return value

    return memoized


class SubgroupLattice:
    """All subgroups of a finite group with the structure the rest of the library uses.

    Enumeration seeds with the cyclic subgroups and joins each new subgroup
    S with cyclic ones until nothing new turns up; every subgroup is the join
    of its cyclic subgroups, so the result is complete.  Each step costs per
    generator, not per element:

    - S is joined with one cyclic subgroup of each S-conjugacy orbit, the
      first in seed order: for s in S, S v <scs^-1> = s(S v <c>)s^-1 = S v <c>;
    - a join of prime index over S already found answers every later seed in it;
    - a join is a union of left cosets of S, closed under the generators
      (Dimino);
    - conjugation by x*s is conjugation by s, then by x, so only the
      generators conjugate element sets;
    - inclusion is read off one bitmask per element.
    """

    def __init__(self, G: FiniteGroup, cap: int = DEFAULT_ORDER_CAP):
        if G.order > cap:
            raise CapExceeded(f"group order {G.order} exceeds cap {cap}")
        self.group = G
        self._enumerate_subgroups()
        self._build_poset()
        # conj_table[g][h_id] = id of g H g^-1
        self.conj_table = self._build_conj_table()
        self._memo: dict[tuple[str, tuple], object] = {}  # see ``_lattice_query``
        self.classes = self.local_classes(self.top)
        class_of = {member: ci for ci, cls in enumerate(self.classes) for member in cls}
        self.class_of = tuple(class_of[h] for h in range(len(self.subgroups)))
        self.normalizers = tuple(self.normalizer_in(h, self.top) for h in range(len(self.subgroups)))
        self._build_names()
        self._coset_min: dict[int, tuple[int, ...]] = {}

    # -- enumeration ---------------------------------------------------------

    def _enumerate_subgroups(self) -> None:
        """Every subgroup, each found with the generators it was reached by.

        A cyclic subgroup keeps its least generator, and the join of S with
        <c> is found with gens(S) + (c,), skipped when c lies in S.  Each round
        joins every new subgroup with every cyclic one, so the chain C1,
        C1 v C2, ... of any subgroup's cyclic subgroups is found link by link.
        Of the cyclic subgroups in one S-conjugacy orbit only the first is
        joined: the others give the same join, already found, so skipping them
        changes neither the subgroups nor their generators.  The orbits are
        taken over gens(S), through the table x -> (position of x<c>x^-1).
        Nor is c joined when it lies in a join U of S found earlier in S's loop with [U:S] = p
        prime: S < S v <c> <= U, and [S v <c> : S] > 1 divides p (Lagrange), so S v <c> = U, already
        found.  ``covered`` is S and every such U; p is tested by trial division, as only the cap bounds it.
        """
        G = self.group
        seeds: dict[frozenset[int], int] = {}
        cyclic_of = [seeds.setdefault(frozenset(G.closure([g])), len(seeds)) for g in range(G.order)]
        cyclic_gens = [cyclic_of.index(i) for i in range(len(seeds))]  # the least generator of each
        found = {c: (g,) for c, g in zip(seeds, cyclic_gens)}
        moves = {x: tuple(cyclic_of[G.conj(x, c)] for c in cyclic_gens) for x in cyclic_gens}
        frontier = list(found.items())
        while frontier:
            new = []
            for s, gens in frontier:
                perms = [moves[x] for x in gens]
                seen = [False] * len(cyclic_gens)
                covered = set(s)
                for i, c in enumerate(cyclic_gens):
                    if seen[i] or c in covered:
                        continue
                    orbit = [i]
                    seen[i] = True
                    for p in orbit:
                        for perm in perms:
                            if not seen[perm[p]]:
                                seen[perm[p]] = True
                                orbit.append(perm[p])
                    j = self._join(s, gens + (c,))
                    index = len(j) // len(s)
                    if all(index % q for q in range(2, index)):
                        covered |= j
                    if j not in found:
                        found[j] = gens + (c,)
                        new.append((j, found[j]))
            frontier = new
        ordered = sorted((len(j), tuple(sorted(j)), gens) for j, gens in found.items())
        self.subgroups = tuple(Subgroup(t, i, gens) for i, (_, t, gens) in enumerate(ordered))
        self._id_of = {s.elements: s.index for s in self.subgroups}

    def _join(self, s: frozenset[int], gens: tuple[int, ...]) -> frozenset[int]:
        """The subgroup generated by ``gens`` (generators of S and more) as a union of left cosets rS.

        t(rS) = (tr)S, so the cosets reached from S by left multiplication with
        the generators are closed under them and make up the whole subgroup.
        """
        mul = self.group._mul
        elems = set(s)
        reps = [self.group.identity]
        for r in reps:
            for t in gens:
                y = mul[t][r]
                if y not in elems:
                    elems.update(map(mul[y].__getitem__, s))
                    reps.append(y)
        return frozenset(elems)

    def _build_poset(self) -> None:
        """``_down[h]``: the ids of the subgroups of H; ``_above[k]``: those of the subgroups containing K.

        K <= H exactly when H holds gens(K), as H is a subgroup and gens(K)
        generate K.  ``holding[x]`` has bit h set when H holds the element x,
        so the AND of ``holding`` over gens(K) has bit h set exactly when
        K <= H.  Its set bits are found by a scan in C, then each comparable
        pair costs one step; walking k upwards keeps every ``_down[h]`` sorted.
        """
        holding = [0] * self.group.order
        for s in self.subgroups:
            for x in s.elements:
                holding[x] |= 1 << s.index
        down: list[list[int]] = [[] for _ in self.subgroups]
        self._above = []  # for ``leq``
        for s in self.subgroups:
            bits = bin(functools.reduce(int.__and__, map(holding.__getitem__, s.gens)))[:1:-1]  # bits[h] is bit h
            self._above.append(frozenset(m.start() for m in re.finditer("1", bits)))
            for h in self._above[-1]:
                down[h].append(s.index)
        self._down = list(map(tuple, down))

    def _build_conj_table(self) -> tuple[tuple[int, ...], ...]:
        """Row g: the ids of the conjugates gHg^-1, composed along ``words`` from the generator rows."""
        G = self.group
        by_gen = {s: [self._id_of[G.conjugate_elements(s, t.elements)] for t in self.subgroups] for s in G.gens}
        table: list[tuple[int, ...]] = [()] * G.order
        table[G.identity] = tuple(range(len(self.subgroups)))
        for y in sorted(range(G.order), key=lambda g: len(G.words[g])):
            if y != G.identity:
                s = G.gens[G.words[y][-1]]
                table[y] = tuple(map(table[G.mul(y, G.inv(s))].__getitem__, by_gen[s]))
        return tuple(table)

    def _build_names(self) -> None:
        counts: Counter[str] = Counter()
        class_names = []
        for cls in self.classes:
            rep = self.subgroups[cls[0]]
            base = f"C{rep.order}" if len(rep.gens) == 1 else f"G{rep.order}"  # the seeds are the cyclic subgroups
            class_names.append(base + "'" * counts[base])
            counts[base] += 1
        named = {
            m: f"{name}.{pos}" if len(cls) > 1 else name
            for name, cls in zip(class_names, self.classes) for pos, m in enumerate(cls)
        }
        self.class_names, self.subgroup_names = tuple(class_names), tuple(map(named.__getitem__, range(len(named))))

    # -- basic queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.subgroups)

    def subgroup_id(self, elems) -> int:
        key = tuple(sorted(elems))
        if key not in self._id_of:
            raise GroupError(f"{key} is not a subgroup")
        return self._id_of[key]

    def elements(self, h: int) -> tuple[int, ...]:
        return self.subgroups[h].elements

    def order(self, h: int) -> int:
        return self.subgroups[h].order

    def gens(self, h: int) -> tuple[int, ...]:
        """Generators of H, the ones its enumeration reached it by."""
        return self.subgroups[h].gens

    def leq(self, k: int, h: int) -> bool:
        return h in self._above[k]

    def subgroups_of(self, h: int) -> tuple[int, ...]:
        return self._down[h]

    def index(self, k: int, h: int) -> int:
        if not self.leq(k, h):
            raise GroupError("index requires K <= H")
        return self.order(h) // self.order(k)

    @property
    def top(self) -> int:
        return len(self.subgroups) - 1

    @property
    def bottom(self) -> int:
        return 0

    def conjugate(self, g: int, h: int) -> int:
        return self.conj_table[g][h]

    def class_rep(self, h: int) -> int:
        return self.classes[self.class_of[h]][0]

    def class_reps(self) -> list[int]:
        return [cls[0] for cls in self.classes]

    def name(self, h: int) -> str:
        return self.subgroup_names[h]

    def class_name_of(self, h: int) -> str:
        return self.class_names[self.class_of[h]]

    def id_by_name(self, name: str) -> int:
        try:
            return self.subgroup_names.index(name)
        except ValueError:
            raise GroupError(f"no subgroup named {name!r}") from None

    def is_subconjugate(self, k: int, h: int) -> bool:
        """True when some G-conjugate of K is contained in H."""
        return any(h in self._above[member] for member in self.classes[self.class_of[k]])

    @_lattice_query
    def meet(self, a: int, b: int) -> int:
        return self._id_of[tuple(sorted(set(self.elements(a)) & set(self.elements(b))))]

    @_lattice_query
    def maximal(self, h: int) -> tuple[int, ...]:
        """The maximal proper subgroups of H, in ``subgroups_of`` order."""
        below = self._down[h]
        return tuple(k for k in below if k != h and not any(l != k and l != h and self.leq(k, l) for l in below))

    @_lattice_query
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """All pairs (H, K) with K maximal proper in H, by lattice id."""
        return tuple((h, k) for h in range(len(self)) for k in self.maximal(h))

    def is_normal(self, h: int) -> bool:
        return self.normalizers[h] == self.top

    # -- cosets, cached -------------------------------------------------------

    @_lattice_query
    def cosets(self, k: int, ambient: int | None = None) -> tuple[int, ...]:
        """The cosets aK, a in ambient, as their least members in increasing order; needs K <= ambient."""
        amb = self.top if ambient is None else ambient
        if not self.leq(k, amb):
            raise GroupError("cosets require K <= ambient")
        return tuple(sorted({self.coset_of(a, k) for a in self.elements(amb)}))

    @_lattice_query
    def double_cosets(self, k: int, l: int, ambient: int | None = None) -> tuple[int, ...]:
        """The double cosets KxL, x in ambient, as their least members in increasing order; needs K, L <= ambient.

        KxL is the union of the cosets axL, a in K, so its least element is the
        least of their least members: the minimum of one K-orbit on ``cosets(l, ambient)``.
        """
        amb = self.top if ambient is None else ambient
        if not (self.leq(k, amb) and self.leq(l, amb)):
            raise GroupError("double cosets require K, L <= ambient")
        G = self.group
        seen: set[int] = set()
        reps = []
        for r in self.cosets(l, amb):
            if r not in seen:
                orbit = {self.coset_of(G.mul(a, r), l) for a in self.elements(k)}
                reps.append(min(orbit))
                seen |= orbit
        return tuple(reps)

    @_lattice_query
    def fixed_cosets(self, k: int, h: int, ambient: int | None = None) -> tuple[int, ...]:
        """(ambient/K)^H: the r in ``cosets(k, ambient)`` with HrK = rK; needs K <= ambient.

        The stabilizer of a coset is a subgroup, so it contains H exactly when
        it contains the generators ``gens(h)``.
        """
        G = self.group
        return tuple(
            r for r in self.cosets(k, ambient) if all(self.coset_of(G.mul(x, r), k) == r for x in self.gens(h))
        )

    def coset_of(self, g: int, k: int) -> int:
        """The least member of the coset gK, from the table ``_least_members`` builds once per K."""
        table = self._coset_min.get(k)
        if table is None:
            table = self._coset_min[k] = _least_members(self.group, self.elements(k))
        return table[g]

    # -- local (within-H) structure --------------------------------------------

    @_lattice_query
    def local_classes(self, h: int) -> tuple[tuple[int, ...], ...]:
        """H-conjugacy classes of subgroups of H as sorted id tuples, ordered by (order, rep elements).

        Ids follow (order, elements), so the increasing ``_down[h]`` meets each orbit first at its least
        id, the representative, in that order: no sort is needed.  ``classes`` is ``local_classes(top)``.
        """
        helems = self.elements(h)
        seen: set[int] = set()
        classes = []
        for k in self._down[h]:
            if k not in seen:
                orbit = tuple(sorted({self.conj_table[g][k] for g in helems}))
                classes.append(orbit)
                seen.update(orbit)
        return tuple(classes)

    @_lattice_query
    def normalizer_in(self, k: int, h: int) -> int:
        """N_H(K) as a lattice id, for K <= H."""
        return self._id_of[tuple(sorted(g for g in self.elements(h) if self.conj_table[g][k] == k))]

    @_lattice_query
    def marks(self, h: int) -> tuple[MappingProxyType, tuple[MappingProxyType, ...]]:
        """The table of marks T of H as (index, rows), keeping only its nonzero marks.

        ``index`` sends each subgroup of H to its class in ``local_classes(h)``;
        T[j][i] = |(H/B_j)^(A_i)| for the class representatives A_i and B_j,
        and rows[j] is {i: T[j][i]} over the i with T[j][i] != 0, in
        increasing i.  Every such i is at most j, so the diagonal comes last.

        T[j][i] counts the cosets hB_j with h^-1 A_i h <= B_j.  That condition
        holds on whole cosets hB_j, so the count is
        #{h in H : h^-1 A_i h <= B_j} / |B_j|.  The map h -> h^-1 A_i h sends
        H onto the H-class of A_i, and each fibre is a coset of N_H(A_i).  So
        T[j][i] = |N_H(A_i)| * #{A' in (A_i)_H : A' <= B_j} / |B_j|, which is
        nonzero exactly when that count is.  A conjugate A' <= B_j has id at
        most B_j's, and classes are numbered by their least ids, so i <= j.
        Row j takes one pass over the subgroups of B_j, counted by class.
        """
        classes = self.local_classes(h)
        index = MappingProxyType({member: ci for ci, cls in enumerate(classes) for member in cls})
        norms = [self.order(self.normalizer_in(cls[0], h)) for cls in classes]
        rows = []
        for cls in classes:
            count = Counter(map(index.__getitem__, self._down[cls[0]]))  # i: #{A' in (A_i)_H : A' <= B_j}
            order = self.order(cls[0])
            rows.append(MappingProxyType({i: norms[i] * count[i] // order for i in sorted(count)}))
        return index, tuple(rows)

    # -- Mobius ---------------------------------------------------------------

    @_lattice_query
    def mobius_to(self, h: int) -> MappingProxyType:
        """mu(L, H) for every L <= H, keyed by L's id, in one sweep down the interval [1, H].

        mu(H, H) = 1 and mu(L, H) = -sum_(L < M <= H) mu(M, H).  Ids follow
        (order, elements), so L < M gives l < m, and ``reversed(_down[h])`` is
        a linear extension of the interval that meets every M above L before L.
        Each M, once its value is known, adds it to acc[L] for every L in
        ``_down[m]`` (acc[M] too, which is no longer read), so acc[L] holds the
        whole sum when L is reached.  An M with mu(M, H) = 0 adds 0 everywhere,
        so skipping it is exact; by Hall's crosscut theorem mu(M, H) = 0 unless
        M is an intersection of maximal subgroups of H.
        """
        acc = dict.fromkeys(self._down[h], 0)
        mu = {}
        for m in reversed(self._down[h]):
            mu[m] = v = 1 if m == h else -acc[m]
            if v:
                for l in self._down[m]:
                    acc[l] += v
        return MappingProxyType(mu)

    # -- Weyl groups ------------------------------------------------------------

    @_lattice_query
    def weyl(self, h: int) -> "WeylData":
        """W_G(H) = N_G(H)/H on ``cosets(h, N_G(H))``, each coset named by its least member r as ``r + "N"``."""
        G = self.group
        nid = self.normalizers[h]
        reps = self.cosets(h, nid)
        pos = {r: i for i, r in enumerate(reps)}
        table = [[pos[self.coset_of(G.mul(a, b), h)] for b in reps] for a in reps]
        names = [G.elem_name(r) + "N" for r in reps]
        W = FiniteGroup(table, name=f"W({self.name(h)})", elem_names=names)
        proj = MappingProxyType({g: pos[self.coset_of(g, h)] for g in self.elements(nid)})
        return WeylData(W, proj, reps)

    # -- derived lattices ---------------------------------------------------------

    @_lattice_query
    def sub_lattice(self, h: int) -> "SubLatticeView":
        H, to_parent = subgroup_group(self.group, self.elements(h), name=self.name(h))
        lat = SubgroupLattice(H)
        to_parent_sub = tuple(
            self._id_of[tuple(sorted(to_parent[x] for x in s.elements))] for s in lat.subgroups
        )
        return SubLatticeView(lat, to_parent, to_parent_sub)

    @_lattice_query
    def quotient_lattice(self, n: int) -> "QuotientLatticeView":
        """G/N for a normal N: it is W_G(N), with the same representatives, names and product."""
        if not self.is_normal(n):
            raise GroupError("subgroup is not normal; cannot form quotient")
        w = self.weyl(n)
        name = f"{self.group.name}/{self.name(n)}"
        lat = SubgroupLattice(FiniteGroup(w.group._mul, name=name, elem_names=w.group.elem_names))
        proj = tuple(w.proj[g] for g in range(self.group.order))
        to_parent_sub = tuple(
            self._id_of[tuple(g for g, q in enumerate(proj) if q in s.elements)] for s in lat.subgroups
        )
        return QuotientLatticeView(lat, proj, to_parent_sub, w.reps)

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.name}: {len(self.subgroups)} subgroups, {len(self.classes)} classes)"


@dataclass(frozen=True)
class WeylData:
    """The Weyl quotient N_G(H)/H materialized as a group.

    ``proj`` maps normalizer elements of the parent group onto Weyl elements;
    ``reps`` names each Weyl element by the least member of its coset.
    """

    group: FiniteGroup
    proj: MappingProxyType
    reps: tuple[int, ...]


@dataclass(frozen=True)
class SubLatticeView:
    """A subgroup realized as a group of its own, with translation tables."""

    lattice: SubgroupLattice
    to_parent_elem: tuple[int, ...]
    to_parent_sub: tuple[int, ...]

    def parent_sub(self, local_id: int) -> int:
        return self.to_parent_sub[local_id]


@dataclass(frozen=True)
class QuotientLatticeView:
    """A quotient group's lattice with the subgroup correspondence K/N <-> K."""

    lattice: SubgroupLattice
    proj: tuple[int, ...]
    to_parent_sub: tuple[int, ...]
    reps: tuple[int, ...]

    def parent_sub(self, local_id: int) -> int:
        return self.to_parent_sub[local_id]
