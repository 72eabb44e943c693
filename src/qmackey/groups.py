"""Finite groups as multiplication tables, plus subgroup/coset/conjugacy machinery.

Group elements are integers ``0..order-1``.  A :class:`FiniteGroup` is a full
Cayley table; groups can be loaded from an explicit table or generated from
permutations in cycle notation.  :class:`SubgroupLattice` enumerates every
subgroup together with the inclusion poset, conjugacy classes, normalizers,
Weyl quotients and the Mobius function of the lattice.

All outputs are deterministic: subgroups are kept as sorted element tuples,
coset and double-coset representatives are the smallest element of their
coset, and conjugacy-class representatives are the lexicographically smallest
member.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass

DEFAULT_ORDER_CAP = 64


class GroupError(ValueError):
    """Malformed group data (bad table, bad cycle notation, ...)."""


class CapExceeded(GroupError):
    """A group or closure grew past the configured order cap."""


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse 1-based cycle notation like ``"(1 2)(3 4 5)"`` into a 0-based image tuple.

    Fixed points may be omitted; ``degree`` extends the permutation with fixed
    points beyond the largest moved point.
    """
    stripped = text.strip()
    if stripped in ("", "()"):
        cycles: list[list[int]] = []
    else:
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", stripped):
            raise GroupError(f"bad cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(stripped):
            pts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
            if not pts:
                continue
            try:
                cyc = [int(p) for p in pts]
            except ValueError:
                raise GroupError(f"bad cycle notation: {text!r}") from None
            if any(p < 1 for p in cyc) or len(set(cyc)) != len(cyc):
                raise GroupError(f"bad cycle notation: {text!r}")
            cycles.append(cyc)
    top = max((max(c) for c in cycles), default=0)
    n = max(degree or 0, top)
    image = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a - 1] = b - 1
    return tuple(image)


def cycle_string(image: tuple[int, ...]) -> str:
    """Render a 0-based image tuple back into 1-based cycle notation."""
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
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
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
        validate: bool = True,
        cap: int = DEFAULT_ORDER_CAP,
    ):
        self.name = name
        self._mul = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(self._mul)
        if self.order == 0:
            raise GroupError("empty multiplication table")
        if self.order > cap:
            raise CapExceeded(f"group order {self.order} exceeds cap {cap}")
        if any(len(row) != self.order for row in self._mul):
            raise GroupError("multiplication table is not square")
        rng = range(self.order)
        if any(x < 0 or x >= self.order for row in self._mul for x in row):
            raise GroupError("table entry out of range")
        self.identity = self._find_identity()
        self._inv = self._find_inverses()
        if validate:
            self._check_associativity()
        self.elem_names = list(elem_names) if elem_names else [str(i) for i in rng]
        self.gens = self._normalize_gens(gens)
        self.words = self._compute_words()

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
        mul = self._mul
        for a in range(self.order):
            row_a = mul[a]
            for b in range(self.order):
                ab = row_a[b]
                row_b = mul[b]
                row_ab = mul[ab]
                for c in range(self.order):
                    if row_ab[c] != row_a[row_b[c]]:
                        raise GroupError(f"table is not associative at ({a},{b},{c})")

    def _normalize_gens(self, gens: list[int] | None) -> tuple[int, ...]:
        if gens is not None:
            picked = [g for g in gens if g != self.identity]
            if self.closure(picked) != tuple(range(self.order)) and self.order > 1:
                raise GroupError("given generators do not generate the group")
            if self.order == 1:
                return ()
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

    def elements(self) -> range:
        return range(self.order)

    def elem_name(self, a: int) -> str:
        return self.elem_names[a]

    @property
    def is_abelian(self) -> bool:
        cached = getattr(self, "_abelian", None)
        if cached is None:
            cached = all(
                self._mul[a][b] == self._mul[b][a]
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )
            self._abelian = cached
        return cached

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
    numbering is reproducible for a fixed generator list.
    """
    gen_imgs = [parse_cycles(g, degree) for g in generators]
    n = max([len(img) for img in gen_imgs] + [degree or 1])
    gen_imgs = [img + tuple(range(len(img), n)) for img in gen_imgs]
    ident = tuple(range(n))
    elems = [ident]
    index = {ident: 0}
    for p in elems:
        for g in gen_imgs:
            q = _compose(p, g)
            if q not in index:
                if len(elems) >= cap:
                    raise CapExceeded(f"generated order exceeds cap {cap}")
                index[q] = len(elems)
                elems.append(q)
    table = [[index[_compose(p, q)] for q in elems] for p in elems]
    names = [cycle_string(p) for p in elems]
    gen_ids = [index[g] for g in gen_imgs]
    return FiniteGroup(table, name=name, elem_names=names, gens=gen_ids, cap=cap)


def load_group(spec: dict, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a JSON-style dict.

    Accepted forms::

        {"name": str, "order": n, "table": [[...], ...]}
        {"name": str, "degree": n, "generators": ["(1 2)", ...]}
    """
    if not isinstance(spec, dict):
        raise GroupError("group spec must be an object")
    name = spec.get("name", "G")
    if "table" in spec:
        table = spec["table"]
        if "order" in spec and len(table) != spec["order"]:
            raise GroupError("declared order does not match table size")
        return FiniteGroup(table, name=name, cap=cap)
    if "generators" in spec:
        return from_permutations(spec["generators"], spec.get("degree"), name=name, cap=cap)
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
    """Dihedral group of the given (even) order, acting on a regular polygon."""
    if order % 2 != 0 or order < 2:
        raise GroupError("dihedral order must be even and >= 2")
    m = order // 2
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
# cosets and related combinatorics (raw element-set level)
# ---------------------------------------------------------------------------


def left_cosets(G: FiniteGroup, sub: tuple[int, ...], ambient: tuple[int, ...] | None = None) -> list[int]:
    """Representatives (smallest member) of the left cosets g*sub inside ambient."""
    amb = ambient if ambient is not None else tuple(range(G.order))
    seen: set[int] = set()
    reps = []
    for g in amb:
        if g in seen:
            continue
        coset = {G.mul(g, h) for h in sub}
        reps.append(min(coset))
        seen |= coset
    return sorted(reps)


def double_coset_reps(
    G: FiniteGroup,
    K: tuple[int, ...],
    L: tuple[int, ...],
    ambient: tuple[int, ...] | None = None,
) -> list[int]:
    """Representatives (smallest member) of the double cosets K\\ambient/L."""
    amb = ambient if ambient is not None else tuple(range(G.order))
    seen: set[int] = set()
    reps = []
    for g in amb:
        if g in seen:
            continue
        dc = {G.mul(G.mul(k, g), l) for k in K for l in L}
        reps.append(min(dc))
        seen |= dc
    return sorted(reps)


def fixed_coset_reps(
    G: FiniteGroup,
    K: tuple[int, ...],
    H: tuple[int, ...],
    ambient: tuple[int, ...] | None = None,
) -> list[int]:
    """Cosets gK of ambient/K fixed by left multiplication by H.

    A coset gK is H-fixed exactly when g^-1 H g is contained in K.  Returns the
    smallest member of each fixed coset, sorted.
    """
    amb = ambient if ambient is not None else tuple(range(G.order))
    kset = set(K)
    out = []
    for g in left_cosets(G, K, amb):
        gi = G.inv(g)
        if all(G.mul(G.mul(gi, h), g) in kset for h in H):
            out.append(g)
    return out


def subgroup_group(G: FiniteGroup, elems: tuple[int, ...], name: str = "H") -> tuple[FiniteGroup, tuple[int, ...]]:
    """Realize a subgroup as a standalone FiniteGroup.

    Returns ``(H, to_parent)`` where ``to_parent[i]`` is the G-element behind
    H-element ``i``.  Elements are numbered in ascending G-order.
    """
    to_parent = tuple(sorted(elems))
    pos = {g: i for i, g in enumerate(to_parent)}
    table = [[pos[G.mul(a, b)] for b in to_parent] for a in to_parent]
    names = [G.elem_name(g) for g in to_parent]
    H = FiniteGroup(table, name=name, elem_names=names, validate=False)
    return H, to_parent


def quotient_group(G: FiniteGroup, N: tuple[int, ...], name: str = "Q") -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup.

    Returns ``(Q, proj)`` where ``proj[g]`` is the Q-element of the coset gN.
    Cosets are numbered by their smallest member.  Raises GroupError if N is
    not normal.
    """
    nset = set(N)
    for g in range(G.order):
        if any(G.conj(g, x) not in nset for x in N):
            raise GroupError("subgroup is not normal; cannot form quotient")
    reps = left_cosets(G, tuple(sorted(N)))
    rep_pos = {r: i for i, r in enumerate(reps)}
    proj = [0] * G.order
    for i, r in enumerate(reps):
        for h in N:
            proj[G.mul(r, h)] = i
    table = [[proj[G.mul(a, b)] for b in reps] for a in reps]
    names = [G.elem_name(r) + "N" for r in reps]
    Q = FiniteGroup(table, name=name, elem_names=names, validate=False)
    return Q, tuple(proj)


# ---------------------------------------------------------------------------
# explicit finite G-sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GSet:
    """A finite left G-set given by the permutation action of every element."""

    group: FiniteGroup
    act: tuple[tuple[int, ...], ...]  # act[g][p]

    def __post_init__(self):
        G = self.group
        if len(self.act) != G.order:
            raise GroupError("action table must have one row per group element")
        n = self.size
        if any(len(row) != n or sorted(row) != list(range(n)) for row in self.act):
            raise GroupError("each element must act by a permutation")
        if self.act[G.identity] != tuple(range(n)):
            raise GroupError("identity must act trivially")
        for g in range(G.order):
            for h in range(G.order):
                gh = G.mul(g, h)
                if any(self.act[gh][p] != self.act[g][self.act[h][p]] for p in range(n)):
                    raise GroupError("not a group action")

    @property
    def size(self) -> int:
        return len(self.act[0]) if self.act else 0

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits as sorted point tuples, ordered by smallest point."""
        seen: set[int] = set()
        out = []
        for p in range(self.size):
            if p in seen:
                continue
            orb = sorted({self.act[g][p] for g in range(self.group.order)})
            out.append(tuple(orb))
            seen |= set(orb)
        return out

    def stabilizer(self, p: int) -> tuple[int, ...]:
        return tuple(g for g in range(self.group.order) if self.act[g][p] == p)

    def transporter(self, p: int, q: int) -> int | None:
        """Smallest g with g.p == q, if any."""
        for g in range(self.group.order):
            if self.act[g][p] == q:
                return g
        return None


def coset_gset(G: FiniteGroup, sub: tuple[int, ...], ambient: tuple[int, ...] | None = None) -> GSet:
    """The left-multiplication action of G on ambient/sub (ambient defaults to G)."""
    amb = ambient if ambient is not None else tuple(range(G.order))
    reps = left_cosets(G, sub, amb)
    pos = {}
    for i, r in enumerate(reps):
        for h in sub:
            pos[G.mul(r, h)] = i
    act = tuple(tuple(pos[G.mul(g, r)] for r in reps) for g in range(G.order))
    return GSet(G, act)


def restrict_gset(X: GSet, H: FiniteGroup, to_parent: tuple[int, ...]) -> GSet:
    """View a G-set as an H-set along an embedding of H into G."""
    act = tuple(X.act[to_parent[h]] for h in range(H.order))
    return GSet(H, act)


def disjoint_union_gset(parts: list[GSet]) -> GSet:
    if not parts:
        raise GroupError("need at least one part")
    G = parts[0].group
    act_rows = []
    for g in range(G.order):
        row: list[int] = []
        offset = 0
        for part in parts:
            row.extend(offset + q for q in part.act[g])
            offset += part.size
        act_rows.append(tuple(row))
    return GSet(G, tuple(act_rows))


@dataclass(frozen=True)
class GMap:
    """An equivariant map of finite G-sets."""

    src: GSet
    dst: GSet
    points: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != self.src.size:
            raise GroupError("point map has wrong size")
        G = self.src.group
        for g in range(G.order):
            for p in range(self.src.size):
                if self.points[self.src.act[g][p]] != self.dst.act[g][self.points[p]]:
                    raise GroupError("map is not equivariant")


# ---------------------------------------------------------------------------
# the subgroup lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup: sorted element tuple plus its index in the lattice."""

    elements: tuple[int, ...]
    index: int

    @property
    def order(self) -> int:
        return len(self.elements)


class SubgroupLattice:
    """All subgroups of a finite group with the structure the rest of the library uses.

    Enumeration seeds with cyclic subgroups and repeatedly joins known
    subgroups with cyclic ones until stable; every subgroup is the join of its
    cyclic subgroups, so the result is complete.
    """

    def __init__(self, G: FiniteGroup, cap: int = DEFAULT_ORDER_CAP):
        if G.order > cap:
            raise CapExceeded(f"group order {G.order} exceeds cap {cap}")
        self.group = G
        self.subgroups: list[Subgroup] = []
        self._id_of: dict[tuple[int, ...], int] = {}
        self._enumerate_subgroups()
        n = len(self.subgroups)
        self._down: list[tuple[int, ...]] = []  # ids of subgroups contained in each H
        self._up: list[tuple[int, ...]] = []
        self._build_poset()
        # conj_table[g][h_id] = id of g H g^-1
        self.conj_table = [
            [self._id_of[G.conjugate_elements(g, s.elements)] for s in self.subgroups]
            for g in range(G.order)
        ]
        self.classes: list[tuple[int, ...]] = []
        self.class_of: list[int] = [0] * n
        self._build_classes()
        self.normalizers: list[int] = [self._normalizer(h) for h in range(n)]
        self.class_names: list[str] = []
        self.subgroup_names: list[str] = []
        self._build_names()
        self._mobius: dict[tuple[int, int], int] = {}
        self._weyl_cache: dict[int, WeylData] = {}
        self._dc_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._fc_cache: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._cosets_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._local_class_cache: dict[int, list[tuple[int, ...]]] = {}
        self._local_norm_cache: dict[tuple[int, int], int] = {}
        self._sub_lattice_cache: dict[int, SubLatticeView] = {}
        self._quot_lattice_cache: dict[int, QuotientLatticeView] = {}
        self._meet_cache: dict[tuple[int, int], int] = {}
        self._covers: list[tuple[int, int]] | None = None
        # weak values: a ring refers to its lattice, so a strong cache would make a cycle
        self.burnside_cache: weakref.WeakValueDictionary[int, object] = weakref.WeakValueDictionary()

    # -- enumeration ---------------------------------------------------------

    def _enumerate_subgroups(self) -> None:
        G = self.group
        cyclics = sorted({G.closure([g]) for g in range(G.order)})
        found: set[tuple[int, ...]] = set(cyclics)
        frontier = set(cyclics)
        while frontier:
            new: set[tuple[int, ...]] = set()
            for s in frontier:
                for c in cyclics:
                    j = G.closure(set(s) | set(c))
                    if j not in found:
                        found.add(j)
                        new.add(j)
            frontier = new
        ordered = sorted(found, key=lambda t: (len(t), t))
        self.subgroups = [Subgroup(t, i) for i, t in enumerate(ordered)]
        self._id_of = {t: i for i, t in enumerate(ordered)}

    def _build_poset(self) -> None:
        sets = [set(s.elements) for s in self.subgroups]
        n = len(sets)
        down, up = [], []
        for h in range(n):
            down.append(tuple(k for k in range(n) if sets[k] <= sets[h]))
        for k in range(n):
            up.append(tuple(h for h in range(n) if sets[k] <= sets[h]))
        self._down = down
        self._up = up

    def _build_classes(self) -> None:
        n = len(self.subgroups)
        seen = [False] * n
        for h in range(n):
            if seen[h]:
                continue
            orbit = sorted({self.conj_table[g][h] for g in range(self.group.order)})
            ci = len(self.classes)
            self.classes.append(tuple(orbit))
            for member in orbit:
                seen[member] = True
                self.class_of[member] = ci

    def _normalizer(self, h: int) -> int:
        elems = tuple(sorted(g for g in range(self.group.order) if self.conj_table[g][h] == h))
        return self._id_of[elems]

    def _build_names(self) -> None:
        counts: dict[str, int] = {}
        for cls in self.classes:
            rep = self.subgroups[cls[0]]
            cyc = any(self.group.closure([g]) == rep.elements for g in rep.elements)
            base = f"C{rep.order}" if cyc else f"G{rep.order}"
            ticks = counts.get(base, 0)
            counts[base] = ticks + 1
            self.class_names.append(base + "'" * ticks)
        self.subgroup_names = [""] * len(self.subgroups)
        for ci, cls in enumerate(self.classes):
            for pos, member in enumerate(cls):
                if len(cls) == 1:
                    self.subgroup_names[member] = self.class_names[ci]
                else:
                    self.subgroup_names[member] = f"{self.class_names[ci]}.{pos}"

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

    def leq(self, k: int, h: int) -> bool:
        return h in self._up[k]

    def subgroups_of(self, h: int) -> tuple[int, ...]:
        return self._down[h]

    def supergroups_of(self, k: int) -> tuple[int, ...]:
        return self._up[k]

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
        return any(member in self._down[h] for member in self.classes[self.class_of[k]])

    def meet(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        cached = self._meet_cache.get(key)
        if cached is None:
            elems = tuple(sorted(set(self.elements(a)) & set(self.elements(b))))
            cached = self._id_of[elems]
            self._meet_cache[key] = cached
        return cached

    def cover_pairs(self) -> list[tuple[int, int]]:
        """All pairs (H, K) with K maximal proper in H, by lattice id."""
        if self._covers is None:
            out = []
            for h in range(len(self.subgroups)):
                for k in self._down[h]:
                    if k == h:
                        continue
                    between = any(
                        l != k and l != h and self.leq(k, l)
                        for l in self._down[h]
                    )
                    if not between:
                        out.append((h, k))
            self._covers = out
        return self._covers

    def is_normal(self, h: int) -> bool:
        return self.normalizers[h] == self.top

    # -- cosets, cached -------------------------------------------------------

    def cosets(self, k: int, ambient: int | None = None) -> tuple[int, ...]:
        amb = self.top if ambient is None else ambient
        if not self.leq(k, amb):
            raise GroupError("cosets require K <= ambient")
        key = (k, amb)
        if key not in self._cosets_cache:
            self._cosets_cache[key] = tuple(
                left_cosets(self.group, self.elements(k), self.elements(amb))
            )
        return self._cosets_cache[key]

    def double_cosets(self, k: int, l: int, ambient: int | None = None) -> tuple[int, ...]:
        amb = self.top if ambient is None else ambient
        key = (k, l, amb)
        if key not in self._dc_cache:
            self._dc_cache[key] = tuple(
                double_coset_reps(self.group, self.elements(k), self.elements(l), self.elements(amb))
            )
        return self._dc_cache[key]

    def fixed_cosets(self, k: int, h: int, ambient: int | None = None) -> tuple[int, ...]:
        """(ambient/K)^H as a tuple of coset representatives."""
        amb = self.top if ambient is None else ambient
        key = (k, h, amb)
        if key not in self._fc_cache:
            self._fc_cache[key] = tuple(
                fixed_coset_reps(self.group, self.elements(k), self.elements(h), self.elements(amb))
            )
        return self._fc_cache[key]

    def coset_of(self, g: int, k: int) -> int:
        """Smallest member of the coset gK."""
        return min(self.group.mul(g, h) for h in self.elements(k))

    # -- local (within-H) structure --------------------------------------------

    def local_classes(self, h: int) -> list[tuple[int, ...]]:
        """H-conjugacy classes of subgroups of H, ordered by (order, rep elements)."""
        if h not in self._local_class_cache:
            helems = self.elements(h)
            seen: set[int] = set()
            classes = []
            for k in self._down[h]:
                if k in seen:
                    continue
                orbit = sorted({self.conj_table[g][k] for g in helems})
                classes.append(tuple(orbit))
                seen |= set(orbit)
            classes.sort(key=lambda cls: (self.order(cls[0]), self.elements(cls[0])))
            self._local_class_cache[h] = classes
        return self._local_class_cache[h]

    def normalizer_in(self, k: int, h: int) -> int:
        """N_H(K) as a lattice id, for K <= H."""
        key = (k, h)
        if key not in self._local_norm_cache:
            elems = tuple(sorted(g for g in self.elements(h) if self.conj_table[g][k] == k))
            self._local_norm_cache[key] = self._id_of[elems]
        return self._local_norm_cache[key]

    # -- Mobius ---------------------------------------------------------------

    def mobius(self, k: int, h: int) -> int:
        """Mobius value of the interval [K, H] in the subgroup lattice."""
        if not self.leq(k, h):
            raise GroupError("mobius requires K <= H")
        key = (k, h)
        if key not in self._mobius:
            if k == h:
                self._mobius[key] = 1
            else:
                total = 0
                for l in self._down[h]:
                    if l != k and self.leq(k, l):
                        total += self.mobius(l, h)
                self._mobius[key] = -total
        return self._mobius[key]

    # -- Weyl groups ------------------------------------------------------------

    def weyl(self, h: int) -> "WeylData":
        if h not in self._weyl_cache:
            nid = self.normalizers[h]
            n_elems = self.elements(nid)
            G = self.group
            Nstar, to_parent = subgroup_group(G, n_elems, name=f"N({self.name(h)})")
            h_in_n = tuple(sorted(to_parent.index(x) for x in self.elements(h)))
            W, proj_n = quotient_group(Nstar, h_in_n, name=f"W({self.name(h)})")
            proj = {to_parent[i]: proj_n[i] for i in range(Nstar.order)}
            reps = [G.order] * W.order
            for g in n_elems:
                w = proj[g]
                if g < reps[w]:
                    reps[w] = g
            self._weyl_cache[h] = WeylData(W, proj, tuple(reps))
        return self._weyl_cache[h]

    # -- derived lattices ---------------------------------------------------------

    def sub_lattice(self, h: int) -> "SubLatticeView":
        if h not in self._sub_lattice_cache:
            H, to_parent = subgroup_group(self.group, self.elements(h), name=self.name(h))
            lat = SubgroupLattice(H)
            to_parent_sub = tuple(
                self._id_of[tuple(sorted(to_parent[x] for x in s.elements))] for s in lat.subgroups
            )
            from_parent_elem = {to_parent[i]: i for i in range(H.order)}
            self._sub_lattice_cache[h] = SubLatticeView(lat, to_parent, from_parent_elem, to_parent_sub)
        return self._sub_lattice_cache[h]

    def quotient_lattice(self, n: int) -> "QuotientLatticeView":
        if n not in self._quot_lattice_cache:
            Q, proj = quotient_group(self.group, self.elements(n), name=f"{self.group.name}/{self.name(n)}")
            lat = SubgroupLattice(Q)
            to_parent_sub = []
            for s in lat.subgroups:
                pre = tuple(sorted(g for g in range(self.group.order) if proj[g] in set(s.elements)))
                to_parent_sub.append(self._id_of[pre])
            reps = [self.group.order] * Q.order
            for g in range(self.group.order):
                if g < reps[proj[g]]:
                    reps[proj[g]] = g
            self._quot_lattice_cache[n] = QuotientLatticeView(lat, proj, tuple(to_parent_sub), tuple(reps))
        return self._quot_lattice_cache[n]

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.name}: {len(self.subgroups)} subgroups, {len(self.classes)} classes)"


@dataclass(frozen=True)
class WeylData:
    """The Weyl quotient N_G(H)/H materialized as a group.

    ``proj`` maps normalizer elements of the parent group onto Weyl elements;
    ``reps`` picks the smallest parent representative of each Weyl element.
    """

    group: FiniteGroup
    proj: dict
    reps: tuple[int, ...]


@dataclass(frozen=True)
class SubLatticeView:
    """A subgroup realized as a group of its own, with translation tables."""

    lattice: SubgroupLattice
    to_parent_elem: tuple[int, ...]
    from_parent_elem: dict
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
