"""The rational Burnside ring of a finite group and of each of its subgroups.

``BurnsideRing(lattice, h)`` is the ring of virtual rational H-sets for a
subgroup H of the ambient group, with one basis class per H-conjugacy class
of subgroups of H.  The ambient lattice supplies all coset combinatorics, so
elements over different subgroups can be restricted and induced without
renumbering anything.

Arithmetic goes through the marks.  The table of marks is read off the
lattice, and a product is the element whose marks are the entrywise product of
the factors' marks, found by back substitution in the triangular table.  The
double-coset structure constants remain only as the multiplication table of
the Burnside Green functor (``monoidal.burnside_green``).

Two independent routes to the primitive idempotents are provided: the Mobius
formula over the subgroup lattice, and inversion of the table of marks.  They
are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groups import SubgroupLattice
from .linalg import QMatrix


class BurnsideError(ValueError):
    pass


def burnside_ring(lattice: SubgroupLattice, h: int | None = None) -> "BurnsideRing":
    """The Burnside ring of the subgroup with lattice id ``h`` (default: whole group).

    The lattice caches its rings by weak reference, since each ring refers
    back to its lattice.  So this returns the same ring object as long as
    that ring, or an element of it, is alive.  A rebuilt ring starts from the
    product, marks and idempotent tables that the lattice keeps per subgroup.
    """
    top = lattice.top if h is None else h
    ring = lattice.burnside_cache.get(top)
    if ring is None:
        ring = BurnsideRing(lattice, top)
        lattice.burnside_cache[top] = ring
    return ring


@dataclass
class _Tables:
    """The tables of one subgroup's Burnside ring, kept on the lattice.

    They hold no ring, so the rings the weak cache rebuilds share them
    without a reference cycle.
    """

    products: dict = field(default_factory=dict)  # (ci, cj) -> structure constants
    idempotents: dict = field(default_factory=dict)  # ci -> Mobius coefficients
    marks: tuple = ()  # marks[j][i] = |(H/B_j)^(A_i)|
    columns: tuple = ()  # columns[i] = the (j, marks[j][i]) with j > i and a nonzero mark


class BurnsideRing:
    """A_Q(H): rational linear combinations of the orbit classes [H/K]."""

    def __init__(self, lattice: SubgroupLattice, top: int):
        self.lattice = lattice
        self.top = top
        self.classes = lattice.local_classes(top)
        self.reps = [cls[0] for cls in self.classes]
        self.class_index = {}
        for ci, cls in enumerate(self.classes):
            for member in cls:
                self.class_index[member] = ci
        self.size = len(self.classes)
        self._tables = lattice.burnside_tables.setdefault(top, _Tables())

    # -- element constructors --------------------------------------------------

    def zero(self) -> "BurnsideElement":
        return BurnsideElement(self, (Fraction(0),) * self.size)

    def unit(self) -> "BurnsideElement":
        return self.basis(self.top)

    def basis(self, k: int) -> "BurnsideElement":
        """The class [H/K] for a subgroup K of H."""
        if k not in self.class_index:
            raise BurnsideError(f"{self.lattice.name(k)} is not a subgroup of {self.lattice.name(self.top)}")
        coeffs = [Fraction(0)] * self.size
        coeffs[self.class_index[k]] = Fraction(1)
        return BurnsideElement(self, tuple(coeffs))

    def element(self, coeffs) -> "BurnsideElement":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.size:
            raise BurnsideError("coefficient vector has wrong length")
        return BurnsideElement(self, coeffs)

    def class_name(self, ci: int) -> str:
        return f"{self.lattice.name(self.top)}/{self.lattice.class_name_of(self.reps[ci])}"

    # -- multiplication -----------------------------------------------------------

    def _mul_basis(self, ci: int, cj: int) -> tuple[Fraction, ...]:
        """Structure constants of [H/A][H/B] from the double cosets A\\H/B.

        Only ``monoidal.burnside_green`` needs them, as its multiplication table.
        """
        key = (ci, cj)
        if key not in self._tables.products:
            lat = self.lattice
            a, b = self.reps[ci], self.reps[cj]
            out = [Fraction(0)] * self.size
            for x in lat.double_cosets(a, b, self.top):
                out[self.class_index[lat.meet(a, lat.conjugate(x, b))]] += 1
            self._tables.products[key] = tuple(out)
        return self._tables.products[key]

    def mul(self, a: "BurnsideElement", b: "BurnsideElement") -> "BurnsideElement":
        """The product through the marks: the element x with marks(x) = marks(a) * marks(b).

        marks(x)_i = sum_j x_j T[j][i] for the table of marks T.  T[j][i] != 0
        with i != j puts a conjugate of A_i properly inside B_j, so
        |A_i| < |B_j|, and i < j because classes are sorted by order.  So
        the equation for column i involves x_i and the x_j with j > i only,
        and the top class down gives
        x_i = (v_i - sum_(j > i) x_j T[j][i]) / T[i][i], where
        T[i][i] = |N_H(A_i)| / |A_i| is never 0.  The mark homomorphism is an
        injective ring map, so x is the product a b.
        """
        if a.ring is not self or b.ring is not self:
            raise BurnsideError("elements live in different Burnside rings")
        tables = self._marks_table()
        v = [x * y for x, y in zip(self.marks(a), self.marks(b))]
        out = [Fraction(0)] * self.size
        for i in range(self.size - 1, -1, -1):
            rest = v[i] - sum(out[j] * m for j, m in tables.columns[i] if out[j])
            if rest:
                out[i] = rest / tables.marks[i][i]
        return BurnsideElement(self, tuple(out))

    # -- marks ------------------------------------------------------------------

    def _marks_table(self) -> _Tables:
        """The tables with the table of marks and its columns filled in, from the lattice.

        T[j][i] = |(H/B_j)^(A_i)| counts the cosets hB_j with
        h^-1 A_i h <= B_j.  That condition holds on whole cosets hB_j, so the
        count is #{h in H : h^-1 A_i h <= B_j} / |B_j|.  The map
        h -> h^-1 A_i h sends H onto the H-class of A_i, and each fibre is a
        coset of N_H(A_i).  So
        T[j][i] = |N_H(A_i)| * #{A' in (A_i)_H : A' <= B_j} / |B_j|.
        """
        tables = self._tables
        if not tables.marks:
            lat = self.lattice
            norms = [lat.order(lat.normalizer_in(a, self.top)) for a in self.reps]
            rows = []
            for b in self.reps:
                below = set(lat.subgroups_of(b))
                rows.append(tuple(
                    n * sum(m in below for m in cls) // lat.order(b) for n, cls in zip(norms, self.classes)
                ))
            tables.columns = tuple(
                tuple((j, rows[j][i]) for j in range(i + 1, self.size) if rows[j][i]) for i in range(self.size)
            )
            tables.marks = tuple(rows)
        return tables

    def marks_basis(self, cj: int) -> tuple[int, ...]:
        """Fixed-point counts |(H/B)^A| of the basis class cj at every class (A)."""
        return self._marks_table().marks[cj]

    def marks(self, a: "BurnsideElement") -> tuple[Fraction, ...]:
        rows = self._marks_table().marks
        out = [Fraction(0)] * self.size
        for j, c in enumerate(a.coeffs):
            if c == 0:
                continue
            for i, m in enumerate(rows[j]):
                if m:
                    out[i] += c * m
        return tuple(out)

    def table_of_marks(self) -> QMatrix:
        """Rows indexed by basis classes [H/B], columns by fixing classes (A)."""
        return QMatrix([list(self.marks_basis(j)) for j in range(self.size)])

    # -- idempotents ----------------------------------------------------------------

    def idempotent(self, k: int) -> "BurnsideElement":
        """The primitive idempotent supported on the class of K, by the Mobius formula."""
        ci = self.class_index.get(k)
        if ci is None:
            raise BurnsideError("idempotent index must be a subgroup of the ring's group")
        if ci not in self._tables.idempotents:
            lat = self.lattice
            k0 = self.reps[ci]
            nk = lat.normalizer_in(k0, self.top)
            denom = lat.order(nk)
            coeffs = [Fraction(0)] * self.size
            for l in lat.subgroups_of(k0):
                coeffs[self.class_index[l]] += Fraction(lat.order(l), denom) * lat.mobius(l, k0)
            self._tables.idempotents[ci] = tuple(coeffs)
        return BurnsideElement(self, self._tables.idempotents[ci])

    def idempotents(self) -> list["BurnsideElement"]:
        return [self.idempotent(rep) for rep in self.reps]

    def idempotents_via_marks(self) -> list["BurnsideElement"]:
        """Independent route: invert the table of marks on characteristic vectors."""
        T = self.table_of_marks().transpose()
        inv = T.inverse()
        out = []
        for ci in range(self.size):
            col = inv.col(ci)
            out.append(BurnsideElement(self, tuple(col)))
        return out

    def express_in_idempotents(self, k: int) -> tuple[Fraction, ...]:
        """Coefficients of [H/K] in the idempotent basis: |N_H L|/|K| per class (L)."""
        ci = self.class_index.get(k)
        if ci is None:
            raise BurnsideError("not a subgroup of the ring's group")
        lat = self.lattice
        k0 = self.reps[ci]
        out = [Fraction(0)] * self.size
        for l in lat.subgroups_of(k0):
            out[self.class_index[l]] += Fraction(
                lat.order(lat.normalizer_in(l, self.top)), lat.order(k0)
            )
        return tuple(out)

    # -- restriction / induction ------------------------------------------------------

    def restrict(self, a: "BurnsideElement", to: int) -> "BurnsideElement":
        """Orbit-decompose each H-set as a set over the subgroup ``to``."""
        if a.ring is not self:
            raise BurnsideError("element belongs to another ring")
        lat = self.lattice
        if not lat.leq(to, self.top):
            raise BurnsideError("can only restrict to a subgroup")
        target = burnside_ring(lat, to)
        out = [Fraction(0)] * target.size
        for j, c in enumerate(a.coeffs):
            if c == 0:
                continue
            b = self.reps[j]
            for x in lat.double_cosets(to, b, self.top):
                out[target.class_index[lat.meet(to, lat.conjugate(x, b))]] += c
        return BurnsideElement(target, tuple(out))

    def induce(self, a: "BurnsideElement") -> "BurnsideElement":
        """Additive induction [A/K] -> [H/K] from a ring over a subgroup A <= H."""
        src = a.ring
        lat = self.lattice
        if src.lattice is not lat or not lat.leq(src.top, self.top):
            raise BurnsideError("can only induce from a subgroup's ring")
        out = [Fraction(0)] * self.size
        for j, c in enumerate(a.coeffs):
            if c == 0:
                continue
            out[self.class_index[src.reps[j]]] += c
        return BurnsideElement(self, tuple(out))

    def __repr__(self) -> str:
        return f"BurnsideRing({self.lattice.group.name} at {self.lattice.name(self.top)}, {self.size} classes)"


@dataclass(frozen=True)
class BurnsideElement:
    """A rational combination of orbit classes, one coefficient per class."""

    ring: BurnsideRing
    coeffs: tuple[Fraction, ...]

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        if other.ring is not self.ring:
            raise BurnsideError("cannot add across rings")
        return BurnsideElement(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        if other.ring is not self.ring:
            raise BurnsideError("cannot subtract across rings")
        return BurnsideElement(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.ring, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "BurnsideElement":
        c = Fraction(c)
        return BurnsideElement(self.ring, tuple(c * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BurnsideElement):
            return self.ring.mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_idempotent(self) -> bool:
        return self.ring.mul(self, self) == self

    def marks(self) -> tuple[Fraction, ...]:
        return self.ring.marks(self)

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[self.ring.class_index[k]]

    def render(self) -> str:
        """Human form like ``1/2*[C6/C3] - 1/6*[C6/C1]``."""
        parts = []
        for ci in range(self.ring.size - 1, -1, -1):
            c = self.coeffs[ci]
            if c == 0:
                continue
            sym = f"[{self.ring.class_name(ci)}]"
            mag = abs(c)
            body = sym if mag == 1 else f"{mag}*{sym}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self.render()} over {self.ring.lattice.name(self.ring.top)}>"
