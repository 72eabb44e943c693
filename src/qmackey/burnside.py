"""The rational Burnside ring of a finite group and of each of its subgroups.

``BurnsideRing(lattice, h)`` is the ring of virtual rational H-sets for a
subgroup H of the ambient group, with one basis class per H-conjugacy class
of subgroups of H.  The ambient lattice supplies all coset combinatorics, so
elements over different subgroups can be restricted and induced without
renumbering anything.

Two independent routes to the primitive idempotents are provided: the Mobius
formula over the subgroup lattice, and inversion of the table of marks.  They
are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        # products, marks and idempotents by class index, kept on the lattice
        self._mul_cache, self._marks_cache, self._idem_cache = lattice.burnside_tables.setdefault(top, ({}, {}, {}))

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
        key = (ci, cj)
        if key not in self._mul_cache:
            lat = self.lattice
            a, b = self.reps[ci], self.reps[cj]
            out = [Fraction(0)] * self.size
            for x in lat.double_cosets(a, b, self.top):
                out[self.class_index[lat.meet(a, lat.conjugate(x, b))]] += 1
            self._mul_cache[key] = tuple(out)
        return self._mul_cache[key]

    def mul(self, a: "BurnsideElement", b: "BurnsideElement") -> "BurnsideElement":
        if a.ring is not self or b.ring is not self:
            raise BurnsideError("elements live in different Burnside rings")
        out = [Fraction(0)] * self.size
        for i, ca in enumerate(a.coeffs):
            if ca == 0:
                continue
            for j, cb in enumerate(b.coeffs):
                if cb == 0:
                    continue
                prod = self._mul_basis(i, j)
                for k in range(self.size):
                    if prod[k]:
                        out[k] += ca * cb * prod[k]
        return BurnsideElement(self, tuple(out))

    # -- marks ------------------------------------------------------------------

    def marks_basis(self, cj: int) -> tuple[int, ...]:
        """Fixed-point counts |(H/B)^A| of the basis class cj at every class (A)."""
        if cj not in self._marks_cache:
            lat = self.lattice
            b = self.reps[cj]
            row = tuple(len(lat.fixed_cosets(b, a, self.top)) for a in self.reps)
            self._marks_cache[cj] = row
        return self._marks_cache[cj]

    def marks(self, a: "BurnsideElement") -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.size
        for j, c in enumerate(a.coeffs):
            if c == 0:
                continue
            row = self.marks_basis(j)
            for i in range(self.size):
                out[i] += c * row[i]
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
        if ci not in self._idem_cache:
            lat = self.lattice
            k0 = self.reps[ci]
            nk = lat.normalizer_in(k0, self.top)
            denom = lat.order(nk)
            coeffs = [Fraction(0)] * self.size
            for l in lat.subgroups_of(k0):
                coeffs[self.class_index[l]] += Fraction(lat.order(l), denom) * lat.mobius(l, k0)
            self._idem_cache[ci] = tuple(coeffs)
        return BurnsideElement(self, self._idem_cache[ci])

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
