"""The rational Burnside ring of a finite group and of each of its subgroups.

``BurnsideRing(lattice, h)`` is the ring of virtual rational H-sets for a
subgroup H of the ambient group, with one basis class per H-conjugacy class
of subgroups of H.  The ambient lattice supplies all coset combinatorics, so
elements over different subgroups can be restricted and induced without
renumbering anything.

All arithmetic goes through the integer table of marks, which the lattice
keeps (``SubgroupLattice.marks``).  A ring holds nothing else, so it is a
plain value: rings over the same lattice object and subgroup are equal, and
``burnside_ring`` builds a new one on every call.  A product has the
entrywise product of the factors' marks, a restriction has the marks read at
the subgroup's classes, and one exact integer back substitution in the
triangular table turns marks back into an element.
The ring's table builders ``restriction_table`` and ``multiplication_table``
run that step alone on integer marks, for ``mackey.burnside_mackey`` and
``monoidal.burnside_green``.

Two independent routes to the primitive idempotents are provided, both in
integer arithmetic.  Gluck's Mobius formula sums |L| mu(L, K) over one sweep of
the interval below K.  The marks route is the triangular integer back
substitution on the unit mark vectors: e_(A_i) has marks delta_i, and it never
reads the Mobius function.  They are cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .groups import SubgroupLattice
from .linalg import QMatrix, _new


class BurnsideError(ValueError):
    pass


_ZERO = Fraction(0)


def burnside_ring(lattice: SubgroupLattice, h: int | None = None) -> "BurnsideRing":
    """The Burnside ring of the subgroup with lattice id ``h`` (default: whole group)."""
    return BurnsideRing(lattice, lattice.top if h is None else h)


class BurnsideRing:
    """A_Q(H): rational linear combinations of the orbit classes [H/K].

    A ring is a value: two rings over the same lattice object and the same
    subgroup are equal, and their elements mix.  Its tables are the lattice's
    ``marks(top)``, read once here.
    """

    def __init__(self, lattice: SubgroupLattice, top: int):
        self.lattice = lattice
        self.top = top
        self.classes = lattice.local_classes(top)
        self.reps = tuple(cls[0] for cls in self.classes)
        self.size = len(self.classes)
        self.class_index, self._marks, self._below = lattice.marks(top)

    def __eq__(self, other) -> bool:
        return isinstance(other, BurnsideRing) and self.lattice is other.lattice and self.top == other.top

    def __hash__(self) -> int:
        return hash((id(self.lattice), self.top))

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

    def mul(self, a: "BurnsideElement", b: "BurnsideElement") -> "BurnsideElement":
        """The product: the element whose marks are the entrywise product of the factors' marks."""
        if a.ring != self or b.ring != self:
            raise BurnsideError("elements live in different Burnside rings")
        (v, d), (w, e) = self._integer_marks(a), self._integer_marks(b)
        return self._from_marks([x * y for x, y in zip(v, w)], d * e)

    # -- marks ------------------------------------------------------------------

    def _integer_marks(self, a: "BurnsideElement") -> tuple[list[int], int]:
        """Integer marks v over a common denominator d > 0: marks(a) = v / d."""
        terms = [(j, c) for j, c in enumerate(a.coeffs) if c]
        d = lcm(*(c.denominator for _, c in terms))
        v = [0] * self.size
        for j, c in terms:
            c = c.numerator * (d // c.denominator)
            v[j] += c * self._marks[j][j]
            for i, m in self._below[j]:
                v[i] += c * m
        return v, d

    def _from_marks(self, v: list[int], d: int) -> "BurnsideElement":
        """The element x with marks(x) = v / d, for integer marks v and an integer d > 0.

        marks(x)_i = sum_j x_j T[j][i] for the table of marks T.  The primitive
        idempotent e_(A_i) has marks delta_i, so x = sum_i (v_i / d) e_(A_i),
        and by Gluck's formula
        e_(A_i) = (1/|N_H(A_i)|) sum_(B <= A_i) |B| mu(B, A_i) [H/B]
        the coefficients of e_(A_i) have denominators dividing |N_H(A_i)|,
        hence |H|.  So z = d |H| x is integral and solves z T = |H| v, which
        ``_back_substitute`` finds; x = z / (d |H|) is the one division.
        """
        n = self.lattice.order(self.top)
        coeffs = [_ZERO] * self.size
        for i, x in self._back_substitute([n * x for x in v]).items():
            coeffs[i] = Fraction(x, d * n)
        return BurnsideElement(self, tuple(coeffs))

    def _back_substitute(self, rest: list[int]) -> dict[int, int]:
        """The z with z T = rest as {i: z_i != 0}, for the table of marks T and an integral z; ``rest`` is used up.

        T[j][i] != 0 with i != j puts a conjugate of A_i properly inside B_j,
        so i < j, as classes are sorted by order: T is triangular, with
        T[i][i] = |N_H(A_i)| / |A_i| never 0, so z is unique.  Back
        substitution from the top class down,
        z_i = (rest_i - sum_(j > i) z_j T[j][i]) / T[i][i], meets only
        integers, so each ``//`` is exact.  Each z_i, once found, is subtracted
        from the rest at once, so only the sparse rows of the nonzero z_i are read.
        """
        z = {}
        for i in range(self.size - 1, -1, -1):
            if rest[i]:
                z[i] = q = rest[i] // self._marks[i][i]
                for k, m in self._below[i]:
                    rest[k] -= q * m
        return z

    def restriction_table(self, k: int) -> QMatrix:
        """res^H_K as an integer matrix: column j is the K-set [H/B_j] in the basis of K's ring.

        A mark does not depend on the acting group, so that K-set has row j of
        the table of marks read at K's classes; back substitution finds its
        integer coefficients.
        """
        target = burnside_ring(self.lattice, k)
        at = [self.class_index[rep] for rep in target.reps]
        return target._table(self.size, (((j,), [row[i] for i in at]) for j, row in enumerate(self._marks)))

    def multiplication_table(self) -> QMatrix:
        """The product as an integer matrix: column i n + j is [H/B_i] [H/B_j], whose marks are the entrywise product.

        The ring is commutative, so each unordered pair i <= j is back-substituted once and fills both columns.
        """
        n, T = self.size, self._marks
        columns = (
            ((i * n + j, j * n + i), [x * y for x, y in zip(T[i], T[j])]) for i in range(n) for j in range(i, n)
        )
        return self._table(n * n, columns)

    def _table(self, cols: int, columns) -> QMatrix:
        """The integer matrix with the z with z T = rest in each column of cs, for every (cs, rest) of ``columns``."""
        body = [{} for _ in range(self.size)]
        for cs, rest in columns:
            for i, x in self._back_substitute(rest).items():
                for c in cs:
                    body[i][c] = x
        return _new(self.size, cols, body)

    def marks_basis(self, cj: int) -> tuple[int, ...]:
        """Fixed-point counts |(H/B)^A| of the basis class cj at every class (A)."""
        return self._marks[cj]

    def marks(self, a: "BurnsideElement") -> tuple[Fraction, ...]:
        v, d = self._integer_marks(a)
        return tuple(Fraction(x, d) for x in v)

    # -- idempotents ----------------------------------------------------------------

    def idempotent(self, k: int) -> "BurnsideElement":
        """The primitive idempotent supported on the class of K, by Gluck's Mobius formula.

        e_(K) = (1/|N_H(K)|) sum_(L <= K) |L| mu(L, K) [H/L], summed per class
        in one sweep of ``mobius_to``.
        """
        ci = self.class_index.get(k)
        if ci is None:
            raise BurnsideError("idempotent index must be a subgroup of the ring's group")
        lat, k0 = self.lattice, self.reps[ci]
        sums = [0] * self.size  # per class, the integer sum of |L| mu(L, K)
        for l, mu in lat.mobius_to(k0).items():
            sums[self.class_index[l]] += lat.order(l) * mu
        denom = lat.order(lat.normalizer_in(k0, self.top))
        return BurnsideElement(self, tuple(Fraction(c, denom) if c else _ZERO for c in sums))

    def idempotents(self) -> list["BurnsideElement"]:
        return [self.idempotent(rep) for rep in self.reps]

    def idempotents_via_marks(self) -> list["BurnsideElement"]:
        """Independent route: e_(A_i) is the element with the unit marks delta_i.

        ``_from_marks`` finds it by the triangular integer back substitution
        in the table of marks, one per unit mark vector; the Mobius function
        is never read.
        """
        return [self._from_marks([int(i == j) for j in range(self.size)], 1) for i in range(self.size)]

    # -- restriction ------------------------------------------------------------------

    def restrict(self, a: "BurnsideElement", to: int) -> "BurnsideElement":
        """The H-set a as a set over the subgroup ``to``.

        The mark |X^A| of an H-set X at A <= K is the same whether X is taken
        over H or over K, so res(a) has a's marks read at K's class
        representatives.
        """
        if a.ring != self:
            raise BurnsideError("element belongs to another ring")
        lat = self.lattice
        if not lat.leq(to, self.top):
            raise BurnsideError("can only restrict to a subgroup")
        target = burnside_ring(lat, to)
        v, d = self._integer_marks(a)
        return target._from_marks([v[self.class_index[r]] for r in target.reps], d)

    def __repr__(self) -> str:
        return f"BurnsideRing({self.lattice.group.name} at {self.lattice.name(self.top)}, {self.size} classes)"


@dataclass(frozen=True)
class BurnsideElement:
    """A rational combination of orbit classes, one coefficient per class."""

    ring: BurnsideRing
    coeffs: tuple[Fraction, ...]

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        if other.ring != self.ring:
            raise BurnsideError("cannot add across rings")
        return BurnsideElement(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        if other.ring != self.ring:
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

    def render(self) -> str:
        """Human form like ``1/2*[C6/C3] - 1/6*[C6/C1]``."""
        parts = []
        for ci in range(self.ring.size - 1, -1, -1):
            c = self.coeffs[ci]
            if c == 0:
                continue
            sym = f"[{self.ring.class_name(ci)}]"
            mag = abs(c)
            try:
                body = sym if mag == 1 else f"{mag}*{sym}"
            except ValueError:  # past sys.get_int_max_str_digits()
                raise BurnsideError(f"the coefficient of {sym} has too many digits to print") from None
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self.render()} over {self.ring.lattice.name(self.ring.top)}>"
