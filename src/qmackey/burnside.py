"""The rational Burnside ring of a finite group and of each of its subgroups.

``BurnsideRing(lattice, h)`` is the ring of virtual rational H-sets for a
subgroup H of the ambient group, with one basis class per H-conjugacy class
of subgroups of H.  The ambient lattice supplies all coset combinatorics, so
elements over different subgroups can be restricted and induced without
renumbering anything.

All arithmetic goes through the integer table of marks, which the lattice
keeps as one sparse row per class: the nonzero marks of [H/B_j], diagonal last
(``SubgroupLattice.marks``).  Every routine below walks those rows and reads
no dense table.  A ring holds nothing else, so it is a
plain value: rings over the same lattice object and subgroup are equal, and
``burnside_ring`` builds a new one on every call.  A product has the
entrywise product of the factors' marks, a restriction has the marks read at
the subgroup's classes, and one exact integer back substitution in the
triangular table turns marks back into an element.
The ring's table builders ``restriction_table`` and ``multiplication_table``
run that step alone on integer marks, for ``monoidal.burnside_green`` and
``mackey.burnside_mackey``, which keeps its tables as long as the lattice lives.

Two independent routes to the primitive idempotents are provided, both in
integer arithmetic.  Gluck's Mobius formula sums |L| mu(L, K) over one sweep of
the interval below K.  The marks route is the triangular integer back
substitution on the unit mark vectors: e_(A_i) has marks delta_i, and it never
reads the Mobius function.  They are cross-checked in the test suite.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .groups import SubgroupLattice
from .linalg import QMatrix


class BurnsideError(ValueError):
    pass


_ZERO = Fraction(0)


def burnside_ring(lattice: SubgroupLattice, h: int | None = None) -> "BurnsideRing":
    """The Burnside ring of the subgroup with lattice id ``h`` (default: whole group)."""
    return BurnsideRing(lattice, lattice.top if h is None else h)


class BurnsideRing:
    """A_Q(H): rational linear combinations of the orbit classes [H/K].

    A ring is a value: two rings over the same lattice object and the same
    subgroup are equal, and their elements mix.  Its table of marks is the
    lattice's sparse ``marks(top)``, read once here.
    """

    def __init__(self, lattice: SubgroupLattice, top: int):
        self.lattice = lattice
        self.top = top
        self.classes = lattice.local_classes(top)
        self.reps = tuple(cls[0] for cls in self.classes)
        self.size = len(self.classes)
        self.class_index, self._mark_table = lattice.marks(top)

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
        return BurnsideElement(self, tuple(coeffs), (((self.class_index[k], 1),), 1))

    def element(self, coeffs) -> "BurnsideElement":
        coeffs = tuple(coeffs)
        if any(isinstance(c, float) for c in coeffs):
            raise BurnsideError("a coefficient is a float, not an exact rational; pass ints, Fractions or 'p/q' strings")
        if len(coeffs) != self.size:
            raise BurnsideError("coefficient vector has wrong length")
        return BurnsideElement(self, tuple(map(Fraction, coeffs)))

    def class_name(self, ci: int) -> str:
        return f"{self.lattice.name(self.top)}/{self.lattice.class_name_of(self.reps[ci])}"

    # -- multiplication -----------------------------------------------------------

    def mul(self, a: "BurnsideElement", b: "BurnsideElement") -> "BurnsideElement":
        """The product: the element whose marks are the entrywise product of the factors' marks."""
        if a.ring != self or b.ring != self:
            raise BurnsideError("elements live in different Burnside rings")
        v, d = self._integer_marks(a)
        w, e = (v, d) if b is a else self._integer_marks(b)
        v = [x * y for x, y in zip(v, w)]
        while v and not v[-1]:
            v.pop()
        return self._from_marks(v, d * e)

    # -- marks ------------------------------------------------------------------

    def _integer_marks(self, a: "BurnsideElement") -> tuple[list[int], int]:
        """Integer marks v over a common denominator d > 0: marks(a) = v / d, with v ending at its last nonzero mark.

        Row j of T ends at class j, so at the last j with a_j != 0 the mark is a_j T[j][j] != 0, and past it 0.
        Only the nonzero coefficients are read: those ``a`` keeps over a common denominator, if it was built so."""
        if (num := a._num) is None:
            terms = [(j, c) for j, c in enumerate(a.coeffs) if c]
            d = lcm(*(c.denominator for _, c in terms))
            num = [(j, c.numerator * (d // c.denominator)) for j, c in terms]
        else:
            num, d = num
        v = [0] * (max(j for j, _ in num) + 1 if num else 0)
        for j, c in num:
            for i, m in self._mark_table[j].items():
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
        coeffs, z = [_ZERO] * self.size, self._back_substitute([n * x for x in v])
        for i, x in z.items():
            coeffs[i] = Fraction(x, d * n)
        return BurnsideElement(self, tuple(coeffs), (tuple(z.items()), d * n))

    def _back_substitute(self, rest: list[int]) -> dict[int, int]:
        """The z with z T = rest as {i: z_i != 0}, for the table of marks T and an integral z; ``rest`` is used up.

        ``rest`` may stop short of the last class: its missing entries are 0.
        The row of class i holds only classes k <= i, with T[i][i] =
        |N_H(A_i)| / |A_i| never 0 and last, so T is triangular and z is
        unique.  The largest j with z_j != 0 has (z T)_j = z_j T[j][j] != 0,
        as T[l][j] != 0 needs l >= j; so rest_j != 0, z is 0 past the end of
        ``rest``, and the scan starts at its last entry.  A caller keeps it
        short by ending ``rest`` at the highest class its marks can reach.
        Back substitution from there down,
        z_i = (rest_i - sum_(j > i) z_j T[j][i]) / T[i][i], meets only
        integers, so each ``//`` is exact.  Each z_i, once found, subtracts its
        whole row from the rest at once (clearing rest_i), so only the rows of
        the nonzero z_i are read.
        """
        z, rows = {}, self._mark_table
        for i in range(len(rest) - 1, -1, -1):
            if rest[i]:
                row = rows[i]
                z[i] = q = rest[i] // row[i]
                for k, m in row.items():
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
        return target._table(self.size, (((j,), [row.get(i, 0) for i in at]) for j, row in enumerate(self._mark_table)))

    def multiplication_table(self) -> QMatrix:
        """The product as an integer matrix: column i n + j is [H/B_i] [H/B_j], whose marks are the entrywise product.

        The ring is commutative, so each unordered pair i <= j is back-substituted once and fills both columns.
        The marks of [H/B_i] vanish off its row, whose classes are at most i, so the product's marks end at class i.
        """
        n, T = self.size, self._mark_table

        def marks(i, j):
            v, row = [0] * (i + 1), T[j]
            for k, m in T[i].items():
                v[k] = m * row.get(k, 0)
            return v

        return self._table(n * n, (((i * n + j, j * n + i), marks(i, j)) for i in range(n) for j in range(i, n)))

    def _table(self, cols: int, columns) -> QMatrix:
        """The integer matrix with the z with z T = rest in each column of cs, for every (cs, rest) of ``columns``."""
        body = [{} for _ in range(self.size)]
        for cs, rest in columns:
            for i, x in self._back_substitute(rest).items():
                for c in cs:
                    body[i][c] = x
        return QMatrix.sparse(self.size, cols, body)

    def marks_basis(self, cj: int) -> tuple[int, ...]:
        """Fixed-point counts |(H/B)^A| of the basis class cj at every class (A), zeros included."""
        row = self._mark_table[cj]
        return tuple(row.get(i, 0) for i in range(self.size))

    def marks(self, a: "BurnsideElement") -> tuple[Fraction, ...]:
        v, d = self._integer_marks(a)
        return tuple(Fraction(x, d) for x in v) + (_ZERO,) * (self.size - len(v))

    # -- idempotents ----------------------------------------------------------------

    def idempotent(self, k: int) -> "BurnsideElement":
        """The primitive idempotent supported on the class of K, by Gluck's Mobius formula.

        e_(K) = (1/|N_H(K)|) sum_(L <= K) |L| mu(L, K) [H/L], summed per class
        in one sweep of ``mobius_to`` over the interval [1, K].
        """
        ci = self.class_index.get(k)
        if ci is None:
            raise BurnsideError("idempotent index must be a subgroup of the ring's group")
        lat, k0 = self.lattice, self.reps[ci]
        sums = defaultdict(int)  # per class met, the integer sum of |L| mu(L, K)
        for l, mu in lat.mobius_to(k0).items():
            sums[self.class_index[l]] += lat.order(l) * mu
        denom = lat.order(lat.normalizer_in(k0, self.top))
        coeffs, num = [_ZERO] * self.size, tuple((i, c) for i, c in sums.items() if c)
        for i, c in num:
            coeffs[i] = Fraction(c, denom)
        return BurnsideElement(self, tuple(coeffs), (num, denom))

    def idempotents(self) -> list["BurnsideElement"]:
        return [self.idempotent(rep) for rep in self.reps]

    def idempotents_via_marks(self) -> list["BurnsideElement"]:
        """Independent route: e_(A_i) is the element with the unit marks delta_i.

        ``_from_marks`` finds it by the triangular integer back substitution
        in the table of marks, one per unit mark vector, which ends at class i;
        the Mobius function is never read.
        """
        return [self._from_marks([0] * i + [1], 1) for i in range(self.size)]

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
        v += [0] * (self.size - len(v))
        return target._from_marks([v[self.class_index[r]] for r in target.reps], d)

    def __repr__(self) -> str:
        return f"BurnsideRing({self.lattice.group.name} at {self.lattice.name(self.top)}, {self.size} classes)"


@dataclass(frozen=True)
class BurnsideElement:
    """A rational combination of orbit classes, one coefficient per class.  An element the ring builds also keeps
    its nonzero coefficients as ``((class, numerator), ...)`` over one denominator, which products read."""

    ring: BurnsideRing
    coeffs: tuple[Fraction, ...]
    _num: tuple | None = field(default=None, repr=False, compare=False)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        if other.ring != self.ring:
            raise BurnsideError("cannot add across rings")
        return BurnsideElement(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        if other.ring != self.ring:
            raise BurnsideError("cannot subtract across rings")
        return BurnsideElement(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c) -> "BurnsideElement":
        c = Fraction(c)
        return BurnsideElement(self.ring, tuple(c * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, BurnsideElement):
            return self.ring.mul(self, other)
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
