"""Exact rational matrices and finite-dimensional rational group representations.

Everything is done over ``fractions.Fraction``; no floating point anywhere.
Kernel and image bases come out in a canonical echelon form so that
compositions of the isomorphisms built downstream are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .groups import FiniteGroup, GSet


class LinAlgError(ValueError):
    pass


class SingularMatrixError(LinAlgError):
    pass


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class QMatrix:
    """An immutable matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows: int | None = None, cols: int | None = None):
        if isinstance(data, QMatrix):
            self.rows, self.cols, self.data = data.rows, data.cols, data.data
            return
        table = tuple(tuple(_frac(x) for x in row) for row in data)
        self.rows = len(table) if rows is None else rows
        if table:
            self.cols = len(table[0])
            if any(len(r) != self.cols for r in table):
                raise LinAlgError("ragged rows")
        else:
            self.cols = cols or 0
        self.data = table

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix([[Fraction(0)] * cols for _ in range(rows)], rows=rows, cols=cols)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols_list, rows: int | None = None) -> "QMatrix":
        if not cols_list:
            return QMatrix.zeros(rows or 0, 0)
        n = len(cols_list[0])
        return QMatrix([[col[i] for col in cols_list] for i in range(n)])

    @staticmethod
    def column(entries) -> "QMatrix":
        return QMatrix([[x] for x in entries])

    @staticmethod
    def scalar(n: int, value) -> "QMatrix":
        v = _frac(value)
        return QMatrix([[v if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"QMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix[{body}]"

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == QMatrix.identity(self.rows)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        return QMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            rows=self.rows,
            cols=self.cols,
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-x for x in row] for row in self.data], rows=self.rows, cols=self.cols)

    def scale(self, c) -> "QMatrix":
        c = _frac(c)
        return QMatrix([[c * x for x in row] for row in self.data], rows=self.rows, cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0:
            return QMatrix.zeros(self.rows, other.cols)
        ot = list(zip(*other.data)) if other.data else [()] * other.cols
        out = []
        for row in self.data:
            out.append([sum(a * b for a, b in zip(row, col)) for col in ot])
        return QMatrix(out, rows=self.rows, cols=other.cols)

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.data)) if self.data else [], rows=self.cols, cols=self.rows)

    # -- elimination -----------------------------------------------------------------

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pv = m[r][c]
            if pv != 1:
                m[r] = [x / pv for x in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return QMatrix(m, rows=self.rows, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "QMatrix":
        """Columns form the canonical basis of the null space."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        cols = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -R.data[r][fc]
            cols.append(v)
        return QMatrix.from_cols(cols, rows=self.cols)

    def image(self) -> "QMatrix":
        """Columns form the canonical (row-echelon of transpose) basis of the column space."""
        R, pivots = self.transpose().rref()
        cols = [R.row(i) for i in range(len(pivots))]
        return QMatrix.from_cols(cols, rows=self.rows)

    def solve(self, rhs: "QMatrix") -> "QMatrix | None":
        """Solve self @ X = rhs; None when inconsistent.

        With several solutions, free variables are set to zero, which keeps
        the output canonical.
        """
        if rhs.rows != self.rows:
            raise LinAlgError("shape mismatch in solve")
        aug = QMatrix(
            [list(r1) + list(r2) for r1, r2 in zip(self.data, rhs.data)]
            if self.rows
            else [],
            rows=self.rows,
            cols=self.cols + rhs.cols,
        )
        R, pivots = aug.rref()
        for c in pivots:
            if c >= self.cols:
                return None
        out = [[Fraction(0)] * rhs.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            for j in range(rhs.cols):
                out[pc][j] = R.data[r][self.cols + j]
        return QMatrix(out, rows=self.cols, cols=rhs.cols)

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        sol = self.solve(QMatrix.identity(self.rows))
        if sol is None or (self.matmul(sol) != QMatrix.identity(self.rows)):
            raise SingularMatrixError("matrix is singular")
        return sol

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def hstack(*mats: QMatrix) -> QMatrix:
    mats = [m for m in mats]
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise LinAlgError("hstack needs equal row counts")
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return QMatrix(data, rows=rows, cols=sum(m.cols for m in mats))


def vstack(*mats: QMatrix) -> QMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise LinAlgError("vstack needs equal column counts")
    data = [row for m in mats for row in m.data]
    return QMatrix(data, rows=sum(m.rows for m in mats), cols=cols)


def tensor(A: QMatrix, B: QMatrix) -> QMatrix:
    """Kronecker product; index (i, j) of the result is i_A * rows_B + i_B etc."""
    rows, cols = A.rows * B.rows, A.cols * B.cols
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for ia in range(A.rows):
        for ja in range(A.cols):
            a = A.data[ia][ja]
            if a == 0:
                continue
            for ib in range(B.rows):
                rb = B.data[ib]
                orow = out[ia * B.rows + ib]
                base = ja * B.cols
                for jb in range(B.cols):
                    if rb[jb] != 0:
                        orow[base + jb] = a * rb[jb]
    return QMatrix(out, rows=rows, cols=cols)


def block_matrix(rows: int, cols: int, blocks) -> QMatrix:
    """The rows x cols matrix that is the sum of ``(row offset, col offset, block)`` placements.

    Blocks may overlap; overlapping entries add.
    """
    zero = Fraction(0)
    out = [[zero] * cols for _ in range(rows)]
    end = [0] * rows  # one past the last column written in each row
    for ro, co, B in blocks:
        if ro < 0 or co < 0 or ro + B.rows > rows or co + B.cols > cols:
            raise LinAlgError("block does not fit")
        for i, brow in enumerate(B.data, ro):
            orow = out[i]
            if co >= end[i]:
                orow[co : co + B.cols] = brow
            else:
                for j, x in enumerate(brow, co):
                    if x:
                        orow[j] += x
            end[i] = max(end[i], co + B.cols)
    return QMatrix(out, rows=rows, cols=cols)


def direct_sum(A: QMatrix, B: QMatrix) -> QMatrix:
    return block_matrix(A.rows + B.rows, A.cols + B.cols, [(0, 0, A), (A.rows, A.cols, B)])


def permutation_matrix(perm) -> QMatrix:
    """Matrix sending basis vector j to basis vector perm[j]."""
    n = len(perm)
    out = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        out[i][j] = Fraction(1)
    return QMatrix(out, rows=n, cols=n)


def restrict_map(ambient: QMatrix, src_basis: QMatrix, dst_basis: QMatrix) -> QMatrix:
    """Express an ambient-space map in chosen bases of source/target subspaces.

    Raises when the ambient map does not carry the source subspace into the
    target one; the callers rely on that as a correctness check.
    """
    mapped = ambient.matmul(src_basis)
    coeff = dst_basis.solve(mapped)
    if coeff is None or dst_basis.matmul(coeff) != mapped:
        raise LinAlgError("map does not preserve the given subspaces")
    return coeff


def quotient_space(ambient_dim: int, relations: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Quotient of Q^n by the column span of ``relations``.

    Returns ``(projection, section)`` with ``projection @ section`` the
    identity of the quotient.

    Let ``span`` be the canonical basis of the relation span, with k columns,
    and run one ``rref`` of ``[span | I]``.  A column is a pivot exactly when
    it lies outside the span of the columns before it.  The columns of
    ``span`` are independent, so they are the first k pivots; the remaining
    pivots fall in the ``I`` block, and each picks the first standard basis
    vector outside the span of ``span`` and of the vectors already picked.
    Those vectors form the section.  The matrix has rank n, so its reduced
    form has the identity in the pivot columns: the ``I`` block of the
    reduced form E satisfies ``E [span | section] = I``, that is
    ``E = [span | section]^-1``.  Rows k: of E are the projection, which
    kills the span and inverts the section.
    """
    if relations.cols and relations.rows != ambient_dim:
        raise LinAlgError("relations live in the wrong ambient space")
    span = relations.image() if relations.cols else QMatrix.zeros(ambient_dim, 0)
    k = span.cols
    R, pivots = hstack(span, QMatrix.identity(ambient_dim)).rref()
    section = QMatrix.from_cols(
        [[Fraction(1 if r == p - k else 0) for r in range(ambient_dim)] for p in pivots[k:]],
        rows=ambient_dim,
    )
    proj = QMatrix([row[k:] for row in R.data[k:]], rows=ambient_dim - k, cols=ambient_dim)
    return proj, section


# ---------------------------------------------------------------------------
# rational representations
# ---------------------------------------------------------------------------


@dataclass
class WModule:
    """A finite-dimensional rational representation of a finite group.

    Only the generator matrices are stored; the matrix of an arbitrary element
    is assembled from the word decomposition recorded when the group was
    closed.
    """

    group: FiniteGroup
    dim: int
    gen_matrices: tuple[QMatrix, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.gen_matrices = tuple(QMatrix(m) for m in self.gen_matrices)
        if len(self.gen_matrices) != len(self.group.gens):
            raise LinAlgError("need one matrix per group generator")
        for m in self.gen_matrices:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise LinAlgError("generator matrix has wrong shape")

    def matrix(self, g: int) -> QMatrix:
        if g not in self._cache:
            acc = QMatrix.identity(self.dim)
            for pos in self.group.word(g):
                acc = acc.matmul(self.gen_matrices[pos])
            self._cache[g] = acc
        return self._cache[g]

    def validate(self) -> None:
        """Check the generator matrices satisfy the group's relations and are invertible."""
        for m in self.gen_matrices:
            if not m.is_invertible():
                raise LinAlgError("generator matrix is singular")
        G = self.group
        for g in range(G.order):
            mg = self.matrix(g)
            for pos, s in enumerate(G.gens):
                if self.matrix(G.mul(g, s)) != mg.matmul(self.gen_matrices[pos]):
                    raise LinAlgError(f"matrices violate the relation at ({g},{s})")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def trivial(group: FiniteGroup, dim: int = 1) -> "WModule":
        eye = QMatrix.identity(dim)
        return WModule(group, dim, tuple(eye for _ in group.gens))

    @staticmethod
    def zero(group: FiniteGroup) -> "WModule":
        empty = QMatrix.zeros(0, 0)
        return WModule(group, 0, tuple(empty for _ in group.gens))

    @staticmethod
    def from_gset(group: FiniteGroup, gset: GSet) -> "WModule":
        """Permutation module on an explicit finite G-set."""
        mats = tuple(permutation_matrix(gset.act[s]) for s in group.gens)
        return WModule(group, gset.size, mats)

    @staticmethod
    def regular(group: FiniteGroup) -> "WModule":
        act = tuple(tuple(group.mul(g, x) for x in range(group.order)) for g in range(group.order))
        return WModule.from_gset(group, GSet(group, act))

    def conjugated(self, T: QMatrix) -> "WModule":
        Ti = T.inverse()
        return WModule(self.group, self.dim, tuple(T.matmul(m).matmul(Ti) for m in self.gen_matrices))

    def direct_sum(self, other: "WModule") -> "WModule":
        if other.group is not self.group:
            raise LinAlgError("direct sum needs a common group")
        mats = tuple(direct_sum(a, b) for a, b in zip(self.gen_matrices, other.gen_matrices))
        return WModule(self.group, self.dim + other.dim, mats)

    def character(self) -> list[Fraction]:
        return [sum(self.matrix(g).data[i][i] for i in range(self.dim)) for g in range(self.group.order)]


def fixed_subspace(V: WModule, elems) -> QMatrix:
    """Canonical basis of the simultaneous fixed space of the listed elements."""
    elems = [g for g in elems if g != V.group.identity]
    if not elems or V.dim == 0:
        return QMatrix.identity(V.dim)
    eye = QMatrix.identity(V.dim)
    stacked = vstack(*[V.matrix(g) - eye for g in elems])
    return stacked.kernel()


def averaging_projector(V: WModule, elems) -> QMatrix:
    """The idempotent (1/|S|) sum of the action of a subgroup S."""
    elems = list(elems)
    acc = QMatrix.zeros(V.dim, V.dim)
    for g in elems:
        acc = acc + V.matrix(g)
    return acc.scale(Fraction(1, len(elems)))


def trivial_multiplicity(V: WModule) -> Fraction:
    """Multiplicity of the trivial representation, by the character inner product."""
    total = sum(V.character(), Fraction(0))
    return total / V.group.order


def intertwiner(V1: WModule, V2: WModule) -> QMatrix | None:
    """An invertible equivariant map V1 -> V2, if one can be found by averaging.

    Runs over a deterministic family of seed matrices; returns None when no
    invertible average shows up (in particular when the modules are not
    isomorphic).
    """
    if V1.group is not V2.group and V1.group.order != V2.group.order:
        raise LinAlgError("modules live over different groups")
    if V1.dim != V2.dim:
        return None
    if V1.dim == 0:
        return QMatrix.zeros(0, 0)
    G = V1.group
    n = V1.dim
    seeds = []
    for i in range(n):
        for j in range(n):
            seeds.append((i, j))
    acc = QMatrix.zeros(n, n)
    for i, j in seeds:
        E = QMatrix([[Fraction(1 if (r, c) == (i, j) else 0) for c in range(n)] for r in range(n)])
        avg = QMatrix.zeros(n, n)
        for g in range(G.order):
            avg = avg + V2.matrix(g).matmul(E).matmul(V1.matrix(G.inv(g)))
        if avg.is_invertible():
            return avg
        acc = acc + avg
        if acc.is_invertible():
            return acc
    return None
