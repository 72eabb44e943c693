"""The dense ``Fraction`` kernels that ``qmackey.linalg`` used before its sparse rows.

Every entry is a ``Fraction`` in a tuple of row tuples, and every kernel
visits every entry, zero or not.  The tests use this as the reference
implementation for the sparse kernels, and ``dense_matrix_to_json`` as the
reference for the sparse matrix writer; nothing in the package imports it.
"""

from __future__ import annotations

from fractions import Fraction

from qmackey.linalg import LinAlgError, SingularMatrixError
from qmackey.serialize import frac_to_str


def dense_matrix_to_json(M) -> list:
    """The JSON rows of a ``QMatrix`` as the writer made them from its dense ``data``: every entry formatted, zeros too."""
    return [[frac_to_str(Fraction(x)) for x in row] for row in M.data]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class DenseMatrix:
    """An immutable matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows: int | None = None, cols: int | None = None):
        if isinstance(data, DenseMatrix):
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
    def zeros(rows: int, cols: int) -> "DenseMatrix":
        return DenseMatrix([[Fraction(0)] * cols for _ in range(rows)], rows=rows, cols=cols)

    @staticmethod
    def identity(n: int) -> "DenseMatrix":
        return DenseMatrix([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols_list, rows: int | None = None) -> "DenseMatrix":
        if not cols_list:
            return DenseMatrix.zeros(rows or 0, 0)
        n = len(cols_list[0])
        return DenseMatrix([[col[i] for col in cols_list] for i in range(n)])

    @staticmethod
    def column(entries) -> "DenseMatrix":
        return DenseMatrix([[x] for x in entries])

    @staticmethod
    def scalar(n: int, value) -> "DenseMatrix":
        v = _frac(value)
        return DenseMatrix([[v if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    # -- plumbing ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DenseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"DenseMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"DenseMatrix[{body}]"

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
        return self.rows == self.cols and self == DenseMatrix.identity(self.rows)

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        return DenseMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            rows=self.rows,
            cols=self.cols,
        )

    def __sub__(self, other: "DenseMatrix") -> "DenseMatrix":
        return self + (-other)

    def __neg__(self) -> "DenseMatrix":
        return DenseMatrix([[-x for x in row] for row in self.data], rows=self.rows, cols=self.cols)

    def scale(self, c) -> "DenseMatrix":
        c = _frac(c)
        return DenseMatrix([[c * x for x in row] for row in self.data], rows=self.rows, cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0:
            return DenseMatrix.zeros(self.rows, other.cols)
        ot = list(zip(*other.data)) if other.data else [()] * other.cols
        out = []
        for row in self.data:
            out.append([sum(a * b for a, b in zip(row, col)) for col in ot])
        return DenseMatrix(out, rows=self.rows, cols=other.cols)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(list(zip(*self.data)) if self.data else [], rows=self.cols, cols=self.rows)

    # -- elimination -----------------------------------------------------------------

    def rref(self) -> tuple["DenseMatrix", tuple[int, ...]]:
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
        return DenseMatrix(m, rows=self.rows, cols=self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "DenseMatrix":
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
        return DenseMatrix.from_cols(cols, rows=self.cols)

    def image(self) -> "DenseMatrix":
        """Columns form the canonical (row-echelon of transpose) basis of the column space."""
        R, pivots = self.transpose().rref()
        cols = [R.row(i) for i in range(len(pivots))]
        return DenseMatrix.from_cols(cols, rows=self.rows)

    def solve(self, rhs: "DenseMatrix") -> "DenseMatrix | None":
        """Solve self @ X = rhs; None when inconsistent.

        With several solutions, free variables are set to zero, which keeps
        the output canonical.
        """
        if rhs.rows != self.rows:
            raise LinAlgError("shape mismatch in solve")
        aug = DenseMatrix(
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
        return DenseMatrix(out, rows=self.cols, cols=rhs.cols)

    def inverse(self) -> "DenseMatrix":
        if self.rows != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        sol = self.solve(DenseMatrix.identity(self.rows))
        if sol is None or (self.matmul(sol) != DenseMatrix.identity(self.rows)):
            raise SingularMatrixError("matrix is singular")
        return sol

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def hstack(*mats: DenseMatrix) -> DenseMatrix:
    mats = [m for m in mats]
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise LinAlgError("hstack needs equal row counts")
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return DenseMatrix(data, rows=rows, cols=sum(m.cols for m in mats))


def vstack(*mats: DenseMatrix) -> DenseMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise LinAlgError("vstack needs equal column counts")
    data = [row for m in mats for row in m.data]
    return DenseMatrix(data, rows=sum(m.rows for m in mats), cols=cols)


def tensor(A: DenseMatrix, B: DenseMatrix) -> DenseMatrix:
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
    return DenseMatrix(out, rows=rows, cols=cols)


def block_matrix(rows: int, cols: int, blocks) -> DenseMatrix:
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
    return DenseMatrix(out, rows=rows, cols=cols)


def permutation_matrix(perm) -> DenseMatrix:
    """Matrix sending basis vector j to basis vector perm[j]."""
    n = len(perm)
    out = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        out[i][j] = Fraction(1)
    return DenseMatrix(out, rows=n, cols=n)


def quotient_space(ambient_dim: int, relations: DenseMatrix) -> tuple[DenseMatrix, DenseMatrix]:
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
    span = relations.image() if relations.cols else DenseMatrix.zeros(ambient_dim, 0)
    k = span.cols
    R, pivots = hstack(span, DenseMatrix.identity(ambient_dim)).rref()
    section = DenseMatrix.from_cols(
        [[Fraction(1 if r == p - k else 0) for r in range(ambient_dim)] for p in pivots[k:]],
        rows=ambient_dim,
    )
    proj = DenseMatrix([row[k:] for row in R.data[k:]], rows=ambient_dim - k, cols=ambient_dim)
    return proj, section
