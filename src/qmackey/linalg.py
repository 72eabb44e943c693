"""Exact rational matrices and finite-dimensional rational group representations.

Everything is exact; no floating point anywhere.  A ``QMatrix`` stores each
row as one ``{column: int}`` dict of its nonzero numerators and one
denominator d > 0, with gcd(d, numerators) = 1; the denominators sit in one
tuple, which is None when every row is integral.  That is a unique normal
form of a rational row, so ``==`` and ``hash`` compare the stored rows and
denominators directly, and every kernel works in ``int`` arithmetic: an
integral matrix runs the plain integer loops, and any other scales the rows
it reads to a common denominator and divides each output row by its gcd with
its own.  The rows are private to this module and never change once a matrix
holds them, so matrices share rows freely.  ``data``, ``row``, ``col``,
``entry`` and ``entries`` build ``Fraction``s on demand.

Kernel and image bases come out in a canonical echelon form (the reduced row
echelon form is unique) so that compositions of the isomorphisms built
downstream are reproducible run to run.  Such a basis, like an identity,
keeps the unit rows of its identity block in a private slot, and ``solve``
on it selects those rows and checks one product; any other matrix is
eliminated together with the right-hand side.

A square n x n matrix that keeps unit rows S is the identity, so ``matmul``
returns the other factor: row S[t] is e_t, and every producer (``identity``,
``kernel``, ``image``, ``selection_matrix`` on increasing targets) lists S in
increasing order, so n increasing entries of range(n) give S[t] = t.
``QMatrix.sparse`` returns ``identity(n)`` for a square body whose row i is
e_i, and ``transpose`` returns such an identity itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate, chain
from math import gcd, lcm

from .groups import FiniteGroup, GSet


class LinAlgError(ValueError):
    pass


class SingularMatrixError(LinAlgError):
    pass


_ZERO = Fraction(0)
_INT = frozenset((int,))


def _nf(x):
    """The normal form of a rational: an ``int`` when integral, else a ``Fraction``; a ``float`` is refused."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise LinAlgError(f"{x!r} is a float, not an exact rational; pass an int, a Fraction or a 'p/q' string")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


_SMALL = {x: Fraction(x) for x in range(-64, 65)}  # one shared instance of each small integral value


def _value(x: int, d: int):
    """x / d in normal form."""
    return x if d == 1 else x // d if x % d == 0 else Fraction(x, d)


def _new(rows: int, cols: int, body, unit_rows=None, dens=None) -> "QMatrix":
    """A matrix from normal-form integer rows over ``dens`` (None when all are 1), bypassing ``__init__``."""
    m = object.__new__(QMatrix)
    if dens is not None and (dens := tuple(dens)).count(1) == len(dens):
        dens = None
    m.rows, m.cols, m._rows, m._dens, m._unit_rows = rows, cols, tuple(body), dens, unit_rows
    return m


def _over(rows: int, cols: int, body, dens) -> "QMatrix":
    """The matrix with row i ``body[i] / dens[i]``, for integer rows and d > 0: each divided by its gcd with d."""
    if not dens:
        return _new(rows, cols, body)
    body, dens = list(body), list(dens)
    for i, (row, d) in enumerate(zip(body, dens)):
        if d != 1 and (g := gcd(d, *row.values())) != 1:
            body[i], dens[i] = {j: x // g for j, x in row.items()}, d // g
    return _new(rows, cols, body, dens=dens)


def _rational(rows: int, cols: int, body) -> "QMatrix":
    """The matrix with the ``{column: value}`` rows of ``body``, whose values are nonzero and in normal form.  Over
    the lcm L of a row's denominators the row is already in normal form: a prime power p^k exactly dividing L
    exactly divides some entry's reduced denominator, and that entry's numerator times L / denominator is prime to p."""
    if _INT.issuperset(map(type, chain.from_iterable(map(dict.values, body)))):
        return _new(rows, cols, body)
    dens = [lcm(*(x.denominator for x in row.values())) for row in body]
    return _new(rows, cols, [row if L == 1 else {j: x.numerator * (L // x.denominator) for j, x in row.items()}
                             for row, L in zip(body, dens)], dens=dens)


def _stacked_dens(mats):
    """The denominators of the rows of ``mats`` one above the other, None when all are 1."""
    for m in mats:
        if m._dens:
            return [d for n in mats for d in n._dens or (1,) * n.rows]


def _transposed(body, dens, cols: int) -> tuple[list[dict], list[int] | None]:
    """The rows of the transpose of the integer rows ``body`` over ``dens``, and their denominators before ``_over``
    divides out their gcds: over the lcm L of ``dens``, entry (i, j) of ``body`` over d_i is its times L / d_i over L."""
    out, L = [{} for _ in range(cols)], lcm(*dens) if dens else 1
    for i, row in enumerate(body):
        f = L // dens[i] if dens else 1
        for j, x in row.items():
            out[j][i] = x * f
    return out, dens and [L] * cols


def _add_into(acc: dict, src: dict, co: int, f: int) -> None:
    """``acc += f * src`` in place, ``src`` shifted by ``co`` columns; ``acc`` stays sparse."""
    for j, x in src.items():
        j += co
        if j not in acc:
            acc[j] = f * x
        elif v := acc[j] + f * x:
            acc[j] = v
        else:
            del acc[j]


def _primitive(row: dict, c: int) -> dict:
    """``row`` divided by the gcd of its entries, signed so that the entry at column c is positive."""
    g = 1 if row[c] == 1 else gcd(*row.values()) if row[c] > 0 else -gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _cleared(row: dict, prow: dict, c: int) -> dict:
    """The primitive multiple of a row - b prow, a = prow[c] / g > 0 and b = row[c] / g with g their gcd: it is 0
    at column c, and its sign at any other column is that of a row - b prow."""
    a, b = prow[c] // (g := gcd(row[c], prow[c])), row[c] // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    _add_into(out, prow, 0, -b)
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _rref_rows(body) -> tuple[list[dict], list[int]]:
    """The nonzero rows of the reduced row echelon form of the integer rows ``body``, and their pivot columns.

    Each comes out primitive with a positive pivot, so the reduced row at pivot c is ``row / row[c]`` in normal
    form.  Scaling a row keeps the row space, so a rational matrix is eliminated on its numerators alone, fraction
    free: each combination a row - b prow is divided by its content (Bareiss, *Math. Comp.* 22, 1968, without the
    exact division), and each pivot row is made primitive with a positive pivot when it is chosen.

    Forward elimination: the next pivot column c is the smallest leading column among the rows not yet used, and
    every such row leading at c is a candidate.  The candidate with the fewest entries becomes the pivot row, which
    keeps fill-in down; the others are cleared at c.  The pending lead columns sit in a heap, each pushed with its
    first row.  Back substitution then reduces the pivot rows last first: each later row is reduced already, so it
    holds no pivot column but its own, and a row is cleared by the later rows whose pivot columns it holds, last
    first; a > 0 keeps its pivot positive.  The reduced form is unique, and so is its primitive row with a positive
    pivot, so neither the choice of pivot rows nor the order of the combinations shows in the output.
    """
    by_lead: dict[int, list[dict]] = {}
    for row in body:
        if row:
            by_lead.setdefault(min(row), []).append(row)
    leads = sorted(by_lead)  # the keys of by_lead, as a heap
    pivot_rows, pivots = [], []
    while leads:
        c = heappop(leads)
        cands = by_lead.pop(c)
        prow = _primitive(cands.pop(min(range(len(cands)), key=lambda i: len(cands[i]))), c)
        for row in cands:
            if row := _cleared(row, prow, c):
                if (lead := min(row)) not in by_lead:
                    heappush(leads, lead)
                by_lead.setdefault(lead, []).append(row)
        pivot_rows.append(prow)
        pivots.append(c)
    row_of = dict(zip(pivots, pivot_rows))
    for t in range(len(pivots) - 1, -1, -1):
        c, row = pivots[t], pivot_rows[t]
        for d in sorted(row.keys() & row_of.keys(), reverse=True):
            if d != c:
                row = _cleared(row, row_of[d], d)
        pivot_rows[t] = row_of[c] = row
    return pivot_rows, pivots


class QMatrix:
    """An immutable matrix of exact rationals, stored as sparse integer rows with one denominator each."""

    __slots__ = ("rows", "cols", "_rows", "_dens", "_unit_rows")

    def __init__(self, data, rows: int | None = None, cols: int | None = None):
        if not isinstance(data, QMatrix):
            table = [list(row) for row in data]
            width = len(table[0]) if table else cols or 0
            if any(len(r) != width for r in table):
                raise LinAlgError("ragged rows")
            if table and (rows not in (None, len(table)) or cols not in (None, width)):
                raise LinAlgError("the row or column count does not match the data")
            body = [{j: v for j, x in enumerate(row) if (v := x if type(x) is int else _nf(x))} for row in table]
            data = _rational(len(body), width, body) if body else QMatrix.zeros(rows or 0, width)
        self.rows, self.cols, self._rows, self._dens, self._unit_rows = data.rows, data.cols, data._rows, data._dens, data._unit_rows

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return _new(rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return _new(n, n, [{i: 1} for i in range(n)], tuple(range(n)))

    @staticmethod
    def scalar(n: int, value) -> "QMatrix":
        v = _nf(value)
        return _rational(n, n, [{i: v} if v else {} for i in range(n)])

    @staticmethod
    def sparse(rows: int, cols: int, body) -> "QMatrix":
        """Row i from the ``{column: value}`` dict body[i], copied in normal form; ``identity(rows)`` for a square body
        whose row i is e_i.  Refuses a ``body`` of another length than ``rows``, a column outside range(cols) and a float."""
        if len(body) != rows or (used := set().union(*body)) and (min(used) < 0 or max(used) >= cols):
            raise LinAlgError(f"the rows do not fit a {rows} x {cols} matrix")
        out = [{j: v for j, x in row.items() if (v := x if type(x) is int else _nf(x))} for row in body]
        return QMatrix.identity(rows) if rows == cols and all(row == {i: 1} for i, row in enumerate(out)) else _rational(rows, cols, out)

    # -- plumbing ---------------------------------------------------------------

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as a tuple of row tuples of ``Fraction``s."""
        return tuple(map(self.row, range(self.rows)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.rows == other.rows and self.cols == other.cols
                and self._rows == other._rows and self._dens == other._dens)

    def __hash__(self):
        return hash((self.rows, self.cols, self._dens, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"QMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix[{body}]"

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._rows[i].get(j, 0), self._dens[i] if self._dens else 1)

    def row(self, i: int) -> tuple[Fraction, ...]:
        line, d = [_ZERO] * self.cols, self._dens[i] if self._dens else 1
        for j, x in self._rows[i].items():
            line[j] = (_SMALL.get(x) or Fraction(x)) if d == 1 else Fraction(x, d)
        return tuple(line)

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    def row_block(self, start: int, count: int) -> "QMatrix":
        """The ``count`` rows from row ``start`` on, sharing their storage; raises past the last row."""
        if min(start, count) < 0 or start + count > self.rows:
            raise LinAlgError("rows out of range")
        return _new(count, self.cols, self._rows[start : start + count], dens=self._dens and self._dens[start : start + count])

    def entries(self):
        """The stored nonzero entries as ``(i, j, value)``, row by row, each value an ``int`` or a ``Fraction``."""
        if self._dens is None:
            return ((i, j, x) for i, row in enumerate(self._rows) for j, x in row.items())
        return ((i, j, _value(x, d)) for i, (row, d) in enumerate(zip(self._rows, self._dens)) for j, x in row.items())

    def nonzero_cols(self) -> set[int]:
        """The indices of the columns that hold a nonzero entry."""
        return {j for row in self._rows for j in row}

    def is_zero(self) -> bool:
        return not any(self._rows)

    def _is_eye(self) -> bool:
        """Square with unit rows kept, hence the identity (module docstring)."""
        return self._unit_rows is not None and self.rows == self.cols

    def is_identity(self) -> bool:
        return self._is_eye() or self._dens is None and self.rows == self.cols and all(row == {i: 1} for i, row in enumerate(self._rows))

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        return block_matrix(self.rows, self.cols, [(0, 0, self), (0, 0, other)])

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return _new(self.rows, self.cols, [{j: -x for j, x in row.items()} for row in self._rows], dens=self._dens)

    def scale(self, c) -> "QMatrix":
        c = _nf(c)
        if not c:
            return QMatrix.zeros(self.rows, self.cols)
        p, q = c.numerator, c.denominator
        body = [{j: p * x for j, x in row.items()} for row in self._rows] if p != 1 else self._rows
        return _over(self.rows, self.cols, body, [q * d for d in self._dens or (1,) * self.rows])

    def matmul(self, other: "QMatrix") -> "QMatrix":
        """Row i of A B is (1 / (d_i L_i)) sum_k a_ik (L_i / d_k) B_k, d_k the denominator of row k of B and L_i
        their lcm over the k row i reads; when B is integral, the rows of A are multiplied as they are."""
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self._is_eye():
            return other
        if other._is_eye():
            return self
        A, D = self._rows, self._dens
        if (Bd := other._dens) is not None:
            lcms = [lcm(*map(Bd.__getitem__, row)) for row in A]
            A = [{k: a * (L // Bd[k]) for k, a in row.items()} for row, L in zip(A, lcms)]
            D = [L * d for L, d in zip(lcms, D or (1,) * self.rows)]
        B, out = other._rows, []
        for row in A:
            if len(row) == 1:
                ((k, a),) = row.items()
                out.append(B[k] if a == 1 else {j: a * b for j, b in B[k].items()})
                continue
            acc = {}
            for k, a in row.items():
                for j, b in B[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            out.append({j: v for j, v in acc.items() if v})
        return _new(self.rows, other.cols, out) if D is None else _over(self.rows, other.cols, out, D)

    def transpose(self) -> "QMatrix":
        return self if self._is_eye() else _over(self.cols, self.rows, *_transposed(self._rows, self._dens, self.cols))

    # -- elimination -----------------------------------------------------------------

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        body, pivots = _rref_rows(self._rows)
        pad = self.rows - len(body)
        return _new(self.rows, self.cols, body + [{}] * pad, dens=[row[c] for row, c in zip(body, pivots)] + [1] * pad), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "QMatrix":
        """Columns form the canonical basis of the null space; ``solve`` selects its unit free rows.  A reduced row
        at pivot c is row / row[c] for a primitive integer row, so -row off c over row[c] is in normal form."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = {c: t for t, c in enumerate(c for c in range(self.cols) if c not in pivot_set)}
        out, dens = [{free[c]: 1} if c in free else {} for c in range(self.cols)], [1] * self.cols
        for pc, row in zip(pivots, R._rows):
            out[pc], dens[pc] = {free[j]: -x for j, x in row.items() if j != pc}, row[pc]
        return _new(self.cols, len(free), out, tuple(free), dens=dens)

    def image(self) -> "QMatrix":
        """The canonical column-space basis (row-echelon of transpose); ``solve`` selects its unit pivot rows."""
        R, pivots = self.transpose().rref()
        T = _over(self.rows, len(pivots), *_transposed(R._rows[: len(pivots)], R._dens, self.rows))
        return _new(self.rows, len(pivots), T._rows, pivots, dens=T._dens)

    def solve(self, rhs: "QMatrix") -> "QMatrix | None":
        """Solve self @ X = rhs; None when inconsistent.

        With several solutions, free variables are set to zero, which keeps
        the output canonical.

        A ``kernel``, ``image``, ``identity`` or increasing ``selection_matrix``
        basis B has B[S] = I on its unit rows S.  A solution Y has
        Y = B[S] Y = rhs[S] =: X, so B @ X == rhs exactly when rhs is in B's
        span, and X is then unique.

        Any other A = self is eliminated once together with rhs.  A row of the
        reduced form of ``[A | rhs]`` that pivots past A's columns reads
        0 = nonzero, so the system is inconsistent exactly when the last pivot
        does.  Otherwise the row at the t-th pivot column gives that unknown,
        plus free unknowns, as its rhs part; the free unknowns are set to 0.
        """
        if rhs.rows != self.rows:
            raise LinAlgError("shape mismatch in solve")
        if (S := self._unit_rows) is not None:
            X = _new(self.cols, rhs.cols, [rhs._rows[i] for i in S], dens=rhs._dens and [rhs._dens[i] for i in S])
            return X if self.matmul(X) == rhs else None
        n = self.cols
        R, pivots = hstack(self, rhs).rref()
        if pivots and pivots[-1] >= n:
            return None
        out, dens = [{} for _ in range(n)], [1] * n
        for pc, row in zip(pivots, R._rows):
            out[pc], dens[pc] = {j - n: x for j, x in row.items() if j >= n}, row[pc]
        return _over(n, rhs.cols, out, dens)

    def inverse(self) -> "QMatrix":
        """The inverse.  ``self @ X = I`` is solvable only at full rank, and then X is unique."""
        if self.rows != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        sol = self.solve(QMatrix.identity(self.rows))
        if sol is None:
            raise SingularMatrixError("matrix is singular")
        return sol

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def hstack(*mats: QMatrix) -> QMatrix:
    if any(m.rows != mats[0].rows for m in mats):
        raise LinAlgError("hstack needs equal row counts")
    offsets = [0, *accumulate(m.cols for m in mats)]
    return block_matrix(mats[0].rows, offsets[-1], zip([0] * len(mats), offsets, mats))


def vstack(*mats: QMatrix) -> QMatrix:
    cols, body = mats[0].cols, []
    for m in mats:
        if m.cols != cols:
            raise LinAlgError("vstack needs equal column counts")
        body += m._rows
    return _new(len(body), cols, body, dens=_stacked_dens(mats))


def tensor(A: QMatrix, B: QMatrix) -> QMatrix:
    """Kronecker product; index (i, j) is i_A * rows_B + i_B etc.  Two kept identities give the kept identity."""
    if A._is_eye() and B._is_eye():
        return QMatrix.identity(A.rows * B.rows)
    bc = B.cols
    out = []
    for ra in A._rows:
        for rb in B._rows:
            row = {}
            if rb:
                for ja, a in ra.items():
                    base = ja * bc
                    for jb, b in rb.items():
                        row[base + jb] = a * b
            out.append(row)
    dens = (A._dens or B._dens) and [p * q for p in A._dens or (1,) * A.rows for q in B._dens or (1,) * B.rows]
    return _over(A.rows * B.rows, A.cols * bc, out, dens)


def block_matrix(rows: int, cols: int, blocks) -> QMatrix:
    """The rows x cols matrix that is the sum of ``(row offset, col offset, block)`` placements.

    Blocks may overlap; overlapping entries add, over the lcm of their rows' denominators.
    """
    blocks, dens = list(blocks), None
    for ro, co, B in blocks:
        if ro < 0 or co < 0 or ro + B.rows > rows or co + B.cols > cols:
            raise LinAlgError("block does not fit")
        for i, d in enumerate(B._dens or (), ro):
            dens = dens or [1] * rows
            dens[i] = lcm(dens[i], d)
    out = [{} for _ in range(rows)]
    for ro, co, B in blocks:
        for i, brow in enumerate(B._rows, ro):
            if brow:
                _add_into(out[i], brow, co, 1 if dens is None else dens[i] // B._dens[i - ro] if B._dens else dens[i])
    return _new(rows, cols, out) if dens is None else _over(rows, cols, out, dens)


def direct_sum(*mats: QMatrix) -> QMatrix:
    """The block-diagonal matrix of any number of blocks, in one pass; rows are shared."""
    out, cols = [], 0
    for A in mats:
        out.extend({j + cols: x for j, x in row.items()} if cols else row for row in A._rows)
        cols += A.cols
    return _new(len(out), cols, out, dens=_stacked_dens(mats))


def selection_matrix(rows: int, targets) -> QMatrix:
    """The 0/1 matrix with ``rows`` rows sending basis vector j to basis vector targets[j].
    Row targets[j] is e_j, so strictly increasing targets are kept as its unit rows."""
    out = [{} for _ in range(rows)]
    for j, i in enumerate(targets):
        out[i][j] = 1
    increasing = all(a < b for a, b in zip([-1, *targets], targets))
    return _new(rows, len(targets), out, tuple(targets) if increasing else None)


def permutation_matrix(perm) -> QMatrix:
    """Matrix sending basis vector j to basis vector perm[j]."""
    return selection_matrix(len(perm), perm)


def restrict_map(ambient: QMatrix, src_basis: QMatrix, dst_basis: QMatrix) -> QMatrix:
    """Express an ambient-space map in chosen bases of source/target subspaces.

    Each basis must have independent columns, as a kernel or image basis
    has; then the answer is unique, and for the identity map from a basis to
    itself it is the identity, returned without solving.
    Raises when the ambient map does not carry the source subspace into the
    target one, which ``solve`` reports as None; callers rely on it.
    """
    if src_basis is dst_basis and ambient.is_identity() and ambient.cols == src_basis.rows:
        return QMatrix.identity(src_basis.cols)
    coeff = dst_basis.solve(ambient.matmul(src_basis))
    if coeff is None:
        raise LinAlgError("map does not preserve the given subspaces")
    return coeff


def quotient_by(q: QMatrix) -> tuple[QMatrix, QMatrix]:
    """The canonical quotient of Q^n by ker q, n = q.cols: ``(projection, section)``, the nonzero rows of rref(q) and
    the unit vectors at its pivots.  Both depend on ker q alone: e_i is a pivot exactly when it lies outside
    ker q + <e_0, ..., e_{i-1}>, and rref(q) kills ker q and is the identity on the pivots."""
    reduced, pivots = q.rref()
    return reduced.row_block(0, len(pivots)), selection_matrix(q.cols, pivots)


def quotient_space(ambient_dim: int, relations: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Quotient of Q^n by the column span W of ``relations``: ``quotient_by`` of the annihilator of W, whose kernel
    is W.  The projection kills W and inverts the section, which is the greedy complement."""
    if relations.cols and relations.rows != ambient_dim:
        raise LinAlgError("relations live in the wrong ambient space")
    return quotient_by(relations.transpose().kernel().transpose() if relations.cols else QMatrix.identity(ambient_dim))


# ---------------------------------------------------------------------------
# rational representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WModule:
    """A finite-dimensional rational representation of a finite group.

    Only the generator matrices are stored; the matrix of an arbitrary element
    is assembled from the word decomposition recorded when the group was
    closed.  A module is an immutable value; ``dataclasses.replace`` builds a
    variant, with an empty cache of element matrices.
    """

    group: FiniteGroup
    dim: int
    gen_matrices: tuple[QMatrix, ...]
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "gen_matrices", tuple(QMatrix(m) for m in self.gen_matrices))
        if len(self.gen_matrices) != len(self.group.gens):
            raise LinAlgError("need one matrix per group generator")
        for m in self.gen_matrices:
            if (m.rows, m.cols) != (self.dim, self.dim):
                raise LinAlgError("generator matrix has wrong shape")

    def matrix(self, g: int) -> QMatrix:
        """rho(g) = rho(p) rho(s), s the last letter of the word of g and p = gs^-1, one product from the cached rho(p)."""
        if g not in self._cache:
            G, word = self.group, self.group.word(g)
            mat = self.gen_matrices[word[-1]] if word else QMatrix.identity(self.dim)
            self._cache[g] = self.matrix(G.mul(g, G.inv(G.gens[word[-1]]))).matmul(mat) if len(word) > 1 else mat
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
        """Permutation module on an explicit finite G-set over ``group``."""
        if not group.same_table(gset.group):
            raise LinAlgError(f"G-set is over {gset.group.name}, not over {group.name}")
        return WModule(group, gset.size, tuple(permutation_matrix(gset.act[s]) for s in group.gens))

    @staticmethod
    def regular(group: FiniteGroup) -> "WModule":
        act = tuple(tuple(group.mul(g, x) for x in range(group.order)) for g in range(group.order))
        return WModule.from_gset(group, GSet(group, act))

    def conjugated(self, T: QMatrix) -> "WModule":
        Ti = T.inverse()
        return WModule(self.group, self.dim, tuple(T.matmul(m).matmul(Ti) for m in self.gen_matrices))

    def direct_sum(self, other: "WModule") -> "WModule":
        if not self.group.same_table(other.group):
            raise LinAlgError("direct sum needs a common group")
        mats = tuple(direct_sum(a, other.matrix(s)) for a, s in zip(self.gen_matrices, self.group.gens))
        return WModule(self.group, self.dim + other.dim, mats)

    def character(self) -> list[Fraction]:
        return [sum(self.matrix(g).entry(i, i) for i in range(self.dim)) for g in range(self.group.order)]


def fixed_subspace(V: WModule, elems) -> QMatrix:
    """Canonical basis of the simultaneous fixed space of the listed elements."""
    eye = QMatrix.identity(V.dim)
    elems = [g for g in elems if g != V.group.identity]
    return vstack(*[V.matrix(g) - eye for g in elems]).kernel() if elems and V.dim else eye


def averaging_projector(V: WModule, elems) -> QMatrix:
    """The idempotent (1/|S|) sum of the action of a subgroup S."""
    elems = list(elems)
    return block_matrix(V.dim, V.dim, [(0, 0, V.matrix(g)) for g in elems]).scale(Fraction(1, len(elems)))


_REYNOLDS_TRIES = 64


def intertwiner(V1: WModule, V2: WModule) -> QMatrix | None:
    """An invertible equivariant map V1 -> V2; None exactly when V1 and V2 are not isomorphic.

    Over Q a representation is determined by its character (Serre, *Linear
    Representations of Finite Groups*, section 12), so None is returned exactly
    when the dimensions or characters differ.  Otherwise the answer is the
    Reynolds average T = sum_g rho2(g) C rho1(g^-1) of an n x n integer matrix
    C with entries in {1, ..., 2n}, drawn by a ``random.Random`` of fixed seed.

    Proof.  T -> (1/|W|) sum_g rho2(g) T rho1(g)^-1 is a projection onto
    Hom_W(V1, V2), so det of the average is a polynomial of degree <= n in
    the entries of C.  It is nonzero exactly when V1 ~ V2, since an invertible
    equivariant map is its own average.  By the Schwartz-Zippel lemma
    (Schwartz, *JACM* 1980) each draw is a root with probability <= n/2n = 1/2.
    A singular T is redrawn up to ``_REYNOLDS_TRIES`` times, then ``LinAlgError``.
    Modules over groups with different multiplication tables raise ``LinAlgError``.
    """
    if not V1.group.same_table(V2.group):
        raise LinAlgError("modules live over different groups")
    if V1.dim != V2.dim or V1.character() != V2.character():
        return None
    n, G = V1.dim, V1.group
    rng = random.Random(0)
    for _ in range(_REYNOLDS_TRIES):
        C = _new(n, n, [{j: rng.randint(1, 2 * n) for j in range(n)} for _ in range(n)])
        T = block_matrix(n, n, [(0, 0, V2.matrix(g).matmul(C).matmul(V1.matrix(G.inv(g)))) for g in range(G.order)])
        if T.is_invertible():
            return T
    raise LinAlgError(f"no invertible Reynolds average in {_REYNOLDS_TRIES} tries on isomorphic modules")
