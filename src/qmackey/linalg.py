"""Exact rational matrices and finite-dimensional rational group representations.

Everything is exact; no floating point anywhere.  A ``QMatrix`` stores one
``{column: value}`` dict per row, holding only the nonzero entries, and
keeps every value in normal form: an ``int`` when it is integral, otherwise
a ``Fraction``.  Integral work thus stays in ``int`` arithmetic, and ``==``
and ``hash`` compare the stored rows directly.  The row dicts are private
and never change once a matrix holds them, so matrices share rows freely.
Every kernel touches only stored entries; ``data``, ``row``, ``col`` and
``entry`` build ``Fraction``s on demand.

Kernel and image bases come out in a canonical echelon form (the reduced row
echelon form is unique) so that compositions of the isomorphisms built
downstream are reproducible run to run.  Such a basis, like an identity,
keeps the unit rows of its identity block in a private slot, and ``solve``
on it selects those rows and checks one product; any other matrix is
eliminated together with the right-hand side.

A square n x n matrix that keeps unit rows S is the identity, so ``matmul``
returns the other factor: row S[t] is e_t, and every producer (``identity``,
``kernel``, ``image``, ``span_basis``, ``selection_matrix`` on increasing
targets) lists S in increasing order, so n increasing entries of range(n)
give S[t] = t.  ``serialize.matrix_from_json`` returns ``identity(n)`` for
a square body whose row i is e_i.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush

from .groups import FiniteGroup, GSet


class LinAlgError(ValueError):
    pass


class SingularMatrixError(LinAlgError):
    pass


_ZERO = Fraction(0)


def _nf(x):
    """The normal form of a rational: an ``int`` when integral, else a ``Fraction``; a ``float`` is refused."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise LinAlgError(f"{x!r} is a float, not an exact rational; pass an int, a Fraction or a 'p/q' string")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _frac(x) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)


def _new(rows: int, cols: int, body, unit_rows=None) -> "QMatrix":
    """A matrix from normal-form sparse rows, bypassing ``__init__``."""
    m = object.__new__(QMatrix)
    m.rows, m.cols, m._rows, m._unit_rows = rows, cols, tuple(body), unit_rows
    return m


def _add_into(acc: dict, src: dict) -> None:
    """``acc += src`` in place; ``acc`` stays sparse and in normal form."""
    for j, x in src.items():
        v = acc.get(j)
        if v is None:
            acc[j] = x
        else:
            v += x
            if v:
                acc[j] = v if type(v) is int or v.denominator != 1 else v.numerator
            else:
                del acc[j]


def _sub_into(acc: dict, f, src: dict) -> None:
    """``acc -= f * src`` in place for a nonzero ``f``; ``acc`` stays sparse and in normal form."""
    for j, x in src.items():
        v = acc.get(j)
        v = -f * x if v is None else v - f * x
        if v:
            acc[j] = v if type(v) is int or v.denominator != 1 else v.numerator
        else:
            del acc[j]


def _scaled(row: dict, c) -> dict:
    """``c * row`` for a nonzero normal-form ``c``."""
    if c == 1:
        return row
    out = {}
    for j, x in row.items():
        v = c * x
        out[j] = v if type(v) is int or v.denominator != 1 else v.numerator
    return out


def _transposed(body, cols: int) -> list[dict]:
    out = [{} for _ in range(cols)]
    for i, row in enumerate(body):
        for j, x in row.items():
            out[j][i] = x
    return out


def _rref_rows(body) -> tuple[list[dict], list[int]]:
    """The nonzero rows of the reduced row echelon form of ``body``, and their pivot columns.

    Forward elimination: the next pivot column c is the smallest leading
    column among the rows not yet used, and every such row leading at c is a
    candidate.  The candidate with the fewest entries becomes the pivot row,
    which keeps fill-in down; the others are cleared at c.  The pending lead
    columns sit in a heap, each pushed with its first row; it pops them in the
    order a scan would, so every intermediate row and the output are the same.
    Back substitution then reduces the pivot rows last first: each later row is
    reduced already, so it holds no pivot column but its own, and a row is
    cleared by exactly the later rows whose pivot columns it holds, last first.
    The reduced form is unique, so the choice of pivot rows does not show in it.
    """
    by_lead: dict[int, list[dict]] = {}
    for row in body:
        if row:
            by_lead.setdefault(min(row), []).append(dict(row))
    leads = sorted(by_lead)  # the keys of by_lead, as a heap
    pivot_rows, pivots = [], []
    while leads:
        c = heappop(leads)
        cands = by_lead.pop(c)
        p = min(range(len(cands)), key=lambda i: len(cands[i]))
        prow = cands[p]
        pv = prow[c]
        if pv != 1:
            prow = _scaled(prow, _nf(1 / Fraction(pv)))
        for i, row in enumerate(cands):
            if i != p:
                _sub_into(row, row[c], prow)
                if row:
                    if (lead := min(row)) not in by_lead:
                        heappush(leads, lead)
                    by_lead.setdefault(lead, []).append(row)
        pivot_rows.append(prow)
        pivots.append(c)
    row_of = dict(zip(pivots, pivot_rows))
    for c, row in zip(reversed(pivots), reversed(pivot_rows)):
        for d in sorted(row.keys() & row_of.keys(), reverse=True):
            if d != c:
                _sub_into(row, row[d], row_of[d])
    return pivot_rows, pivots


class QMatrix:
    """An immutable matrix of exact rationals, stored as sparse rows."""

    __slots__ = ("rows", "cols", "_rows", "_unit_rows")

    def __init__(self, data, rows: int | None = None, cols: int | None = None):
        if isinstance(data, QMatrix):
            self.rows, self.cols, self._rows, self._unit_rows = data.rows, data.cols, data._rows, data._unit_rows
            return
        self._unit_rows = None
        table = [list(row) for row in data]
        if table:
            self.cols = len(table[0])
            if any(len(r) != self.cols for r in table):
                raise LinAlgError("ragged rows")
            if rows is not None and rows != len(table):
                raise LinAlgError("row count does not match the data")
            if cols is not None and cols != self.cols:
                raise LinAlgError("column count does not match the data")
        else:
            self.cols = cols or 0
            table = [[]] * (rows or 0)
        self.rows = len(table)
        self._rows = tuple({j: v for j, x in enumerate(row) if (v := x if type(x) is int else _nf(x))} for row in table)

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
        return _new(n, n, [{i: v} if v else {} for i in range(n)])

    # -- plumbing ---------------------------------------------------------------

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as a tuple of row tuples of ``Fraction``s."""
        out = []
        for row in self._rows:
            line = [_ZERO] * self.cols
            for j, x in row.items():
                line[j] = _frac(x)
            out.append(tuple(line))
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"QMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"QMatrix[{body}]"

    def entry(self, i: int, j: int) -> Fraction:
        return _frac(self._rows[i].get(j, 0))

    def row(self, i: int) -> tuple[Fraction, ...]:
        row = self._rows[i]
        return tuple(_frac(row[j]) if j in row else _ZERO for j in range(self.cols))

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(_frac(row[j]) if j in row else _ZERO for row in self._rows)

    def row_block(self, start: int, count: int) -> "QMatrix":
        """The ``count`` rows from row ``start`` on, sharing their storage; raises past the last row."""
        if min(start, count) < 0 or start + count > self.rows:
            raise LinAlgError("rows out of range")
        return _new(count, self.cols, self._rows[start : start + count])

    def nonzero_cols(self) -> set[int]:
        """The indices of the columns that hold a nonzero entry."""
        return {j for row in self._rows for j in row}

    def is_zero(self) -> bool:
        return not any(self._rows)

    def _is_eye(self) -> bool:
        """Square with unit rows kept, hence the identity (module docstring)."""
        return self._unit_rows is not None and self.rows == self.cols

    def is_identity(self) -> bool:
        return self._is_eye() or self.rows == self.cols and all(row == {i: 1} for i, row in enumerate(self._rows))

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        return block_matrix(self.rows, self.cols, [(0, 0, self), (0, 0, other)])

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other)

    def __neg__(self) -> "QMatrix":
        return _new(self.rows, self.cols, [{j: -x for j, x in row.items()} for row in self._rows])

    def scale(self, c) -> "QMatrix":
        c = _nf(c)
        if not c:
            return QMatrix.zeros(self.rows, self.cols)
        return _new(self.rows, self.cols, [_scaled(row, c) for row in self._rows])

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if self._is_eye() or other._is_eye():
            return other if self._is_eye() else self
        B = other._rows
        out = []
        for row in self._rows:
            if len(row) == 1:
                ((k, a),) = row.items()
                out.append(_scaled(B[k], a))
                continue
            acc = {}
            for k, a in row.items():
                for j, b in B[k].items():
                    if j in acc:
                        acc[j] += a * b
                    else:
                        acc[j] = a * b
            out.append({j: v if type(v) is int or v.denominator != 1 else v.numerator for j, v in acc.items() if v})
        return _new(self.rows, other.cols, out)

    def transpose(self) -> "QMatrix":
        return _new(self.cols, self.rows, _transposed(self._rows, self.cols))

    # -- elimination -----------------------------------------------------------------

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        body, pivots = _rref_rows(self._rows)
        body += [{} for _ in range(self.rows - len(body))]
        return _new(self.rows, self.cols, body), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "QMatrix":
        """Columns form the canonical basis of the null space; ``solve`` selects its unit free rows."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = {c: t for t, c in enumerate(c for c in range(self.cols) if c not in pivot_set)}
        out = [{} for _ in range(self.cols)]
        for c, t in free.items():
            out[c][t] = 1
        for pc, row in zip(pivots, R._rows):
            out[pc] = {free[j]: -x for j, x in row.items() if j != pc}
        return _new(self.cols, len(free), out, tuple(free))

    def image(self) -> "QMatrix":
        """The canonical column-space basis (row-echelon of transpose); ``solve`` selects its unit pivot rows."""
        R, pivots = self.transpose().rref()
        return _new(self.rows, len(pivots), _transposed(R._rows[: len(pivots)], self.rows), pivots)

    def solve(self, rhs: "QMatrix") -> "QMatrix | None":
        """Solve self @ X = rhs; None when inconsistent.

        With several solutions, free variables are set to zero, which keeps
        the output canonical.

        A ``kernel``, ``image``, ``span_basis``, ``identity`` or increasing
        ``selection_matrix`` basis B has B[S] = I on its unit rows S.  A
        solution Y has Y = B[S] Y = rhs[S] =: X, so B @ X == rhs exactly when
        rhs is in B's span, and X is then unique.

        Any other A = self is eliminated once together with rhs.  A row of the
        reduced form of ``[A | rhs]`` that pivots past A's columns reads
        0 = nonzero, so the system is inconsistent exactly when the last pivot
        does.  Otherwise the row at the t-th pivot column gives that unknown,
        plus free unknowns, as its rhs part; the free unknowns are set to 0.
        """
        if rhs.rows != self.rows:
            raise LinAlgError("shape mismatch in solve")
        if self._unit_rows is not None:
            X = _new(self.cols, rhs.cols, [rhs._rows[i] for i in self._unit_rows])
            return X if self.matmul(X) == rhs else None
        n = self.cols
        R, pivots = hstack(self, rhs).rref()
        if pivots and pivots[-1] >= n:
            return None
        out = [{} for _ in range(n)]
        for pc, row in zip(pivots, R._rows):
            out[pc] = {j - n: x for j, x in row.items() if j >= n}
        return _new(n, rhs.cols, out)

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
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise LinAlgError("hstack needs equal row counts")
    out, co = [{} for _ in range(rows)], 0
    for m in mats:
        for row, src in zip(out, m._rows):
            if src:
                row.update((j + co, x) for j, x in src.items())
        co += m.cols
    return _new(rows, co, out)


def vstack(*mats: QMatrix) -> QMatrix:
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise LinAlgError("vstack needs equal column counts")
    return _new(sum(m.rows for m in mats), cols, [row for m in mats for row in m._rows])


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
                    if a == 1:
                        for jb, b in rb.items():
                            row[base + jb] = b
                    else:
                        for jb, b in rb.items():
                            v = a * b
                            row[base + jb] = v if type(v) is int or v.denominator != 1 else v.numerator
            out.append(row)
    return _new(A.rows * B.rows, A.cols * bc, out)


def block_matrix(rows: int, cols: int, blocks) -> QMatrix:
    """The rows x cols matrix that is the sum of ``(row offset, col offset, block)`` placements.

    Blocks may overlap; overlapping entries add.
    """
    out = [{} for _ in range(rows)]
    for ro, co, B in blocks:
        if ro < 0 or co < 0 or ro + B.rows > rows or co + B.cols > cols:
            raise LinAlgError("block does not fit")
        for i, brow in enumerate(B._rows, ro):
            if brow:
                _add_into(out[i], {j + co: x for j, x in brow.items()} if co else brow)
    return _new(rows, cols, out)


def direct_sum(*mats: QMatrix) -> QMatrix:
    """The block-diagonal matrix of any number of blocks, in one pass; rows are shared."""
    out, cols = [], 0
    for A in mats:
        out.extend({j + cols: x for j, x in row.items()} if cols else row for row in A._rows)
        cols += A.cols
    return _new(len(out), cols, out)


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


def quotient_space(ambient_dim: int, relations: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Quotient of Q^n by the column span W of ``relations``.

    Returns ``(projection, section)``: the projection kills W and inverts the
    section, which is the greedy complement.  e_i is kept when it lies outside
    W plus the kept vectors before it, which span W + <e_0, ..., e_{i-1}>, so
    exactly when no vector of W ends at i: when i is not a free position of
    ``span_basis(W)``.  Both maps depend on W alone.  Its vector b_p, 1 at free
    p and 0 at the other free positions, sends e_p to -sum_q b_p[q] e_q, q kept.
    """
    if relations.cols and relations.rows != ambient_dim:
        raise LinAlgError("relations live in the wrong ambient space")
    W = span_basis(relations if relations.cols else QMatrix.zeros(ambient_dim, 0))
    free = W._unit_rows
    slot = {q: t for t, q in enumerate(sorted(set(range(ambient_dim)).difference(free)))}
    proj = [{q: 1, **{free[t]: -x for t, x in W._rows[q].items()}} for q in slot]
    section = [{slot[i]: 1} if i in slot else {} for i in range(ambient_dim)]
    return _new(len(slot), ambient_dim, proj), _new(ambient_dim, len(slot), section)


def span_basis(spanning: QMatrix) -> QMatrix:
    """The basis ``kernel`` gives for a null space equal to the column span.

    It is the span's reduced echelon form with last entries leading (column t
    ends at the t-th free position, with 0 at the others), so it is unique, and
    one ``_rref_rows`` with the coordinates reversed finds it."""
    last = spanning.rows - 1
    cols = _transposed(spanning._rows, spanning.cols)
    reduced, pivots = _rref_rows([{last - i: x for i, x in col.items()} for col in cols])
    out = _transposed([{last - j: x for j, x in row.items()} for row in reversed(reduced)], spanning.rows)
    return _new(spanning.rows, len(pivots), out, tuple(last - c for c in reversed(pivots)))


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
