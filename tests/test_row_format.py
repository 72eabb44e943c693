"""The integer row format of ``QMatrix``: every row is ``{column: int}`` over one denominator d > 0.

Rows are drawn with denominators in {1, 2, 3, 4, 6}, negative entries and zero
rows, next to kept identities.  Every kernel must agree with
``dense_reference`` and leave each output row in normal form: d > 0,
gcd(d, entries) = 1 and no zero entry, with the denominator tuple ``None``
exactly when the matrix is integral.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qmackey import linalg
from qmackey.linalg import QMatrix, SingularMatrixError

DIM = st.integers(0, 4)
ROW = st.tuples(st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -4, 6]), min_size=4, max_size=4),
                st.sampled_from([1, 2, 3, 4, 6]), st.booleans())


def matrices(rows, cols):
    """A ``QMatrix`` and its dense reference; row i is its numerators over its denominator, or zero."""
    def build(drawn):
        table = [[Fraction(x, d) if keep else 0 for x in xs[:cols]] for xs, d, keep in drawn]
        return QMatrix(table, rows=rows, cols=cols), ref.DenseMatrix(table, rows=rows, cols=cols)
    return st.lists(ROW, min_size=rows, max_size=rows).map(build)


def check_rows(M: QMatrix) -> None:
    dens = M._dens
    assert dens is None or (type(dens) is tuple and len(dens) == M.rows)
    for i, row in enumerate(M._rows):
        d = dens[i] if dens else 1
        assert type(d) is int and d > 0 and gcd(d, *row.values()) == 1
        assert all(type(x) is int and x != 0 and 0 <= j < M.cols for j, x in row.items())
    assert (dens is None) == all(x.denominator == 1 for row in M.data for x in row)
    assert all((type(x) is int) == (Fraction(x).denominator == 1) for _, _, x in M.entries())


def same(q: QMatrix, d: ref.DenseMatrix) -> bool:
    check_rows(q)
    return (q.rows, q.cols) == (d.rows, d.cols) and (q.data == d.data or q.cols == 0)


def test_normal_form_of_a_row_with_a_common_denominator():
    M = QMatrix([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(2, 4), 1, 0], [0, 0, 0], [2, -4, 6]])
    assert M._rows == ({0: 3, 1: 2}, {0: 1, 1: 2}, {}, {0: 2, 1: -4, 2: 6}) and M._dens == (6, 2, 1, 1)
    assert QMatrix([[2, 0], [0, Fraction(3, 3)]])._dens is None
    assert M.scale(6)._dens is None
    assert M.scale(6).data == tuple(tuple(6 * x for x in row) for row in M.data)


@settings(deadline=None, max_examples=150)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda k: DIM.flatmap(lambda c: st.tuples(
    matrices(r, k), matrices(r, k), matrices(k, c), st.sampled_from([Fraction(-3, 2), 2, Fraction(1, 6), -1]))))))
def test_every_kernel_keeps_rows_in_normal_form(args):
    (A, a), (A2, a2), (B, b), c = args
    I, i = QMatrix.identity(2), ref.DenseMatrix.identity(2)
    assert same(A.matmul(B), a.matmul(b))
    assert A.matmul(QMatrix.identity(A.cols)) is A and same(QMatrix.identity(A.rows).matmul(A), a)
    assert same(A + A2, a + a2) and same(A - A2, a - a2) and same(-A, -a)
    assert same(A.scale(c), a.scale(c)) and same(A.transpose(), a.transpose())
    assert same(linalg.hstack(A, A2), ref.hstack(a, a2)) and same(linalg.vstack(A, A2), ref.vstack(a, a2))
    assert same(linalg.tensor(A, B), ref.tensor(a, b)) and same(linalg.tensor(I, A), ref.tensor(i, a))
    placed = [(0, 0, A), (1, 1, I), (0, 1, A2)]
    rows, cols = max(A.rows, 3), A.cols + 3
    assert same(linalg.block_matrix(rows, cols, placed), ref.block_matrix(rows, cols, [(0, 0, a), (1, 1, i), (0, 1, a2)]))
    diag = [(0, 0, a), (a.rows, a.cols, i), (a.rows + 2, a.cols + 2, b)]
    assert same(linalg.direct_sum(A, I, B), ref.block_matrix(A.rows + 2 + B.rows, A.cols + 2 + B.cols, diag))
    for start in range(A.rows + 1):
        assert same(A.row_block(start, A.rows - start), ref.DenseMatrix(a.data[start:], rows=A.rows - start, cols=A.cols))
    copy = QMatrix(A.data, rows=A.rows, cols=A.cols)
    assert copy == A and hash(copy) == hash(A) and (A == A2) == (a == a2)
    sparse = [{} for _ in range(A.rows)]
    for r, j, x in A.entries():
        sparse[r][j] = x
    assert QMatrix.sparse(A.rows, A.cols, sparse) == A
    assert all(A.entry(r, j) == a.entry(r, j) for r in range(A.rows) for j in range(A.cols))
    assert [A.row(r) for r in range(A.rows)] == [a.row(r) for r in range(a.rows)]
    assert [A.col(j) for j in range(A.cols)] == [a.col(j) for j in range(a.cols)]


@settings(deadline=None, max_examples=150)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda c: DIM.flatmap(lambda m: st.tuples(
    matrices(r, c), matrices(r, m), matrices(r, r))))))
def test_elimination_keeps_rows_in_normal_form(args):
    (A, a), (rhs, rhs_d), (S, s) = args
    R, pivots = A.rref()
    R_ref, pivots_ref = a.rref()
    assert same(R, R_ref) and pivots == pivots_ref and A.rank() == a.rank()
    K, Im = A.kernel(), A.image()
    assert same(K, a.kernel()) and same(Im, a.image())
    for basis in (K, Im):
        X = basis.solve(basis.matmul(QMatrix.identity(basis.cols)))
        assert X is not None and X.is_identity()
    X, X_ref = A.solve(rhs), a.solve(rhs_d)
    assert (X is None) == (X_ref is None) and (X is None or same(X, X_ref))
    assert same(QMatrix.identity(A.rows).solve(A), a)
    try:
        inv_ref = s.inverse()
    except SingularMatrixError:
        assert not S.is_invertible()
    else:
        assert same(S.inverse(), inv_ref) and S.matmul(S.inverse()).is_identity()
    proj, sec = linalg.quotient_space(A.rows, A)
    proj_ref, sec_ref = ref.quotient_space(a.rows, a)
    assert same(proj, proj_ref) and same(sec, sec_ref)
