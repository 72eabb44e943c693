"""The sparse ``QMatrix`` kernels against the dense ``Fraction`` reference.

Every operation runs on random sparse matrices with small integer and
rational entries, including shapes with no rows or no columns, and must
agree with ``dense_reference``.  Each test also checks that the operands are
unchanged afterwards, that every stored value is in normal form (nonzero,
and an ``int`` exactly when it is integral), and that ``data`` is a tuple of
row tuples of ``Fraction``s.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from qmackey import linalg
from qmackey.linalg import LinAlgError, QMatrix, SingularMatrixError
from qmackey.serialize import matrix_from_json

ENTRIES = [0, 0, 0, 0, 0, 1, -1, 2, -3, Fraction(4, 2), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
DIM = st.integers(0, 4)


def tables(rows, cols):
    return st.lists(st.lists(st.sampled_from(ENTRIES), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


class Pair:
    """One matrix as a sparse ``QMatrix`` and as a dense reference, from the same table."""

    def __init__(self, table, rows, cols):
        self.q = QMatrix(table, rows=rows, cols=cols)
        self.d = ref.DenseMatrix(table, rows=rows, cols=cols)
        self.stored = [dict(row) for row in self.q._rows]

    def unchanged(self) -> bool:
        return [dict(row) for row in self.q._rows] == self.stored


def pairs(rows, cols):
    return tables(rows, cols).map(lambda t: Pair(t, rows, cols))


def check_normal_form(M: QMatrix) -> None:
    assert isinstance(M._rows, tuple) and len(M._rows) == M.rows
    for row in M._rows:
        for j, v in row.items():
            assert 0 <= j < M.cols
            assert v != 0
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
    data = M.data
    assert type(data) is tuple and len(data) == M.rows
    assert all(type(r) is tuple and len(r) == M.cols and all(type(x) is Fraction for x in r) for r in data)


def same(q: QMatrix, d: ref.DenseMatrix) -> bool:
    """Equal shapes and entries; the dense transpose of a matrix without rows keeps no row tuples."""
    check_normal_form(q)
    return (q.rows, q.cols) == (d.rows, d.cols) and (q.data == d.data or q.cols == 0)


@settings(deadline=None, max_examples=150)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda k: DIM.flatmap(
    lambda c: st.tuples(pairs(r, k), pairs(r, k), pairs(k, c), st.sampled_from(ENTRIES))))))
def test_arithmetic(args):
    A, A2, B, c = args
    assert same(A.q.matmul(B.q), A.d.matmul(B.d))
    assert same(A.q + A2.q, A.d + A2.d)
    assert same(A.q - A2.q, A.d - A2.d)
    assert same(-A.q, -A.d)
    assert same(A.q.scale(c), A.d.scale(c))
    assert same(A.q.transpose(), A.d.transpose())
    assert same(linalg.hstack(A.q, A2.q), ref.hstack(A.d, A2.d))
    assert same(linalg.vstack(A.q, A2.q), ref.vstack(A.d, A2.d))
    assert (A.q == A2.q) == (A.d == A2.d)
    copy = QMatrix(A.q.data, rows=A.q.rows, cols=A.q.cols)
    assert copy == A.q and hash(copy) == hash(A.q)
    assert A.q.is_zero() == A.d.is_zero() and A.q.is_identity() == A.d.is_identity()
    for i in range(A.q.rows):
        assert A.q.row(i) == A.d.row(i)
        assert all(A.q.entry(i, j) == A.d.entry(i, j) for j in range(A.q.cols))
    assert list(A.q.transpose().data) == A.d.columns()
    assert all(p.unchanged() for p in (A, A2, B))


@settings(deadline=None, max_examples=150)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda c: DIM.flatmap(
    lambda m: st.tuples(pairs(r, c), pairs(r, m), pairs(r, r))))))
def test_elimination(args):
    A, rhs, S = args
    R, pivots = A.q.rref()
    R_ref, pivots_ref = A.d.rref()
    assert same(R, R_ref) and pivots == pivots_ref
    assert A.q.rank() == A.d.rank()
    assert same(A.q.kernel(), A.d.kernel())
    assert same(A.q.image(), A.d.image())
    X, X_ref = A.q.solve(rhs.q), A.d.solve(rhs.d)
    assert (X is None) == (X_ref is None)
    assert X is None or same(X, X_ref)
    try:
        inv_ref = S.d.inverse()
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            S.q.inverse()
    else:
        inv = S.q.inverse()
        assert same(inv, inv_ref)
        assert S.q.matmul(inv).is_identity() and inv.matmul(S.q).is_identity()
    assert S.q.is_invertible() == S.d.is_invertible()
    proj, sec = linalg.quotient_space(A.q.rows, A.q)
    proj_ref, sec_ref = ref.quotient_space(A.d.rows, A.d)
    assert same(proj, proj_ref) and same(sec, sec_ref)
    assert all(p.unchanged() for p in (A, rhs, S))


def test_elimination_past_rank_100():
    """A seeded sparse 120 x 140 matrix of rank 110: back substitution crosses many pivot rows."""
    rng = random.Random(5)
    table = [[0] * 140 for _ in range(110)]
    for row in table:
        for j in rng.sample(range(140), 3):
            row[j] = rng.choice(ENTRIES[5:])
    table += [[a - 2 * b for a, b in zip(*rng.sample(table, 2))] for _ in range(10)]
    rng.shuffle(table)
    A = Pair(table, 120, 140)
    R, pivots = A.q.rref()
    R_ref, pivots_ref = A.d.rref()
    assert same(R, R_ref) and pivots == pivots_ref and len(pivots) == 110
    assert A.unchanged()


# Row 0 pivots at column 0.  Cleared there, row 1 leads at column 1, where row 3
# already waits, and row 2 at column 2, which no row led at before and which must
# come out of the pending leads ahead of row 4's column 3.
PENDING_AND_NEW_LEADS = [
    [1, 0, 0, 0, 1],
    [1, 1, 0, 1, 1],
    [2, 0, 1, 0, Fraction(1, 2)],
    [0, 1, 0, 0, 3],
    [0, 0, 0, 1, -1],
]


def test_reduced_rows_join_pending_and_new_lead_columns():
    """Every row order of ``PENDING_AND_NEW_LEADS`` reduces as in the dense reference."""
    for perm in itertools.permutations(range(5)):
        A = Pair([PENDING_AND_NEW_LEADS[i] for i in perm], 5, 5)
        R, pivots = A.q.rref()
        R_ref, pivots_ref = A.d.rref()
        assert same(R, R_ref) and pivots == pivots_ref == (0, 1, 2, 3, 4)
        assert same(A.q.kernel(), A.d.kernel()) and same(A.q.image(), A.d.image())
        assert A.unchanged()


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 3).flatmap(lambda r1: st.integers(0, 3).flatmap(lambda c1: st.integers(0, 3).flatmap(
    lambda r2: st.integers(0, 3).flatmap(lambda c2: st.tuples(pairs(r1, c1), pairs(r2, c2)))))))
def test_tensor(args):
    A, B = args
    assert same(linalg.tensor(A.q, B.q), ref.tensor(A.d, B.d))
    assert same(linalg.direct_sum(A.q, B.q), ref.block_matrix(
        A.d.rows + B.d.rows, A.d.cols + B.d.cols, [(0, 0, A.d), (A.d.rows, A.d.cols, B.d)]))
    assert A.unchanged() and B.unchanged()


@pytest.mark.parametrize(
    "table,rows,cols",
    [
        ([], 4, 0),
        ([[2, 0, 1], [1, Fraction(1, 2), 0], [0, -3, 1]], 3, 3),
        ([[1, 1, 0, 1, 0], [2, 2, 0, 2, 0], [0, 0, 0, 0, 0], [-1, -1, 1, -1, 1]], 4, 5),
    ],
    ids=["no-relations", "full-rank", "repeated-columns"],
)
def test_quotient_space_edge_cases(table, rows, cols):
    """No relation columns, relations of full rank, and repeated columns of rank 2 in Q^4."""
    A = Pair(table, rows, cols)
    proj, sec = linalg.quotient_space(rows, A.q)
    proj_ref, sec_ref = ref.quotient_space(rows, A.d)
    assert same(proj, proj_ref) and same(sec, sec_ref)
    assert proj.rows == rows - A.d.rank()
    assert A.unchanged()


@st.composite
def placements(draw):
    rows, cols = draw(DIM), draw(DIM)
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        r, c = draw(st.integers(0, rows)), draw(st.integers(0, cols))
        ro, co = draw(st.integers(0, rows - r)), draw(st.integers(0, cols - c))
        blocks.append((ro, co, draw(pairs(r, c))))
    return rows, cols, blocks


@settings(deadline=None, max_examples=150)
@given(placements())
def test_block_matrix(args):
    rows, cols, blocks = args
    M = linalg.block_matrix(rows, cols, [(ro, co, p.q) for ro, co, p in blocks])
    assert same(M, ref.block_matrix(rows, cols, [(ro, co, p.d) for ro, co, p in blocks]))
    assert all(p.unchanged() for _, _, p in blocks)


@settings(deadline=None, max_examples=100)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda c: st.tuples(pairs(r, c), st.integers(0, r), st.integers(0, r)))))
def test_row_block(args):
    A, start, count = args
    if start + count <= A.q.rows:
        block = A.q.row_block(start, count)
        assert same(block, ref.DenseMatrix(A.d.data[start : start + count], rows=count, cols=A.q.cols))
        assert all(row is A.q._rows[start + i] for i, row in enumerate(block._rows))
    else:
        with pytest.raises(LinAlgError):
            A.q.row_block(start, count)
    with pytest.raises(LinAlgError):
        A.q.row_block(-1, 1)
    assert A.unchanged()


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 5).flatmap(lambda n: st.permutations(range(n))))
def test_constructors(perm):
    n = len(perm)
    assert same(linalg.permutation_matrix(perm), ref.permutation_matrix(perm))
    assert same(QMatrix.identity(n), ref.DenseMatrix.identity(n))
    assert same(QMatrix.zeros(n, 3), ref.DenseMatrix.zeros(n, 3))
    for value in (0, Fraction(6, 3), Fraction(-1, 3)):
        assert same(QMatrix.scalar(n, value), ref.DenseMatrix.scalar(n, value))
    cols = [[Fraction(k, 2) for k in range(n)], [0] * n]
    assert same(QMatrix([[x] for x in cols[0]]), ref.DenseMatrix.column(cols[0]))


@settings(deadline=None, max_examples=100)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda c: tables(r, c).map(lambda t: (t, r, c)))))
def test_sparse_rows_match_the_table(args):
    """``QMatrix.sparse`` on the nonzero entries of a table, zeros and integral ``Fraction``s among them
    kept as given, stores them in normal form, and ``entries`` reads back exactly the nonzero ones."""
    table, r, c = args
    body = [{j: x for j, x in enumerate(row) if x or j % 2} for row in table]
    M = QMatrix.sparse(r, c, body)
    assert same(M, ref.DenseMatrix(table, rows=r, cols=c))
    assert list(M.entries()) == [(i, j, x) for i, row in enumerate(table) for j, x in enumerate(row) if x]


def test_sparse_copies_and_checks_its_rows():
    body = [{0: 1, 2: Fraction(1, 2)}, {}]
    M = QMatrix.sparse(2, 3, body)
    body[0][1] = 5
    body[1][0] = 7
    assert M == QMatrix([[1, 0, Fraction(1, 2)], [0, 0, 0]])
    for rows, cols, bad in ((2, 3, [{3: 1}, {}]), (2, 3, [{}, {-1: 1}]), (1, 3, body), (3, 3, body), (0, 0, [{0: 1}])):
        with pytest.raises(LinAlgError):
            QMatrix.sparse(rows, cols, bad)


def test_ragged_input_rejected():
    with pytest.raises(LinAlgError):
        QMatrix([[1, 2], [3]])


@pytest.mark.parametrize("shape", [{"rows": 2}, {"cols": 5}, {"rows": 1, "cols": 3}])
def test_shape_that_disagrees_with_the_data_rejected(shape):
    with pytest.raises(LinAlgError):
        QMatrix([[1, 2]], **shape)


@pytest.mark.parametrize("entry", [None, "", [], "x", object()])
def test_non_number_entry_rejected(entry):
    with pytest.raises((TypeError, ValueError)):
        QMatrix([[1, entry]])


@settings(deadline=None, max_examples=150)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda c: DIM.flatmap(lambda m: st.tuples(
    pairs(r, c), pairs(r, 1), pairs(1, c), st.lists(pairs(c, m), min_size=1, max_size=3),
    st.lists(pairs(r, m), min_size=1, max_size=3), pairs(r, r))))))
def test_repeated_solves(args):
    """Several solves against one matrix, which is not an echelon basis.

    The right-hand sides are consistent (A @ X), arbitrary (often
    inconsistent), and taken against a rank-one matrix as well; each answer,
    and the inverse of a square matrix, must match a fresh dense elimination.
    """
    A, left, right, xs, rhss, S = args
    low = Pair(left.q.matmul(right.q).data, A.q.rows, A.q.cols)
    for M in (A, low):
        cases = [(M.q.matmul(X.q), M.d.matmul(X.d)) for X in xs] + [(b.q, b.d) for b in rhss]
        for t, (rhs, rhs_ref) in enumerate(cases):
            X, X_ref = M.q.solve(rhs), M.d.solve(rhs_ref)
            assert (X is None) == (X_ref is None)
            assert X is None or same(X, X_ref)
            assert t >= len(xs) or X is not None
    try:
        inv_ref = S.d.inverse()
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            S.q.inverse()
    else:
        inv = S.q.inverse()
        assert same(inv, inv_ref)
        assert S.q.matmul(inv).is_identity() and inv.matmul(S.q).is_identity()
    assert all(p.unchanged() for p in (A, left, right, low, S, *xs, *rhss))


def test_restrict_map_rejects_a_map_leaving_the_subspace():
    line = QMatrix([[1], [1], [0]])
    plane = QMatrix([[1, 0, 0], [0, 1, 0]]).transpose()
    swap = linalg.permutation_matrix([1, 0, 2])
    assert linalg.restrict_map(swap, line, line) == QMatrix.identity(1)
    assert linalg.restrict_map(swap, plane, plane) == linalg.permutation_matrix([1, 0])
    shift = linalg.permutation_matrix([2, 0, 1])
    for src, dst in ((line, line), (plane, plane), (plane, line)):
        with pytest.raises(LinAlgError):
            linalg.restrict_map(shift, src, dst)
    # the same subspaces as kernel and image bases, whose solves select rows
    echelon = {
        "line": (QMatrix([[1, -1, 0], [0, 0, 1]]).kernel(), QMatrix([[2], [2], [0]]).image()),
        "plane": (QMatrix([[0, 0, 1]]).kernel(), plane.image()),
    }
    for line_e, plane_e in zip(echelon["line"], echelon["plane"]):
        assert line_e._unit_rows is not None and plane_e._unit_rows is not None
        assert linalg.restrict_map(swap, line_e, line_e) == QMatrix.identity(1)
        assert linalg.restrict_map(swap, plane_e, plane_e) == linalg.permutation_matrix([1, 0])
        assert linalg.restrict_map(swap, line, plane_e) == QMatrix([[1], [1]])
        for src, dst in ((line_e, line_e), (plane_e, plane_e), (plane_e, line_e), (line, plane_e)):
            with pytest.raises(LinAlgError):
                linalg.restrict_map(shift, src, dst)
            assert dst._unit_rows is not None


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(DIM.flatmap(lambda r: DIM.flatmap(lambda c: st.tuples(pairs(r, c), st.integers(0, 3)))), st.data())
def test_echelon_solves(args, data):
    """Solves on ``kernel`` and ``image`` bases, which select rows of the right-hand side.

    The right-hand sides are consistent (B @ X) and arbitrary (often
    inconsistent).  Each answer must match a dense elimination against the
    same basis, and the copy ``QMatrix(B)`` must answer the same way.  The
    kernel of an identity has no columns, and neither has the image of a
    zero matrix.
    """
    A, m = args
    r, c = A.q.rows, A.q.cols
    bases = [
        (A.q.kernel(), A.d.kernel()),
        (A.q.image(), A.d.image()),
        (QMatrix.identity(c).kernel(), ref.DenseMatrix.identity(c).kernel()),
        (QMatrix.zeros(r, c).image(), ref.DenseMatrix.zeros(r, c).image()),
    ]
    for B, B_ref in bases:
        assert same(B, B_ref)
        X, b = data.draw(pairs(B.cols, m)), data.draw(pairs(B.rows, m))
        for consistent, rhs, rhs_ref in ((True, B.matmul(X.q), B_ref.matmul(X.d)), (False, b.q, b.d)):
            sol_ref = B_ref.solve(rhs_ref)
            assert not consistent or sol_ref is not None
            for basis in (B, QMatrix(B)):
                sol = basis.solve(rhs)
                assert basis._unit_rows is not None  # a row selection, never an elimination
                assert (sol is None) == (sol_ref is None)
                assert sol is None or same(sol, sol_ref)
        assert X.unchanged() and b.unchanged()
    assert A.unchanged()


# -- the identity flag: a square matrix that keeps unit rows is the identity -------------------


def seeded(rng, rows, cols, density=0.4):
    table = [[rng.choice(ENTRIES[5:]) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    return QMatrix(table, rows=rows, cols=cols)


def flagged_identities(n):
    """Every constructor that can return an n x n identity, asked for one."""
    return {
        "identity": QMatrix.identity(n),
        "json": matrix_from_json([["1" if i == j else "0" for j in range(n)] for i in range(n)], (n, n)),
        "sparse": QMatrix.sparse(n, n, [{i: Fraction(2, 2)} for i in range(n)]),
        "kernel": QMatrix.zeros(2, n).kernel(),
        "image": QMatrix.scalar(n, 2).image(),
        "selection": linalg.selection_matrix(n, range(n)),
    }


@pytest.mark.parametrize("n", range(5))
def test_flagged_constructors_are_the_identity(n):
    for name, M in flagged_identities(n).items():
        assert M._unit_rows is not None, name
        assert same(M, ref.DenseMatrix.identity(n)) and M == QMatrix.identity(n), name
        square = linalg.tensor(M, QMatrix.identity(2))
        assert square._is_eye() and square == QMatrix.identity(2 * n), name


def near_misses():
    """Square matrices one entry away from the identity, a non-identity permutation, a selection
    with a repeated target, and a non-square basis with unit rows."""
    off = [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    return {
        "json-2": matrix_from_json([["2" if i == j else "0" for j in range(3)] for i in range(3)], (3, 3)),
        "json-off-diagonal": matrix_from_json(off, (3, 3)),
        "kernel": QMatrix([[1, -1, 0]]).kernel(),
        "permutation": linalg.permutation_matrix([1, 0, 2]),
        "selection-repeated": linalg.selection_matrix(3, [0, 0, 2]),
    }


@pytest.mark.parametrize("name", list(near_misses()))
def test_near_misses_are_multiplied(name):
    M = near_misses()[name]
    assert not (M.rows == M.cols and M._unit_rows is not None)
    rng = random.Random(7)
    A, B = seeded(rng, 2, M.rows, 0.8), seeded(rng, M.cols, 2, 0.8)
    dense = ref.DenseMatrix(M.data, rows=M.rows, cols=M.cols)
    for product, expected in ((A.matmul(M), ref.DenseMatrix(A.data, 2, M.rows).matmul(dense)), (M.matmul(B), dense.matmul(ref.DenseMatrix(B.data, M.cols, 2)))):
        assert same(product, expected)
    assert A.matmul(M) is not A and M.matmul(B) is not B


@pytest.mark.parametrize("n", range(4))
def test_identity_factor_returns_the_other(n):
    rng = random.Random(n)
    for name, eye in flagged_identities(n).items():
        for m in range(4):
            A, B = seeded(rng, m, n), seeded(rng, n, m)
            assert A.matmul(eye) is A and eye.matmul(B) is B, name
        assert eye.matmul(eye) is eye


def test_identity_factor_keeps_the_shape_check():
    for eye in flagged_identities(2).values():
        for other in (QMatrix.zeros(3, 1), QMatrix.identity(3), QMatrix.zeros(0, 0)):
            with pytest.raises(LinAlgError):
                eye.matmul(other)
            with pytest.raises(LinAlgError):
                other.transpose().matmul(eye)
    with pytest.raises(LinAlgError):
        QMatrix.identity(0).matmul(QMatrix.identity(1))


def test_increasing_selection_solves_as_elimination():
    """A non-square selection with strictly increasing targets keeps them as its unit rows, and
    its ``solve`` answers what elimination of the same entries answers, None included."""
    rng = random.Random(5)
    for rows, targets in ((5, (0, 2, 3)), (4, (1, 3)), (3, ()), (4, (0, 1, 2)), (2, (1,))):
        S = linalg.selection_matrix(rows, targets)
        assert S._unit_rows == targets
        plain = QMatrix(S.data, rows=rows, cols=len(targets))
        assert plain._unit_rows is None and plain == S
        for trial in range(20):
            rhs = S.matmul(seeded(rng, len(targets), 2)) if trial % 2 else seeded(rng, rows, 2, 0.7)
            assert S.solve(rhs) == plain.solve(rhs)
    assert linalg.selection_matrix(3, (1, 0))._unit_rows is None
    assert linalg.selection_matrix(3, (0, 0))._unit_rows is None


def test_square_echelon_bases_are_the_identity():
    """Over seeded matrices, every ``kernel`` and ``image`` lists its unit rows in
    increasing order with row S[t] = e_t, so a square one is the identity: the invariant the
    ``matmul`` shortcut relies on."""
    rng = random.Random(11)
    square = 0
    for _ in range(300):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        A = seeded(rng, r, c, rng.choice([0.0, 0.3, 0.7]))
        for B in (A.kernel(), A.image()):
            S = B._unit_rows
            assert list(S) == sorted(set(S)) and len(S) == B.cols
            assert [B._rows[s] for s in S] == [{t: 1} for t in range(B.cols)]
            if B.rows == B.cols:
                square += 1
                assert same(B, ref.DenseMatrix.identity(B.rows))
    assert square > 100
