"""The zero-skipping kernels agree exactly with naive dense reference versions."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from sympair.linalg import Matrix, inverse, rank, rref, shift_diagonal
from sympair.scalars import QuadExt


def naive_rref(rows):
    """Dense Gauss-Jordan with first-nonzero pivoting, every entry touched."""
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c] if isinstance(rows[r][c], F) else rows[r][c].inv()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def naive_matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def naive_matvec(a, v):
    return [sum((e * c for e, c in zip(row, v)), F(0)) for row in a]


def naive_shift(a, c):
    n = len(a)
    ident = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    return [[a[i][j] + c * ident[i][j] for j in range(n)] for i in range(n)]


fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def sparse_rows(draw, nrows=None, ncols=None):
    """Fraction rows with density 2%..100%, possibly with zeroed rows and columns."""
    m = nrows or draw(st.integers(1, 8))
    n = ncols or draw(st.integers(1, 8))
    density = draw(st.floats(0.02, 1.0))
    rows = [[draw(fractions) if draw(st.floats(0, 1)) < density else F(0) for _ in range(n)]
            for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows[i] = [F(0)] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = F(0)
    return rows


@settings(max_examples=150, deadline=None)
@given(sparse_rows())
def test_rref_matches_dense_elimination(rows):
    red, pivots = rref(Matrix(rows))
    want_rows, want_pivots = naive_rref(rows)
    assert pivots == want_pivots
    assert red.rows == want_rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7), st.data())
def test_matmul_matches_dense_product(m, k, n, data):
    a = data.draw(sparse_rows(m, k))
    b = data.draw(sparse_rows(k, n))
    assert (Matrix(a) @ Matrix(b)).rows == naive_matmul(a, b)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_matvec_matches_dense_product(m, n, data):
    a = data.draw(sparse_rows(m, n))
    v = data.draw(sparse_rows(1, n))[0]
    assert Matrix(a).matvec(v) == naive_matvec(a, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data(), fractions)
def test_shift_diagonal_matches_identity_sum(n, data, c):
    a = data.draw(sparse_rows(n, n))
    assert shift_diagonal(Matrix(a), c).rows == naive_shift(a, c)


def quad(d):
    return st.builds(lambda a, b: QuadExt(a, b, F(d)), fractions, fractions)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_quadext_kernels_match_dense(n, data):
    entry = st.one_of(st.just(QuadExt(F(0), F(0), F(-1))), quad(-1))
    a = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    b = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    v = [data.draw(entry) for _ in range(n)]
    red, pivots = rref(Matrix(a))
    want_rows, want_pivots = naive_rref(a)
    assert (red.rows, pivots) == (want_rows, want_pivots)
    assert rank(Matrix(a)) == len(want_pivots)
    assert (Matrix(a) @ Matrix(b)).rows == naive_matmul(a, b)
    assert Matrix(a).matvec(v) == naive_matvec(a, v)
    if len(want_pivots) == n:
        ident = [[QuadExt(F(int(i == j)), F(0), F(-1)) for j in range(n)] for i in range(n)]
        assert naive_matmul(a, inverse(Matrix(a)).rows) == ident
