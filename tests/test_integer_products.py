"""Matrix products, matvec and ad over the integers equal plain Fraction arithmetic.

The references below multiply entry by entry in Fraction arithmetic, with
no scaling and no zero skipping.  The operands cover denominators, zero
rows and columns, int entries, and an algebra whose structure constants
are not integers.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sympair.liealg import build_gl, build_product, build_quadratic_extension
from sympair.linalg import Matrix, inverse
from sympair.pairs import descendant, make_diagonal_pair
from sympair.scalars import ZERO


def ref_matmul(a, b):
    return [[sum((a[i][j] * b[j][k] for j in range(len(b))), F(0)) for k in range(len(b[0]))]
            for i in range(len(a))]


def ref_matvec(a, v):
    return [sum((e * c for e, c in zip(row, v)), F(0)) for row in a]


def ref_ad(g, x):
    """ad x from the structure constants: column j is sum_i x_i [e_i, e_j]."""
    out = [[F(0)] * g.dim for _ in range(g.dim)]
    for i, a in enumerate(x):
        for j in range(g.dim):
            for k, c in g.sparse_row(i, j):
                out[k][j] += a * c
    return out


def exact(rows):
    """Entries as (type, value): an int where a Fraction is due compares unequal."""
    return [[(type(e), e) for e in row] for row in rows]


# Rationals with denominators, plain ints and many zeros; zeros come as the
# shared ZERO, as Fraction(0) and as int 0.
entries = st.one_of(
    st.sampled_from([ZERO, F(0), 0]),
    st.integers(-5, 5),
    st.fractions(min_value=-7, max_value=7, max_denominator=12),
    st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12)),
)


@st.composite
def matrices(draw, nrows, ncols):
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    # whole zero rows and columns
    for i in draw(st.lists(st.integers(0, nrows - 1), max_size=2)):
        rows[i] = [ZERO] * ncols
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.data())
def test_matmul_matches_fraction_reference(m, k, n, data):
    a = data.draw(matrices(m, k))
    b = data.draw(matrices(k, n))
    got = Matrix(a) @ Matrix(b)
    assert exact(got.rows) == exact(ref_matmul(a, b))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.data())
def test_matvec_matches_fraction_reference(m, n, data):
    a = data.draw(matrices(m, n))
    v = data.draw(st.lists(entries, min_size=n, max_size=n))
    mat = Matrix(a)
    want = [(F, e) for e in ref_matvec(a, v)]
    assert [(type(e), e) for e in mat.matvec(v)] == want
    # the cached integer form serves a second product unchanged
    assert [(type(e), e) for e in mat.matvec(v)] == want
    assert exact((mat @ Matrix([[e] for e in v])).rows) == [[w] for w in want]


def non_integral_algebra():
    """A descendant of the diagonal pair n = 3 whose echelon basis gives
    structure constants with denominators 3 and 9."""
    g = Matrix([[F(3), F(0), F(3)], [F(0), F(-3), F(-1)], [F(1), F(0), F(0)]])
    d = Matrix([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(-1)]])
    flat = [e for row in (g @ d @ inverse(g)).rows for e in row]
    return descendant(make_diagonal_pair(3), flat + [-e for e in flat]).algebra


ALGEBRAS = {
    "gl3": build_gl(3),
    "gl2+gl2": build_product(build_gl(2), build_gl(2)),
    "gl2(Q(sqrt 5))": build_quadratic_extension(build_gl(2), 5),
    "descendant": non_integral_algebra(),
}


def test_descendant_has_non_integral_structure_constants():
    g = ALGEBRAS["descendant"]
    assert any(c.denominator > 1 for row in g.sparse_rows().values() for _, c in row)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ad_matches_structure_constant_reference(name, data):
    g = ALGEBRAS[name]
    x = data.draw(st.lists(entries, min_size=g.dim, max_size=g.dim))
    assert exact(g.ad(x).rows) == exact(ref_ad(g, x))
