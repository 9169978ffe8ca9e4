"""The zero-skipping, sparse and rref-based kernels agree exactly with naive reference versions."""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sympair.criteria import audit_orbits
from sympair.errors import ShapeError
from sympair.liealg import LieAlgebra, build_gl, build_product, build_quadratic_extension
from sympair.linalg import (
    Matrix,
    Poly,
    _vector_annihilator,
    coords_in_basis,
    echelon_subspace,
    kernel_basis,
    kernel_in_span,
    minimal_polynomial,
    rref,
    shift_diagonal,
)
from sympair.pairs import (
    GroupElement,
    SymmetricPair,
    descendant,
    group_sigma,
    make_diagonal_pair,
    make_quadratic_ext_pair,
    symmetrize,
)
from test_liealg import dense_table
from test_pairs import quad_matrix


def naive_rref(rows):
    """Dense Gauss-Jordan with first-nonzero pivoting, every entry touched."""
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
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
wide_fractions = st.builds(F, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 97))
wide_integers = st.builds(F, st.integers(-10 ** 6, 10 ** 6))


@st.composite
def sparse_rows(draw, nrows=None, ncols=None, entries=fractions, max_side=8):
    """Fraction rows with density 2%..100%, possibly with zeroed rows and columns."""
    m = nrows or draw(st.integers(1, max_side))
    n = ncols or draw(st.integers(1, max_side))
    density = draw(st.floats(0.02, 1.0))
    rows = [[draw(entries) if draw(st.floats(0, 1)) < density else F(0) for _ in range(n)]
            for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows[i] = [F(0)] * n
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = F(0)
    return rows


@st.composite
def rref_inputs(draw):
    """Small fractions, or numerators up to 10^6 over denominators up to 97,
    in shapes up to 12 x 12 or as a tall augmented [A | b] of shape
    2k x (k + 1) with b in the column span of A or not; a few rows are
    made all-integer.  Signs are symmetric, so pivots are often negative."""
    entries = draw(st.sampled_from((fractions, wide_fractions)))
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        a = draw(sparse_rows(2 * k, k, entries))
        x = draw(sparse_rows(1, k, entries))[0]
        b = naive_matvec(a, x) if draw(st.booleans()) else draw(sparse_rows(1, 2 * k, entries))[0]
        rows = [row + [e] for row, e in zip(a, b)]
    else:
        rows = draw(sparse_rows(entries=entries, max_side=12))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows[i] = [draw(wide_integers) if e else e for e in rows[i]]
    return rows


@settings(max_examples=200, deadline=None)
@given(rref_inputs())
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


@dataclass(frozen=True)
class Quad:
    """a + b*w with w**2 = d: only the Q(sqrt d) arithmetic that naive_rref uses."""

    a: F
    b: F
    d: F

    def __bool__(self):
        return bool(self.a or self.b)

    def __sub__(self, o):
        return Quad(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        return Quad(self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a, self.d)

    def inv(self):
        norm = self.a * self.a - self.d * self.b * self.b
        return Quad(self.a / norm, -self.b / norm, self.d)


@lru_cache(maxsize=None)
def quad_pair(n, d):
    return make_quadratic_ext_pair(n, d)


def draw_quad_matrix(data, n):
    """The parts A, B of A + B w; an entry of A + B w is zero half the time."""
    entry = st.one_of(st.just((F(0), F(0))), st.tuples(fractions, fractions))
    m = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    return [[e[0] for e in row] for row in m], [[e[1] for e in row] for row in m]


def check_against_field_elimination(pair, a, b):
    """GroupElement takes realize((A, B)) exactly when naive_rref of [A + B w | I]
    over Q(sqrt d) pivots on the first n columns.  Then group_sigma is the
    realized conjugate of that inverse, and symmetrize lands where sigma is 1."""
    n, d = pair.inner_n, pair.disc
    m = quad_matrix(pair, a, b)
    ext = [[Quad(x, y, d) for x, y in zip(ra, rb)] + [Quad(F(int(i == j)), F(0), d) for j in range(n)]
           for i, (ra, rb) in enumerate(zip(a, b))]
    red, pivots = naive_rref(ext)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ShapeError, match="invertible"):
            GroupElement(pair, m)
        return
    g = GroupElement(pair, m)
    inv = [row[n:] for row in red]
    conj = quad_matrix(pair, [[e.a for e in row] for row in inv], [[-e.b for e in row] for row in inv])
    assert group_sigma(pair, g.matrix) == conj
    s = symmetrize(pair, g)
    assert group_sigma(pair, s.matrix) == s.matrix


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.data())
def test_quadext_kernels_match_dense(n, data):
    """Invertibility and sigma over Q(i), where rref sees only the rational realization."""
    check_against_field_elimination(quad_pair(n, -1), *draw_quad_matrix(data, n))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((-1, 2, 5)), st.integers(1, 3), st.data())
def test_quadext_group_elements_match_field_elimination(d, n, data):
    """As above for d = -1, 2, 5; a rational matrix off the form [[A, dB], [B, A]] is refused."""
    pair = quad_pair(n, d)
    a, b = draw_quad_matrix(data, n)
    check_against_field_elimination(pair, a, b)
    # each entry of [[A, dB], [B, A]] is tied to one other, so moving one entry leaves the form
    off = quad_matrix(pair, a, b).rows
    i, j = data.draw(st.integers(0, 2 * n - 1)), data.draw(st.integers(0, 2 * n - 1))
    off[i][j] += data.draw(fractions.filter(bool))
    with pytest.raises(ShapeError, match="not in the realization"):
        GroupElement(pair, Matrix(off))


# ---------------------------------------------------------------------------
# Krylov annihilators and basis completion against incremental elimination
# ---------------------------------------------------------------------------

def incremental_annihilator(mat, v):
    """Minimal monic q with q(mat) @ v = 0: echelonize v, Av, ... one at a time,
    tracking the polynomial behind each echelon row, until a vector reduces to 0."""
    ech, combos, lead_cols = [], [], []
    cur = list(v)
    power = 0
    while True:
        combo = [F(0)] * power + [F(1)]
        w = list(cur)
        for row, rcombo, lc in zip(ech, combos, lead_cols):
            f = w[lc]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
                for i, rc in enumerate(rcombo):
                    combo[i] -= f * rc
        lead = next((j for j, e in enumerate(w) if e), None)
        if lead is None:
            return Poly(combo).monic()
        inv = 1 / w[lead]
        ech.append([e * inv for e in w])
        combos.append([c * inv for c in combo])
        lead_cols.append(lead)
        cur = mat.matvec(cur)
        power += 1


def complete_basis(base, ambient):
    """Ambient vectors that extend the independent base to a basis of span(ambient):
    the pivot columns of rref(base | ambient).  This was criteria._complete_basis;
    it stays here as the quotient-complement reference for eigen_check."""
    if not ambient:
        return []
    k = len(base)
    _, pivots = rref(Matrix.from_columns(list(base) + list(ambient)))
    return [list(ambient[c - k]) for c in pivots[k:]]


def greedy_complete_basis(base, ambient):
    """Ambient vectors kept one by one when they are not in the span of base
    and the vectors kept before them."""
    rows = [list(v) for v in base]
    pivots = [next(i for i, e in enumerate(row) if e) for row in rows]
    chosen = []
    for cand in ambient:
        v = list(cand)
        for row, p in zip(rows, pivots):
            if v[p]:
                c = v[p] / row[p]
                v = [a - c * b for a, b in zip(v, row)]
        lead = next((i for i, e in enumerate(v) if e), None)
        if lead is not None:
            rows.append(v)
            pivots.append(lead)
            chosen.append(list(cand))
    return chosen


@st.composite
def square_rows(draw, n):
    """Sparse or dense n x n rows, or upper triangular ones with a repeated
    diagonal from {-1, 0, 1}, which gives nontrivial Jordan blocks."""
    rows = draw(sparse_rows(n, n))
    if draw(st.booleans()):
        for i in range(n):
            rows[i][:i] = [F(0)] * i
            rows[i][i] = F(draw(st.integers(-1, 1)))
    return rows


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_annihilators_match_incremental_elimination(n, data):
    a = Matrix(data.draw(square_rows(n)))
    v = data.draw(sparse_rows(1, n))[0]
    assert _vector_annihilator(a, v) == incremental_annihilator(a, v)
    want = Poly([F(1)])
    for seed in range(n):
        want = want.lcm(incremental_annihilator(a, [F(int(i == seed)) for i in range(n)]))
    assert minimal_polynomial(a) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(0, 7), st.integers(0, 8), st.data())
def test_complete_basis_matches_greedy_choice(n, nbase, namb, data):
    base = echelon_subspace(data.draw(sparse_rows(nbase, n)) if nbase else [])
    ambient = data.draw(sparse_rows(namb, n)) if namb else []
    # repeats of base or ambient vectors lie in the span and must be skipped
    if base + ambient:
        ambient += data.draw(st.lists(st.sampled_from(base + ambient), max_size=2))
    assert complete_basis(base, ambient) == greedy_complete_basis(base, ambient)


def reference_kernel_in_span(mat, span):
    """The kernel basis of mat @ S, mapped back through S and echelonized."""
    if not span:
        return []
    sub = Matrix.from_columns(span)
    return echelon_subspace([sub.matvec(k) for k in kernel_basis(mat @ sub)])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 6), st.data())
def test_kernel_in_span_matches_mapped_kernel_basis(m, n, nspan, data):
    mat = Matrix(data.draw(sparse_rows(m, n)))
    span = data.draw(sparse_rows(nspan, n)) if nspan else []
    # repeats, sums and the zero vector make the span dependent
    if span and data.draw(st.booleans()):
        span += data.draw(st.lists(st.sampled_from(span), max_size=2))
        span += [[a + b for a, b in zip(span[0], span[-1])], [F(0)] * n]
    assert kernel_in_span(mat, span) == reference_kernel_in_span(mat, span)


# ---------------------------------------------------------------------------
# The sparse structure constants and involution against dense references
# ---------------------------------------------------------------------------

def _descendant_pair():
    # centralizer of (A, -A) for the split semisimple A = [[1, 1, 0], [0, 2, 0], [0, 0, 1]]:
    # its basis mixes matrix entries, so rows and realizations overlap
    a = [F(e) for e in (1, 1, 0, 0, 2, 0, 0, 0, 1)]
    return descendant(make_diagonal_pair(3), a + [-e for e in a])


def _conjugation_pair():
    # theta = Ad(s) on gl_3 for the involution s = 2 v w^T - I: every column is dense
    s = [[F(2 * wj - int(i == j)) for j, wj in enumerate((1, 2, -2))] for i in range(3)]
    g = build_gl(3)
    theta = Matrix.from_columns([[s[i][a] * s[b][j] for i in range(3) for j in range(3)]
                                 for a in range(3) for b in range(3)])
    return SymmetricPair(g, theta, g.trace_form())


@lru_cache(maxsize=None)
def sample_pairs():
    return (make_diagonal_pair(2), make_quadratic_ext_pair(2, 5), _descendant_pair(),
            _conjugation_pair())


def naive_bracket(table, x, y):
    d = len(x)
    return [sum((x[i] * y[j] * table[i][j][k] for i in range(d) for j in range(d)), F(0))
            for k in range(d)]


def naive_ad(table, x):
    d = len(x)
    return [[sum((x[i] * table[i][j][k] for i in range(d)), F(0)) for j in range(d)]
            for k in range(d)]


def naive_realize(mats, x):
    size = mats[0].nrows
    return [[sum((c * m.rows[r][s] for c, m in zip(x, mats)), F(0)) for s in range(size)]
            for r in range(size)]


@st.composite
def pair_and_vectors(draw, count):
    pair = sample_pairs()[draw(st.integers(0, len(sample_pairs()) - 1))]
    d = pair.dim_g
    return pair, [draw(sparse_rows(1, d))[0] for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(pair_and_vectors(2))
def test_bracket_and_ad_match_dense_table(drawn):
    pair, (x, y) = drawn
    g = pair.algebra
    table = dense_table(g)
    assert g.bracket(x, y) == naive_bracket(table, x, y)
    assert g.ad(x).rows == naive_ad(table, x)


@settings(max_examples=60, deadline=None)
@given(pair_and_vectors(1))
def test_realize_and_theta_apply_match_dense(drawn):
    pair, (x,) = drawn
    g = pair.algebra
    assert g.realize(x).rows == naive_realize(g.realization, x)
    assert pair.theta_apply(x) == naive_matvec(pair.theta.rows, x)
    assert pair.in_h(x) == (naive_matvec(pair.theta.rows, x) == x)
    assert pair.in_gsigma(x) == (naive_matvec(pair.theta.rows, x) == [-a for a in x])


@pytest.mark.parametrize("algebra", [build_gl(n) for n in range(1, 5)]
                         + [build_product(build_gl(2), build_gl(3))]
                         + [build_quadratic_extension(build_gl(2), d) for d in (-1, 2, 5)],
                         ids=["gl1", "gl2", "gl3", "gl4", "gl2xgl3", "qe-1", "qe2", "qe5"])
def test_built_rows_are_realization_commutators(algebra):
    """The sparse row of [e_i, e_j] is the coordinate vector of rho_i rho_j - rho_j rho_i."""
    rho = algebra.realization
    index = [(i, j) for i in range(algebra.dim) for j in range(algebra.dim)]
    flat = [[e for row in m.rows for e in row] for m in rho]
    comms = [[e for row in (rho[i] @ rho[j] - rho[j] @ rho[i]).rows for e in row]
             for i, j in index]
    for (i, j), want in zip(index, coords_in_basis(flat, comms)):
        assert algebra.sparse_row(i, j) == tuple((k, c) for k, c in enumerate(want) if c)


def test_built_in_pairs_never_build_the_dense_table(monkeypatch):
    """Built-in algebras, their descendants and audits hand LieAlgebra sparse
    rows; only a custom spec arrives as a dense table."""
    read = LieAlgebra._read_structure

    def sparse_only(self, structure):
        assert isinstance(structure, Mapping), "dense structure-constant table was built"
        return read(self, structure)

    monkeypatch.setattr(LieAlgebra, "_read_structure", sparse_only)
    for n in (1, 2, 3):
        pair = make_diagonal_pair(n)
        audit_orbits(pair)
    _descendant_pair()
    audit_orbits(make_quadratic_ext_pair(2, -1))
