"""The structural checks over Z against the Fraction loops they replaced,
which are kept here as the reference: theta's involution and automorphism
checks in SymmetricPair, and LieAlgebra.check_jacobi.

Inputs are the built-in pairs and gl_n, optionally carried through a
non-unimodular rational change of basis, so that the structure constants
and theta have denominators and both integer scales exceed 1.  Broken
inputs move one entry by a small rational, or conjugate theta by a map
that is not an automorphism; both routes must refuse them alike, with the
same message and so the same first failing index.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from sympair.errors import ShapeError
from sympair.liealg import LieAlgebra, build_gl
from sympair.linalg import Matrix, integer_scaled, inverse
from sympair.pairs import SymmetricPair, make_diagonal_pair, make_quadratic_ext_pair

PAIRS = {("diagonal", n, None): make_diagonal_pair(n) for n in (1, 2, 3)}
PAIRS.update({("quadratic_ext", n, d): make_quadratic_ext_pair(n, d)
              for n in (1, 2) for d in (5, -1, 2)})

THETA_MESSAGES = ("theta is not an involution", "theta is not a Lie algebra automorphism")


# ---------------------------------------------------------------------------
# The replaced Fraction loops
# ---------------------------------------------------------------------------

def sparse_combination(terms):
    """The nonzeros of sum c * row over (c, row) terms, each row a sequence of (index, value)."""
    acc = {}
    for c, row in terms:
        for k, a in row:
            acc[k] = acc.get(k, F(0)) + c * a
    return {k: a for k, a in acc.items() if a}


def reference_theta_error(g, theta):
    """The message of the first failing theta check over Fractions, or None:
    theta(theta e_j) = e_j for every j, then theta[e_i, e_j] = [theta e_i, theta e_j]
    for every i < j."""
    cols = [tuple((i, row[j]) for i, row in enumerate(theta.rows) if row[j])
            for j in range(g.dim)]
    for j in range(g.dim):
        if sparse_combination((c, cols[i]) for i, c in cols[j]) != {j: F(1)}:
            return "theta is not an involution"
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = sparse_combination((c, cols[k]) for k, c in g.sparse_row(i, j))
            rhs = sparse_combination((s * t, g.sparse_row(a, b))
                                     for a, s in cols[i] for b, t in cols[j])
            if lhs != rhs:
                return "theta is not a Lie algebra automorphism at (%d, %d)" % (i, j)
    return None


def reference_jacobi_error(g):
    """The message of the first basis triple i < j < k failing Jacobi over Fractions, or None."""
    sr = g.sparse_row
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                acc = sparse_combination((a, sr(l, second))
                                         for first, second in ((sr(i, j), k), (sr(j, k), i),
                                                               (sr(k, i), j))
                                         for l, a in first)
                if acc:
                    return "Jacobi identity fails on basis triple (%d, %d, %d)" % (i, j, k)
    return None


# ---------------------------------------------------------------------------
# Changes of basis
# ---------------------------------------------------------------------------

DIAGONAL_ENTRY = st.sampled_from([F(1), F(-1), F(2), F(1, 3), F(-3, 2), F(5, 7)])
SMALL_RATIONAL = st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 7))


@st.composite
def basis_changes(draw, d):
    """An upper triangular rational d x d matrix whose determinant is not +-1."""
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        rows[i][i] = draw(DIAGONAL_ENTRY)
    for _ in range(draw(st.integers(0, 2 * d))):
        i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
        rows[i][j] = draw(SMALL_RATIONAL)
    det = F(1)
    for i in range(d):
        det *= rows[i][i]
    assume(abs(det) != 1)
    return Matrix(rows)


def transported_rows(g, p, p_inv):
    """Structure rows of g in the basis f_a = sum_i p[i][a] e_i."""
    basis = [list(c) for c in zip(*p.rows)]
    rows = {}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            coords = p_inv.matvec(g.bracket(basis[a], basis[b]))
            row = tuple((k, c) for k, c in enumerate(coords) if c)
            if row:
                rows[a, b] = row
                rows[b, a] = tuple((k, -c) for k, c in row)
    return rows


def transported_algebra(g, p, with_realization=False, validate="none"):
    p_inv = inverse(p)
    realization = None
    if with_realization:
        realization = [g.realize(list(col)) for col in zip(*p.rows)]
    return LieAlgebra(["f%d" % a for a in range(g.dim)], transported_rows(g, p, p_inv),
                      realization=realization, validate=validate)


def structure_scale(g):
    return integer_scaled([c for row in g.sparse_rows().values() for _, c in row])[1]


# ---------------------------------------------------------------------------
# theta: involution and automorphism
# ---------------------------------------------------------------------------

@st.composite
def pair_inputs(draw):
    """(algebra, theta, form, kind, transported): a built-in pair, possibly in a new basis,
    with theta left alone, one entry perturbed, or conjugated by a non-automorphism."""
    pair = PAIRS[draw(st.sampled_from(sorted(PAIRS, key=str)))]
    g, theta, form = pair.algebra, pair.theta, pair.form
    d = g.dim
    # gl_1 + gl_1 and gl_1 over Q(sqrt(d)) are abelian: no constants to scale
    transported = d > 2 and draw(st.booleans())
    if transported:
        p = draw(basis_changes(d))
        g = transported_algebra(g, p)
        theta = inverse(p) @ theta @ p
        form = p.transpose() @ form @ p
    kind = draw(st.sampled_from(["intact", "perturbed", "conjugated"]))
    if kind == "perturbed":
        rows = [list(r) for r in theta.rows]
        r, c = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        rows[r][c] += draw(SMALL_RATIONAL)
        theta = Matrix(rows)
    elif kind == "conjugated":
        q = draw(basis_changes(d))
        theta = inverse(q) @ theta @ q
    return g, theta, form, kind, transported


@settings(max_examples=60, deadline=None)
@given(pair_inputs())
def test_theta_checks_match_the_fraction_route(drawn):
    g, theta, form, kind, transported = drawn
    want = reference_theta_error(g, theta)
    if transported:
        # both integer forms carry a scale above 1
        assume(structure_scale(g) != 1)
        assume(integer_scaled([e for r in theta.rows for e in r])[1] != 1)
    event("%s, %s" % (kind, "refused" if want else "accepted"))
    try:
        SymmetricPair(g, theta, form)
    except ShapeError as exc:
        got = str(exc)
    else:
        got = None
    if want is not None or kind == "intact":
        assert got == want
    else:
        # an involutive automorphism still meets the later checks of the form
        assert got is None or not got.startswith(THETA_MESSAGES)


def test_transported_pairs_have_fractional_scales():
    pair = PAIRS["diagonal", 2, None]
    p = Matrix([[F(2) if i == j else (F(1, 3) if j == i + 1 else F(0)) for j in range(8)]
                for i in range(8)])
    g = transported_algebra(pair.algebra, p)
    theta = inverse(p) @ pair.theta @ p
    assert structure_scale(g) > 1
    assert integer_scaled([e for r in theta.rows for e in r])[1] > 1
    sub = SymmetricPair(g, theta, p.transpose() @ pair.form @ p)
    assert (sub.dim_h, sub.dim_gsigma) == (pair.dim_h, pair.dim_gsigma)


# ---------------------------------------------------------------------------
# Jacobi
# ---------------------------------------------------------------------------

@st.composite
def transported_gl(draw):
    n = draw(st.sampled_from([2, 3]))
    g = build_gl(n)
    p = draw(basis_changes(g.dim))
    h = transported_algebra(g, p, with_realization=True)
    assume(structure_scale(h) != 1)
    return h


@settings(max_examples=25, deadline=None)
@given(transported_gl(), st.data())
def test_jacobi_over_z_matches_the_fraction_route(h, data):
    # the transported table, fractional constants and all, passes every check
    LieAlgebra(h.labels, h.sparse_rows(), realization=h.realization, validate="full")
    rows = h.sparse_rows()
    i, j = sorted(data.draw(st.lists(st.integers(0, h.dim - 1), min_size=2, max_size=2,
                                     unique=True)))
    k = data.draw(st.integers(0, h.dim - 1))
    coeffs = dict(rows.get((i, j), ()))
    coeffs[k] = coeffs.get(k, F(0)) + F(1, 3)
    row = tuple(sorted((m, c) for m, c in coeffs.items() if c))
    rows[i, j], rows[j, i] = row, tuple((m, -c) for m, c in row)
    rows = {key: r for key, r in rows.items() if r}
    want = reference_jacobi_error(LieAlgebra(h.labels, rows, validate="none"))
    event("refused" if want else "accepted")
    if want is None:
        LieAlgebra(h.labels, rows, validate="full")
    else:
        with pytest.raises(ShapeError) as exc:
            LieAlgebra(h.labels, rows, validate="full")
        assert str(exc.value) == want


def test_jacobi_names_the_first_failing_triple():
    g = build_gl(2)
    rows = g.sparse_rows()
    # [E11, E12] = E12 becomes E12 + E22/3: the triple (E11, E12, E21) now fails
    rows[0, 1] = ((1, F(1)), (3, F(1, 3)))
    rows[1, 0] = ((1, F(-1)), (3, F(-1, 3)))
    want = reference_jacobi_error(LieAlgebra(g.labels, rows, validate="none"))
    assert want == "Jacobi identity fails on basis triple (0, 1, 2)"
    with pytest.raises(ShapeError, match=r"basis triple \(0, 1, 2\)"):
        LieAlgebra(g.labels, rows, validate="full")
