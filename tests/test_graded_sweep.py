"""The orbit route (eigen_check on a complement of [x, h], pivot-read
restricted_trace, counted sl2_decompose) against the complement, solve and
rank-probe implementations it replaced, which are kept here as the
reference.

Spectra are counted, never given bases: the quotient spectrum by the rank
probes of integer_spectrum, the gl_n weights by eigenvector_weights
buckets.  Only a custom pair takes centralizer_in and restricted_trace for
its trace; the last test shows why.
"""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sympair import criteria, sl2
from sympair.criteria import (
    audit_orbits,
    eigen_check,
    partitions,
    restricted_trace,
    speciality_audit,
    trace_from_quotient,
)
from sympair.errors import InvariantViolation
from sympair.liealg import LieAlgebra, build_gl
from sympair.linalg import (
    Matrix,
    coords_in_basis,
    echelon_subspace,
    integer_spectrum,
    inverse,
    rank,
    shift_diagonal,
)
from sympair.pairs import SymmetricPair, make_diagonal_pair, make_quadratic_ext_pair
from sympair.sl2 import SL2Triple, eigenvector_weights, jordan_triple, sl2_decompose, theta_adapt

from test_criteria import jordan_matrix
from test_kernels import complete_basis


# ---------------------------------------------------------------------------
# The replaced implementations
# ---------------------------------------------------------------------------

def reference_integer_spectrum(mat, bound):
    """Probe k = 0, 1, -1, ... with a full-size rank each, until the dimension is accounted for."""
    n = mat.nrows
    found, total = {}, 0
    for k in [0] + [s * j for j in range(1, bound + 1) for s in (1, -1)]:
        mult = n - rank(shift_diagonal(mat, -k))
        if mult:
            found[k] = mult
            total += mult
            if total == n:
                return dict(sorted(found.items()))
    raise InvariantViolation("reference spectrum unresolved")


def reference_eigen_check(pair, x, triple):
    """ad h on an explicit complement of [x, h] in s, by a solve, then rank probes."""
    g = pair.algebra
    img_basis = echelon_subspace([g.bracket(x, hb) for hb in pair.h_basis])
    complement = complete_basis(img_basis, pair.gsigma_basis)
    if not complement:
        return ()
    coords = coords_in_basis(img_basis + complement,
                             [g.bracket(list(triple.h), c) for c in complement])
    k = len(img_basis)
    qmat = Matrix.from_columns([c[k:] for c in coords])
    return tuple(sorted(reference_integer_spectrum(qmat, 2 * g.dim).items()))


def reference_restricted_trace(pair, h, subspace):
    """The diagonal of the coordinates of [h, b_i] in the basis, by one solve."""
    if not subspace:
        return F(0)
    coords = coords_in_basis(list(subspace), [pair.algebra.bracket(h, b) for b in subspace])
    return sum((coords[i][i] for i in range(len(subspace))), F(0))


def reference_weights(g, triple):
    """Highest weights m_l - m_{l+2} from the rank-probe spectrum of ad h."""
    mults = reference_integer_spectrum(g.ad(list(triple.h)), 2 * g.dim)
    weights = []
    for l in sorted((k for k in mults if k >= 0), reverse=True):
        weights.extend([l] * (mults[l] - mults.get(l + 2, 0)))
    return tuple(sorted(weights, reverse=True))


# ---------------------------------------------------------------------------
# Random conjugates, which take theta_adapt
# ---------------------------------------------------------------------------

PAIRS = {("diagonal", n, None): make_diagonal_pair(n) for n in range(1, 6)}
PAIRS.update({("quadratic_ext", n, d): make_quadratic_ext_pair(n, d)
              for n in range(1, 4) for d in (-1, 2, 5)})


@st.composite
def conjugated_orbit_elements(draw):
    """(pair, x) with x = (X, -X) or w*X for X = g J_mu g^-1, g = (unit lower)(unit upper)."""
    key = draw(st.sampled_from(sorted(PAIRS, key=str)))
    pair = PAIRS[key]
    n = pair.inner_n
    mu = draw(st.sampled_from(partitions(n)))
    entry = st.integers(-2, 2)
    low = Matrix([[F(1 if i == j else draw(entry) if i > j else 0) for j in range(n)]
                  for i in range(n)])
    up = Matrix([[F(1 if i == j else draw(entry) if i < j else 0) for j in range(n)]
                 for i in range(n)])
    g = low @ up
    flat = [e for row in (g @ jordan_matrix(mu) @ inverse(g)).rows for e in row]
    if pair.family == "diagonal":
        return pair, flat + [-e for e in flat]
    return pair, [F(0)] * len(flat) + flat


@settings(max_examples=15, deadline=None)
@given(conjugated_orbit_elements())
def test_graded_route_matches_reference_on_conjugates(drawn):
    pair, x = drawn
    t = theta_adapt(pair, x)
    h = list(t.h)
    assert eigen_check(pair, x, t) == reference_eigen_check(pair, x, t)
    hx = pair.centralizer_in(x, pair.h_basis)
    want = reference_restricted_trace(pair, h, hx)
    assert restricted_trace(pair, h, hx) == want
    # a basis that is not in echelon form is echelonized first
    assert restricted_trace(pair, h, [[2 * c for c in b] for b in reversed(hx)]) == want
    assert sl2_decompose(pair.algebra, t).weights == reference_weights(pair.algebra, t)


def conjugate_of(pair, mu):
    """(X, -X) for X = g J_mu g^-1 with a fixed unit lower triangular g."""
    n = pair.inner_n
    g = Matrix([[F(1) if i == j else F(i - j) if i > j else F(0) for j in range(n)]
                for i in range(n)])
    flat = [e for row in (g @ jordan_matrix(mu) @ inverse(g)).rows for e in row]
    return flat + [-e for e in flat]


def test_conjugates_take_the_quotient_route(monkeypatch):
    weight_calls, quotient_sizes = [], []
    weights, spectrum = sl2.integer_spectrum, criteria.integer_spectrum

    def spy_weights(mat, bound):
        weight_calls.append(mat.nrows)
        return weights(mat, bound)

    def spy_spectrum(mat, bound):
        quotient_sizes.append(mat.nrows)
        return spectrum(mat, bound)

    monkeypatch.setattr(sl2, "integer_spectrum", spy_weights)
    monkeypatch.setattr(criteria, "integer_spectrum", spy_spectrum)
    pair = make_diagonal_pair(3)
    x = conjugate_of(pair, (2, 1))
    t = theta_adapt(pair, x)
    got = eigen_check(pair, x, t)
    assert got == reference_eigen_check(pair, x, t)
    # only the quotient, of dimension sum(m_k), is probed
    assert weight_calls == []
    assert quotient_sizes == [sum(m for _, m in got)]
    # the canonical representatives take the same route: one quotient per orbit
    quotient_sizes.clear()
    audits = audit_orbits(pair)
    assert weight_calls == []
    assert quotient_sizes == [sum(m for _, m in a.quotient_eigenvalues) for a in audits]


@pytest.mark.parametrize("mu", [(5,), (3, 2), (2, 2, 1)])
def test_eigen_check_elimination_work_on_both_routes(monkeypatch, mu):
    """Canonical representatives and conjugates, measured in rref cells
    against the complement route on the whole algebra."""
    import sympair.linalg as linalg

    cells = []
    rref = linalg.rref

    def counting_rref(mat):
        cells.append(mat.nrows * mat.ncols)
        return rref(mat)

    def work(check, pair, x, t):
        cells.clear()
        got = check(pair, x, t)
        return got, sum(cells)

    monkeypatch.setattr(linalg, "rref", counting_rref)
    pair = make_diagonal_pair(5)
    conjugate = conjugate_of(pair, mu)
    rep = criteria.orbit_rep(pair, mu)
    for x, t in ((conjugate, theta_adapt(pair, conjugate)), (rep, theta_adapt(pair, rep))):
        got, ours = work(eigen_check, pair, x, t)
        want, reference = work(reference_eigen_check, pair, x, t)
        assert got == want
        # on the inner gl_n: at most half the complement route's work
        assert 2 * ours <= reference


@pytest.mark.parametrize("key", [("diagonal", n, None) for n in range(1, 6)]
                         + [("quadratic_ext", 3, d) for d in (-1, 2, 5)])
def test_sweep_matches_reference(key):
    pair = PAIRS[key]
    for audit in audit_orbits(pair):
        x = list(audit.representative)
        assert audit.quotient_eigenvalues == reference_eigen_check(pair, x, audit.triple)
        hx = pair.centralizer_in(x, pair.h_basis)
        assert audit.trace_on_hx == reference_restricted_trace(pair, list(audit.triple.h), hx)


@pytest.mark.parametrize("n", range(1, 6))
def test_gl_weights_match_reference(n):
    g = build_gl(n)
    for mu in partitions(n):
        t = jordan_triple(mu)
        assert sl2_decompose(g, t).weights == reference_weights(g, t)


def test_integer_spectrum_matches_reference():
    g = build_gl(3)
    h = [F(2), F(0), F(1), F(0), F(0), F(1), F(0), F(0), F(-2)]
    adh = g.ad(h)
    assert integer_spectrum(adh, 2 * g.dim) == reference_integer_spectrum(adh, 2 * g.dim)


# ---------------------------------------------------------------------------
# Weights on small cases, and every way the route refuses
# ---------------------------------------------------------------------------

def gl2_h():
    """diag(1, -1) in gl_2, basis E11, E12, E21, E22."""
    return [F(1), F(0), F(0), F(-1)]


def gl2_triple(h):
    """A triple of gl_2 with the given h and zero e, f: sl2_decompose reads h only."""
    zero = (F(0),) * 4
    return SL2Triple(e=zero, h=tuple(h), f=zero)


def test_eigenvector_weights_buckets_the_standard_basis():
    g = build_gl(2)
    standard = [{i: F(1)} for i in range(4)]
    assert eigenvector_weights(g, gl2_h(), standard) == {
        -2: [{2: F(1)}], 0: [{0: F(1)}, {3: F(1)}], 2: [{1: F(1)}]}
    # E11 + E12 is not an eigenvector, so no row is bucketed
    assert eigenvector_weights(g, gl2_h(), [{0: F(1)}, {0: F(1), 1: F(1)}]) is None


def test_non_exhausting_spectrum_raises():
    # ad E12 is nilpotent, not semisimple: its kernel is 2 of the 4 dimensions
    e12 = [F(0), F(1), F(0), F(0)]
    with pytest.raises(InvariantViolation, match="^not an sl2 module: .*account for 2 of 4"):
        sl2_decompose(build_gl(2), gl2_triple(e12))


def test_non_integral_weight_is_named():
    third = [c / 3 for c in gl2_h()]
    with pytest.raises(InvariantViolation, match="^not an sl2 module: non-integral weight 2/3"):
        sl2_decompose(build_gl(2), gl2_triple(third))


def test_positive_weight_is_reported_not_raised():
    # the triple of J_2 with x replaced by (E21, -E21), which has weight -2:
    # on gl_2, [X, gl_2] is spanned by E21 and E11 - E22, and E12 and E22
    # span a complement, of weights 2 and 0
    pair = make_diagonal_pair(2)
    t = theta_adapt(pair, criteria.orbit_rep(pair, (2,)))
    x = [F(0), F(0), F(1), F(0), F(0), F(0), F(-1), F(0)]
    assert eigen_check(pair, x, t) == ((0, 1), (2, 1))
    assert eigen_check(pair, x, t) == reference_eigen_check(pair, x, t)


def test_unstable_subspace_trace_raises():
    pair = make_diagonal_pair(2)
    h = list(theta_adapt(pair, criteria.orbit_rep(pair, (2,))).h)
    # (E11 + E12, E11 + E12) is not an ad h eigenvector and spans no stable subspace
    v = [F(1), F(1), F(0), F(0), F(1), F(1), F(0), F(0)]
    with pytest.raises(InvariantViolation, match="does not preserve"):
        restricted_trace(pair, h, [v])


def test_sweep_names_the_partition(monkeypatch):
    def third_h(pair, x, rng=None):
        t = theta_adapt(pair, x, rng)
        return dataclasses.replace(t, h=tuple(c / 3 for c in t.h))

    monkeypatch.setattr(criteria, "theta_adapt", third_h)
    pair = make_diagonal_pair(2)
    with pytest.raises(InvariantViolation, match=r"partition \(2,\): quotient: non-integral"):
        audit_orbits(pair)
    x = criteria.orbit_rep(pair, (2,))
    with pytest.raises(InvariantViolation, match=r"^partition \(2,\)"):
        speciality_audit(pair, x)


def test_restricted_trace_reads_pivots_without_a_solve(monkeypatch):
    import sympair.linalg as linalg

    def refuse(*args):
        raise AssertionError("restricted_trace ran an elimination")

    pair = make_diagonal_pair(3)
    x = criteria.orbit_rep(pair, (2, 1))
    h = list(theta_adapt(pair, x).h)
    hx = pair.centralizer_in(x, pair.h_basis)
    want = reference_restricted_trace(pair, h, hx)
    monkeypatch.setattr(linalg, "rref", refuse)
    assert restricted_trace(pair, h, hx) == want


def test_quotient_route_refuses_an_image_outside_s():
    # x = (E12, E12) lies in the +1 space, so [x, h] does not lie in s
    pair = make_diagonal_pair(2)
    t = theta_adapt(pair, conjugate_of(pair, (2,)))
    x = [F(0), F(1), F(0), F(0), F(0), F(1), F(0), F(0)]
    with pytest.raises(InvariantViolation, match=r"^x is not in the -1 eigenspace"):
        eigen_check(pair, x, t)


def test_quotient_route_refuses_an_h_that_leaves_s():
    # h = (E21, 0) is not theta-fixed: ad h moves s out of itself
    pair = make_diagonal_pair(2)
    x = criteria.orbit_rep(pair, (2,))
    h = (F(0), F(0), F(1), F(0), F(0), F(0), F(0), F(0))
    t = dataclasses.replace(theta_adapt(pair, x), h=h)
    with pytest.raises(InvariantViolation, match=r"^h is not in the \+1 eigenspace"):
        eigen_check(pair, x, t)


# ---------------------------------------------------------------------------
# Why a custom pair keeps the centralizer route
# ---------------------------------------------------------------------------

def sl2_on_the_plane():
    """sl2 ⋉ Q^2 with basis h, e, f, v+, v-: sl2 acting on its standard
    module, which is an abelian ideal."""
    brackets = {(0, 1): ((1, F(2)),), (0, 2): ((2, F(-2)),), (1, 2): ((0, F(1)),),
                (0, 3): ((3, F(1)),), (0, 4): ((4, F(-1)),),
                (1, 4): ((3, F(1)),), (2, 3): ((4, F(1)),)}
    brackets.update({(j, i): tuple((k, -c) for k, c in row) for (i, j), row in brackets.items()})
    return LieAlgebra(["h", "e", "f", "v+", "v-"], brackets, validate="full")


def test_custom_pair_trace_is_not_read_off_the_quotient():
    # theta fixes h and v+: the +1 space span(h, v+) is no copy of an
    # adjoint module, and ad h has trace 1 on it
    theta = Matrix([[F(c) if i == j else F(0) for j in range(5)]
                    for i, c in enumerate((1, -1, -1, 1, -1))])
    pair = SymmetricPair(sl2_on_the_plane(), theta, Matrix.identity(5))
    x = [F(0), F(1), F(0), F(0), F(0)]
    audit = speciality_audit(pair, x)
    # z_h(e) = span(v+), of weight 1
    assert audit.trace_on_hx == 1
    assert audit.trace_on_hx == restricted_trace(pair, list(audit.triple.h),
                                                 pair.centralizer_in(x, pair.h_basis))
    assert audit.quotient_eigenvalues == ((-2, 1), (-1, 1))
    assert trace_from_quotient(pair.dim_gsigma, audit.quotient_eigenvalues) == -1
