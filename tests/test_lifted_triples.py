"""Built-in pairs solve their adapted triples on gl_n and lift them, and
take their quotients s/[x, h] on gl_n.

The reference is the route on the whole algebra: the same algebra, theta
and form rebuilt as a custom pair, which averages h and antisymmetrizes f
on all 2n^2 coordinates.  Both routes take the canonical solution (free
coordinates zero), so they must return the same triple exactly; and they
must find the same quotient spectrum, on canonical representatives and on
random conjugates.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sympair import criteria
from sympair.cli import main
from sympair.criteria import audit_orbits, eigen_check, orbit_rep, partitions
from sympair.errors import PreconditionError
from sympair.liealg import LieAlgebra
from sympair.linalg import Matrix, inverse
from sympair.pairs import SymmetricPair, make_diagonal_pair, make_quadratic_ext_pair
from sympair.sl2 import inner_gl, theta_adapt, verify_triple

PAIRS = {("diagonal", n, None): make_diagonal_pair(n) for n in range(2, 5)}
PAIRS.update({("quadratic_ext", n, d): make_quadratic_ext_pair(n, d)
              for n in range(2, 5) for d in (5, -1, 2)})
CANONICAL = {("diagonal", 1, None): make_diagonal_pair(1), **PAIRS}
CANONICAL.update({("quadratic_ext", 1, d): make_quadratic_ext_pair(1, d) for d in (5, -1, 2)})
WHOLE = {}


def whole_algebra_route(pair):
    """The pair's algebra, theta and form as a custom pair, built once."""
    key = (pair.family, pair.inner_n, pair.disc)
    if key not in WHOLE:
        WHOLE[key] = SymmetricPair(pair.algebra, pair.theta, pair.form)
    return WHOLE[key]


def s_element(pair, inner):
    """(X, -X) or w*X for the n x n matrix X."""
    flat = [e for row in inner.rows for e in row]
    if pair.family == "diagonal":
        return flat + [-e for e in flat]
    return [F(0)] * len(flat) + flat


def jordan(mu, shift=F(0)):
    """J_mu plus shift on the first diagonal entry."""
    n = sum(mu)
    rows = [[F(0)] * n for _ in range(n)]
    off = 0
    for part in mu:
        for i in range(off, off + part - 1):
            rows[i][i + 1] = F(1)
        off += part
    rows[0][0] += shift
    return Matrix(rows)


@st.composite
def conjugators(draw, n):
    """(unit lower)(unit upper) times a diagonal of small nonzero rationals."""
    entry = st.integers(-3, 3)
    low = Matrix([[F(1 if i == j else draw(entry) if i > j else 0) for j in range(n)]
                  for i in range(n)])
    up = Matrix([[F(1 if i == j else draw(entry) if i < j else 0) for j in range(n)]
                 for i in range(n)])
    scale = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    diag = Matrix([[draw(scale) if i == j else F(0) for j in range(n)] for i in range(n)])
    return low @ up @ diag


@st.composite
def conjugates(draw, shifted=False):
    """(pair, x) with x in s over X = g J_mu g^-1, or over g (J_mu + c E_11) g^-1
    with c != 0, which is not nilpotent, when shifted."""
    pair = PAIRS[draw(st.sampled_from(sorted(PAIRS, key=str)))]
    n = pair.inner_n
    mu = draw(st.sampled_from(partitions(n)))
    shift = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)) \
        if shifted else F(0)
    g = draw(conjugators(n))
    return pair, s_element(pair, g @ jordan(mu, shift) @ inverse(g))


@settings(max_examples=30, deadline=None)
@given(conjugates())
def test_gl_n_route_returns_the_whole_algebra_triple(drawn):
    pair, x = drawn
    assert theta_adapt(pair, x) == theta_adapt(whole_algebra_route(pair), x)


@settings(max_examples=15, deadline=None)
@given(conjugates(), st.integers(0, 2 ** 32))
def test_random_kernel_shifts_stay_adapted(drawn, seed):
    pair, x = drawn
    t = theta_adapt(pair, x, random.Random(seed))
    verify_triple(pair.algebra, t)
    assert t.e == tuple(x) and pair.in_h(list(t.h)) and pair.in_gsigma(list(t.f))


@settings(max_examples=20, deadline=None)
@given(conjugates(shifted=True))
def test_non_nilpotent_elements_are_refused(drawn):
    pair, x = drawn
    with pytest.raises(PreconditionError, match="not nilpotent"):
        theta_adapt(pair, x)
    with pytest.raises(PreconditionError, match="not nilpotent"):
        theta_adapt(whole_algebra_route(pair), x)


@settings(max_examples=20, deadline=None)
@given(conjugates(), st.data())
def test_elements_off_s_are_refused(drawn, data):
    pair, x = drawn
    y = list(x)
    # one coordinate of the first half moved: off s in either family
    y[data.draw(st.integers(0, len(y) // 2 - 1))] += data.draw(
        st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool))
    with pytest.raises(PreconditionError, match="not in the -1 eigenspace"):
        theta_adapt(pair, y)


@pytest.mark.parametrize("pair_args,element", [
    (["--family", "diagonal", "--n", "2"], "1,0,0,0,-1,0,0,0"),
    (["--family", "diagonal", "--n", "2"], "0,1,0,0,0,1,0,0"),
    (["--family", "quadratic_ext", "--n", "2", "--d", "5"], "0,0,0,0,1,1,0,1"),
    (["--family", "quadratic_ext", "--n", "2", "--d", "5"], "0,1,0,0,0,0,0,0"),
])
def test_refusals_exit_2(capsys, pair_args, element):
    assert main(["triple"] + pair_args + ["--element", element]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: element is not")
    assert "INVARIANT" not in err


@pytest.mark.parametrize("key", [("diagonal", 3, None), ("quadratic_ext", 3, -1)])
@pytest.mark.parametrize("seeded", [False, True])
def test_built_in_pairs_take_ad_only_on_gl_n(monkeypatch, key, seeded):
    pair = PAIRS[key]
    g = Matrix([[F(1), F(0), F(0)], [F(2), F(1), F(0)], [F(-1), F(3), F(1)]])
    x = s_element(pair, g @ jordan((2, 1)) @ inverse(g))
    seen = []
    real_ad = LieAlgebra.ad

    def spy(self, v):
        seen.append(self)
        return real_ad(self, v)

    monkeypatch.setattr(LieAlgebra, "ad", spy)
    theta_adapt(pair, x, random.Random(7) if seeded else None)
    assert seen and all(a is inner_gl(3) for a in seen)
    seen.clear()
    theta_adapt(whole_algebra_route(pair), x)
    assert seen and all(a is pair.algebra for a in seen)


@pytest.mark.parametrize("key", sorted(CANONICAL, key=str))
def test_gl_n_quotients_match_the_whole_algebra_on_canonical_reps(key):
    pair = CANONICAL[key]
    whole = whole_algebra_route(pair)
    for mu in partitions(pair.inner_n):
        x = orbit_rep(pair, mu)
        t = theta_adapt(pair, x)
        assert eigen_check(pair, x, t) == eigen_check(whole, x, t)


@settings(max_examples=25, deadline=None)
@given(conjugates())
def test_gl_n_quotients_match_the_whole_algebra_on_conjugates(drawn):
    pair, x = drawn
    t = theta_adapt(pair, x)
    assert eigen_check(pair, x, t) == eigen_check(whole_algebra_route(pair), x, t)


@pytest.mark.parametrize("key", [("diagonal", 3, None), ("quadratic_ext", 3, 5)])
def test_quotients_are_taken_on_gl_n_for_built_in_pairs_only(monkeypatch, key):
    pair = PAIRS[key]
    seen = []
    real = criteria.restricted_ad

    def spy(g, h, rows, modulo=()):
        seen.append(g)
        return real(g, h, rows, modulo=modulo)

    monkeypatch.setattr(criteria, "restricted_ad", spy)
    audits = audit_orbits(pair)
    assert len(seen) == len(audits) and all(g is inner_gl(3) for g in seen)
    # the same body, on the custom pair's own algebra
    seen.clear()
    for a in audits:
        eigen_check(whole_algebra_route(pair), list(a.representative), a.triple)
    assert len(seen) == len(audits) and all(g is pair.algebra for g in seen)
