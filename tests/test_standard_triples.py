"""The closed-form triple of J_mu against the solver, and which inputs take it.

sl2.theta_adapt lifts sl2.jordan_triple when a built-in pair's inner X is
exactly J_mu with non-increasing parts and no rng is given; every other
input solves on gl_n.  A stub rng that always draws the zero kernel shift
makes the solver run and return its canonical solution, so both routes can
be compared on the same element.
"""

import random
import re
from fractions import Fraction as F

import pytest

from sympair import sl2
from sympair.criteria import orbit_rep, partitions, speciality_audit
from sympair.errors import PreconditionError
from sympair.liealg import build_gl
from sympair.linalg import Matrix, inverse
from sympair.pairs import inner_vector, make_diagonal_pair, make_quadratic_ext_pair
from sympair.sl2 import jacobson_morozov, jordan_flat, jordan_triple, theta_adapt
from test_criteria import jordan_matrix

PAIRS = ([("diagonal", n, None) for n in range(1, 7)]
         + [("quadratic_ext", n, d) for n in range(1, 5) for d in (-1, 2, 5)])


def build(family, n, d):
    return make_diagonal_pair(n) if family == "diagonal" else make_quadratic_ext_pair(n, d)


class ZeroShift:
    """An rng whose every kernel shift is zero: theta_adapt solves, and the
    solution is the canonical one (free coordinates zero)."""

    def randint(self, a, b):
        return max(a, 0)


@pytest.fixture
def solves(monkeypatch):
    """The inner X of every gl_n solve theta_adapt starts, in call order."""
    calls = []
    real = sl2._complete_h

    def spy(g, x, rng):
        calls.append(tuple(x))
        return real(g, x, rng)

    monkeypatch.setattr(sl2, "_complete_h", spy)
    return calls


@pytest.mark.parametrize("family,n,d", PAIRS)
def test_closed_form_equals_theta_adapt(family, n, d, solves):
    pair = build(family, n, d)
    for mu in partitions(n):
        rep = orbit_rep(pair, mu)
        closed = theta_adapt(pair, rep)
        assert solves == []
        assert closed == theta_adapt(pair, rep, ZeroShift()), mu
        assert len(solves) == (0 if mu == (1,) * n else 1)
        solves.clear()


@pytest.mark.parametrize("n", range(1, 7))
def test_gl_blocks_equal_jacobson_morozov(n):
    g = build_gl(n)
    for mu in partitions(n):
        t = jacobson_morozov(g, jordan_flat(mu))
        if t.degenerate:
            continue
        assert t == jordan_triple(mu), mu


def _s_element(pair, flat):
    """(X, -X) or w*X for the flat n x n matrix X."""
    return flat + [-e for e in flat] if pair.family == "diagonal" else [F(0)] * len(flat) + flat


def _conjugate_rep(pair, mu):
    """(gXg^-1, -gXg^-1) or w*gXg^-1 for X = J_mu and a fixed unipotent g."""
    n = pair.inner_n
    g = Matrix([[F(1) if i == j else F(i - j) if i > j else F(0) for j in range(n)]
                for i in range(n)])
    x = g @ jordan_matrix(mu) @ inverse(g)
    return _s_element(pair, [e for row in x.rows for e in row])


@pytest.mark.parametrize("family,n,d", [("diagonal", 3, None), ("quadratic_ext", 3, 2)])
def test_only_canonical_representatives_skip_the_solver(family, n, d, solves):
    pair = build(family, n, d)
    for mu in partitions(n):
        rep = orbit_rep(pair, mu)
        canonical = speciality_audit(pair, rep)
        assert solves == []
        others = [[2 * e for e in rep], _conjugate_rep(pair, mu)]
        for x in others:
            if x == rep:                      # the zero orbit, or g commuting with J_mu
                continue
            audit = speciality_audit(pair, x)
            assert solves == [tuple(inner_vector(pair, x))]
            solves.clear()
            assert audit.partition == canonical.partition == mu
            assert audit.trace_on_hx == canonical.trace_on_hx
            assert audit.quotient_eigenvalues == canonical.quotient_eigenvalues


@pytest.mark.parametrize("family,n,d", [("diagonal", 3, None), ("quadratic_ext", 3, -1)])
def test_other_inputs_take_the_solver(family, n, d, solves):
    pair = build(family, n, d)
    rising = jordan_flat((1, 2))              # J_(1,2) = E_23: parts rising
    extra = jordan_flat((3,))
    extra[2] = F(1)                           # J_3 + E_13: the superdiagonal of J_3
    for flat in (rising, extra):
        x = _s_element(pair, flat)
        assert theta_adapt(pair, x) == theta_adapt(pair, x, ZeroShift())
        assert solves == [tuple(flat)] * 2
        solves.clear()
    # an rng asks for a random completion, so the canonical rep solves too
    rep = orbit_rep(pair, (3,))
    t = theta_adapt(pair, rep, random.Random(3))
    assert solves == [tuple(inner_vector(pair, rep))]
    assert t.e == tuple(rep) and pair.in_h(list(t.h)) and pair.in_gsigma(list(t.f))


# mu against n = 3: the wrong size, a zero part, a zero part inside, rising parts
@pytest.mark.parametrize("mu", [(2,), (0, 3), (2, 0, 1), (1, 2)])
def test_a_non_partition_of_n_is_refused(mu):
    pair = make_diagonal_pair(3)
    message = r"^%s is not a partition of n = 3$" % re.escape(str(mu))
    with pytest.raises(PreconditionError, match=message):
        orbit_rep(pair, mu)
