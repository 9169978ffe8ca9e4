"""Closed-form standard triples against the solver, and which path the sweep takes."""

import re
from fractions import Fraction as F

import pytest

from sympair import criteria
from sympair.criteria import (
    orbit_rep,
    partitions,
    speciality_audit,
    standard_blocks,
    standard_triple,
)
from sympair.errors import PreconditionError
from sympair.liealg import build_gl
from sympair.linalg import Matrix, inverse
from sympair.pairs import make_diagonal_pair, make_quadratic_ext_pair
from sympair.sl2 import jacobson_morozov, theta_adapt
from test_criteria import jordan_matrix

PAIRS = ([("diagonal", n, None) for n in range(1, 7)]
         + [("quadratic_ext", n, d) for n in range(1, 5) for d in (-1, 2, 5)])


def build(family, n, d):
    return make_diagonal_pair(n) if family == "diagonal" else make_quadratic_ext_pair(n, d)


@pytest.mark.parametrize("family,n,d", PAIRS)
def test_closed_form_equals_theta_adapt(family, n, d):
    pair = build(family, n, d)
    for mu in partitions(n):
        assert standard_triple(pair, mu) == theta_adapt(pair, orbit_rep(pair, mu)), mu


@pytest.mark.parametrize("n", range(1, 6))
def test_gl_blocks_equal_jacobson_morozov(n):
    g = build_gl(n)
    for mu in partitions(n):
        jm = jordan_matrix(mu)
        t = jacobson_morozov(g, [e for row in jm.rows for e in row])
        if t.degenerate:
            continue
        hm, fm = standard_blocks(mu)
        assert list(t.h) == [e for row in hm.rows for e in row]
        assert list(t.f) == [e for row in fm.rows for e in row]


def _conjugate_rep(pair, mu):
    """(gXg^-1, -gXg^-1) or w*gXg^-1 for X = J_mu and a fixed unipotent g."""
    n = pair.inner_n
    g = Matrix([[F(1) if i == j else F(i - j) if i > j else F(0) for j in range(n)]
                for i in range(n)])
    x = g @ jordan_matrix(mu) @ inverse(g)
    flat = [e for row in x.rows for e in row]
    if pair.family == "diagonal":
        return flat + [-e for e in flat]
    return [F(0)] * len(flat) + flat


@pytest.mark.parametrize("family,n,d", [("diagonal", 3, None), ("quadratic_ext", 3, 2)])
def test_only_canonical_representatives_skip_the_solver(family, n, d, monkeypatch):
    pair = build(family, n, d)
    calls = []

    def spy(p, x, rng=None):
        calls.append(tuple(x))
        return theta_adapt(p, x, rng)

    monkeypatch.setattr(criteria, "theta_adapt", spy)
    for mu in partitions(n):
        rep = orbit_rep(pair, mu)
        canonical = speciality_audit(pair, rep)
        assert calls == []
        others = [[2 * e for e in rep], _conjugate_rep(pair, mu)]
        for x in others:
            if x == rep:                      # the zero orbit, or g commuting with J_mu
                continue
            audit = speciality_audit(pair, x)
            assert calls == [tuple(x)]
            calls.clear()
            assert audit.partition == canonical.partition == mu
            assert audit.trace_on_hx == canonical.trace_on_hx
            assert audit.quotient_eigenvalues == canonical.quotient_eigenvalues


# mu against n = 3: the wrong size, a zero part, a zero part inside, rising parts
@pytest.mark.parametrize("mu", [(2,), (0, 3), (2, 0, 1), (1, 2)])
def test_a_non_partition_of_n_is_refused(mu):
    pair = make_diagonal_pair(3)
    message = r"^%s is not a partition of n = 3$" % re.escape(str(mu))
    with pytest.raises(PreconditionError, match=message):
        orbit_rep(pair, mu)
    with pytest.raises(PreconditionError, match=message):
        standard_triple(pair, mu)
