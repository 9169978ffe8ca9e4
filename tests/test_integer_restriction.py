"""The integer restriction route (linalg.restrict_action) against the
Fraction route it replaced, which is kept here as the reference:
bracket_sparse and echelon_reduce for restricted_ad, and the pairwise
brackets and one solve_many for subpair_on.

Stable spans are drawn as Krylov closures under ad h, so they come with
denominators and are ad h-stable by construction; unstable ones must raise
on both routes.
"""

import contextlib
import io
import random
from fractions import Fraction as F

import pytest
from hypothesis import event, given, settings, strategies as st

from sympair import cli, criteria, liealg, linalg, pairs, sl2
from sympair.errors import InvariantViolation, ShapeError
from sympair.liealg import build_gl
from sympair.linalg import (
    Matrix,
    echelon_rows,
    echelon_subspace,
    inverse,
    nonzeros,
    restrict_action,
    solve_many,
    sparse_combination,
)
from sympair.pairs import make_diagonal_pair, make_quadratic_ext_pair, subpair_on
from sympair.sl2 import restricted_ad

PAIRS = {("diagonal", n, None): make_diagonal_pair(n) for n in (1, 2, 3)}
PAIRS.update({("quadratic_ext", n, d): make_quadratic_ext_pair(n, d)
              for n in (1, 2) for d in (5, -1, 2)})


# ---------------------------------------------------------------------------
# The replaced Fraction route
# ---------------------------------------------------------------------------

def echelon_reduce(rows, v):
    """(coords, remainder) of v against sparse RREF rows.

    Each RREF row is 1 at its own pivot column and 0 at every other row's,
    so the coordinates are the entries of v there, and the remainder v minus
    their combination vanishes at every pivot.  It is empty exactly when v
    lies in the span, which is checked without any elimination.
    """
    coords = [v.get(min(r), F(0)) for r in rows]
    rest = sparse_combination([(F(1), v.items())]
                              + [(-c, r.items()) for c, r in zip(coords, rows) if c])
    return coords, rest


def reference_restricted_ad(g, h, rows, modulo=()):
    """Each [h, b] by bracket_sparse, reduced against modulo, read at the pivots of the rows."""
    h_nz = nonzeros(h)
    cols = []
    for b in rows:
        coords, rest = echelon_reduce(rows, echelon_reduce(modulo, g.bracket_sparse(h_nz, b))[1])
        if rest:
            raise InvariantViolation("ad h does not preserve the span of the rows")
        cols.append(coords)
    return Matrix.from_columns(cols)


def reference_subpair_data(pair, basis):
    """(structure rows, theta) on the echelon basis by pairwise brackets and one
    solve_many, or None when the span is not closed under bracket or theta."""
    basis = echelon_subspace(basis)
    k = len(basis)
    g = pair.algebra
    targets = [g.bracket(basis[i], basis[j]) for i in range(k) for j in range(i + 1, k)]
    sols = solve_many(Matrix.from_columns(list(basis)),
                      targets + [pair.theta_apply(b) for b in basis])
    if sols is None:
        return None
    rows, t = {}, 0
    for i in range(k):
        for j in range(i + 1, k):
            row = tuple((m, c) for m, c in enumerate(sols[t]) if c)
            t += 1
            if row:
                rows[i, j] = row
                rows[j, i] = tuple((m, -c) for m, c in row)
    return rows, Matrix.from_columns(sols[t:])


def reference_restrict(rows, maps, modulo=()):
    """restrict_action's contract in Fractions: each (matrix, start) maps rows[start:]."""
    out = []
    for m, start in maps:
        for b in rows[start:]:
            image = nonzeros(m.matvec([b.get(i, F(0)) for i in range(m.ncols)]))
            coords, rest = echelon_reduce(rows, echelon_reduce(modulo, image)[1])
            out.append(None if rest else coords)
    return out


def as_action(m, start=0):
    """(cols, s, start) of a rational matrix, as restrict_action takes it."""
    return m.transpose().integer_rows() + (start,)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

RATIONAL = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 7]))


def vectors(draw, dim, count):
    """count vectors of length dim, most coordinates zero, the rest small rationals."""
    return [[draw(RATIONAL) if draw(st.integers(0, 2)) == 0 else F(0) for _ in range(dim)]
            for _ in range(count)]


def krylov_rows(g, h, seeds):
    """Sparse RREF rows of the smallest ad h-stable span containing the seeds."""
    ad_h = g.ad(h)
    span, frontier = echelon_subspace(seeds), list(seeds)
    while frontier:
        frontier = [ad_h.matvec(v) for v in frontier]
        grown = echelon_subspace(span + frontier)
        if len(grown) == len(span):
            break
        span = grown
    return [nonzeros(v) for v in span]


@st.composite
def pair_and_h(draw):
    """A pair and an h with at most three nonzero coordinates, so that Krylov
    closures under ad h stay small."""
    pair = PAIRS[draw(st.sampled_from(sorted(PAIRS, key=str)))]
    h = [F(0)] * pair.dim_g
    for i in draw(st.lists(st.integers(0, pair.dim_g - 1), max_size=3)):
        h[i] = draw(RATIONAL)
    return pair, h


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(pair_and_h(), st.data())
def test_restricted_ad_matches_the_fraction_route(drawn, data):
    pair, h = drawn
    g = pair.algebra
    seeds = vectors(data.draw, g.dim, data.draw(st.integers(1, 3)))
    if data.draw(st.booleans()):
        rows = krylov_rows(g, h, seeds)      # stable by construction
    else:
        rows = echelon_rows([nonzeros(v) for v in seeds], g.dim)  # usually unstable
    if not rows:
        return
    try:
        want = reference_restricted_ad(g, h, rows)
    except InvariantViolation:
        event("unstable")
        with pytest.raises(InvariantViolation, match="does not preserve"):
            restricted_ad(g, h, rows)
        return
    event("stable")
    assert restricted_ad(g, h, rows) == want


@settings(max_examples=60, deadline=None)
@given(pair_and_h(), st.data())
def test_restricted_ad_modulo_matches_the_fraction_route(drawn, data):
    pair, h = drawn
    g = pair.algebra
    inner = krylov_rows(g, h, vectors(data.draw, g.dim, data.draw(st.integers(1, 2))))
    extra = vectors(data.draw, g.dim, data.draw(st.integers(1, 2)))
    if data.draw(st.booleans()):
        outer = krylov_rows(g, h, [[r.get(i, F(0)) for i in range(g.dim)] for r in inner]
                            + extra)
    else:
        outer = echelon_rows(inner + [nonzeros(v) for v in extra], g.dim)
    # normal forms of the outer span modulo the inner one, which vanish at its pivots
    rows = echelon_rows([echelon_reduce(inner, b)[1] for b in outer], g.dim)
    if not rows:
        return
    try:
        want = reference_restricted_ad(g, h, rows, inner)
    except InvariantViolation:
        event("unstable")
        # an all-zero seed leaves inner empty, and the message then names no subspace
        wording = "modulo the given subspace" if inner else "of the rows$"
        with pytest.raises(InvariantViolation, match=wording):
            restricted_ad(g, h, rows, modulo=inner)
        return
    event("stable")
    assert restricted_ad(g, h, rows, modulo=inner) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_restrict_action_matches_the_fraction_route_for_any_map(dim, data):
    def draw_rows(count):
        return echelon_rows([nonzeros(v) for v in vectors(data.draw, dim, count)], dim)

    modulo = draw_rows(data.draw(st.integers(0, 2)))
    rows = echelon_rows([echelon_reduce(modulo, b)[1] for b in draw_rows(data.draw(st.integers(1, 3)))],
                        dim)
    if not rows:
        return
    maps = [(Matrix(vectors(data.draw, dim, dim)), data.draw(st.integers(0, len(rows))))
            for _ in range(data.draw(st.integers(1, 3)))]
    got = restrict_action(rows, [as_action(m, s) for m, s in maps], modulo)
    event("some image in the span" if any(c is not None for c in got) else "no image in the span")
    assert got == reference_restrict(rows, maps, modulo)


def test_restrict_action_reads_stable_and_unstable_images():
    # rows span{e0 + e2/2, e1}; the swap of e0 and e1 leaves it, the scaling by 3 keeps it
    rows = [{0: F(1), 2: F(1, 2)}, {1: F(1)}]
    scale = Matrix([[F(3) if i == j else F(0) for j in range(3)] for i in range(3)])
    swap = Matrix([[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]])
    assert restrict_action(rows, [as_action(scale)]) == [[3, 0], [0, 3]]
    assert restrict_action(rows, [as_action(swap)]) == [None, None]
    assert restrict_action(rows, [as_action(swap, 1)]) == [None]


def test_restricted_ad_modulo_reads_the_quotient_and_refuses_an_unstable_one():
    # gl_2 with h = diag(1, -1): [h, E12] = 2 E12, [h, E21] = -2 E21, and E12
    # spans a stable subspace to work modulo
    g = build_gl(2)
    h = [F(1), F(0), F(0), F(-1)]
    e12 = [{1: F(1)}]
    assert restricted_ad(g, h, [{2: F(1)}], modulo=e12) == Matrix([[F(-2)]])
    assert restricted_ad(g, h, [{0: F(1), 3: F(1, 3)}], modulo=e12) == Matrix([[F(0)]])
    # [h, E11 + E21] = -2 E21 is not a multiple of E11 + E21 modulo E12
    unstable = [{0: F(1), 2: F(1)}]
    with pytest.raises(InvariantViolation):
        reference_restricted_ad(g, h, unstable, e12)
    with pytest.raises(InvariantViolation, match="modulo the given subspace"):
        restricted_ad(g, h, unstable, modulo=e12)


def random_conjugate(pair, rng):
    """(X, -X) or w X for X = g D g^-1, D diagonal with repeated rational eigenvalues."""
    n = pair.inner_n
    d = [F(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2])) for _ in range(n)]
    while True:
        g = Matrix([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        if linalg.rank(g) == n:
            break
    core = Matrix([[d[i] if i == j else F(0) for j in range(n)] for i in range(n)])
    flat = [e for row in (g @ core @ inverse(g)).rows for e in row]
    if pair.family == "diagonal":
        return flat + [-e for e in flat]
    return [F(0)] * len(flat) + flat


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(PAIRS, key=str)), st.integers(0, 10 ** 6))
def test_subpair_on_matches_the_fraction_route_on_descendants(key, seed):
    pair = PAIRS[key]
    x = random_conjugate(pair, random.Random(seed))
    # the centralizer is what descendant restricts to, in both families,
    # whether or not the spectrum of x is rational
    basis = pair.algebra.centralizer([x])
    rows, theta = reference_subpair_data(pair, basis)
    sub = subpair_on(pair, basis)
    assert sub.algebra.sparse_rows() == rows
    assert sub.theta == theta
    assert pairs.descendant(pair, x).algebra.sparse_rows() == rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(PAIRS, key=str)), st.data())
def test_subpair_on_refuses_what_the_fraction_route_refuses(key, data):
    pair = PAIRS[key]
    basis = echelon_subspace(vectors(data.draw, pair.dim_g, data.draw(st.integers(1, 3))))
    if not basis:
        return
    want = reference_subpair_data(pair, basis)
    try:
        sub = subpair_on(pair, basis)
    except (InvariantViolation, ShapeError) as exc:
        event("refused")
        assert str(exc).startswith("subspace is not") == (want is None), exc
        return
    event("restricted")
    assert want is not None
    assert (sub.algebra.sparse_rows(), sub.theta) == want


# ---------------------------------------------------------------------------
# No Fraction route is left behind the restrictions
# ---------------------------------------------------------------------------

def refuse_fraction_route(monkeypatch):
    """From here on, any Fraction bracket or solve_many fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction bracket or solve ran")

    for name in ("bracket", "bracket_sparse"):
        monkeypatch.setattr(liealg.LieAlgebra, name, refuse)
    for module in (linalg, pairs):
        monkeypatch.setattr(module, "solve_many", refuse)


def test_subpair_on_brackets_and_solves_nothing_in_fractions(monkeypatch):
    pair = make_diagonal_pair(3)
    x = random_conjugate(pair, random.Random(7))
    basis = pair.algebra.centralizer([x])
    want = reference_subpair_data(pair, basis)
    refuse_fraction_route(monkeypatch)
    sub = subpair_on(pair, basis)
    assert (sub.algebra.sparse_rows(), sub.theta) == want


def test_restricted_trace_brackets_and_solves_nothing_in_fractions(monkeypatch):
    pair = make_diagonal_pair(3)
    x = criteria.orbit_rep(pair, (2, 1))
    h = list(criteria.standard_triple(pair, (2, 1)).h)
    hx = pair.centralizer_in(x, pair.h_basis)
    refuse_fraction_route(monkeypatch)
    assert criteria.restricted_trace(pair, h, hx) == sum(criteria.clebsch_gordan_weights((2, 1)))


def test_audit_restricts_once_per_partition_on_gl_n(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return restrict_action(*args, **kwargs)

    for module in (linalg, sl2, pairs):
        monkeypatch.setattr(module, "restrict_action", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["audit", "--family", "diagonal", "--n", "4"]) == 0
    # one quotient per partition of 4, every row inside gl_4's 16 coordinates
    assert len(calls) == len(criteria.partitions(4)) == 5
    assert all(max(row) < 16 for rows, *_ in calls for row in rows)
    assert all(max(row) < 16 for _, _, modulo in calls for row in modulo)
    # the spy is live: a direct restricted_trace call does go through it
    calls.clear()
    pair = make_diagonal_pair(2)
    criteria.restricted_trace(pair, pair.algebra.zero_vector(), pair.h_basis)
    assert len(calls) == 1
