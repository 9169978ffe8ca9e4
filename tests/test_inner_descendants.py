"""Built-in pairs take descendants and h-centralizers on the inner gl_n.

For x = (X, -X) or w X the descendant g_x is {(A, B) : A, B in z(X)} and
z_h(x) is a copy of z(X), so both are taken on inner_gl(n) and lifted.
The reference is the route on the whole algebra: the centralizer of x in
all 2n^2 coordinates, restricted by subpair_on, and the kernel of ad x on
the span of h's basis.  Both routes must give the same canonical bases and
so the same descendant, on semisimple and nilpotent conjugates g M g^-1.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sympair.cli import main
from sympair.criteria import partitions
from sympair.errors import PreconditionError
from sympair.liealg import LieAlgebra
from sympair.linalg import Matrix, inverse, kernel_in_span
from sympair.pairs import descendant, inner_gl, subpair_on
from test_lifted_triples import PAIRS, conjugators, jordan, s_element


@st.composite
def semisimple_conjugates(draw):
    """(pair, x) with x in s over X = g D g^-1, D diagonal with repeats allowed."""
    pair = PAIRS[draw(st.sampled_from(sorted(PAIRS, key=str)))]
    n = pair.inner_n
    pool = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                         min_size=1, max_size=n))
    d = Matrix([[draw(st.sampled_from(pool)) if i == j else F(0) for j in range(n)]
                for i in range(n)])
    g = draw(conjugators(n))
    return pair, s_element(pair, g @ d @ inverse(g))


@st.composite
def nilpotent_conjugates(draw):
    """(pair, x) with x in s over X = g J_mu g^-1."""
    pair = PAIRS[draw(st.sampled_from(sorted(PAIRS, key=str)))]
    n = pair.inner_n
    mu = draw(st.sampled_from(partitions(n)))
    g = draw(conjugators(n))
    return pair, s_element(pair, g @ jordan(mu) @ inverse(g))


def assert_same_pair(sub, ref):
    assert sub.theta == ref.theta
    assert sub.algebra.sparse_rows() == ref.algebra.sparse_rows()
    assert sub.form == ref.form


@settings(max_examples=30, deadline=None)
@given(st.one_of(semisimple_conjugates(), nilpotent_conjugates()))
def test_centralizer_in_h_matches_the_whole_algebra(drawn):
    pair, x = drawn
    assert pair.centralizer_in(x, pair.h_basis) == kernel_in_span(pair.algebra.ad(x),
                                                                  pair.h_basis)


@settings(max_examples=25, deadline=None)
@given(semisimple_conjugates())
def test_descendant_matches_the_whole_algebra(drawn):
    pair, x = drawn
    assert_same_pair(descendant(pair, x), subpair_on(pair, pair.algebra.centralizer([x])))


@pytest.mark.parametrize("key", [("diagonal", 2, None), ("quadratic_ext", 2, 5)])
def test_non_split_descendant_matches_the_whole_algebra(key):
    # X = [[0, 2], [1, 0]] has eigenvalues +-sqrt(2): z(X) = Q[X]
    pair = PAIRS[key]
    x = s_element(pair, Matrix([[F(0), F(2)], [F(1), F(0)]]))
    sub = descendant(pair, x)
    assert (sub.dim_g, sub.dim_h, sub.dim_gsigma) == (4, 2, 2)
    assert_same_pair(sub, subpair_on(pair, pair.algebra.centralizer([x])))


@pytest.mark.parametrize("key", [("diagonal", 3, None), ("quadratic_ext", 3, -1)])
def test_non_semisimple_elements_keep_their_refusal(capsys, key):
    # J_(2,1) + I is neither semisimple nor nilpotent
    pair = PAIRS[key]
    x = s_element(pair, jordan((2, 1)) + Matrix.identity(3))
    with pytest.raises(PreconditionError, match="^element is not semisimple in the realization$"):
        descendant(pair, x)
    family, n, d = key
    args = ["--family", family, "--n", str(n)] + ([] if d is None else ["--d", str(d)])
    assert main(["descend"] + args + ["--element", ",".join(str(e) for e in x)]) == 2
    assert capsys.readouterr().err == "error: element is not semisimple in the realization\n"


@pytest.mark.parametrize("key", [("diagonal", 3, None), ("quadratic_ext", 3, 2)])
def test_other_spanning_sets_of_h_take_the_generic_route_and_agree(monkeypatch, key):
    pair = PAIRS[key]
    g = Matrix([[F(1), F(0), F(0)], [F(2), F(1), F(0)], [F(-1), F(3), F(1)]])
    x = s_element(pair, g @ jordan((2, 1)) @ inverse(g))
    # the same span, neither in RREF nor of independent rows
    spanning = [[a + b for a, b in zip(u, v)] for u, v in zip(pair.h_basis, pair.h_basis[1:])]
    spanning += [pair.h_basis[-1], pair.h_basis[0]]
    seen = []
    real = LieAlgebra.centralizer

    def spy(self, elements):
        seen.append(self)
        return real(self, elements)

    monkeypatch.setattr(LieAlgebra, "centralizer", spy)
    assert pair.centralizer_in(x, spanning) == pair.centralizer_in(x, pair.h_basis)
    assert seen == [inner_gl(3)]
    assert pair.centralizer_in(x, list(pair.h_basis)) == pair.centralizer_in(x, pair.h_basis)
    assert seen == [inner_gl(3)] * 3


@pytest.mark.parametrize("key", [("diagonal", 3, None), ("quadratic_ext", 3, 5)])
def test_built_in_descendants_take_centralizers_only_on_gl_n(monkeypatch, key):
    pair = PAIRS[key]
    g = Matrix([[F(1), F(0), F(0)], [F(2), F(1), F(0)], [F(-1), F(3), F(1)]])
    d = Matrix([[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(-2)]])
    x = s_element(pair, g @ d @ inverse(g))
    seen = []
    real = LieAlgebra.centralizer

    def spy(self, elements):
        seen.append(self)
        return real(self, elements)

    monkeypatch.setattr(LieAlgebra, "centralizer", spy)
    sub = descendant(pair, x)
    assert (sub.dim_g, sub.dim_h, sub.dim_gsigma) == (10, 5, 5)
    assert seen == [inner_gl(3)]
