"""Symmetric pairs: construction invariants, cones, symmetrization, descendants."""

import random
from collections import Counter
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from sympair.errors import PreconditionError, ShapeError
from sympair.liealg import LieAlgebra, build_gl
from sympair.linalg import Matrix, inverse, is_zero_vector, rank
from sympair.pairs import (
    GroupElement,
    SymmetricPair,
    cone_membership,
    descendant,
    descendant_at_group_element,
    descendant_dimension_identity,
    group_sigma,
    group_to_algebra_vector,
    is_normal,
    jordan_flags,
    make_diagonal_pair,
    make_quadratic_ext_pair,
    symmetrize,
)
from test_liealg import dense_table, form_value
from test_linalg import zeros


def check_grading(pair: SymmetricPair):
    """[h,h] in h, [h,s] in s, [s,s] in h: implied by theta being an
    automorphism, re-checked directly."""
    for basis_a, basis_b, sign in ((pair.h_basis, pair.h_basis, -1),
                                   (pair.h_basis, pair.gsigma_basis, 1),
                                   (pair.gsigma_basis, pair.gsigma_basis, -1)):
        for a in basis_a:
            for b in basis_b:
                v = pair.algebra.bracket(a, b)
                tv = pair.theta_apply(v)
                bad = [p + sign * q for p, q in zip(tv, v)]
                if not is_zero_vector(bad):
                    raise ShapeError("grading violated")


def blocks(g: GroupElement):
    """The two GL_n components of a diagonal-family group element."""
    n = g.pair.inner_n
    left = Matrix([r[:n] for r in g.matrix.rows[:n]])
    right = Matrix([r[n:] for r in g.matrix.rows[n:]])
    return left, right


def quad_matrix(pair, plain, wpart):
    """realize((A, B)): the rational matrix [[A, dB], [B, A]] of A + B w."""
    return pair.algebra.realize(quad_vec(pair, plain, wpart))


def diag_vec(pair, left, right):
    """(X, Y) as coordinates of the diagonal-family algebra."""
    n = pair.inner_n
    v = pair.algebra.zero_vector()
    for i in range(n):
        for j in range(n):
            v[i * n + j] = F(left[i][j])
            v[n * n + i * n + j] = F(right[i][j])
    return v


def quad_vec(pair, plain, wpart):
    n = pair.inner_n
    v = pair.algebra.zero_vector()
    for i in range(n):
        for j in range(n):
            v[i * n + j] = F(plain[i][j])
            v[n * n + i * n + j] = F(wpart[i][j])
    return v


class TestDiagonalPair:
    def test_dimensions(self):
        p = make_diagonal_pair(2)
        assert (p.dim_g, p.dim_h, p.dim_gsigma) == (8, 4, 4)

    def test_theta_swaps(self):
        p = make_diagonal_pair(2)
        v = diag_vec(p, [[0, 1], [0, 0]], [[0, 0], [0, 0]])
        assert p.theta_apply(v) == diag_vec(p, [[0, 0], [0, 0]], [[0, 1], [0, 0]])

    def test_grading(self):
        check_grading(make_diagonal_pair(2))

    def test_sigma_bracket_lands_in_h(self):
        p = make_diagonal_pair(2)
        rng = random.Random(2)
        for _ in range(10):
            x = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            y = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            vx = diag_vec(p, x, [[-e for e in r] for r in x])
            vy = diag_vec(p, y, [[-e for e in r] for r in y])
            assert p.in_h(p.algebra.bracket(vx, vy))

    def test_invariants_are_central_line(self):
        p = make_diagonal_pair(2)
        inv = p.invariants_in_gsigma()
        assert len(inv) == 1
        assert inv[0] == diag_vec(p, [[1, 0], [0, 1]], [[-1, 0], [0, -1]])


class TestQuadExtPair:
    def test_dimensions(self):
        q = make_quadratic_ext_pair(2, -1)
        assert (q.dim_g, q.dim_h, q.dim_gsigma) == (8, 4, 4)

    def test_theta_negates_w_copy(self):
        q = make_quadratic_ext_pair(2, -1)
        v = quad_vec(q, [[0, 0], [0, 0]], [[1, 0], [0, 0]])   # w*E11
        assert q.theta_apply(v) == [-a for a in v]

    def test_grading_and_invariants(self):
        q = make_quadratic_ext_pair(2, 5)
        check_grading(q)
        inv = q.invariants_in_gsigma()
        assert len(inv) == 1
        assert inv[0] == quad_vec(q, [[0, 0], [0, 0]], [[1, 0], [0, 1]])

    def test_sigma_brackets_rescale(self):
        q = make_quadratic_ext_pair(2, 5)
        x = quad_vec(q, [[0, 0], [0, 0]], [[0, 1], [0, 0]])   # w*E12
        y = quad_vec(q, [[0, 0], [0, 0]], [[0, 0], [1, 0]])   # w*E21
        br = q.algebra.bracket(x, y)
        assert br == quad_vec(q, [[5, 0], [0, -5]], [[0, 0], [0, 0]])


class TestPairInvariantChecks:
    def test_form_orthogonality_enforced(self):
        p = make_diagonal_pair(2)
        hb = Matrix(p.h_basis)
        sb = Matrix(p.gsigma_basis)
        assert (hb @ p.form @ sb.transpose()).is_zero()

    def test_theta_invariance_of_form(self):
        for pair in (make_diagonal_pair(2), make_quadratic_ext_pair(2, -1)):
            assert pair.theta.transpose() @ pair.form @ pair.theta == pair.form

    def test_form_nondegenerate(self):
        for pair in (make_diagonal_pair(3), make_quadratic_ext_pair(2, 2)):
            assert rank(pair.form) == pair.dim_g

    def test_form_invariance_sampled(self):
        rng = random.Random(9)
        for pair in (make_diagonal_pair(2), make_quadratic_ext_pair(2, -1)):
            g = pair.algebra
            table = dense_table(g)
            for _ in range(20):
                z, x, y = (rng.randrange(g.dim) for _ in range(3))
                val = form_value(pair.form, table[z][x], g.basis_vector(y)) + \
                    form_value(pair.form, g.basis_vector(x), table[z][y])
                assert val == 0

    def test_form_restricts_nondegenerately_to_both_eigenspaces(self):
        # orthogonality of the eigenspaces + global non-degeneracy force
        # non-degenerate restrictions; check them directly
        for pair in (make_diagonal_pair(2), make_quadratic_ext_pair(2, -1)):
            for basis in (pair.h_basis, pair.gsigma_basis):
                b = Matrix(basis)
                gram = b @ pair.form @ b.transpose()
                assert rank(gram) == len(basis)


class TestConeMembership:
    def test_central_element_not_in_q(self):
        p = make_diagonal_pair(2)
        v = diag_vec(p, [[1, 0], [0, 1]], [[-1, 0], [0, -1]])
        cm = cone_membership(p, v)
        assert not cm.in_q and not cm.in_gamma and not cm.in_r

    def test_nilpotent_is_in_gamma(self):
        p = make_diagonal_pair(2)
        v = diag_vec(p, [[0, 1], [0, 0]], [[0, -1], [0, 0]])
        cm = cone_membership(p, v)
        assert cm.in_q and cm.in_gamma and not cm.in_r

    def test_semisimple_traceless_is_in_r(self):
        p = make_diagonal_pair(2)
        v = diag_vec(p, [[1, 0], [0, -1]], [[-1, 0], [0, 1]])
        cm = cone_membership(p, v)
        assert cm.in_q and cm.in_r and not cm.in_gamma

    def test_gamma_r_partition_and_cone_scaling(self):
        p = make_diagonal_pair(2)
        rng = random.Random(4)
        for _ in range(20):
            x = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            v = diag_vec(p, x, [[-e for e in r] for r in x])
            cm = cone_membership(p, v)
            if cm.in_q:
                assert cm.in_gamma != cm.in_r
            if cm.in_gamma:
                for lam in (F(2), F(-1), F(3, 7)):
                    assert cone_membership(p, [lam * c for c in v]).in_gamma

    def test_requires_gsigma(self):
        p = make_diagonal_pair(2)
        with pytest.raises(PreconditionError):
            cone_membership(p, diag_vec(p, [[1, 0], [0, 0]], [[1, 0], [0, 0]]))

    def test_quadratic_family(self):
        q = make_quadratic_ext_pair(2, -1)
        nilp = quad_vec(q, [[0, 0], [0, 0]], [[0, 1], [0, 0]])
        cm = cone_membership(q, nilp)
        assert cm.in_q and cm.in_gamma
        ss = quad_vec(q, [[0, 0], [0, 0]], [[1, 0], [0, -1]])
        cm2 = cone_membership(q, ss)
        assert cm2.in_q and cm2.in_r


class TestSymmetrization:
    def test_identity(self):
        p = make_diagonal_pair(2)
        gi = GroupElement.diagonal(p, Matrix.identity(2), Matrix.identity(2))
        assert symmetrize(p, gi).matrix == Matrix.identity(4)
        assert is_normal(p, gi)

    def test_diagonal_formula(self):
        p = make_diagonal_pair(2)
        a = Matrix([[F(1), F(2)], [F(0), F(1)]])
        b = Matrix([[F(3), F(0)], [F(1), F(1)]])
        s = symmetrize(p, GroupElement.diagonal(p, a, b))
        left, right = blocks(s)
        assert left == a @ inverse(b)
        assert right == b @ inverse(a)

    def test_symmetrization_is_sigma_fixed(self):
        p = make_diagonal_pair(2)
        rng = random.Random(6)
        for _ in range(10):
            a = _random_invertible(rng, 2)
            b = _random_invertible(rng, 2)
            s = symmetrize(p, GroupElement.diagonal(p, a, b))
            assert group_sigma(p, s.matrix) == s.matrix

    def test_quad_ext_symmetrize(self):
        q = make_quadratic_ext_pair(2, -1)
        g = GroupElement(q, quad_matrix(q, [[1, 0], [0, 1]], [[0, 1], [0, 0]]))   # [[1, w], [0, 1]]
        s = symmetrize(q, g)
        assert s.matrix == quad_matrix(q, [[1, 0], [0, 1]], [[0, 2], [0, 0]])   # [[1, 2w], [0, 1]]

    def test_normality(self):
        p = make_diagonal_pair(2)
        a = Matrix([[F(0), F(1)], [F(1), F(0)]])
        g = GroupElement.diagonal(p, a, Matrix.identity(2))
        # sigma(g) = (I, a^{-1}); sigma(g) g = (a, a^{-1}) = g sigma(g)
        assert is_normal(p, g)

    def test_group_element_validation(self):
        p = make_diagonal_pair(2)
        with pytest.raises(ShapeError):
            GroupElement(p, zeros(4, 4))
        off = Matrix.identity(4).rows
        off[0][2] = F(1)
        with pytest.raises(ShapeError):
            GroupElement(p, Matrix(off))


class TestJordanFlags:
    def test_group_identity(self):
        p = make_diagonal_pair(2)
        gi = GroupElement.diagonal(p, Matrix.identity(2), Matrix.identity(2))
        fl = jordan_flags(p, gi)
        assert fl.semisimple and fl.unipotent and not fl.nilpotent

    def test_shear_is_unipotent_not_semisimple(self):
        p = make_diagonal_pair(2)
        shear = Matrix([[F(1), F(1)], [F(0), F(1)]])
        g = GroupElement.diagonal(p, shear, Matrix.identity(2))
        fl = jordan_flags(p, g)
        assert fl.unipotent and not fl.semisimple

    def test_algebra_vectors(self):
        p = make_diagonal_pair(2)
        fl = jordan_flags(p, diag_vec(p, [[2, 0], [0, 3]], [[0, 0], [0, 0]]))
        assert fl.semisimple and not fl.nilpotent
        fl2 = jordan_flags(p, diag_vec(p, [[0, 1], [0, 0]], [[0, -1], [0, 0]]))
        assert fl2.nilpotent

    def test_group_elements_match_the_regular_representation(self):
        from sympair.linalg import is_nilpotent_matrix, is_semisimple_matrix, is_unipotent_matrix
        from sympair.pairs import JordanFlags
        rng = random.Random(41)
        kinds = set()
        for pair in (make_diagonal_pair(2), make_diagonal_pair(3), make_quadratic_ext_pair(2, -1),
                     make_quadratic_ext_pair(2, 2), make_quadratic_ext_pair(3, 5)):
            for _ in range(12):
                g = _random_group_element(pair, rng)
                m = _regular_representation(pair, g)
                assert pair.algebra.realize(group_to_algebra_vector(pair, g.matrix)) == m
                want = JordanFlags(semisimple=is_semisimple_matrix(m),
                                   nilpotent=is_nilpotent_matrix(m),
                                   unipotent=is_unipotent_matrix(m))
                assert jordan_flags(pair, g) == want
                kinds.add((want.semisimple, want.unipotent))
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}


class TestDescendants:
    def test_zero_gives_pair_itself(self):
        p = make_diagonal_pair(2)
        assert descendant(p, p.algebra.zero_vector()) is p

    def test_regular_semisimple_in_diagonal_gl2(self):
        p = make_diagonal_pair(2)
        x = diag_vec(p, [[1, 0], [0, -1]], [[-1, 0], [0, 1]])
        sub = descendant(p, x)
        assert sub.dim_g == 4
        lhs, rhs = descendant_dimension_identity(p, x, sub)
        assert lhs == rhs
        # descendant of the diagonal family keeps the diagonal shape:
        # every +1-eigenvector has equal components in the two copies
        for hb in sub.h_basis:
            amb = _to_ambient(sub, hb)
            assert amb[:4] == amb[4:]

    def test_dimension_identity_across_families(self):
        rng = random.Random(8)
        cases = []
        p2 = make_diagonal_pair(2)
        cases.append((p2, diag_vec(p2, [[1, 0], [0, 2]], [[-1, 0], [0, -2]])))
        p3 = make_diagonal_pair(3)
        s3 = [[1, 0, 0], [0, 1, 0], [0, 0, -2]]
        cases.append((p3, diag_vec(p3, s3, [[-e for e in r] for r in s3])))
        q2 = make_quadratic_ext_pair(2, -1)
        # w*[[0,d],[1,0]] squares to d^2 = 1: split, eigenvalues +-1
        cases.append((q2, quad_vec(q2, [[0] * 2] * 2, [[0, -1], [1, 0]])))
        for pair, x in cases:
            sub = descendant(pair, x)
            lhs, rhs = descendant_dimension_identity(pair, x, sub)
            assert lhs == rhs

    def test_quadext_descendant_of_roadmap_item_3_has_diagonal_type(self):
        # X = [[0, 5], [1, 0]] squares to d = 5, so w X has eigenvalues +-5 and
        # is split; its centralizer E[X] = E x E has dims (4, 2, 2), the
        # diagonal-type pair over E rather than a smaller quadratic_ext pair
        q = make_quadratic_ext_pair(2, 5)
        x = quad_vec(q, [[0, 0], [0, 0]], [[0, 5], [1, 0]])
        sub = descendant(q, x)
        assert (sub.dim_g, sub.dim_h, sub.dim_gsigma) == (4, 2, 2)
        assert descendant_dimension_identity(q, x, sub) == (2, 2)

    def test_bracket_outside_the_span_is_named(self):
        from sympair.errors import InvariantViolation
        from sympair.pairs import subpair_on
        p = make_diagonal_pair(2)
        # span{(E12, E12), (E21, E21)} is theta-fixed, but [E12, E21] = E11 - E22
        e12 = diag_vec(p, [[0, 1], [0, 0]], [[0, 1], [0, 0]])
        e21 = diag_vec(p, [[0, 0], [1, 0]], [[0, 0], [1, 0]])
        with pytest.raises(InvariantViolation,
                           match=r"not closed under bracket: \[b_0, b_1\] of its echelon basis"):
            subpair_on(p, [e21, e12])

    def test_theta_image_outside_the_span_is_named(self):
        from sympair.errors import InvariantViolation
        from sympair.pairs import subpair_on
        p = make_diagonal_pair(2)
        # span{(E11, 0)} is abelian, but theta moves it to (0, E11)
        with pytest.raises(InvariantViolation, match=r"not theta-stable: theta b_0 of its echelon"):
            subpair_on(p, [diag_vec(p, [[1, 0], [0, 0]], [[0, 0], [0, 0]])])

    def test_rejects_nilpotent(self):
        p = make_diagonal_pair(2)
        with pytest.raises(PreconditionError):
            descendant(p, diag_vec(p, [[0, 1], [0, 0]], [[0, -1], [0, 0]]))

    def test_builds_non_split(self):
        q = make_quadratic_ext_pair(2, -1)
        # w * diag(1, -1) has realization eigenvalues +-w, irrational over Q;
        # its centralizer is the torus of GL_2(E), dims (4, 2, 2)
        x = quad_vec(q, [[0, 0], [0, 0]], [[1, 0], [0, -1]])
        assert jordan_flags(q, x).semisimple
        sub = descendant(q, x)
        assert (sub.dim_g, sub.dim_h, sub.dim_gsigma) == (4, 2, 2)
        assert descendant_dimension_identity(q, x, sub) == (2, 2)

    def test_rejects_outside_gsigma(self):
        p = make_diagonal_pair(2)
        with pytest.raises(PreconditionError):
            descendant(p, diag_vec(p, [[1, 0], [0, -1]], [[1, 0], [0, -1]]))

    def test_group_level_descendant(self):
        p = make_diagonal_pair(2)
        a = Matrix([[F(2), F(0)], [F(0), F(1)]])
        g = GroupElement.diagonal(p, a, Matrix.identity(2))
        assert is_normal(p, g)
        sub = descendant_at_group_element(p, g)
        # s(g) = (diag(4,1)-ish, ...) regular: centralizer is the double torus
        assert sub.dim_g == 4
        assert sub.dim_h == 2

    def test_group_descendant_requires_normal(self):
        p = make_diagonal_pair(2)
        # g = (a, b) with sigma(g) g != g sigma(g)
        a = Matrix([[F(1), F(1)], [F(0), F(1)]])
        b = Matrix([[F(1), F(0)], [F(2), F(1)]])
        g = GroupElement.diagonal(p, a, b)
        if not is_normal(p, g):
            with pytest.raises(PreconditionError):
                descendant_at_group_element(p, g)

    def test_group_to_algebra_roundtrip(self):
        p = make_diagonal_pair(2)
        a = Matrix([[F(1), F(2)], [F(3), F(4)]])
        b = Matrix([[F(5), F(6)], [F(7), F(9)]])
        g = GroupElement.diagonal(p, a, b)
        v = group_to_algebra_vector(p, g.matrix)
        assert p.algebra.realize(v) == g.matrix

    def test_degenerate_restriction_raises_loudly(self):
        from sympair.errors import InvariantViolation
        from sympair.pairs import subpair_on
        p = make_diagonal_pair(2)
        # span{(E12, 0), (0, E12)} is abelian and theta-stable, but B
        # vanishes identically on it
        b1 = p.algebra.zero_vector()
        b1[1] = F(1)
        b2 = p.algebra.zero_vector()
        b2[5] = F(1)
        with pytest.raises(InvariantViolation) as err:
            subpair_on(p, [b1, b2])
        assert "degenerate restriction" in str(err.value)

    def test_quadext_group_element_flags(self):
        q = make_quadratic_ext_pair(2, -1)
        g = GroupElement(q, quad_matrix(q, [[0, 0], [0, 1]], [[1, 0], [0, 0]]))   # diag(w, 1)
        fl = jordan_flags(q, g)
        assert fl.semisimple and not fl.nilpotent and not fl.unipotent

    def test_group_descendant_quadratic_family(self):
        q = make_quadratic_ext_pair(2, -1)
        g = GroupElement(q, quad_matrix(q, [[2, 0], [0, 1]], [[0, 0], [0, 0]]))
        assert is_normal(q, g)
        # s(g) = g conj(g)^{-1}... for a rational diagonal g, s(g) = identity
        # is too degenerate; use an element mixing w
        g2 = GroupElement(q, quad_matrix(q, [[0, 0], [0, 1]], [[1, 0], [0, 0]]))   # diag(w, 1)
        assert is_normal(q, g2)
        sub = descendant_at_group_element(q, g2)
        # s(g2) = diag(w * (-w)^{-1}, 1) = diag(-1, 1): its centralizer is the
        # diagonal gl_1(E) + gl_1(E), with the rational diagonal as h
        assert (sub.dim_g, sub.dim_h, sub.dim_gsigma) == (4, 2, 2)
        lhs = sub.dim_gsigma
        assert lhs == sub.dim_g - sub.dim_h


# Companion matrices of irreducible polynomials over Q, none of them split
COMPANIONS = {
    "t^2 - 2": [[0, 2], [1, 0]],
    "t^2 + 1": [[0, -1], [1, 0]],
    "t^2 + t + 1": [[0, -1], [1, -1]],
    "t^3 - 2": [[0, 0, 2], [1, 0, 0], [0, 1, 0]],
}
SEMISIMPLE_BLOCK = st.one_of(st.sampled_from(sorted(COMPANIONS)),
                             st.sampled_from([F(-2), F(-1, 2), F(0), F(1), F(3)]))


def _block_matrix(block):
    return COMPANIONS[block] if isinstance(block, str) else [[block]]


@lru_cache(maxsize=None)
def _built_in_pair(family, n, d):
    return make_diagonal_pair(n) if family == "diagonal" else make_quadratic_ext_pair(n, d)


@st.composite
def _unimodular(draw, n):
    """L U with L, U unitriangular over Z: an integer matrix of determinant 1."""
    entry = st.integers(-2, 2)
    lower = Matrix([[F(1) if i == j else F(draw(entry)) if i > j else F(0)
                     for j in range(n)] for i in range(n)])
    upper = Matrix([[F(1) if i == j else F(draw(entry)) if i < j else F(0)
                     for j in range(n)] for i in range(n)])
    return lower @ upper


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("diagonal", None)] + [("quadratic_ext", d) for d in (5, -1, 2)]),
       st.lists(SEMISIMPLE_BLOCK, min_size=1, max_size=4), st.data())
def test_semisimple_descendant_dims_follow_the_blocks(family_d, drawn_blocks, data):
    """At x = (X, -X) or w X, X = g C g^-1 with C block-diagonal of companion
    matrices and rational scalars, the centralizer of X in gl_n(Q) is the
    product of gl_k(Q[t]/p) over the distinct blocks p repeated k times, so
    the descendant has dims (2c, c, c), c = sum deg(p) k^2."""
    family, d = family_d
    blocks = list(drawn_blocks)
    while sum(len(_block_matrix(b)) for b in blocks) > 4:
        blocks.pop()
    c = sum(len(_block_matrix(b)) * k * k for b, k in Counter(blocks).items())
    n = sum(len(_block_matrix(b)) for b in blocks)
    core = [[F(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        m = _block_matrix(b)
        for i, row in enumerate(m):
            core[at + i][at:at + len(m)] = [F(e) for e in row]
        at += len(m)
    g = data.draw(_unimodular(n))
    inner = (g @ Matrix(core) @ inverse(g)).rows
    pair = _built_in_pair(family, n, d)
    if family == "diagonal":
        x = diag_vec(pair, inner, [[-e for e in row] for row in inner])
    else:
        x = quad_vec(pair, [[0] * n] * n, inner)
    sub = descendant(pair, x)
    assert (sub.dim_g, sub.dim_h, sub.dim_gsigma) == (2 * c, c, c)
    lhs, rhs = descendant_dimension_identity(pair, x, sub)
    assert lhs == rhs


def _random_invertible(rng, n):
    while True:
        m = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        if rank(m) == n:
            return m


def _regular_representation(pair, g):
    """A group element as a rational matrix, rebuilt from its blocks: the two
    GL_n components in the diagonal family, and [[A, d B], [B, A]] from the
    first block column [A; B] of A + w B over Q(sqrt(d))."""
    n = pair.inner_n
    rows = [[F(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a, b = g.matrix.rows[i][j], g.matrix.rows[n + i][j]
            if pair.family == "diagonal":
                rows[i][j], rows[n + i][n + j] = a, g.matrix.rows[n + i][n + j]
            else:
                rows[i][j] = rows[n + i][n + j] = a
                rows[i][n + j] = pair.disc * b
                rows[n + i][j] = b
    return Matrix(rows)


def _random_block(rng, n):
    """Generic, unipotent (1 + upper), or diagonal with repeated eigenvalues,
    conjugated by a random invertible matrix."""
    kind = rng.choice(("generic", "unipotent", "diagonal"))
    if kind == "generic":
        return _random_invertible(rng, n)
    c = _random_invertible(rng, n)
    if kind == "unipotent":
        core = Matrix([[F(1 if i == j else rng.randint(-1, 1) if i < j else 0)
                        for j in range(n)] for i in range(n)])
    else:
        core = Matrix([[F(rng.choice((1, 2)) if i == j else 0) for j in range(n)]
                       for i in range(n)])
    return c @ core @ inverse(c)


def _random_group_element(pair, rng):
    n = pair.inner_n
    if pair.family == "diagonal":
        return GroupElement.diagonal(pair, _random_block(rng, n), _random_block(rng, n))
    while True:
        plain = _random_block(rng, n)
        wpart = (zeros(n, n) if rng.random() < 0.5
                 else Matrix([[F(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]))
        m = quad_matrix(pair, plain.rows, wpart.rows)
        try:
            return GroupElement(pair, m)
        except ShapeError:  # not invertible over the extension
            continue


def _to_ambient(sub, v):
    # sub basis vectors were echelonized in ambient coordinates and become
    # the realization-bearing basis; reconstruct the ambient vector.
    # Realization of sub basis elements is the ambient realization, so the
    # ambient coordinates of a sub vector are the realization read back.
    m = sub.algebra.realize(v)
    n = m.nrows // 2
    out = []
    for i in range(n):
        for j in range(n):
            out.append(m.rows[i][j])
    for i in range(n):
        for j in range(n):
            out.append(m.rows[n + i][n + j])
    return out


class TestAutomorphismCheck:
    """SymmetricPair compares theta[e_i, e_j] with [theta e_i, theta e_j] for every i < j."""

    def test_transpose_on_gl2_is_rejected(self):
        g = build_gl(2)
        theta = Matrix([[F(int(2 * b + a == r)) for a in range(2) for b in range(2)]
                        for r in range(4)])      # E_ab -> E_ba
        assert theta @ theta == Matrix.identity(4)
        with pytest.raises(ShapeError, match="not a Lie algebra automorphism"):
            SymmetricPair(g, theta, g.trace_form())
        SymmetricPair(g, -theta, g.trace_form())  # X -> -X^T is an automorphism

    def test_only_the_last_basis_pair_fails(self):
        # basis z, c1, c2, x, y with [x, y] = z as the only nonzero bracket
        rows = {(3, 4): ((0, F(1)),), (4, 3): ((0, F(-1)),)}
        heis = LieAlgebra(["z", "c1", "c2", "x", "y"], rows)
        form = Matrix.identity(5)
        assert SymmetricPair(heis, Matrix.identity(5), form).dim_h == 5
        # flipping y alone breaks [x, y] = z, and only there: (3, 4) is the last pair
        signs = [1, 1, -1, 1, -1]
        theta = Matrix([[F(signs[i] if i == j else 0) for j in range(5)] for i in range(5)])
        with pytest.raises(ShapeError, match=r"automorphism at \(3, 4\)"):
            SymmetricPair(heis, theta, form)

    def test_dense_conjugation_is_accepted(self):
        # theta = Ad(s) for the involution s = 2 v w^T - I, v = (1,1,1), w = (1,2,-2)
        s = [[F(2 * wj - int(i == j)) for j, wj in enumerate((1, 2, -2))] for i in range(3)]
        g = build_gl(3)
        cols = []
        for a in range(3):
            for b in range(3):
                # s E_ab s^{-1} = s E_ab s has entry s[i][a] * s[b][j] at (i, j)
                cols.append([s[i][a] * s[b][j] for i in range(3) for j in range(3)])
        theta = Matrix.from_columns(cols)
        assert max(sum(1 for e in col if e) for col in cols) == 9
        pair = SymmetricPair(g, theta, g.trace_form())
        assert (pair.dim_h, pair.dim_gsigma) == (5, 4)   # gl_2 + gl_1 inside gl_3
        for b in pair.gsigma_basis:
            assert pair.in_gsigma(b) and pair.theta_apply(b) == theta.matvec(b)
