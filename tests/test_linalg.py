"""Exact linear algebra: solves, kernels, minimal polynomials, spectra."""

import random
from fractions import Fraction as F

import pytest

from sympair.errors import InvariantViolation, ShapeError
from sympair.linalg import (
    Matrix,
    Poly,
    integer_spectrum,
    inverse,
    is_nilpotent_matrix,
    is_semisimple_matrix,
    is_unipotent_matrix,
    kernel_basis,
    minimal_polynomial,
    rank,
    shift_diagonal,
    solve,
    solve_many,
)
from sympair.pairs import GroupElement, group_sigma, group_theta, make_quadratic_ext_pair


def mat(rows):
    return Matrix([[F(e) for e in r] for r in rows])


def zeros(nrows: int, ncols: int) -> Matrix:
    return Matrix([[F(0)] * ncols for _ in range(nrows)])


E12 = mat([[0, 1], [0, 0]])


def eval_matrix(p: Poly, m: Matrix) -> Matrix:
    """p(m) by Horner's rule."""
    n = m.nrows
    acc = zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc @ m
        if c:
            acc = shift_diagonal(acc, c)
    return acc


class TestSolveAndKernel:
    def test_identity_solve(self):
        assert solve(Matrix.identity(3), [F(1), F(2), F(3)]) == [F(1), F(2), F(3)]

    def test_zero_matrix_kernel_is_everything(self):
        assert len(kernel_basis(zeros(2, 2))) == 2

    def test_rank_deficient_inconsistent(self):
        # [[1,2],[2,4]] has rank 1 and (1,3) is not proportional to (1,2)
        assert solve(mat([[1, 2], [2, 4]]), [F(1), F(3)]) is None

    def test_rank_deficient_consistent(self):
        x = solve(mat([[1, 2], [2, 4]]), [F(1), F(2)])
        assert x == [F(1), F(0)]

    def test_solution_is_exact(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            a = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(m)])
            x = [F(rng.randint(-3, 3)) for _ in range(n)]
            b = a.matvec(x)
            got = solve(a, b)
            assert got is not None
            assert a.matvec(got) == b

    def test_kernel_properties(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(1, 6)
            m = rng.randint(1, 6)
            a = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)])
            ker = kernel_basis(a)
            assert len(ker) == n - rank(a)
            for v in ker:
                assert all(c == 0 for c in a.matvec(v))
            if ker:
                assert rank(Matrix(ker)) == len(ker)

    def test_kernel_is_canonical_echelon(self):
        a = mat([[1, 2, 3], [0, 0, 0]])
        ker = kernel_basis(a)
        # re-echelonizing changes nothing
        from sympair.linalg import rref
        assert rref(Matrix(ker))[0].rows == ker

    def test_solve_many_detects_inconsistency_past_first_rhs(self):
        a = mat([[1, 0], [0, 0]])
        assert solve_many(a, [[F(1), F(0)], [F(0), F(1)]]) is None

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            solve(mat([[1, 2]]), [F(1), F(2)])
        with pytest.raises(ShapeError):
            mat([[1, 2]]).trace()


class TestMinimalPolynomial:
    def test_zero_matrix(self):
        assert minimal_polynomial(zeros(3, 3)) == Poly([F(0), F(1)])

    def test_elementary_nilpotent(self):
        assert minimal_polynomial(E12) == Poly([F(0), F(0), F(1)])

    def test_diag_1_2(self):
        assert minimal_polynomial(mat([[1, 0], [0, 2]])) == Poly([F(2), F(-3), F(1)])

    def test_annihilates_matrix(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
            p = minimal_polynomial(a)
            assert eval_matrix(p, a).is_zero()
            assert p.leading() == 1

    def test_divides_any_annihilator(self):
        a = mat([[1, 1], [0, 1]])
        p = minimal_polynomial(a)           # (x-1)^2
        assert p == Poly([F(1), F(-2), F(1)])


class TestJordanFlagsOnMatrices:
    def test_identity(self):
        i3 = Matrix.identity(3)
        assert is_semisimple_matrix(i3)
        assert not is_nilpotent_matrix(i3)
        assert is_unipotent_matrix(i3)

    def test_elementary(self):
        assert not is_semisimple_matrix(E12)
        assert is_nilpotent_matrix(E12)

    def test_projection_is_semisimple(self):
        # minimal polynomial x(x-1), square-free
        assert is_semisimple_matrix(mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))

    def test_unipotent_shear(self):
        assert is_unipotent_matrix(mat([[1, 1], [0, 1]]))
        assert not is_semisimple_matrix(mat([[1, 1], [0, 1]]))


class TestIntegerSpectrum:
    def test_diagonal(self):
        assert integer_spectrum(mat([[2, 0, 0], [0, 0, 0], [0, 0, -2]]), 3) == \
            {-2: 1, 0: 1, 2: 1}

    def test_zero(self):
        assert integer_spectrum(zeros(4, 4), 1) == {0: 4}

    def test_multiplicities_sum_to_dimension(self):
        rng = random.Random(14)
        for _ in range(10):
            n = rng.randint(2, 5)
            diag = [F(rng.randint(-3, 3)) for _ in range(n)]
            g = _random_invertible(rng, n)
            a = g @ Matrix([[diag[i] if i == j else F(0) for j in range(n)]
                            for i in range(n)]) @ inverse(g)
            spec = integer_spectrum(a, 3)
            assert sum(spec.values()) == n

    def test_out_of_range_raises(self):
        with pytest.raises(InvariantViolation):
            integer_spectrum(mat([[5]]), 3)

    def test_non_semisimple_raises(self):
        with pytest.raises(InvariantViolation):
            integer_spectrum(mat([[0, 1], [0, 0]]), 4)


class TestQuadExtField:
    def test_quadext_matrix_inverse(self):
        # Inverted at the group-element boundary: theta(sigma(g)) = g^{-1}.
        # Over Q(sqrt 2), A + B w is realize((A, B)) = [[A, 2B], [B, A]].
        pair = make_quadratic_ext_pair(2, 2)
        m = pair.algebra.realize([F(e) for e in (1, 0, 0, 1, 0, 1, 1, 0)])   # [[1, w], [w, 1]]
        g = GroupElement(pair, m)                                           # det = 1 - 2 = -1
        assert m @ group_theta(pair, group_sigma(pair, g.matrix)) == Matrix.identity(4)
        with pytest.raises(ShapeError, match="invertible"):
            # [[1, w], [w, 2]]: det = 2 - 2
            GroupElement(pair, pair.algebra.realize([F(e) for e in (1, 0, 0, 2, 0, 1, 1, 0)]))


def _random_invertible(rng, n):
    while True:
        g = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        if rank(g) == n:
            return g


def determinant(mat: Matrix):
    """Exact determinant via elimination without pivot normalization.

    An independent reference for rank: it shares no code with rref.
    """
    rows = [list(r) for r in mat.rows]
    n = len(rows)
    det = F(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return F(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        pivot = rows[c][c]
        det = det * pivot
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / pivot
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def test_determinant_matches_rank():
    rng = random.Random(16)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        d = determinant(a)
        assert (d != 0) == (rank(a) == n)
