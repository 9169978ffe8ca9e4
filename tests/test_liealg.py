"""Lie algebra structure: brackets, ad, invariant forms, centralizers, builders."""

import random
from fractions import Fraction as F

import pytest

from sympair.errors import ShapeError
from sympair.liealg import (
    build_gl,
    build_product,
    build_quadratic_extension,
    LieAlgebra,
)
from sympair.linalg import Matrix, integer_spectrum, rank


def form_value(gram: Matrix, x, y):
    """B(x, y) = x^T gram y."""
    return sum((a * b for a, b in zip(gram.matvec(y), x)), F(0))


def dense_table(g: LieAlgebra):
    """Dense structure constants c[i][j][k], written out from g's sparse rows."""
    table = [[[F(0)] * g.dim for _ in range(g.dim)] for _ in range(g.dim)]
    for (i, j), row in g.sparse_rows().items():
        for k, c in row:
            table[i][j][k] = c
    return table


def form_radical_dimension(gram: Matrix) -> int:
    return gram.nrows - rank(gram)


def gl2():
    return build_gl(2)


def E(g, i):
    return g.basis_vector(i)


def sl2_by_table():
    """Abstract sl2 in the basis (e, h, f)."""
    z = [F(0)] * 3
    table = [[list(z) for _ in range(3)] for _ in range(3)]
    # [e,h] = -2e, [e,f] = h, [h,f] = -2f
    table[0][1] = [F(-2), F(0), F(0)]
    table[1][0] = [F(2), F(0), F(0)]
    table[0][2] = [F(0), F(1), F(0)]
    table[2][0] = [F(0), F(-1), F(0)]
    table[1][2] = [F(0), F(0), F(-2)]
    table[2][1] = [F(0), F(0), F(2)]
    return LieAlgebra(["e", "h", "f"], table)


class TestBracket:
    def test_antisymmetry_on_self(self):
        g = gl2()
        x = [F(1), F(2), F(-1), F(3)]
        assert g.bracket(x, x) == g.zero_vector()

    def test_gl2_e12_e21(self):
        g = gl2()
        assert g.bracket(E(g, 1), E(g, 2)) == [F(1), F(0), F(0), F(-1)]

    def test_bracket_with_zero(self):
        g = gl2()
        assert g.bracket(E(g, 1), g.zero_vector()) == g.zero_vector()

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            gl2().bracket([F(1)], [F(1)])


class TestAdOperator:
    def test_ad_zero(self):
        g = gl2()
        assert g.ad(g.zero_vector()).is_zero()

    def test_sl2_ad_h_is_diag(self):
        s = sl2_by_table()
        adh = s.ad(E(s, 1))
        assert adh == Matrix([[F(2), F(0), F(0)],
                              [F(0), F(0), F(0)],
                              [F(0), F(0), F(-2)]])

    def test_trace_ad_vanishes_on_commutators(self):
        g = build_gl(3)
        rng = random.Random(3)
        for _ in range(10):
            x = [F(rng.randint(-2, 2)) for _ in range(9)]
            y = [F(rng.randint(-2, 2)) for _ in range(9)]
            assert g.ad(g.bracket(x, y)).trace() == 0


class TestForms:
    def test_killing_on_abelian_is_zero(self):
        z = [F(0)] * 2
        table = [[list(z), list(z)], [list(z), list(z)]]
        ab = LieAlgebra(["a", "b"], table)
        assert ab.killing_form().is_zero()

    def test_sl2_killing_h(self):
        s = sl2_by_table()
        k = s.killing_form()
        h = E(s, 1)
        assert form_value(k, h, h) == 8

    def test_gl2_trace_form_pairing(self):
        g = gl2()
        t = g.trace_form()
        assert form_value(t, E(g, 1), E(g, 2)) == 1

    def test_gl_trace_form_nondegenerate_killing_radical_is_center(self):
        for n in (2, 3):
            g = build_gl(n)
            assert form_radical_dimension(g.trace_form()) == 0
            assert form_radical_dimension(g.killing_form()) == 1

    def test_forms_are_invariant(self):
        g = gl2()
        table = dense_table(g)
        for gram in (g.killing_form(), g.trace_form()):
            for zi in range(4):
                for xi in range(4):
                    for yi in range(4):
                        val = form_value(gram, table[zi][xi], E(g, yi)) + \
                            form_value(gram, E(g, xi), table[zi][yi])
                        assert val == 0

    def test_trace_form_needs_realization(self):
        with pytest.raises(ShapeError):
            sl2_by_table().trace_form()


class TestCentralizer:
    def test_centralizer_of_zero_is_everything(self):
        g = gl2()
        assert len(g.centralizer([g.zero_vector()])) == 4

    def test_gl2_centralizer_of_e12(self):
        g = gl2()
        c = g.centralizer([E(g, 1)])
        assert len(c) == 2
        # span{I, E12}
        assert [F(1), F(0), F(0), F(1)] in c
        assert [F(0), F(1), F(0), F(0)] in c

    def test_gl3_regular_nilpotent(self):
        g = build_gl(3)
        x = g.zero_vector()
        x[1] = F(1)   # E12
        x[5] = F(1)   # E23
        c = g.centralizer([x])
        assert len(c) == 3
        # closed under bracket
        for a in c:
            for b in c:
                v = g.bracket(a, b)
                assert rank(Matrix(c + [v])) == len(c)


class TestBuilders:
    def test_dims(self):
        assert build_gl(2).dim == 4
        assert build_product(build_gl(2), build_gl(2)).dim == 8
        assert build_quadratic_extension(build_gl(2), -1).dim == 8

    def test_jacobi_and_realization_everywhere(self):
        for g in (build_gl(2), build_gl(3),
                  build_product(build_gl(2), build_gl(2)),
                  build_quadratic_extension(build_gl(2), -1),
                  build_quadratic_extension(build_gl(2), 5)):
            g.check_jacobi()
            g.check_realization()

    def test_quadratic_extension_rescaling(self):
        g = build_quadratic_extension(build_gl(2), -1)
        # [w E12, w E21] = -1 * (E11 - E22), landing in the plain copy
        v = g.bracket(E(g, 5), E(g, 6))
        assert v == [F(-1), F(0), F(0), F(1)] + [F(0)] * 4

    def test_bad_discriminants_rejected(self):
        from sympair.errors import PreconditionError
        for bad in (0, 1, 4, 9, 12, 18):
            with pytest.raises(PreconditionError):
                build_quadratic_extension(gl2(), bad)

    def test_conjugation_is_automorphism(self):
        g = build_quadratic_extension(build_gl(2), 2)
        c = g.conjugation
        rng = random.Random(5)
        for _ in range(10):
            x = [F(rng.randint(-2, 2)) for _ in range(8)]
            y = [F(rng.randint(-2, 2)) for _ in range(8)]
            assert c.matvec(g.bracket(x, y)) == g.bracket(c.matvec(x), c.matvec(y))

    def test_ad_h_spectrum_on_gl2(self):
        g = gl2()
        h = [F(1), F(0), F(0), F(-1)]
        assert integer_spectrum(g.ad(h), 8) == {-2: 1, 0: 2, 2: 1}
