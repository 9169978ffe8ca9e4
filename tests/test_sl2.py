"""Triples over nilpotents: construction, adaptation, decomposition, robustness."""

import random
from fractions import Fraction as F

import pytest

from sympair.errors import InvariantViolation, PreconditionError
from sympair.liealg import LieAlgebra, build_gl
from sympair.linalg import is_zero_vector
from sympair.pairs import make_diagonal_pair, make_quadratic_ext_pair
from sympair.sl2 import (
    jacobson_morozov,
    sl2_decompose,
    theta_adapt,
    verify_triple,
)
from test_criteria import jordan_matrix


def gl_vec(n, entries):
    v = [F(0)] * (n * n)
    for (i, j), c in entries.items():
        v[i * n + j] = F(c)
    return v


class TestJacobsonMorozov:
    def test_gl2_classical_triple(self):
        g = build_gl(2)
        t = jacobson_morozov(g, gl_vec(2, {(0, 1): 1}))
        assert list(t.h) == gl_vec(2, {(0, 0): 1, (1, 1): -1})
        assert list(t.f) == gl_vec(2, {(1, 0): 1})
        verify_triple(g, t)

    def test_zero_is_flagged_degenerate(self):
        g = build_gl(2)
        t = jacobson_morozov(g, g.zero_vector())
        assert t.degenerate
        assert is_zero_vector(list(t.h))

    def test_gl3_principal(self):
        g = build_gl(3)
        t = jacobson_morozov(g, gl_vec(3, {(0, 1): 1, (1, 2): 1}))
        assert list(t.h) == gl_vec(3, {(0, 0): 2, (2, 2): -2})
        verify_triple(g, t)

    def test_rejects_non_nilpotent(self):
        g = build_gl(2)
        with pytest.raises(PreconditionError):
            jacobson_morozov(g, gl_vec(2, {(0, 0): 1}))

    def test_unsolvable_completion_is_loud(self):
        # in an abelian algebra without a realization every element is
        # ad-nilpotent, yet no completion exists for a nonzero one: the
        # failure must surface as an invariant violation, not a None
        z = [F(0)] * 2
        table = [[list(z), list(z)], [list(z), list(z)]]
        ab = LieAlgebra(["a", "b"], table)
        x = ab.zero_vector()
        x[0] = F(1)
        with pytest.raises(InvariantViolation):
            jacobson_morozov(ab, x)

    def test_relations_on_all_gl4_partitions(self):
        from sympair.criteria import partitions
        g = build_gl(4)
        for mu in partitions(4):
            jm = jordan_matrix(mu)
            x = [jm.rows[i][j] for i in range(4) for j in range(4)]
            if is_zero_vector(x):
                continue
            verify_triple(g, jacobson_morozov(g, x))


class TestThetaAdapt:
    def test_diagonal_pair_classical(self):
        p = make_diagonal_pair(2)
        x = p.algebra.zero_vector()
        x[1], x[5] = F(1), F(-1)           # (E12, -E12)
        t = theta_adapt(p, x)
        assert list(t.h) == [F(1), F(0), F(0), F(-1), F(1), F(0), F(0), F(-1)]
        assert list(t.f) == [F(0), F(0), F(1), F(0), F(0), F(0), F(-1), F(0)]
        assert t.theta_adapted

    def test_quadratic_pair(self):
        q = make_quadratic_ext_pair(2, -1)
        x = q.algebra.zero_vector()
        x[5] = F(1)                        # w*E12
        t = theta_adapt(q, x)
        # h = diag(1,-1) in the plain copy; f scales so that [x, f] = h,
        # which forces f = (1/d) w E21 = -w E21 for d = -1
        assert list(t.h) == [F(1), F(0), F(0), F(-1)] + [F(0)] * 4
        assert list(t.f) == [F(0)] * 6 + [F(-1), F(0)]

    def test_postconditions_always(self):
        p = make_diagonal_pair(3)
        from sympair.criteria import nilpotent_orbit_reps
        for _, x in nilpotent_orbit_reps(p):
            t = theta_adapt(p, x)
            assert t.theta_adapted
            assert p.in_h(list(t.h))
            assert p.in_gsigma(list(t.f))
            assert p.in_gsigma(list(t.e))
            if not t.degenerate:
                verify_triple(p.algebra, t)

    def test_requires_gsigma(self):
        p = make_diagonal_pair(2)
        x = p.algebra.zero_vector()
        x[1] = F(1)                        # (E12, 0): not theta-antifixed
        with pytest.raises(PreconditionError):
            theta_adapt(p, x)

    def test_zero_orbit_convention(self):
        p = make_diagonal_pair(2)
        t = theta_adapt(p, p.algebra.zero_vector())
        assert t.degenerate and t.theta_adapted


class TestSolveCount:
    def test_theta_adapt_solves_twice_without_unadapted_completion(self, monkeypatch):
        import sympair.sl2 as sl2
        from sympair.criteria import nilpotent_orbit_reps
        real_solve = sl2.solve
        calls = []

        def counting_solve(mat, b):
            calls.append(mat.nrows)
            return real_solve(mat, b)

        def unadapted(*args, **kwargs):
            raise AssertionError("theta_adapt ran the unadapted completion")

        monkeypatch.setattr(sl2, "solve", counting_solve)
        monkeypatch.setattr(sl2, "jacobson_morozov", unadapted)
        for pair in (make_diagonal_pair(3), make_quadratic_ext_pair(2, 5)):
            for _, x in nilpotent_orbit_reps(pair):
                calls.clear()
                t = sl2.theta_adapt(pair, x)
                assert len(calls) == (0 if t.degenerate else 2)

    def test_failed_f_solve_names_the_image_condition(self, monkeypatch):
        import sympair.sl2 as sl2
        real_solve = sl2.solve
        calls = []

        def second_solve_fails(mat, b):
            calls.append(mat.nrows)
            return None if len(calls) == 2 else real_solve(mat, b)

        monkeypatch.setattr(sl2, "solve", second_solve_fails)
        p = make_diagonal_pair(2)
        x = p.algebra.zero_vector()
        x[1], x[5] = F(1), F(-1)
        with pytest.raises(InvariantViolation, match="averaged h left the image of ad x"):
            sl2.theta_adapt(p, x)


class TestRandomizedCompletions:
    def test_relations_and_adaptation_hold_for_random_solutions(self):
        p = make_diagonal_pair(2)
        x = p.algebra.zero_vector()
        x[1], x[5] = F(1), F(-1)
        rng = random.Random(123)
        seen_h = set()
        for _ in range(8):
            t = theta_adapt(p, x, rng)
            verify_triple(p.algebra, t)
            assert p.in_h(list(t.h)) and p.in_gsigma(list(t.f))
            seen_h.add(t.h)
        # the randomization genuinely moves the completion
        assert len(seen_h) > 1

    def test_trace_on_hx_is_choice_independent(self):
        from sympair.criteria import restricted_trace
        p = make_diagonal_pair(3)
        x = p.algebra.zero_vector()
        x[1], x[5] = F(1), F(1)            # left J(2,1)... actually J3 block below
        x[1 + 9], x[5 + 9] = F(-1), F(-1)
        hx = p.centralizer_in(x, p.h_basis)
        base = restricted_trace(p, list(theta_adapt(p, x).h), hx)
        rng = random.Random(99)
        for _ in range(6):
            t = theta_adapt(p, x, rng)
            assert restricted_trace(p, list(t.h), hx) == base


class TestDecomposition:
    def test_gl2_adjoint(self):
        g = build_gl(2)
        t = jacobson_morozov(g, gl_vec(2, {(0, 1): 1}))
        dec = sl2_decompose(g, t)
        assert dec.weights == (2, 0)
        assert dec.total_dim() == 4
        assert dec.sum_weights() == 2

    def test_gl3_principal(self):
        g = build_gl(3)
        t = jacobson_morozov(g, gl_vec(3, {(0, 1): 1, (1, 2): 1}))
        assert sl2_decompose(g, t).weights == (4, 2, 0)

    def test_abelian_zero_triple(self):
        z = [F(0)] * 2
        table = [[list(z), list(z)], [list(z), list(z)]]
        ab = LieAlgebra(["a", "b"], table)
        t = jacobson_morozov(ab, ab.zero_vector())
        assert sl2_decompose(ab, t).weights == (0, 0)

    def test_weight_symmetry_and_dim_identity(self):
        from sympair.criteria import partitions
        from sympair.linalg import integer_spectrum
        for n in (2, 3, 4):
            g = build_gl(n)
            for mu in partitions(n):
                jm = jordan_matrix(mu)
                x = [jm.rows[i][j] for i in range(n) for j in range(n)]
                t = jacobson_morozov(g, x)
                dec = sl2_decompose(g, t)
                assert dec.total_dim() == n * n
                spec = integer_spectrum(g.ad(list(t.h)), 2 * g.dim)
                assert all(spec.get(-k, 0) == m for k, m in spec.items())
                # m_k is recovered from the highest-weight multiset
                for k, m in spec.items():
                    predicted = sum(1 for l in dec.weights
                                    if l >= abs(k) and (l - k) % 2 == 0)
                    assert predicted == m

    def test_non_module_is_rejected(self):
        g = build_gl(2)
        bogus = jacobson_morozov(g, gl_vec(2, {(0, 1): 1}))
        # h/3 has ad-spectrum {2/3, 0, 0, -2/3}: not an integral weight grid
        from sympair.sl2 import SL2Triple
        third_h = tuple(F(1, 3) * c for c in bogus.h)
        broken = SL2Triple(e=bogus.e, h=third_h, f=bogus.f)
        with pytest.raises(InvariantViolation):
            sl2_decompose(g, broken)
