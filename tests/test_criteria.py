"""Orbit enumeration, trace audits, quotient spectra, and the weight identity."""

import random
from fractions import Fraction as F

import pytest

from sympair.criteria import (
    _jordan_flat,
    audit_orbits,
    clebsch_gordan_weights,
    diagonal_trace_identity,
    eigen_check,
    inner_nilpotent_matrix,
    jordan_type,
    nilpotent_orbit_reps,
    partitions,
    speciality_audit,
)
from sympair.errors import PreconditionError
from sympair.linalg import Matrix
from sympair.pairs import make_diagonal_pair, make_quadratic_ext_pair
from sympair.sl2 import theta_adapt


def jordan_matrix(mu):
    """Nilpotent Jordan matrix with block sizes mu (superdiagonal ones)."""
    n = sum(mu)
    flat = _jordan_flat(mu)
    return Matrix([flat[i * n:(i + 1) * n] for i in range(n)])


class TestPartitions:
    def test_reverse_lexicographic_order(self):
        assert partitions(2) == [(2,), (1, 1)]
        assert partitions(3) == [(3,), (2, 1), (1, 1, 1)]
        assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_counts(self):
        assert len(partitions(5)) == 7
        assert len(partitions(6)) == 11

    def test_all_sum_to_n(self):
        for mu in partitions(6):
            assert sum(mu) == 6
            assert all(a >= b for a, b in zip(mu, mu[1:]))


class TestJordanMatrices:
    def test_roundtrip(self):
        for mu in partitions(5):
            assert jordan_type(jordan_matrix(mu)) == mu

    def test_rejects_non_nilpotent(self):
        one, zero = F(1), F(0)
        # invertible; rank 1 then 1 again; J_2 plus an invertible 1x1 block
        for m in (Matrix.identity(2), Matrix([[one, zero], [zero, zero]]),
                  Matrix([[zero, one, zero], [zero, zero, zero], [zero, zero, one]])):
            with pytest.raises(PreconditionError):
                jordan_type(m)

    def test_conjugated_jordan_matrices(self):
        from sympair.linalg import inverse
        rng = random.Random(31)
        for n in range(1, 6):
            for mu in partitions(n):
                low = Matrix([[F(1 if i == j else rng.randint(-2, 2) if i > j else 0)
                               for j in range(n)] for i in range(n)])
                up = Matrix([[F(1 if i == j else rng.randint(-2, 2) if i < j else 0)
                              for j in range(n)] for i in range(n)])
                g = low @ up
                assert jordan_type(g @ jordan_matrix(mu) @ inverse(g)) == mu


class TestOrbitReps:
    def test_diagonal_counts(self):
        assert len(nilpotent_orbit_reps(make_diagonal_pair(2))) == 2
        assert len(nilpotent_orbit_reps(make_diagonal_pair(3))) == 3
        assert len(nilpotent_orbit_reps(make_diagonal_pair(5))) == 7

    def test_smallest_orbit_is_zero(self):
        p = make_diagonal_pair(3)
        mu, v = nilpotent_orbit_reps(p)[-1]
        assert mu == (1, 1, 1)
        assert all(c == 0 for c in v)

    def test_reps_live_in_gsigma_and_are_nilpotent(self):
        for pair in (make_diagonal_pair(3), make_quadratic_ext_pair(3, 2)):
            for mu, v in nilpotent_orbit_reps(pair):
                assert pair.in_gsigma(v)
                assert jordan_type(inner_nilpotent_matrix(pair, v)) == mu

    def test_custom_family_refuses(self):
        p = make_diagonal_pair(2)
        from sympair.pairs import descendant
        x = p.algebra.zero_vector()
        x[0], x[3] = F(1), F(-1)
        x[4], x[7] = F(-1), F(1)
        sub = descendant(p, x)
        with pytest.raises(PreconditionError):
            nilpotent_orbit_reps(sub)


class TestClebschGordan:
    def test_single_blocks(self):
        assert clebsch_gordan_weights((2,)) == (2, 0)
        assert clebsch_gordan_weights((3,)) == (4, 2, 0)

    def test_zero_partition(self):
        assert clebsch_gordan_weights((1, 1)) == (0, 0, 0, 0)

    def test_mixed_blocks(self):
        # blocks (2,1): pairs (2,2)->{2,0}, (2,1)->{1}, (1,2)->{1}, (1,1)->{0}
        assert clebsch_gordan_weights((2, 1)) == (2, 1, 1, 0, 0)

    def test_identity_values(self):
        t = diagonal_trace_identity(2, (2,))
        assert t.sum_weights == 2 and t.dim_ok
        t = diagonal_trace_identity(3, (3,))
        assert t.sum_weights == 6 and t.dim_ok
        t = diagonal_trace_identity(2, (1, 1))
        assert t.sum_weights == 0 and t.dim_ok

    def test_dimension_always_checks(self):
        for n in (2, 3, 4, 5, 6):
            for mu in partitions(n):
                assert diagonal_trace_identity(n, mu).dim_ok


class TestSpecialityAudit:
    def test_diag_gl2_regular_orbit(self):
        p = make_diagonal_pair(2)
        reps = dict(nilpotent_orbit_reps(p))
        a = speciality_audit(p, reps[(2,)])
        assert a.trace_on_hx == 2
        assert a.dim_gsigma == 4
        assert a.archimedean_pass and a.nonarch_pass
        assert dict(a.quotient_eigenvalues) == {0: 1, -2: 1}
        assert a.weights_agree()

    def test_diag_gl3_principal(self):
        p = make_diagonal_pair(3)
        reps = dict(nilpotent_orbit_reps(p))
        a = speciality_audit(p, reps[(3,)])
        assert a.trace_on_hx == 6
        assert a.dim_gsigma == 9
        assert dict(a.quotient_eigenvalues) == {0: 1, -2: 1, -4: 1}

    def test_zero_orbit(self):
        p = make_diagonal_pair(3)
        a = speciality_audit(p, p.algebra.zero_vector())
        assert a.trace_on_hx == 0
        assert a.partition == (1, 1, 1)
        assert dict(a.quotient_eigenvalues) == {0: 9}

    def test_quadratic_matches_diagonal_traces(self):
        p = make_diagonal_pair(3)
        q = make_quadratic_ext_pair(3, -1)
        pa = {a.partition: a.trace_on_hx for a in audit_orbits(p)}
        qa = {a.partition: a.trace_on_hx for a in audit_orbits(q)}
        assert pa == qa

    def test_triple_is_adapted(self):
        p = make_diagonal_pair(2)
        for a in audit_orbits(p):
            assert a.triple.theta_adapted


class TestEigenCheck:
    def test_quotient_dimensions(self):
        p = make_diagonal_pair(2)
        reps = dict(nilpotent_orbit_reps(p))
        x = reps[(2,)]
        t = theta_adapt(p, x)
        spec = dict(eigen_check(p, x, t))
        assert sum(spec.values()) == 2           # dim s - dim [x,h] = 4 - 2

    def test_all_audited_orbits_nonpositive(self):
        for pair in (make_diagonal_pair(4), make_quadratic_ext_pair(2, 5)):
            for _, x in nilpotent_orbit_reps(pair):
                t = theta_adapt(pair, x)
                spec = eigen_check(pair, x, t)
                assert all(k <= 0 for k, _ in spec)


class TestFullSweep:
    def test_audit_orbits_order_and_flags(self):
        p = make_diagonal_pair(4)
        audits = audit_orbits(p)
        assert [a.partition for a in audits] == partitions(4)
        for a in audits:
            assert a.archimedean_pass and a.nonarch_pass and a.eigen_lemma_pass
            assert a.weights_agree()
            ti = diagonal_trace_identity(4, a.partition)
            assert a.trace_on_hx == ti.sum_weights

    def test_smallest_family_member(self):
        # n = 1: only the zero orbit, trace 0 < 1
        p = make_diagonal_pair(1)
        audits = audit_orbits(p)
        assert len(audits) == 1
        assert audits[0].trace_on_hx == 0
        assert audits[0].archimedean_pass
