"""Local constants: Hilbert symbols, eighth-root constants, the Gauss-sum oracle."""

import cmath
import math
import random
import time
from fractions import Fraction as F

import pytest

from sympair.errors import InputError, InvariantViolation, PreconditionError
from sympair.weil import (
    MR_EXACT_BELOW,
    DiagonalQuadraticForm,
    EighthRoot,
    Place,
    delta_factor,
    gauss_sum_oracle,
    hilbert_symbol,
    homogeneity_factor,
    module_value,
    non_multiplicative_witness,
    null_cone_member,
    weil_gamma,
    weil_gamma_scalar,
    _is_prime,
)

R = Place.real()
C = Place.complex_place()
SAMPLE = [1, -1, 2, -2, 3, -3, 5, -5, 10, -10]


def gauss_sum_oracle_2(a: int, k: int) -> complex:
    """Normalized 2-adic quadratic Gauss sum, unit modulus, k >= 2.

    The raw sum over x mod 2^k has modulus 2^{(k+1)/2}; dividing by it
    leaves exactly the eighth root that gamma(a * 2^k) predicts.
    """
    if a % 2 == 0:
        raise PreconditionError("oracle needs an odd a")
    if k < 2:
        raise PreconditionError("2-adic sums need k >= 2 to stabilize")
    q = 2 ** k
    total = 0j
    for x in range(q):
        total += cmath.exp(2j * math.pi * ((a * x * x) % q) / q)
    mod = abs(total)
    if mod < 1e-9:
        raise InvariantViolation("vanishing 2-adic Gauss sum at k >= 2")
    return total / mod


def form(*coeffs):
    return DiagonalQuadraticForm(tuple(F(c) for c in coeffs))


class TestPlaces:
    def test_parse(self):
        assert Place.parse("real") == R
        assert Place.parse("complex") == C
        assert Place.parse("p:7") == Place.p_adic(7)

    def test_rejects_bad_input(self):
        for bad in ("p:4", "p:x", "padic", "p:-3"):
            with pytest.raises(InputError):
                Place.parse(bad)


class TestHilbertSymbol:
    def test_one_is_always_split(self):
        for v in (R, C, Place.p_adic(2), Place.p_adic(5)):
            for b in SAMPLE:
                assert hilbert_symbol(1, b, v) == 1

    def test_real_sign_rule(self):
        assert hilbert_symbol(-1, -1, R) == -1
        assert hilbert_symbol(-1, 2, R) == 1

    def test_2_5_at_p5(self):
        # 2 x^2 + 5 y^2 = z^2 has no 5-adic solution: 2 is not a square mod 5
        assert hilbert_symbol(2, 5, Place.p_adic(5)) == -1

    def test_2_5_at_p5_against_exhaustive_solvability(self):
        # independent oracle: primitive solutions of 2x^2 + 5y^2 = z^2 over
        # Z/5^3 decide the symbol (a unit-determinant lift exists iff +1)
        assert _solvable_mod_p3(2, 5, 5) == (hilbert_symbol(2, 5, Place.p_adic(5)) == 1)
        # a control where the symbol is +1
        assert _solvable_mod_p3(1, 5, 5) == (hilbert_symbol(1, 5, Place.p_adic(5)) == 1)

    def test_minus_one_minus_one_at_two(self):
        assert hilbert_symbol(-1, -1, Place.p_adic(2)) == -1

    def test_symmetry_and_bimultiplicativity(self):
        rng = random.Random(21)
        places = [R, Place.p_adic(2), Place.p_adic(3), Place.p_adic(5), Place.p_adic(7)]
        for _ in range(200):
            a, b, c = (rng.choice(SAMPLE) for _ in range(3))
            v = rng.choice(places)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * b, c, v) == \
                hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)
            assert hilbert_symbol(a, -a, v) == 1

    def test_product_formula(self):
        places = [R, Place.p_adic(2), Place.p_adic(3), Place.p_adic(5)]
        for a in SAMPLE:
            for b in SAMPLE:
                assert 1 == _product(a, b, places)

    def test_rational_arguments(self):
        assert hilbert_symbol(F(1, 2), F(5), Place.p_adic(5)) == \
            hilbert_symbol(2, 5, Place.p_adic(5))


def _product(a, b, places):
    prod = 1
    for v in places:
        prod *= hilbert_symbol(a, b, v)
    return prod


def _solvable_mod_p3(a, b, p):
    """Primitive solutions of a x^2 + b y^2 = z^2 modulo p^3 (odd p, p | b)."""
    q = p ** 3
    squares = [z * z % q for z in range(q)]
    sq_set = {}
    for z, zz in enumerate(squares):
        sq_set.setdefault(zz, z)
    for x in range(q):
        for y in range(q):
            if x % p == 0 and y % p == 0:
                continue            # primitivity: drop non-unit-content triples
            z = sq_set.get((a * x * x + b * y * y) % q)
            if z is not None and not (x % p == 0 and y % p == 0 and z % p == 0):
                return True
    return False


class TestGammaClosedForms:
    def test_complex_always_trivial(self):
        for coeffs in ((1,), (2, -3), (1, 1, 1)):
            assert weil_gamma(form(*coeffs), C).exponent == 0

    def test_real_values(self):
        assert weil_gamma(form(1, 1), R).exponent == 2      # value i
        assert weil_gamma(form(1, -1), R).exponent == 0     # hyperbolic plane
        assert weil_gamma_scalar(F(3), R).exponent == 1
        assert weil_gamma_scalar(F(-3), R).exponent == 7

    def test_eighth_power_is_structurally_one(self):
        rng = random.Random(22)
        places = [R, Place.p_adic(2), Place.p_adic(3), Place.p_adic(7)]
        for _ in range(50):
            g = weil_gamma_scalar(F(rng.choice(SAMPLE)), rng.choice(places))
            acc = EighthRoot(0)
            for _ in range(8):
                acc = acc * g
            assert acc.exponent == 0

    def test_orthogonal_additivity(self):
        rng = random.Random(23)
        places = [R, Place.p_adic(2), Place.p_adic(3), Place.p_adic(5)]
        for _ in range(60):
            a, b, c = (rng.choice(SAMPLE) for _ in range(3))
            v = rng.choice(places)
            whole = weil_gamma(form(a, b, c), v)
            split = weil_gamma(form(a), v) * weil_gamma(form(b, c), v)
            assert whole == split

    def test_square_class_invariance(self):
        rng = random.Random(24)
        places = [R, Place.p_adic(2), Place.p_adic(3), Place.p_adic(5)]
        for _ in range(40):
            a = rng.choice(SAMPLE)
            c = rng.choice([2, 3, 5, 7])
            v = rng.choice(places)
            assert weil_gamma_scalar(F(a), v) == weil_gamma_scalar(F(a * c * c), v)


class TestOracleAgreement:
    def test_odd_primes(self):
        for p in (3, 5, 7):
            for a in range(1, p):
                for k in (1, 2, 3):
                    closed = weil_gamma_scalar(F(a) * F(p) ** k, Place.p_adic(p))
                    assert abs(closed.value() - gauss_sum_oracle(a, p, k)) < 1e-6

    def test_classical_signs(self):
        # sum over x mod 5 of e^(2 pi i x^2/5) = sqrt(5); mod 3 gives i sqrt(3)
        assert abs(gauss_sum_oracle(1, 5, 1) - 1) < 1e-9
        assert abs(gauss_sum_oracle(1, 3, 1) - 1j) < 1e-9

    def test_square_multiplier_invariance(self):
        for p, a, c in ((5, 2, 2), (7, 3, 3), (11, 2, 4)):
            lhs = gauss_sum_oracle(a * c * c % p**2, p, 2)
            rhs = gauss_sum_oracle(a, p, 2)
            assert abs(lhs - rhs) < 1e-9

    def test_two_adic_table(self):
        for a in (1, 3, 5, 7, 11, 15):
            for k in (2, 3, 4, 5):
                closed = weil_gamma_scalar(F(a) * F(2) ** k, Place.p_adic(2))
                assert abs(closed.value() - gauss_sum_oracle_2(a, k)) < 1e-6

    def test_additivity_against_oracle_on_small_forms(self):
        # a sum of squares couples through a product of exponential sums, so
        # the multi-coefficient constant must equal the product of oracle
        # values coefficient by coefficient
        for p in (3, 5):
            place = Place.p_adic(p)
            for coeffs in ((1, 2), (2, 2, 1), (1, 1, 2)):
                k = 1
                closed = weil_gamma(
                    DiagonalQuadraticForm(tuple(F(a) * F(p) ** k for a in coeffs)),
                    place)
                oracle = 1
                for a in coeffs:
                    oracle *= gauss_sum_oracle(a, p, k)
                assert abs(closed.value() - oracle) < 1e-6

    def test_oracle_preconditions(self):
        with pytest.raises(PreconditionError):
            gauss_sum_oracle(3, 3, 1)
        with pytest.raises(PreconditionError):
            gauss_sum_oracle(1, 2, 2)
        with pytest.raises(PreconditionError):
            gauss_sum_oracle_2(2, 3)


class TestDelta:
    def test_t_one_is_trivial(self):
        assert delta_factor(form(1, 2), F(1), R).exponent == 0

    def test_square_t_is_trivial(self):
        for v in (R, Place.p_adic(3), Place.p_adic(5)):
            assert delta_factor(form(1, -2, 3), F(4), v).exponent == 0
            assert delta_factor(form(1, -2, 3), F(9), v).exponent == 0

    def test_real_rank_one_t_minus_one(self):
        assert delta_factor(form(1), F(-1), R).exponent == 2    # value i

    def test_witness_real_rank_one(self):
        s, t = non_multiplicative_witness(form(1), R)
        assert (s, t) == (F(-1), F(-1))
        d = delta_factor(form(1), s * t, R)
        assert d != delta_factor(form(1), s, R) * delta_factor(form(1), t, R)

    def test_witness_exists_at_odd_places(self):
        for coeffs in ((1,), (1, 2, -3), (2, 3, 5)):
            for v in (R, Place.p_adic(3), Place.p_adic(5)):
                s, t = non_multiplicative_witness(form(*coeffs), v)
                lhs = delta_factor(form(*coeffs), s * t, v)
                rhs = delta_factor(form(*coeffs), s, v) * delta_factor(form(*coeffs), t, v)
                assert lhs != rhs

    def test_even_dimension_and_complex_rejected(self):
        with pytest.raises(PreconditionError):
            non_multiplicative_witness(form(1, 2), R)
        with pytest.raises(PreconditionError):
            non_multiplicative_witness(form(1), C)

    def test_even_dimension_is_multiplicative(self):
        rng = random.Random(25)
        f = form(1, -2)
        for v in (R, Place.p_adic(3), Place.p_adic(5), Place.p_adic(2)):
            for _ in range(30):
                s = F(rng.choice(SAMPLE))
                t = F(rng.choice(SAMPLE))
                assert delta_factor(f, s * t, v) == \
                    delta_factor(f, s, v) * delta_factor(f, t, v)


class TestModuleAndNullCone:
    def test_complex_squares(self):
        assert module_value(F(2), C) == 4

    def test_p_adic_valuation(self):
        assert module_value(F(1, 3), Place.p_adic(3)) == 3
        assert module_value(F(18), Place.p_adic(3)) == F(1, 9)

    def test_real_absolute_value(self):
        assert module_value(F(-7, 2), R) == F(7, 2)

    def test_null_cone(self):
        f = form(1, -1)
        assert null_cone_member(f, [F(1), F(1)])
        assert not null_cone_member(f, [F(1), F(2)])

    def test_homogeneity_factor_table(self):
        root, mod_sq, dec = homogeneity_factor(form(1), F(2), Place.p_adic(5))
        assert root.exponent == 0 and mod_sq == 1 and dec == 1.0
        root, mod_sq, dec = homogeneity_factor(form(1, 1), F(3), Place.p_adic(3))
        assert mod_sq == F(1, 9)        # |3|^2 at p=3


class TestFormValidation:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(InputError):
            DiagonalQuadraticForm((F(1), F(0)))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            DiagonalQuadraticForm(())


class TestPrimality:
    """Place validation uses deterministic Miller-Rabin, not trial division."""

    def test_agrees_with_a_sieve_below_1e5(self):
        limit = 10 ** 5
        sieve = [False, False] + [True] * (limit - 2)
        for i in range(2, int(limit ** 0.5) + 1):
            if sieve[i]:
                sieve[i * i::i] = [False] * len(sieve[i * i::i])
        assert [n for n in range(limit) if _is_prime(n)] == \
            [n for n in range(limit) if sieve[n]]

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2047, 3215031751])
    def test_carmichael_and_strong_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)
        with pytest.raises(InputError):
            Place.p_adic(n)

    def test_nineteen_digit_place_is_fast(self):
        start = time.perf_counter()
        place = Place.parse("p:1000000000000000003")
        assert time.perf_counter() - start < 1.0
        assert place.p == 10 ** 18 + 3
        with pytest.raises(InputError):
            Place.parse("p:1000000000000000001")    # 101 * 9901 * 999999000001

    def test_beyond_exact_range_is_bad_input(self):
        mersenne = 2 ** 89 - 1      # prime, but past the exact Miller-Rabin range
        assert mersenne > MR_EXACT_BELOW
        with pytest.raises(InputError, match="too large"):
            Place.p_adic(mersenne)
