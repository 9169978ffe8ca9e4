"""Local constants of diagonal quadratic forms over the completions of Q.

The eighth-root-of-unity constant gamma attached to a non-degenerate
quadratic form is represented exactly as an exponent mod 8 (the value is
e^{i pi k/4}).  Closed forms per place, for a rank-one form a*x^2 with
a = u * p^e (u a p-adic unit):

  real      exponent +1 for a > 0, -1 for a < 0
  complex   exponent 0
  p odd     e even: 0;  e odd: 4*[u non-residue] + 2*[p = 3 mod 4]
  p = 2     e even: +1 if u = 1 mod 4 else -1;  e odd: u mod 8

The p-adic convention is pinned by the standard additive character with
conductor Z_p, equivalently by the normalized quadratic Gauss sums that
``gauss_sum_oracle`` computes as an independent floating-point check:
oracle(a, p, k) equals gamma of the scalar a * p^k.

Forms of higher rank multiply the rank-one constants (orthogonal
additivity).  The ratio delta(t) = gamma(B)/gamma(tB) is exponent
subtraction; for odd-dimensional forms away from the complex place it
fails multiplicativity, and a concrete failure witness is scanned for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, InvariantViolation, PreconditionError
from .scalars import rat

REAL = "real"
COMPLEX = "complex"
P_ADIC = "p_adic"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality; InputError for n at or above MR_EXACT_BELOW.

    Trial division by the bases decides every n < 43^2 outright.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    if n >= MR_EXACT_BELOW:
        raise InputError("%d is too large for the exact primality test (limit %d)"
                         % (n, MR_EXACT_BELOW))
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Place:
    """A completion of Q: the real place, the complex place, or a prime."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind == P_ADIC:
            if self.p is None or not _is_prime(self.p):
                raise InputError("p-adic place needs a prime, got %r" % (self.p,))
        elif self.kind in (REAL, COMPLEX):
            if self.p is not None:
                raise InputError("archimedean places take no prime")
        else:
            raise InputError("unknown place kind %r" % self.kind)

    @staticmethod
    def real() -> "Place":
        return Place(REAL)

    @staticmethod
    def complex_place() -> "Place":
        return Place(COMPLEX)

    @staticmethod
    def p_adic(p: int) -> "Place":
        return Place(P_ADIC, p)

    @staticmethod
    def parse(text: str) -> "Place":
        if text == "real":
            return Place.real()
        if text == "complex":
            return Place.complex_place()
        if text.startswith("p:"):
            try:
                return Place.p_adic(int(text[2:]))
            except ValueError as exc:
                raise InputError("bad place %r" % text) from exc
        raise InputError("bad place %r (expected real, complex, or p:<prime>)" % text)

    def __str__(self):
        return "p:%d" % self.p if self.kind == P_ADIC else self.kind


@dataclass(frozen=True)
class EighthRoot:
    """e^{i pi exponent/4}, exponent mod 8.  Exact; floats only on request."""

    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 8)

    def __mul__(self, other: "EighthRoot") -> "EighthRoot":
        return EighthRoot(self.exponent + other.exponent)

    def __truediv__(self, other: "EighthRoot") -> "EighthRoot":
        return EighthRoot(self.exponent - other.exponent)

    def value(self) -> complex:
        return cmath.exp(1j * math.pi * self.exponent / 4)

    def __str__(self):
        names = {0: "1", 2: "i", 4: "-1", 6: "-i"}
        if self.exponent in names:
            return names[self.exponent]
        return "exp(%d*i*pi/4)" % self.exponent


@dataclass(frozen=True)
class DiagonalQuadraticForm:
    """sum a_i x_i^2 with all a_i nonzero rationals."""

    coefficients: Tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(rat(c) for c in self.coefficients)
        if not coeffs:
            raise InputError("form needs at least one coefficient")
        if any(c == 0 for c in coeffs):
            raise InputError("degenerate form: zero coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def scaled(self, t) -> "DiagonalQuadraticForm":
        t = rat(t)
        if t == 0:
            raise PreconditionError("scaling a form by zero")
        return DiagonalQuadraticForm(tuple(t * c for c in self.coefficients))

    def evaluate(self, x: Sequence) -> Fraction:
        if len(x) != self.dim:
            raise InputError("vector length does not match the form")
        return sum((c * rat(v) * rat(v) for c, v in zip(self.coefficients, x)), Fraction(0))


# ---------------------------------------------------------------------------
# p-adic valuations and Legendre symbols
# ---------------------------------------------------------------------------

def val_p(x: Fraction, p: int) -> int:
    if x == 0:
        raise PreconditionError("valuation of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part_mod(x: Fraction, p: int, modulus: int) -> int:
    """The p-free part of x as a residue mod `modulus` (p odd: mod p; p=2: mod 8).

    For odd denominators mod 8, inversion is self-inverse; for odd p the
    Legendre symbol of an inverse equals that of the number, so reducing
    numerator times denominator is enough.
    """
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
    while den % p == 0:
        den //= p
    return (num * den) % modulus


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        raise PreconditionError("Legendre symbol of a multiple of p")
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a, b, place: Place) -> int:
    """The local Hilbert symbol (a, b): +1 iff a x^2 + b y^2 = z^2 has a
    nontrivial solution over the completion.

    Closed forms: sign rule at the real place, Legendre/valuation formula
    at odd p, the epsilon/omega formula at p = 2, +1 at the complex place.
    """
    a, b = rat(a), rat(b)
    if a == 0 or b == 0:
        raise PreconditionError("Hilbert symbol of zero")
    if place.kind == COMPLEX:
        return 1
    if place.kind == REAL:
        return -1 if a < 0 and b < 0 else 1
    p = place.p
    alpha, beta = val_p(a, p), val_p(b, p)
    if p == 2:
        u = unit_part_mod(a, 2, 8)
        w = unit_part_mod(b, 2, 8)
        eps_u = (u - 1) // 2 % 2
        eps_w = (w - 1) // 2 % 2
        omega_u = (u * u - 1) // 8 % 2
        omega_w = (w * w - 1) // 8 % 2
        exp = eps_u * eps_w + alpha * omega_w + beta * omega_u
        return -1 if exp % 2 else 1
    u = unit_part_mod(a, p, p)
    w = unit_part_mod(b, p, p)
    sign = 1
    if alpha % 2 and beta % 2 and (p % 4 == 3):
        sign = -sign
    if beta % 2 and legendre(u, p) == -1:
        sign = -sign
    if alpha % 2 and legendre(w, p) == -1:
        sign = -sign
    return sign


# ---------------------------------------------------------------------------
# The eighth-root constant gamma
# ---------------------------------------------------------------------------

def weil_gamma_scalar(a, place: Place) -> EighthRoot:
    """gamma of the rank-one form a x^2 at the given place."""
    a = rat(a)
    if a == 0:
        raise PreconditionError("gamma of a degenerate form")
    if place.kind == COMPLEX:
        return EighthRoot(0)
    if place.kind == REAL:
        return EighthRoot(1 if a > 0 else -1)
    p = place.p
    e = val_p(a, p)
    if p == 2:
        u = unit_part_mod(a, 2, 8)
        if e % 2 == 0:
            return EighthRoot(1 if u % 4 == 1 else -1)
        return EighthRoot(u)
    if e % 2 == 0:
        return EighthRoot(0)
    u = unit_part_mod(a, p, p)
    exp = 0
    if legendre(u, p) == -1:
        exp += 4
    if p % 4 == 3:
        exp += 2
    return EighthRoot(exp)


def weil_gamma(form: DiagonalQuadraticForm, place: Place) -> EighthRoot:
    """gamma of a diagonal form: product of the rank-one constants."""
    out = EighthRoot(0)
    for c in form.coefficients:
        out = out * weil_gamma_scalar(c, place)
    return out


def delta_factor(form: DiagonalQuadraticForm, t, place: Place) -> EighthRoot:
    """delta(t) = gamma(B) / gamma(tB)."""
    t = rat(t)
    if t == 0:
        raise PreconditionError("delta at t = 0")
    return weil_gamma(form, place) / weil_gamma(form.scaled(t), place)


def non_multiplicative_witness(form: DiagonalQuadraticForm, place: Place
                               ) -> Tuple[Fraction, Fraction]:
    """A pair (s, t) with delta(st) != delta(s) delta(t).

    Exists whenever the form has odd dimension and the place is not
    complex; the scan failing to find one would contradict that and is
    raised loudly.
    """
    if place.kind == COMPLEX:
        raise PreconditionError("delta is multiplicative at the complex place")
    if form.dim % 2 == 0:
        raise PreconditionError("delta is multiplicative in even dimension")
    for s in _scan_scalars(place):
        ds = delta_factor(form, s, place)
        for t in _scan_scalars(place):
            if delta_factor(form, s * t, place) != ds * delta_factor(form, t, place):
                return (s, t)
    raise InvariantViolation("no multiplicativity failure found for an "
                             "odd-dimensional form at %s" % place)


def _scan_scalars(place: Place) -> List[Fraction]:
    units = [-1, 2, 3, 5, -2, -3]
    if place.kind == REAL:
        return [rat(u) for u in (-1, 2, -2, 3)]
    p = place.p
    out = [rat(u) for u in units if u % p != 0]
    out.extend(rat(u * p) for u in [1] + units if (u * p) != 0)
    return out


def homogeneity_factor(form: DiagonalQuadraticForm, t, place: Place
                       ) -> Tuple[EighthRoot, Fraction, float]:
    """delta(t) |t|^{dim/2}: the scaling eigenvalue attached to the form.

    Returns the exact eighth root, the exact modulus when dim is even
    (else the square of the modulus), and a float rendering of the
    modulus.  No statement about anything acting on function spaces is
    made here; this is just the constant.
    """
    t = rat(t)
    root = delta_factor(form, t, place)
    mod = module_value(t, place)
    half_power_sq = mod ** form.dim
    return root, half_power_sq, math.sqrt(float(half_power_sq))


# ---------------------------------------------------------------------------
# Null cone and modulus character
# ---------------------------------------------------------------------------

def null_cone_member(form: DiagonalQuadraticForm, x: Sequence) -> bool:
    """Exact test of B(x, x) = 0."""
    return form.evaluate(x) == 0


def module_value(lam, place: Place) -> Fraction:
    """The modulus character |.| of the place, exactly.

    real: ordinary absolute value; complex: the square of it (the measure
    convention); p-adic: p^{-val}.
    """
    lam = rat(lam)
    if lam == 0:
        return Fraction(0)
    if place.kind == REAL:
        return abs(lam)
    if place.kind == COMPLEX:
        return lam * lam
    v = val_p(lam, place.p)
    return Fraction(place.p) ** (-v)


# ---------------------------------------------------------------------------
# Independent oracle: normalized quadratic Gauss sums
# ---------------------------------------------------------------------------

def gauss_sum_oracle(a: int, p: int, k: int = 2) -> complex:
    """p^{-k/2} sum over x mod p^k of e^{2 pi i a x^2 / p^k}, gcd(a, p) = 1.

    For odd p this is exactly the gamma of the scalar a * p^k (valuation
    parity k).  Entirely independent of the closed forms above: a plain
    floating-point exponential sum.
    """
    if not _is_prime(p) or p == 2:
        raise PreconditionError("oracle needs an odd prime")
    if k < 1:
        raise PreconditionError("oracle needs k >= 1")
    if a % p == 0:
        raise PreconditionError("oracle needs a unit: gcd(a, p) = 1")
    q = p ** k
    total = 0j
    for x in range(q):
        total += cmath.exp(2j * math.pi * ((a * x * x) % q) / q)
    return total / math.sqrt(q)
