"""Exact rationals and the discriminants of quadratic extensions of Q.

Rationals are plain ``fractions.Fraction`` (already normalized, gcd-reduced,
positive denominator).  Q(sqrt(d)) has no scalar type of its own: an
element a + b*w, w**2 = d, is the rational matrix [[a, d*b], [b, a]] of
multiplication by it (``liealg.build_quadratic_extension``).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def rat(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# Largest |d| accepted: the square-free test then trial-divides at most
# 10^6 times.
MAX_DISCRIMINANT = 10 ** 12


def is_square_free_non_square(d: int) -> bool:
    """True when d is a square-free integer that is not a perfect square.

    Valid discriminants for a quadratic extension of Q.  Trial division up
    to sqrt|d|, so |d| above MAX_DISCRIMINANT is rejected as bad input
    instead of being factored.
    """
    if abs(d) > MAX_DISCRIMINANT:
        raise InputError("discriminant %d is too large (|d| <= %d supported)"
                         % (d, MAX_DISCRIMINANT))
    if d in (0, 1):
        return False
    if d > 0 and isqrt(d) ** 2 == d:
        return False
    m = abs(d)
    f = 2
    while f * f <= m:
        if m % (f * f) == 0:
            return False
        while m % f == 0:
            m //= f
        f += 1
    return True
