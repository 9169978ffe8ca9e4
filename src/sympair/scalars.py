"""Scalar types: exact rationals and quadratic-extension elements a + b*w, w**2 = d.

Rationals are plain ``fractions.Fraction`` (already normalized, gcd-reduced,
positive denominator).  ``QuadExt`` implements the field Q(sqrt(d)) for a
fixed square-free non-square integer d; conjugation flips the sign of the
w-coefficient and is the nontrivial field automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import InputError, ShapeError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def rat(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# Largest |d| accepted, and largest |a0 * an| that linalg searches for
# rational roots: trial division then takes at most 10^6 steps.
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


@dataclass(frozen=True)
class QuadExt:
    """Element a + b*w of Q(w), w**2 = d.  All three slots are Fractions.

    Arithmetic requires matching d on both operands; ints and Fractions
    coerce to elements with b = 0.
    """

    a: Fraction
    b: Fraction
    d: Fraction

    @staticmethod
    def of(a, b, d) -> "QuadExt":
        return QuadExt(rat(a), rat(b), rat(d))

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ShapeError("mixed quadratic extensions: d=%s vs d=%s" % (self.d, other.d))
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(rat(other), ZERO, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a * o.a + self.d * self.b * o.b,
                       self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def conj(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def inv(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in quadratic extension")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        if not self.b:
            return str(self.a)
        return "(%s + %s*w)" % (self.a, self.b)

