"""Independent reference computations for the benchmark's output checks.

Nothing here imports sympair.  The checks recompute each answer from the
benchmark's own inputs (partitions, Clebsch-Gordan sums, closed-form
local constants, plain Gauss sums) instead of trusting the code under test.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

Partition = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Exact matrices as lists of rows
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def mat_inverse(a):
    n = len(a)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    for c in range(n):
        pr = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[pr] = rows[pr], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [e * inv for e in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def commutator(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def unflatten(v: Sequence[Fraction], n: int, offset: int = 0):
    return [[Fraction(v[offset + i * n + j]) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Partitions and Clebsch-Gordan bookkeeping
# ---------------------------------------------------------------------------

def partitions_revlex(n: int) -> List[Partition]:
    """Partitions of n, [n] first and [1, ..., 1] last."""
    out: List[Partition] = []
    stack = [((), n, n)]
    while stack:
        prefix, rest, largest = stack.pop()
        if rest == 0:
            out.append(prefix)
            continue
        for part in range(1, min(rest, largest) + 1):
            stack.append((prefix + (part,), rest - part, part))
    return out


def cg_trace(mu: Sequence[int]) -> int:
    """Sum of the highest weights of gl_n under the triple of J_mu."""
    return sum(l for a in mu for b in mu for l in range(abs(a - b), a + b - 1, 2))


def conjugate_partition(mu: Sequence[int]) -> List[int]:
    return [sum(1 for m in mu if m > j) for j in range(max(mu, default=0))]


def nilpotent_centralizer_dim(mu: Sequence[int]) -> int:
    """dim of the centralizer in gl_n of a nilpotent with Jordan type mu."""
    return sum(c * c for c in conjugate_partition(mu))


# ---------------------------------------------------------------------------
# Local constants, closed forms written from their definitions
# ---------------------------------------------------------------------------

def _split(x: Fraction, p: int) -> Tuple[int, int, int]:
    """(valuation, p-free numerator, p-free denominator)."""
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def _legendre(a: int, p: int) -> int:
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def gamma_exponent(a: Fraction, place: str) -> int:
    """Exponent k (mod 8) of the eighth root e^{i pi k/4} of a x^2."""
    if place == "complex":
        return 0
    if place == "real":
        return 1 if a > 0 else 7
    p = int(place[2:])
    e, num, den = _split(a, p)
    if p == 2:
        u = (num * den) % 8           # odd den is its own inverse mod 8
        if e % 2 == 0:
            return 1 if u % 4 == 1 else 7
        return u
    if e % 2 == 0:
        return 0
    return (4 if _legendre(num * den, p) == -1 else 0) + (2 if p % 4 == 3 else 0)


def form_gamma(coeffs: Sequence[Fraction], place: str) -> int:
    return sum(gamma_exponent(c, place) for c in coeffs) % 8


def form_delta(coeffs: Sequence[Fraction], t: Fraction, place: str) -> int:
    return (form_gamma(coeffs, place) - form_gamma([t * c for c in coeffs], place)) % 8


def modulus(t: Fraction, place: str) -> Fraction:
    if place == "real":
        return abs(t)
    if place == "complex":
        return t * t
    p = int(place[2:])
    return Fraction(p) ** (-_split(t, p)[0])


def gauss_sum(a: int, p: int, k: int) -> complex:
    """p^{-k/2} times the quadratic Gauss sum of a modulo p^k."""
    q = p ** k
    return sum(cmath.exp(2j * math.pi * (a * x * x % q) / q) for x in range(q)) / math.sqrt(q)


def eighth_root(k: int) -> complex:
    return cmath.exp(1j * math.pi * k / 4)
