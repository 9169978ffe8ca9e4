"""Seeded inputs for the benchmark workloads.

Everything here is plain Python over ``fractions.Fraction`` and never
imports sympair: the program under test receives only what these
generators produce (CLI arguments, coordinate vectors, place strings,
form coefficients and atom lists).  The same seed gives the same inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from oracle import mat_inverse, mat_mul

AUDIT_WORKLOADS = ("audit-diagonal", "audit-quadext")
WORKLOADS = AUDIT_WORKLOADS + ("dense-elements", "local-constants")

DIAGONAL_NS = (2, 3, 4, 5, 6, 7)
DIAGONAL_MAX_ORBIT_N = 7
QUADEXT_NS = (2, 3, 4, 5)
# Square-free non-squares; the seed draws two per size.  The pool is finite
# so that every report the workload can produce has a recorded digest.
DISCRIMINANTS = (-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7)
DISCS_PER_N = 2


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, index))


# ---------------------------------------------------------------------------
# Audit sweeps: one fresh CLI process per call
# ---------------------------------------------------------------------------

def audit_calls(workload: str, seed: int, index: int) -> List[Tuple[str, int, object]]:
    """The (family, n, d) calls of one pass, in the seed's order.

    The discriminants depend on the seed only, so every pass of a run
    audits the same pairs; the call order is drawn again for each pass.
    """
    if workload == "audit-diagonal":
        calls = [("diagonal", n, None) for n in DIAGONAL_NS]
    else:
        pick = random.Random("discriminants:%d" % seed)
        calls = [("quadratic_ext", n, d) for n in QUADEXT_NS
                 for d in sorted(pick.sample(DISCRIMINANTS, DISCS_PER_N))]
    pass_rng(workload, seed, index).shuffle(calls)
    return calls


def audit_argv(family: str, n: int, d) -> List[str]:
    argv = ["audit", "--family", family, "--n", str(n)]
    if family == "diagonal":
        argv += ["--max-orbit-n", str(DIAGONAL_MAX_ORBIT_N)]
    else:
        argv += ["--d", str(d)]
    return argv


def largest_audit_n(workload: str) -> int:
    return max(DIAGONAL_NS if workload == "audit-diagonal" else QUADEXT_NS)


# ---------------------------------------------------------------------------
# Dense elements of diagonal pairs
# ---------------------------------------------------------------------------

DENSE_NS = (3, 4, 5)
# Per size, the multisets of eigenvalue multiplicities (descendants) and the
# Jordan types (triples) of one pass.  They are fixed so that every seed
# does the same amount of work; the seed draws the order of the
# multiplicities, the eigenvalues and the conjugating matrices.
DENSE_DESCENDANT_TYPES: Dict[int, Tuple[Tuple[int, ...], ...]] = {
    3: ((1, 1, 1), (2, 1)) * 4,
    4: ((1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1)),
    5: ((2, 1, 1, 1),),
}
DENSE_TRIPLE_TYPES: Dict[int, Tuple[Tuple[int, ...], ...]] = {
    3: ((3,), (2, 1)) * 4,
    4: ((4,), (3, 1), (2, 2), (2, 1, 1)),
    5: ((3, 2),),
}
# Half-integers of similar size, so that no seed draws much larger entries.
EIGENVALUES = tuple(Fraction(k, 2) for k in (-5, -3, -1, 1, 3, 5))


def unimodular(n: int, rng: random.Random) -> List[List[Fraction]]:
    """L @ U with unit triangular factors of +-1 entries: determinant 1, and
    every seed gets equally dense, equally sized conjugators."""
    low = [[Fraction(1 if i == j else (rng.choice((-1, 1)) if i > j else 0))
            for j in range(n)] for i in range(n)]
    up = [[Fraction(1 if i == j else (rng.choice((-1, 1)) if i < j else 0))
           for j in range(n)] for i in range(n)]
    return mat_mul(low, up)


def composition(mult_type: Sequence[int], rng: random.Random) -> Tuple[int, ...]:
    parts = list(mult_type)
    rng.shuffle(parts)
    return tuple(parts)


def jordan(mu: Sequence[int]) -> List[List[Fraction]]:
    n = sum(mu)
    m = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for part in mu:
        for i in range(part - 1):
            m[off + i][off + i + 1] = Fraction(1)
        off += part
    return m


def diagonal_pair_vector(x: List[List[Fraction]]) -> List[Fraction]:
    """(X, -X) in the coordinates of gl_n + gl_n (row-major E_ij per factor)."""
    flat = [e for row in x for e in row]
    return flat + [-e for e in flat]


def dense_elements(seed: int, index: int) -> List[dict]:
    """The elements of one pass: descendants and triples, sizes interleaved."""
    rng = pass_rng("dense-elements", seed, index)
    out = []
    for n in DENSE_NS:
        for mult_type in DENSE_DESCENDANT_TYPES[n]:
            comp = composition(mult_type, rng)
            eig = rng.sample(EIGENVALUES, len(comp))
            diag = [e for e, m in zip(eig, comp) for _ in range(m)]
            s = [[diag[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
            g = unimodular(n, rng)
            x = mat_mul(mat_mul(g, s), mat_inverse(g))
            out.append({"kind": "descendant", "n": n, "composition": comp,
                        "vector": diagonal_pair_vector(x)})
        for mu in DENSE_TRIPLE_TYPES[n]:
            g = unimodular(n, rng)
            x = mat_mul(mat_mul(g, jordan(mu)), mat_inverse(g))
            out.append({"kind": "triple", "n": n, "partition": tuple(mu),
                        "vector": diagonal_pair_vector(x)})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Local constants and inference
# ---------------------------------------------------------------------------

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
LARGE_PRIMES = (999983, 1000003, 999999937, 1000000007)
HUGE_PRIMES = (999999937, 1000000007)
GAUSS_PRIMES = (3, 5, 7, 11, 13)


def _rational(rng: random.Random, primes: Sequence[int]) -> Fraction:
    num = rng.choice((1, -1)) * rng.choice(primes) ** rng.randint(0, 2)
    if rng.random() < 0.5:
        num *= rng.choice(primes)
    den = rng.choice(primes) if rng.random() < 0.3 else 1
    return Fraction(num, den)


def _form(rng: random.Random, dim: int, primes: Sequence[int]) -> List[Fraction]:
    return [_rational(rng, primes) for _ in range(dim)]


def local_constant_ops(seed: int, index: int, atoms: Sequence[str]) -> List[tuple]:
    """About 2,000 operations of one pass, shuffled.

    Each op is (kind, place-or-None, args).  Hilbert symbols come in groups
    covering every place dividing 2ab and infinity, so the product formula
    can be checked on them.
    """
    rng = pass_rng("local-constants", seed, index)
    ops: List[tuple] = []
    places = ["real", "complex"] + ["p:%d" % p for p in SMALL_PRIMES]
    for place in places:
        for _ in range(20):
            dim = rng.randint(1, 4)
            ops.append(("gamma", place, (_form(rng, dim, SMALL_PRIMES),)))
            ops.append(("delta", place, (_form(rng, dim, SMALL_PRIMES),
                                         _rational(rng, SMALL_PRIMES))))
            ops.append(("homogeneity", place, (_form(rng, dim, SMALL_PRIMES),
                                               _rational(rng, SMALL_PRIMES))))
    for p in LARGE_PRIMES:
        for _ in range(3):
            dim = rng.randint(1, 3)
            pool = SMALL_PRIMES[:4] + (p,)
            ops.append(("gamma", "p:%d" % p, (_form(rng, dim, pool),)))
            ops.append(("delta", "p:%d" % p, (_form(rng, dim, pool), _rational(rng, pool))))
    pairs = [(_rational(rng, SMALL_PRIMES), _rational(rng, SMALL_PRIMES)) for _ in range(160)]
    pairs += [(p * _rational(rng, SMALL_PRIMES[:4]), _rational(rng, SMALL_PRIMES[:4]))
              for p in LARGE_PRIMES]
    for group, (a, b) in enumerate(pairs):
        for place in hilbert_places(a, b):
            ops.append(("hilbert", place, (a, b, group)))
    for dim in (1, 3, 5):
        for place in ("real", "p:2", "p:3", "p:5", "p:7", "p:11", "p:13"):
            ops.append(("witness", place, (_form(rng, dim, SMALL_PRIMES[:6]),)))
    for p in GAUSS_PRIMES:
        for k in (1, 2, 3):
            for _ in range(2):
                ops.append(("gauss", None, (rng.randint(1, p - 1), p, k)))
    for _ in range(60):
        pool = list(atoms)
        small = rng.sample(pool, rng.randint(0, len(pool)))
        rest = [a for a in pool if a not in small]
        big = small + rng.sample(rest, rng.randint(0, len(rest)))
        ops.append(("close", None, (sorted(small), sorted(big))))
    rng.shuffle(ops)
    return ops


def hilbert_places(a: Fraction, b: Fraction) -> List[str]:
    """Every place where (a, b) can be -1: infinity, 2 and the odd primes of ab."""
    primes = {2}
    for x in (a.numerator, a.denominator, b.numerator, b.denominator):
        x = abs(x)
        for p in SMALL_PRIMES + LARGE_PRIMES:
            while x % p == 0:
                primes.add(p)
                x //= p
        if x != 1:
            raise ValueError("generated rational has a factor outside the prime pools")
    return ["real"] + ["p:%d" % p for p in sorted(primes)]
