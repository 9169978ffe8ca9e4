"""Checkable finiteness criteria over nilpotent orbits.

For the built-in families the nilpotent orbits of the -1 eigenspace are
classified by partitions of the inner size n (Jordan types), so a full
sweep is finite: one representative per partition, each given its adapted
triple by sl2.theta_adapt (every element, canonical or not) and audited for

  * the trace bound: tr(ad h restricted to the centralizer z_h(x) of x in
    the +1 space) versus dim of the -1 space, in both the strict (<) and
    non-equality (!=) variants;
  * the quotient spectrum: eigenvalues of ad h on s/[x, h] must be
    non-positive integers;
  * the bookkeeping identity: the weight multiset of gl_n under the
    partition's closed-form triple sl2.jordan_triple, counted from its
    ad h weights, must equal the Clebsch-Gordan prediction from the
    partition, and sum(l + 1) = n^2.

The quotient has one route for every pair and every triple.  In both
built-in families h and s are copies of gl_n, through A -> (A, A),
X -> (X, -X) or A -> A, X -> w X, so s/[x, h] with ad h is a copy of
gl_n/[X, gl_n] with ad H (Kostant-Rallis), taken on the inner gl_n; a
custom pair takes it on its own algebra.  [x, h] is echelonized once; the
echelon basis rows of s at the other pivot columns span a complement of it,
ad h acts on that complement modulo [x, h], and the spectrum is counted by
the rank probes of integer_spectrum.

The trace needs no centralizer solve.  ad h preserves h and s, and sl2
theory makes its weights integers.  With r_k the rank of ad x : h_k -> s_{k+2},
z_h(x) has dimension dim h_k - r_k at weight k, and m_k = dim s_k - r_{k-2};
ad h is traceless on h and on s, both copies of the adjoint module of gl_n,
so tr(ad h | z_h(x)) = 2 dim s + sum_k (k - 2) m_k (trace_from_quotient).
Only a custom pair takes centralizer_in and restricted_trace: its h need
not be a copy of an adjoint module, and ad h need not be traceless on it.

The Clebsch-Gordan route is an independent oracle: tensor products of
Jordan blocks a, b contribute highest weights a+b-2, a+b-4, ..., |a-b|.
As z_h(x) is a copy of the centralizer of J_mu in gl_n, their sum must
equal that trace.  And as s/[x, h] is a copy of gl_n/[J_mu, gl_n], spanned
by the lowest weight vectors of those summands, the quotient spectrum must
be the multiset of their negatives.  Either mismatch raises
InvariantViolation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation, PreconditionError
from .linalg import (
    Matrix,
    Vector,
    echelon_rows,
    integer_spectrum,
    nonzeros,
    rank,
)
from .pairs import (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT, SymmetricPair, inner_gl,
                    inner_vector, minus_one_vector)
from .scalars import ONE
from .sl2 import (
    Partition,
    SL2Triple,
    jordan_flat,
    jordan_triple,
    restricted_ad,
    sl2_decompose,
    theta_adapt,
)


def partitions(n: int) -> List[Partition]:
    """All partitions of n in reverse-lexicographic order: [n] first, [1,...,1] last."""
    if n < 0:
        raise PreconditionError("partitions of a negative integer")
    if n == 0:
        return [()]
    out: List[Partition] = []

    def rec(remaining: int, largest: int, prefix: Tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def jordan_type(m: Matrix) -> Partition:
    """Jordan partition of a nilpotent matrix from its power-rank sequence.

    The ranks of m, m^2, ... fall strictly until they stabilize, at 0 exactly
    when m is nilpotent: a repeated nonzero rank rejects m."""
    n = m.nrows
    ranks = [n]
    power = m
    while ranks[-1] > 0:
        r = rank(power)
        if r == ranks[-1]:
            raise PreconditionError("Jordan type of a non-nilpotent matrix")
        ranks.append(r)
        power = power @ m
    # blocks_ge[j] = number of blocks of size >= j
    blocks_ge = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    parts: List[int] = []
    for j, count in enumerate(blocks_ge, start=1):
        longer = blocks_ge[j] if j < len(blocks_ge) else 0
        parts.extend([j] * (count - longer))
    return tuple(sorted(parts, reverse=True))


# ---------------------------------------------------------------------------
# Orbit representatives for the built-in families
# ---------------------------------------------------------------------------

def nilpotent_orbit_reps(pair: SymmetricPair) -> List[Tuple[Partition, Vector]]:
    """One representative of each nilpotent orbit of the -1 eigenspace.

    diagonal family: (J_mu, -J_mu); quadratic extension: sqrt(d) J_mu.
    Partitions are enumerated in reverse-lexicographic order.  Custom
    pairs have no canonical enumeration; callers must supply their own
    representatives.
    """
    if pair.family not in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        raise PreconditionError("orbit enumeration unavailable for custom pairs: "
                                "supply representatives explicitly")
    return [(mu, orbit_rep(pair, mu)) for mu in partitions(pair.inner_n)]


def orbit_rep(pair: SymmetricPair, mu: Partition) -> Vector:
    """The canonical representative of the orbit with Jordan type mu, refused
    unless mu is a non-increasing sequence of positive ints summing to the
    pair's inner n."""
    mu = tuple(mu)
    if not (all(type(p) is int and p > 0 for p in mu)
            and all(a >= b for a, b in zip(mu, mu[1:])) and sum(mu) == pair.inner_n):
        raise PreconditionError("%s is not a partition of n = %s" % (mu, pair.inner_n))
    return minus_one_vector(pair.family, jordan_flat(mu))


def inner_nilpotent_matrix(pair: SymmetricPair, x: Vector) -> Matrix:
    """The inner n x n nilpotent of a -1 eigenspace element of a built-in family."""
    if pair.family not in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        raise PreconditionError("inner matrix only defined for built-in families")
    n, flat = pair.inner_n, inner_vector(pair, x)
    return Matrix([flat[i * n:(i + 1) * n] for i in range(n)])


# ---------------------------------------------------------------------------
# Clebsch-Gordan bookkeeping
# ---------------------------------------------------------------------------

def clebsch_gordan_weights(mu: Partition) -> Tuple[int, ...]:
    """Highest weights of gl_n under the triple of J_mu, from block sizes alone."""
    weights: List[int] = []
    for a in mu:
        for b in mu:
            weights.extend(range(a + b - 2, abs(a - b) - 1, -2))
    return tuple(sorted(weights, reverse=True))


@dataclass(frozen=True)
class TraceIdentity:
    sum_weights: int
    dim_ok: bool
    weights: Tuple[int, ...]


def diagonal_trace_identity(n: int, mu: Partition) -> TraceIdentity:
    """Independent prediction of the audited trace for inner size n.

    sum of the Clebsch-Gordan weights, together with the dimension check
    sum(l + 1) = n^2.
    """
    if sum(mu) != n:
        raise PreconditionError("partition does not sum to n")
    weights = clebsch_gordan_weights(mu)
    return TraceIdentity(sum_weights=sum(weights),
                         dim_ok=sum(l + 1 for l in weights) == n * n,
                         weights=weights)


@lru_cache(maxsize=None)
def _inner_weights_from_spectrum(n: int, mu: Partition) -> Tuple[int, ...]:
    """Weights of gl_n under the standard J_mu triple, counted from its ad h weights."""
    return sl2_decompose(inner_gl(n), jordan_triple(mu)).weights


# ---------------------------------------------------------------------------
# Per-orbit audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrbitAudit:
    """Everything the criteria need to know about one nilpotent orbit."""

    partition: Optional[Partition]
    representative: tuple
    trace_on_hx: Fraction
    dim_gsigma: int
    archimedean_pass: bool       # trace < dim (strict variant)
    nonarch_pass: bool           # trace != dim (non-archimedean variant)
    eigen_lemma_pass: bool
    quotient_eigenvalues: Tuple[Tuple[int, int], ...]
    weights_from_spectrum: Optional[Tuple[int, ...]]
    weights_from_partition: Optional[Tuple[int, ...]]
    triple: SL2Triple

    def weights_agree(self) -> bool:
        return self.weights_from_spectrum == self.weights_from_partition


def speciality_audit(pair: SymmetricPair, x: Vector) -> OrbitAudit:
    """Audit one nilpotent element of the -1 eigenspace.

    The adapted triple comes from theta_adapt, which takes the closed form
    on a canonical representative and solves for any other element.  For a
    built-in family the trace is trace_from_quotient, checked against the
    Clebsch-Gordan sum, the quotient spectrum is checked against the
    negated Clebsch-Gordan weights, and both weight multisets are filled;
    a custom pair takes centralizer_in and restricted_trace.  An
    InvariantViolation names the partition (for a custom pair, the element)
    and the stage: triple, weights, quotient or trace.
    """
    partition = None
    if pair.family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        if not pair.in_gsigma(x):
            raise PreconditionError("element is not in the -1 eigenspace")
        partition = jordan_type(inner_nilpotent_matrix(pair, x))
    w_spec = None
    w_part = None
    stage = "triple"
    try:
        triple = theta_adapt(pair, x)
        if partition is None:
            stage = "trace"
            trace = restricted_trace(pair, list(triple.h), pair.centralizer_in(x, pair.h_basis))
        else:
            stage = "weights"
            w_spec = _inner_weights_from_spectrum(pair.inner_n, partition)
            w_part = clebsch_gordan_weights(partition)
        stage = "quotient"
        quotient = eigen_check(pair, x, triple)
        if partition is not None:
            stage = "trace"
            trace = trace_from_quotient(pair.dim_gsigma, quotient)
            if trace != sum(w_part):
                raise InvariantViolation("%s from the quotient spectrum differs from the "
                                         "Clebsch-Gordan sum %d" % (trace, sum(w_part)))
            stage = "quotient"
            lowest = Counter(-l for l in w_part)
            if Counter(dict(quotient)) != lowest:
                raise InvariantViolation("spectrum %s differs from the lowest Clebsch-Gordan "
                                         "weights %s" % (quotient, sorted(lowest.items())))
    except InvariantViolation as exc:
        where = ("partition %s" % (partition,) if partition is not None
                 else "element [%s]" % ",".join(str(c) for c in x))
        raise InvariantViolation("%s: %s: %s" % (where, stage, exc)) from exc
    dim_s = pair.dim_gsigma
    return OrbitAudit(
        partition=partition,
        representative=tuple(x),
        trace_on_hx=trace,
        dim_gsigma=dim_s,
        archimedean_pass=trace < dim_s,
        nonarch_pass=trace != dim_s,
        eigen_lemma_pass=all(k <= 0 for k, _ in quotient),
        quotient_eigenvalues=quotient,
        weights_from_spectrum=w_spec,
        weights_from_partition=w_part,
        triple=triple,
    )


def trace_from_quotient(dim_s: int, quotient: Sequence[Tuple[int, int]]) -> Fraction:
    """tr(ad h on z_h(x)) = 2 dim s + sum_k (k - 2) m_k from the quotient
    multiplicities m_k, for a built-in family (see the module docstring)."""
    return Fraction(2 * dim_s + sum((k - 2) * m for k, m in quotient))


def restricted_trace(pair: SymmetricPair, h: Vector, subspace: Sequence[Vector]) -> Fraction:
    """Trace of ad(h) on an ad(h)-stable subspace given by a basis.

    In an RREF basis the coordinate of [h, b_i] along b_i is its entry at
    b_i's pivot column, so the trace is that of restricted_ad, which reads
    every image there and verifies it lies in the subspace; a basis in any
    other form is echelonized first.
    """
    rows = echelon_rows([nonzeros(b) for b in subspace], pair.dim_g)
    return restricted_ad(pair.algebra, h, rows).trace() if rows else Fraction(0)


def eigen_check(pair: SymmetricPair, x: Vector, triple: SL2Triple) -> Tuple[Tuple[int, int], ...]:
    """Spectrum of ad(h) on the quotient s/[x, h] as (eigenvalue, multiplicity).

    With x in s and h in h, theta makes [x, h] a subspace of s.  A built-in
    pair takes it on the inner gl_n, where s and h are both the standard
    basis and the quotient is gl_n/[X, gl_n] with ad H (Kostant-Rallis); a
    custom pair takes it on its own algebra.  Every pivot of the echelon
    rows of [x, h] is a pivot of the echelon basis of s, so the basis rows
    at the other pivots span a complement that vanishes at those pivots,
    and ad h acts on it modulo [x, h].  A non-integral weight raises; a
    positive one is reported, not raised: that verdict is the caller's.
    """
    h = list(triple.h)
    if not pair.in_gsigma(x):
        raise InvariantViolation("x is not in the -1 eigenspace")
    if not pair.in_h(h):
        raise InvariantViolation("h is not in the +1 eigenspace")
    if pair.family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        g = inner_gl(pair.inner_n)
        x, h = inner_vector(pair, x), inner_vector(pair, h, in_h=True)
        h_rows = s_rows = [{i: ONE} for i in range(g.dim)]
    else:
        g, h_rows, s_rows = pair.algebra, pair.h_rows, pair.gsigma_rows
    x_nz = nonzeros(x)
    image = echelon_rows([g.bracket_sparse(x_nz, b) for b in h_rows], g.dim)
    pivots = {min(r) for r in image}
    rest = [b for b in s_rows if min(b) not in pivots]
    if not rest:
        return ()
    quotient = restricted_ad(g, h, rest, modulo=image)
    return tuple(integer_spectrum(quotient, 2 * g.dim).items())


# ---------------------------------------------------------------------------
# Full sweeps
# ---------------------------------------------------------------------------

def audit_orbits(pair: SymmetricPair,
                 reps: Optional[Sequence[Tuple[Optional[Partition], Vector]]] = None
                 ) -> List[OrbitAudit]:
    """Audit every orbit representative, in enumeration order.

    Per-orbit audits are independent pure computations; results are
    reported in partition order regardless of evaluation order.
    """
    if reps is None:
        reps = nilpotent_orbit_reps(pair)
    audits = []
    for mu, v in reps:
        record = speciality_audit(pair, v)
        if mu is not None and record.partition is not None and tuple(mu) != record.partition:
            raise InvariantViolation(
                "enumerated partition %s disagrees with Jordan type %s"
                % (mu, record.partition))
        audits.append(record)
    return audits
