"""Checkable finiteness criteria over nilpotent orbits.

For the built-in families the nilpotent orbits of the -1 eigenspace are
classified by partitions of the inner size n (Jordan types), so a full
sweep is finite: one representative per partition, each audited for

  * the trace bound: tr(ad h restricted to the centralizer of x in the
    +1 space) versus dim of the -1 space, in both the strict (<) and
    non-equality (!=) variants;
  * the quotient spectrum: eigenvalues of ad h on s/[x, h] must be
    non-positive integers;
  * the bookkeeping identity: the weight multiset of gl_n under the
    partition's triple computed from kernel-rank spectra must equal the
    Clebsch-Gordan prediction from the partition, and sum(l + 1) = n^2.

The Clebsch-Gordan route is an independent oracle: tensor products of
Jordan blocks a, b contribute highest weights a+b-2, a+b-4, ..., |a-b|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .errors import InvariantViolation, PreconditionError
from .liealg import build_gl
from .linalg import (
    Matrix,
    Vector,
    coords_in_basis,
    integer_spectrum,
    is_nilpotent_matrix,
    is_zero_vector,
    rank,
)
from .pairs import FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT, SymmetricPair
from .scalars import ONE, ZERO
from .sl2 import SL2Triple, sl2_decompose, theta_adapt, verify_triple

Partition = Tuple[int, ...]


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


def jordan_matrix(mu: Partition) -> Matrix:
    """Nilpotent Jordan matrix with block sizes mu (superdiagonal ones)."""
    n = sum(mu)
    rows = [[ZERO] * n for _ in range(n)]
    offset = 0
    for part in mu:
        for i in range(part - 1):
            rows[offset + i][offset + i + 1] = ONE
        offset += part
    return Matrix(rows)


def jordan_type(m: Matrix) -> Partition:
    """Jordan partition of a nilpotent matrix from its power-rank sequence."""
    if not is_nilpotent_matrix(m):
        raise PreconditionError("Jordan type of a non-nilpotent matrix")
    n = m.nrows
    ranks = [n]
    power = m
    while ranks[-1] > 0:
        ranks.append(rank(power))
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
    """The canonical representative of the orbit with Jordan type mu."""
    return _minus_one_vector(pair, _flatten(jordan_matrix(mu)))


def _flatten(m: Matrix) -> Vector:
    return [e for row in m.rows for e in row]


def _plus_one_vector(pair: SymmetricPair, inner: Vector) -> Vector:
    """(X, X) in the diagonal family, the plain X in the quadratic extension."""
    if pair.family == FAMILY_DIAGONAL:
        return inner + inner
    return inner + [ZERO] * len(inner)


def _minus_one_vector(pair: SymmetricPair, inner: Vector) -> Vector:
    """(X, -X) in the diagonal family, w*X in the quadratic extension."""
    if pair.family == FAMILY_DIAGONAL:
        return inner + [-e for e in inner]
    return [ZERO] * len(inner) + inner


def standard_blocks(mu: Partition) -> Tuple[Matrix, Matrix]:
    """(H, F) completing J_mu to the standard sl2 triple (J_mu, H, F) of gl_n.

    Per block of size m: H = diag(m-1, m-3, ..., 1-m) and
    F = sum_i i(m-i) E_{i+1,i}, so [H, J] = 2J, [H, F] = -2F, [J, F] = H
    (Collingwood-McGovern, Nilpotent Orbits in Semisimple Lie Algebras,
    ch. 3).
    """
    n = sum(mu)
    h_rows = [[ZERO] * n for _ in range(n)]
    f_rows = [[ZERO] * n for _ in range(n)]
    offset = 0
    for m in mu:
        for i in range(m):
            h_rows[offset + i][offset + i] = Fraction(m - 1 - 2 * i)
            if i + 1 < m:
                f_rows[offset + i + 1][offset + i] = Fraction((i + 1) * (m - 1 - i))
        offset += m
    return Matrix(h_rows), Matrix(f_rows)


def standard_triple(pair: SymmetricPair, mu: Partition) -> SL2Triple:
    """Adapted triple over orbit_rep(pair, mu) in closed form, verified.

    diagonal family: h = (H, H), f = (F, -F); quadratic extension: h = H,
    f = w F / d.  It equals what theta_adapt returns for the same
    representative, and passes the same relation and eigenspace checks.
    """
    if pair.family not in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        raise PreconditionError("closed-form triples exist only for built-in families")
    x = orbit_rep(pair, mu)
    if is_zero_vector(x):
        z = tuple(pair.algebra.zero_vector())
        return SL2Triple(e=z, h=z, f=z, theta_adapted=True, degenerate=True)
    hm, fm = standard_blocks(mu)
    f = _flatten(fm)
    if pair.family == FAMILY_QUADRATIC_EXT:
        f = [e / pair.disc for e in f]
    triple = SL2Triple(e=tuple(x), h=tuple(_plus_one_vector(pair, _flatten(hm))),
                       f=tuple(_minus_one_vector(pair, f)), theta_adapted=True)
    verify_triple(pair.algebra, triple)
    if not pair.in_h(list(triple.h)):
        raise InvariantViolation("closed-form h is not theta-fixed")
    if not pair.in_gsigma(list(triple.f)):
        raise InvariantViolation("closed-form f is not theta-antifixed")
    return triple


def inner_nilpotent_matrix(pair: SymmetricPair, x: Vector) -> Matrix:
    """The inner n x n nilpotent of a -1 eigenspace element of a built-in family."""
    n = pair.inner_n
    full = pair.algebra.realize(x)
    if pair.family == FAMILY_DIAGONAL:
        return Matrix([r[:n] for r in full.rows[:n]])
    if pair.family == FAMILY_QUADRATIC_EXT:
        # x = w*X realizes as [[0, d X], [X, 0]]; read X off the lower-left block.
        return Matrix([r[:n] for r in full.rows[n:]])
    raise PreconditionError("inner matrix only defined for built-in families")


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
    """Weights of gl_n under the standard J_mu triple, via kernel-rank spectra."""
    g = build_gl(n)
    hm, fm = standard_blocks(mu)
    triple = SL2Triple(e=tuple(_flatten(jordan_matrix(mu))), h=tuple(_flatten(hm)),
                       f=tuple(_flatten(fm)))
    verify_triple(g, triple)
    return sl2_decompose(g, triple).weights


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

    Builds the adapted triple, restricts ad(h) to the centralizer of x in
    the +1 space, and fills the trace flags, the quotient spectrum, and
    both weight multisets (spectral and combinatorial) when the pair is a
    built-in family.  The canonical representative of its own Jordan type
    gets the closed-form standard_triple; every other element is completed
    by theta_adapt.
    """
    partition = None
    w_spec = None
    w_part = None
    triple = None
    if pair.family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        if not pair.in_gsigma(x):
            raise PreconditionError("element is not in the -1 eigenspace")
        partition = jordan_type(inner_nilpotent_matrix(pair, x))
        if list(x) == orbit_rep(pair, partition):
            triple = standard_triple(pair, partition)
        w_spec = _inner_weights_from_spectrum(pair.inner_n, partition)
        w_part = clebsch_gordan_weights(partition)
    if triple is None:
        triple = theta_adapt(pair, x)
    hx_basis = pair.centralizer_in(x, pair.h_basis)
    trace = restricted_trace(pair, list(triple.h), hx_basis)
    dim_s = pair.dim_gsigma
    quotient = eigen_check(pair, x, triple, strict=False)
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


def restricted_trace(pair: SymmetricPair, h: Vector, subspace: Sequence[Vector]) -> Fraction:
    """Trace of ad(h) on an ad(h)-stable subspace given by a basis."""
    if not subspace:
        return Fraction(0)
    images = [pair.algebra.bracket(h, b) for b in subspace]
    coords = coords_in_basis(list(subspace), images)
    return sum((coords[i][i] for i in range(len(subspace))), Fraction(0))


def eigen_check(pair: SymmetricPair, x: Vector, triple: SL2Triple,
                strict: bool = True) -> Tuple[Tuple[int, int], ...]:
    """Spectrum of ad(h) on the quotient s/[x, h] as (eigenvalue, multiplicity).

    The quotient is modeled on an explicit complement of [x, h] inside s;
    any complement gives a conjugate action matrix, so the spectrum is
    well defined.  All eigenvalues must be non-positive integers; with
    strict=True a positive eigenvalue raises instead of being reported.
    """
    g = pair.algebra
    h = list(triple.h)
    image = []
    for hb in pair.h_basis:
        v = g.bracket(x, hb)
        if not is_zero_vector(v):
            if not pair.in_gsigma(v):
                raise InvariantViolation("[x, h] left the -1 eigenspace")
            image.append(v)
    img_basis = _echelon_rows(image)
    complement = _complete_basis(img_basis, pair.gsigma_basis)
    if not complement:
        return ()
    combined = img_basis + complement
    images = [g.bracket(h, c) for c in complement]
    coords = coords_in_basis(combined, images)
    k = len(img_basis)
    qmat = Matrix.from_columns([c[k:] for c in coords])
    spec = integer_spectrum(qmat, 2 * g.dim)
    if strict and any(ev > 0 for ev in spec):
        raise InvariantViolation(
            "quotient spectrum violation: positive eigenvalue %s on s/[x,h]"
            % max(spec))
    return tuple(sorted(spec.items()))


def _echelon_rows(vectors: Sequence[Vector]) -> List[Vector]:
    if not vectors:
        return []
    from .linalg import echelon_subspace
    return echelon_subspace(list(vectors))


def _complete_basis(base: List[Vector], ambient: Sequence[Vector]) -> List[Vector]:
    """Ambient vectors that extend base to a basis of span(ambient), greedily."""
    rows = [list(v) for v in base]
    chosen: List[Vector] = []
    pivots: List[int] = []
    for row in rows:
        pivots.append(next(i for i, e in enumerate(row) if e))
    for cand in ambient:
        v = list(cand)
        for row, p in zip(rows, pivots):
            if v[p]:
                c = v[p] / row[p]
                v = [a - c * b if b else a for a, b in zip(v, row)]
        lead = next((i for i, e in enumerate(v) if e), None)
        if lead is None:
            continue
        rows.append(v)
        pivots.append(lead)
        chosen.append(list(cand))
    return chosen


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
