"""Constructive sl2 triples over nilpotent elements, and module decomposition.

Over a nilpotent x the completion (f, h, x) is computed by two exact affine
solves: first h = [x, u] with (ad x)^2 u = -2x, which forces [h, x] = 2x
with h in the image of ad x; then f from the stacked system [x, f] = h,
[h, f] = -2f.  Both systems are guaranteed solvable for the algebras in
scope, so an unsolvable system is a loud internal error, never a soft
failure.

For a symmetric pair they give an adapted triple: a built-in pair works
on gl_n over the inner X of x = (X, -X) or w X and lifts (Kostant-Rallis),
the systems on g being block copies of these.  When X is the Jordan matrix
J_mu the gl_n triple has a closed form (jordan_triple, the solve's own
canonical completion), so canonical orbit representatives skip the
solves.  A custom pair averages h into the +1 space, then solves for f
(which by Morozov's lemma succeeds exactly when the averaged h lies in the
image of ad x) and antisymmetrizes it.  The h of the adapted triple is the
quantity every downstream criterion consumes; its restricted traces are
independent of all the choices made here (re-checked by tests with
randomized solves).

Weights are counted, never given bases: by eigenvector buckets when h is
diagonal, else by the rank probes of integer_spectrum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, PreconditionError
from .liealg import LieAlgebra
from .linalg import (
    Matrix,
    SparseVector,
    Vector,
    integer_spectrum,
    is_nilpotent_matrix,
    is_zero_vector,
    kernel_basis,
    nonzeros,
    restrict_action,
    shift_diagonal,
    solve,
    vec_scale,
)
from .pairs import (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT, SymmetricPair, inner_gl,
                    inner_vector, lift_inner_triple)
from .scalars import HALF, ONE, ZERO

Partition = Tuple[int, ...]

_NO_ADAPTED_F = "averaged h left the image of ad x: no f with [x, f] = h and [h, f] = -2f"


@dataclass(frozen=True)
class SL2Triple:
    """Triple (e, h, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h.

    theta_adapted means h lies in the +1 eigenspace and e, f in the -1
    eigenspace of the pair's involution.  degenerate marks the zero triple
    returned for x = 0 by convention (orbit sweeps include the zero orbit).
    """

    e: tuple
    h: tuple
    f: tuple
    theta_adapted: bool = False
    degenerate: bool = False


def _random_kernel_shift(base: Vector, system: Matrix, rng: Optional[random.Random]) -> Vector:
    if rng is None:
        return base
    shift = list(base)
    for kv in kernel_basis(system):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            shift = [a + c * b for a, b in zip(shift, kv)]
    return shift


def jacobson_morozov(g: LieAlgebra, x: Vector, rng: Optional[random.Random] = None) -> SL2Triple:
    """Complete a nilpotent x to a triple (f, h, x), deterministically.

    The canonical output takes the particular solution of each affine
    system with free coordinates zero; passing an rng instead samples a
    random valid completion (used by the choice-independence tests).
    """
    if is_zero_vector(x):
        z = tuple(g.zero_vector())
        return SL2Triple(e=z, h=z, f=z, degenerate=True)
    adx, h = _complete_h(g, x, rng)
    f = _solve_for_f(g, adx, h, rng, "lower triple element system is unsolvable "
                                     "although h lies in the image of ad x")
    triple = SL2Triple(e=tuple(x), h=tuple(h), f=tuple(f))
    verify_triple(g, triple)
    return triple


def _complete_h(g: LieAlgebra, x: Vector, rng: Optional[random.Random]) -> Tuple[Matrix, Vector]:
    """(ad x, h) with h = [x, u] and (ad x)^2 u = -2x, for a nonzero nilpotent x:
    then [h, x] = 2x and h lies in the image of ad x."""
    adx = g.ad(x)
    if not is_nilpotent_matrix(adx if g.realization is None else g.realize(x)):
        raise PreconditionError("element is not nilpotent")
    adx2 = adx @ adx
    u = solve(adx2, vec_scale(Fraction(-2), x))
    if u is None:
        raise InvariantViolation("cannot place h in the image of ad x: "
                                 "triple completion system is unsolvable")
    u = _random_kernel_shift(u, adx2, rng)
    return adx, adx.matvec(u)


def _solve_for_f(g: LieAlgebra, adx: Matrix, h: Vector, rng: Optional[random.Random],
                 failure: str) -> Vector:
    """An f with [x, f] = h and [h, f] = -2f; InvariantViolation(failure) if there is none."""
    stacked = Matrix(adx.rows + shift_diagonal(g.ad(h), 2).rows)
    f = solve(stacked, list(h) + list(g.zero_vector()))
    if f is None:
        raise InvariantViolation(failure)
    return _random_kernel_shift(f, stacked, rng)


def verify_triple(g: LieAlgebra, t: SL2Triple):
    """[h,e] = 2e, [h,f] = -2f and [e,f] = h, compared by nonzeros."""
    e, h, f = list(t.e), list(t.h), list(t.f)
    if nonzeros(g.bracket(h, e)) != {i: 2 * a for i, a in nonzeros(e).items()}:
        raise InvariantViolation("triple relation [h,e] = 2e fails")
    if nonzeros(g.bracket(h, f)) != {i: -2 * a for i, a in nonzeros(f).items()}:
        raise InvariantViolation("triple relation [h,f] = -2f fails")
    if nonzeros(g.bracket(e, f)) != nonzeros(h):
        raise InvariantViolation("triple relation [e,f] = h fails")


def jordan_flat(mu: Partition) -> Vector:
    """The nilpotent Jordan matrix J_mu (superdiagonal ones within each block
    of size mu_i), flattened row by row."""
    n, starts = sum(mu), set(accumulate(mu))
    return [ONE if c == r + 1 and c not in starts else ZERO for r in range(n) for c in range(n)]


@lru_cache(maxsize=None)
def jordan_triple(mu: Partition) -> SL2Triple:
    """The standard triple (J_mu, H, F) of gl_n, n = sum(mu), flat and
    verified once per mu on inner_gl(n).

    Per block of size m: H = diag(m-1, m-3, ..., 1-m) and
    F = sum_i i(m-i) E_{i+1,i}, so [H, J] = 2J, [H, F] = -2F, [J, F] = H
    (Collingwood-McGovern, Nilpotent Orbits in Semisimple Lie Algebras,
    ch. 3).  It is the solve's canonical completion of J_mu.
    """
    n = sum(mu)
    h, f = [ZERO] * (n * n), [ZERO] * (n * n)
    offset = 0
    for m in mu:
        for i in range(m):
            r = offset + i
            h[r * n + r] = Fraction(m - 1 - 2 * i)
            if i + 1 < m:
                f[(r + 1) * n + r] = Fraction((i + 1) * (m - 1 - i))
        offset += m
    triple = SL2Triple(e=tuple(jordan_flat(mu)), h=tuple(h), f=tuple(f))
    verify_triple(inner_gl(n), triple)
    return triple


def _jordan_partition(n: int, x: Vector) -> Optional[Partition]:
    """mu when the flat n x n matrix x is exactly J_mu with non-increasing
    parts, else None: a superdiagonal entry other than 1 ends a block, and
    x is then compared with J_mu in full."""
    cuts = [0] + [i + 1 for i in range(n - 1) if x[i * n + i + 1] != 1] + [n]
    mu = tuple(b - a for a, b in zip(cuts, cuts[1:]))
    if all(a >= b for a, b in zip(mu, mu[1:])) and list(x) == jordan_flat(mu):
        return mu
    return None


def theta_adapt(pair: SymmetricPair, x: Vector, rng: Optional[random.Random] = None) -> SL2Triple:
    """Triple over nilpotent x in the -1 space, adapted to the involution.

    A built-in pair works on gl_n over the inner X of x = (X, -X) or w X
    and lifts the result (lift_inner_triple): when X is exactly J_mu and no
    rng asks for a random completion it takes the closed form jordan_triple,
    otherwise it solves as jacobson_morozov does.  A custom pair completes h
    as in jacobson_morozov, averages it into the +1 space and re-checks
    [h, x] = 2x; then f is solved once (which fails exactly when h left the
    image of ad x) and antisymmetrized.  Relations and eigenspace
    memberships are verified at the end, on the pair.
    """
    g = pair.algebra
    if not pair.in_gsigma(x):
        raise PreconditionError("element is not in the -1 eigenspace")
    if is_zero_vector(x):
        z = tuple(g.zero_vector())
        return SL2Triple(e=z, h=z, f=z, theta_adapted=True, degenerate=True)
    if pair.family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        inner = inner_vector(pair, x)
        mu = None if rng is not None else _jordan_partition(pair.inner_n, inner)
        if mu is not None:
            closed = jordan_triple(mu)
            h, f = closed.h, closed.f
        else:
            gl = inner_gl(pair.inner_n)
            adx, h = _complete_h(gl, inner, rng)
            f = _solve_for_f(gl, adx, h, rng, _NO_ADAPTED_F)
        h, f = lift_inner_triple(pair, list(h), list(f))
    else:
        adx, h = _complete_h(g, x, rng)
        h = [(a + b) * HALF for a, b in zip(h, pair.theta_apply(h))]
        if g.bracket(h, x) != vec_scale(Fraction(2), x):
            raise InvariantViolation("averaged h no longer satisfies [h, x] = 2x")
        w = _solve_for_f(g, adx, h, rng, _NO_ADAPTED_F)
        f = [(a - b) * HALF for a, b in zip(w, pair.theta_apply(w))]
    triple = SL2Triple(e=tuple(x), h=tuple(h), f=tuple(f), theta_adapted=True)
    verify_triple(g, triple)
    if not pair.in_h(list(triple.h)):
        raise InvariantViolation("adapted h is not theta-fixed")
    if not pair.in_gsigma(list(triple.f)):
        raise InvariantViolation("adapted f is not theta-antifixed")
    return triple


# ---------------------------------------------------------------------------
# Module decomposition under a triple
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightDecomposition:
    """Multiset of highest weights of the irreducible summands.

    weights is sorted descending with multiplicity; sum(l + 1) recovers the
    dimension of the decomposed module.
    """

    weights: Tuple[int, ...]

    def total_dim(self) -> int:
        return sum(l + 1 for l in self.weights)

    def sum_weights(self) -> int:
        return sum(self.weights)


def eigenvector_weights(g: LieAlgebra, h: Vector, rows: Sequence[SparseVector]
                        ) -> Optional[Dict[int, List[SparseVector]]]:
    """The rows bucketed by weight when each is an ad h eigenvector, verified
    by the one bracket [h, b]; None as soon as one is not."""
    h_nz = nonzeros(h)
    buckets: Dict[int, List[SparseVector]] = {}
    for b in rows:
        hb = g.bracket_sparse(h_nz, b)
        p = min(b, default=None)
        k = None if p is None else hb.get(p, ZERO) / b[p]
        if k is None or hb != ({j: k * a for j, a in b.items()} if k else {}):
            return None
        if k.denominator != 1:
            raise InvariantViolation("non-integral weight %s of ad h" % k)
        buckets.setdefault(int(k), []).append(b)
    return dict(sorted(buckets.items()))


def restricted_ad(g: LieAlgebra, h: Vector, rows: Sequence[SparseVector],
                  modulo: Sequence[SparseVector] = ()) -> Matrix:
    """Matrix of ad h on span(rows), or on span(rows + modulo) / span(modulo).

    Both are sparse RREF rows, and the rows vanish at the pivots of modulo;
    restrict_action reads each [h, b], taken over Z from ad_columns.
    """
    cols = restrict_action(rows, [g.ad_columns(h) + (0,)], modulo)
    if None in cols:
        raise InvariantViolation("ad h does not preserve the span of the rows%s"
                                 % (" modulo the given subspace" if modulo else ""))
    return Matrix.from_columns(cols)


def sl2_decompose(g: LieAlgebra, triple: SL2Triple) -> WeightDecomposition:
    """Decompose the adjoint module via its ad h weight multiplicities.

    m_k is the weight-k bucket size of eigenvector_weights over the standard
    basis, or integer_spectrum of ad h when h is not diagonal; the highest
    weight l has multiplicity m_l - m_{l+2}.  Negative derived multiplicities
    or an unresolved spectrum mean the input was not a module for the triple.
    """
    h = list(triple.h)
    try:
        buckets = eigenvector_weights(g, h, [{i: ONE} for i in range(g.dim)])
        mults = ({k: len(b) for k, b in buckets.items()} if buckets is not None
                 else integer_spectrum(g.ad(h), 2 * g.dim))
    except InvariantViolation as exc:
        raise InvariantViolation("not an sl2 module: %s" % exc) from exc
    for k, m in mults.items():
        if mults.get(-k, 0) != m:
            raise InvariantViolation("not an sl2 module: weight spaces are not "
                                     "symmetric (m_%d != m_%d)" % (k, -k))
    weights = []
    for l in sorted((k for k in mults if k >= 0), reverse=True):
        mult = mults.get(l, 0) - mults.get(l + 2, 0)
        if mult < 0:
            raise InvariantViolation("not an sl2 module: negative multiplicity at weight %d" % l)
        weights.extend([l] * mult)
    dec = WeightDecomposition(weights=tuple(sorted(weights, reverse=True)))
    if dec.total_dim() != g.dim:
        raise InvariantViolation("not an sl2 module: weights account for %d of %d dimensions"
                                 % (dec.total_dim(), g.dim))
    return dec
