"""Constructive sl2 triples over nilpotent elements, and module decomposition.

Over a nilpotent x the completion (f, h, x) is computed by two exact affine
solves: first h = [x, u] with (ad x)^2 u = -2x, which forces [h, x] = 2x
with h in the image of ad x; then f from the stacked system [x, f] = h,
[h, f] = -2f.  Both systems are guaranteed solvable for the algebras in
scope, so an unsolvable system is a loud internal error, never a soft
failure.

For a symmetric pair the triple is then adapted to the involution:
averaging h with theta(h) lands it in the +1 space without breaking its
defining constraints, and re-solving plus antisymmetrizing produces an f
in the -1 space.  The h of the adapted triple is the quantity every
downstream criterion consumes; its restricted traces are independent of
all the choices made here (re-checked by tests with randomized solves).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import InvariantViolation, PreconditionError
from .liealg import LieAlgebra
from .linalg import (
    Matrix,
    Vector,
    integer_spectrum,
    is_nilpotent_matrix,
    is_zero_vector,
    kernel_basis,
    matrix_power_is_zero,
    shift_diagonal,
    solve,
    vec_scale,
)
from .pairs import SymmetricPair
from .scalars import HALF


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


def _is_ad_nilpotent(g: LieAlgebra, x: Vector) -> bool:
    if g.realization is not None:
        return is_nilpotent_matrix(g.realize(x))
    return matrix_power_is_zero(g.ad(x))


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
    if not _is_ad_nilpotent(g, x):
        raise PreconditionError("element is not nilpotent")
    adx = g.ad(x)
    adx2 = adx @ adx
    u = solve(adx2, vec_scale(Fraction(-2), x))
    if u is None:
        raise InvariantViolation("cannot place h in the image of ad x: "
                                 "triple completion system is unsolvable")
    u = _random_kernel_shift(u, adx2, rng)
    h = adx.matvec(u)
    f = _solve_for_f(g, adx, h, x, rng)
    triple = SL2Triple(e=tuple(x), h=tuple(h), f=tuple(f))
    verify_triple(g, triple)
    return triple


def _solve_for_f(g: LieAlgebra, adx: Matrix, h: Vector, x: Vector,
                 rng: Optional[random.Random]) -> Vector:
    stacked = Matrix(adx.rows + shift_diagonal(g.ad(h), 2).rows)
    rhs = list(h) + list(g.zero_vector())
    f = solve(stacked, rhs)
    if f is None:
        raise InvariantViolation("lower triple element system is unsolvable "
                                 "although h lies in the image of ad x")
    return _random_kernel_shift(f, stacked, rng)


def verify_triple(g: LieAlgebra, t: SL2Triple):
    e, h, f = list(t.e), list(t.h), list(t.f)
    if g.bracket(h, e) != vec_scale(Fraction(2), e):
        raise InvariantViolation("triple relation [h,e] = 2e fails")
    if g.bracket(h, f) != vec_scale(Fraction(-2), f):
        raise InvariantViolation("triple relation [h,f] = -2f fails")
    if g.bracket(e, f) != h:
        raise InvariantViolation("triple relation [e,f] = h fails")


def theta_adapt(pair: SymmetricPair, x: Vector, rng: Optional[random.Random] = None) -> SL2Triple:
    """Triple over nilpotent x in the -1 space, adapted to the involution.

    h is averaged into the +1 space; both constraints [h, x] = 2x and
    h in im(ad x) are re-verified after averaging, then f is re-solved
    and antisymmetrized into the -1 space.
    """
    g = pair.algebra
    if not pair.in_gsigma(x):
        raise PreconditionError("element is not in the -1 eigenspace")
    base = jacobson_morozov(g, x, rng)
    if base.degenerate:
        return SL2Triple(e=base.e, h=base.h, f=base.f, theta_adapted=True, degenerate=True)
    s = list(base.h)
    s_sym = [(a + b) * HALF for a, b in zip(s, pair.theta_apply(s))]
    adx = g.ad(x)
    if g.bracket(s_sym, x) != vec_scale(Fraction(2), x):
        raise InvariantViolation("averaged h no longer satisfies [h, x] = 2x")
    if solve(adx, s_sym) is None:
        raise InvariantViolation("averaged h left the image of ad x")
    w = _solve_for_f(g, adx, s_sym, x, rng)
    f = [(a - b) * HALF for a, b in zip(w, pair.theta_apply(w))]
    triple = SL2Triple(e=tuple(x), h=tuple(s_sym), f=tuple(f), theta_adapted=True)
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


def sl2_decompose(g: LieAlgebra, triple: SL2Triple) -> WeightDecomposition:
    """Decompose the adjoint module via kernel-rank weight counts.

    m_k = dim ker(ad h - k); the multiplicity of the irreducible with
    highest weight l is m_l - m_{l+2}.  Negative derived multiplicities or
    an unresolved spectrum mean the input was not a module for the triple.
    """
    adh = g.ad(list(triple.h))
    bound = 2 * g.dim
    try:
        mults = integer_spectrum(adh, bound)
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
