"""Symmetric pairs (g, theta): eigenspace decomposition, invariant form,
cone membership, group-level symmetrization, and descendants.

A pair couples a Lie algebra with an involutive automorphism theta.  The
+1 eigenspace is written h, the -1 eigenspace s (the adjoint module of the
fixed subgroup).  The canonical invariant form is the trace form of the
defining realization: unlike the Killing form it stays non-degenerate on
the center, which the restriction arguments need.

Built-in families:

  diagonal       g = gl_n + gl_n, theta swaps the factors, h is the
                 diagonal copy, s = {(X, -X)}.
  quadratic_ext  g = gl_n over Q(sqrt(d)) viewed over Q, theta is the
                 Galois conjugation, h = gl_n(Q), s = sqrt(d) gl_n(Q).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, PreconditionError, ShapeError
from .liealg import LieAlgebra, build_gl, build_product, build_quadratic_extension
from .linalg import (
    Matrix,
    SparseVector,
    Vector,
    _int_combination,
    coords_in_basis,
    echelon_subspace,
    integer_scaled,
    inverse,
    is_nilpotent_matrix,
    is_semisimple_matrix,
    is_unipotent_matrix,
    is_zero_vector,
    kernel_basis,
    kernel_in_span,
    nonzeros,
    rank,
    rationals,
    restrict_action,
    shift_diagonal,
    solve_many,
    sparse_combination,
)
from .scalars import ONE, ZERO, rat

FAMILY_DIAGONAL = "diagonal"
FAMILY_QUADRATIC_EXT = "quadratic_ext"
FAMILY_CUSTOM = "custom"

# gl_n, built once per n: the inner algebra of both built-in families
inner_gl = lru_cache(maxsize=None)(build_gl)


class SymmetricPair:
    """A Lie algebra with an involution, its eigenspace bases, and the form B.

    The constructor recomputes the eigenspace bases canonically and checks
    the structural invariants: theta is an involutive automorphism, the
    eigenspaces fill the algebra, B is symmetric, non-degenerate,
    theta-invariant, and h is B-orthogonal to s.
    """

    def __init__(self, algebra: LieAlgebra, theta: Matrix, form: Matrix,
                 family: str = FAMILY_CUSTOM, inner_n: Optional[int] = None,
                 disc: Optional[Fraction] = None):
        d = algebra.dim
        if theta.nrows != d or theta.ncols != d:
            raise ShapeError("theta must be %dx%d" % (d, d))
        if form.nrows != d or form.ncols != d:
            raise ShapeError("form must be %dx%d" % (d, d))
        self.algebra = algebra
        self.theta = theta
        self.form = form
        self.family = family
        self.inner_n = inner_n
        self.disc = disc
        # theta e_j as its nonzeros (i, theta[i][j]), so applying theta skips zeros.
        cols = self._theta_cols = [tuple((i, row[j]) for i, row in enumerate(theta.rows) if row[j])
                                   for j in range(d)]
        for j in range(d):
            # theta(theta e_j) = e_j
            if sparse_combination((c, cols[i]) for i, c in cols[j]) != {j: ONE}:
                raise ShapeError("theta is not an involution")
        self._check_automorphism()

        self.h_basis = kernel_basis(shift_diagonal(theta, -1))
        self.gsigma_basis = kernel_basis(shift_diagonal(theta, 1))
        if len(self.h_basis) + len(self.gsigma_basis) != d:
            raise ShapeError("theta eigenspaces do not fill the algebra")

        if form.transpose() != form:
            raise ShapeError("form is not symmetric")
        if rank(form) != d:
            raise ShapeError("form is degenerate")
        if theta.transpose() @ form @ theta != form:
            raise ShapeError("form is not theta-invariant")
        self._check_orthogonality()

    # -- invariant checks ---------------------------------------------------

    def _check_automorphism(self):
        """theta[e_i, e_j] = [theta e_i, theta e_j] for every i < j, over nonzeros."""
        g, cols = self.algebra, self._theta_cols
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = sparse_combination((c, cols[k]) for k, c in g.sparse_row(i, j))
                rhs = sparse_combination((s * t, g.sparse_row(a, b))
                                         for a, s in cols[i] for b, t in cols[j])
                if lhs != rhs:
                    raise ShapeError("theta is not a Lie algebra automorphism at (%d, %d)" % (i, j))

    def _check_orthogonality(self):
        hb = Matrix(self.h_basis) if self.h_basis else None
        sb = Matrix(self.gsigma_basis) if self.gsigma_basis else None
        if hb is None or sb is None:
            return
        if not (hb @ self.form @ sb.transpose()).is_zero():
            raise ShapeError("h is not B-orthogonal to the -1 eigenspace")

    # -- convenience --------------------------------------------------------

    @property
    def dim_g(self) -> int:
        return self.algebra.dim

    @property
    def dim_h(self) -> int:
        return len(self.h_basis)

    @property
    def dim_gsigma(self) -> int:
        return len(self.gsigma_basis)

    @cached_property
    def h_rows(self) -> List[SparseVector]:
        """h_basis by nonzeros, built on first read."""
        return [nonzeros(b) for b in self.h_basis]

    @cached_property
    def gsigma_rows(self) -> List[SparseVector]:
        """gsigma_basis by nonzeros, built on first read."""
        return [nonzeros(b) for b in self.gsigma_basis]

    @cached_property
    def _theta_int_cols(self) -> Tuple[List[List[Tuple[int, int]]], int]:
        """_theta_cols over Z: the nonzeros (i, c) of t theta e_j, and t."""
        ints, t = integer_scaled([c for col in self._theta_cols for _, c in col])
        it = iter(ints)
        return [[(i, next(it)) for i, _ in col] for col in self._theta_cols], t

    def theta_apply(self, v: Vector) -> Vector:
        _, image, s, t = self._theta_over_z(v)
        return rationals([image.get(i, 0) for i in range(self.dim_g)], s * t)

    def in_h(self, v: Vector) -> bool:
        nz, image, _, t = self._theta_over_z(v)
        return image == {j: t * a for j, a in nz.items()}

    def in_gsigma(self, v: Vector) -> bool:
        nz, image, _, t = self._theta_over_z(v)
        return image == {j: -t * a for j, a in nz.items()}

    def _theta_over_z(self, v: Vector) -> Tuple[Dict[int, int], Dict[int, int], int, int]:
        """(V, T, s, t): v = V / s and theta v = T / (s t), V and T by nonzeros over Z."""
        if len(v) != self.dim_g:
            raise ShapeError("theta operand must have length %d" % self.dim_g)
        ints, s = integer_scaled(v)
        cols, t = self._theta_int_cols
        nz = {j: a for j, a in enumerate(ints) if a}
        return nz, _int_combination((a, cols[j]) for j, a in nz.items()), s, t

    def centralizer_in(self, x: Vector, subspace: Sequence[Vector]) -> List[Vector]:
        """Echelon basis of {v in span(subspace) : [x, v] = 0}, in g coordinates.

        For a built-in pair, x in s and subspace equal to h_basis, z_h(x) is a
        copy of z(X): taken on gl_n, its RREF rows lift to RREF rows (A, A) or A.
        """
        if (self.family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT)
                and subspace == self.h_basis and self.in_gsigma(x)):
            z = inner_gl(self.inner_n).centralizer([inner_vector(self, x)])
            return [plus_one_vector(self.family, a) for a in z]
        return kernel_in_span(self.algebra.ad(x), subspace)

    def invariants_in_gsigma(self) -> List[Vector]:
        """(g^sigma)^h: joint kernel of ad(h-basis) restricted to the -1 space."""
        if not self.h_basis:
            return list(self.gsigma_basis)
        stacked = Matrix([row for hb in self.h_basis for row in self.algebra.ad(hb).rows])
        return kernel_in_span(stacked, self.gsigma_basis)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def minus_one_vector(family: str, inner: Vector) -> Vector:
    """(X, -X) in the diagonal family, w*X in the quadratic extension."""
    if family == FAMILY_DIAGONAL:
        return inner + [-e if e else e for e in inner]
    return [ZERO] * len(inner) + inner


def plus_one_vector(family: str, inner: Vector) -> Vector:
    """(A, A) in the diagonal family, the plain A in the quadratic extension."""
    return inner + (inner if family == FAMILY_DIAGONAL else [ZERO] * len(inner))


def inner_vector(pair: SymmetricPair, v: Vector, in_h: bool = False) -> Vector:
    """The inner gl_n coordinates of v in s, or in h when in_h: X of (X, -X)
    or w X, and A of (A, A) or the plain A.  v must lie in that eigenspace."""
    n2 = pair.inner_n ** 2
    return list(v[n2:] if pair.family == FAMILY_QUADRATIC_EXT and not in_h else v[:n2])


def lift_inner_triple(pair: SymmetricPair, h: Vector, f: Vector) -> Tuple[Vector, Vector]:
    """(h, f) in g from (H, F) in gl_n: (H, H) and (F, -F) in the diagonal
    family, the plain H and w F / d in the quadratic extension."""
    if pair.family == FAMILY_QUADRATIC_EXT:
        f = [e / pair.disc for e in f]
    return plus_one_vector(pair.family, h), minus_one_vector(pair.family, f)


def make_diagonal_pair(n: int) -> SymmetricPair:
    """(gl_n + gl_n, swap): h is the diagonal, s = {(X, -X)}, B the trace form."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    g = build_product(build_gl(n), build_gl(n))
    d = g.dim
    half = d // 2
    rows = [[ZERO] * d for _ in range(d)]
    for i in range(half):
        rows[i][half + i] = ONE
        rows[half + i][i] = ONE
    theta = Matrix(rows)
    return SymmetricPair(g, theta, g.trace_form(), family=FAMILY_DIAGONAL, inner_n=n)


def make_quadratic_ext_pair(n: int, disc) -> SymmetricPair:
    """(gl_n over Q(sqrt(disc)) viewed over Q, Galois conjugation)."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    g = build_quadratic_extension(build_gl(n), disc)
    return SymmetricPair(g, g.conjugation, g.trace_form(),
                         family=FAMILY_QUADRATIC_EXT, inner_n=n, disc=rat(disc))


# ---------------------------------------------------------------------------
# Group elements and symmetrization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """Invertible matrix in the realized group of a built-in family.

    The matrix is a rational 2n x 2n matrix in the span of the algebra's
    realization: for the diagonal family the block-diagonal matrix of the
    two GL_n components, for quadratic_ext the matrix [[A, dB], [B, A]] of
    A + B w over Q(sqrt(d)) acting Q-linearly on E^n = Q^2n.  Both are
    ``pair.algebra.realize`` of an algebra vector.  Custom pairs have no
    canonical group realization, so no group operations.
    """

    pair: SymmetricPair
    matrix: Matrix

    def __post_init__(self):
        group_to_algebra_vector(self.pair, self.matrix)
        if rank(self.matrix) != self.matrix.nrows:
            raise ShapeError("group element must be invertible")

    @staticmethod
    def diagonal(pair: SymmetricPair, left: Matrix, right: Matrix) -> "GroupElement":
        n = pair.inner_n
        rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for j in range(n):
                rows[i][j] = left.rows[i][j]
                rows[n + i][n + j] = right.rows[i][j]
        return GroupElement(pair, Matrix(rows))


def group_theta(pair: SymmetricPair, m: Matrix) -> Matrix:
    """theta on the group: the realization of theta applied to m's coordinates."""
    return pair.algebra.realize(pair.theta_apply(group_to_algebra_vector(pair, m)))


def group_sigma(pair: SymmetricPair, m: Matrix) -> Matrix:
    """The antiinvolution sigma(g) = theta(g^{-1})."""
    return group_theta(pair, inverse(m))


def symmetrize(pair: SymmetricPair, g: GroupElement) -> GroupElement:
    """s(g) = g . sigma(g), landing in the sigma-fixed set of the group."""
    return GroupElement(pair, g.matrix @ group_sigma(pair, g.matrix))


def is_normal(pair: SymmetricPair, g: GroupElement) -> bool:
    """sigma(g) g = g sigma(g)."""
    sg = group_sigma(pair, g.matrix)
    return sg @ g.matrix == g.matrix @ sg


def group_to_algebra_vector(pair: SymmetricPair, m: Matrix) -> Vector:
    """The algebra vector x with realize(x) = m, for a built-in family.

    Raises ShapeError when m is not in the span of the realization.
    """
    if pair.family not in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        raise PreconditionError("group operations are only available for built-in families")
    size = pair.algebra.realization[0].nrows
    if m.nrows != size or m.ncols != size:
        raise ShapeError("%s group element must be %dx%d" % (pair.family, size, size))
    flat = [[e for row in r.rows for e in row] for r in pair.algebra.realization]
    sols = solve_many(Matrix.from_columns(flat), [[e for row in m.rows for e in row]])
    if sols is None:
        raise ShapeError("matrix is not in the realization of the %s family" % pair.family)
    return sols[0]


# ---------------------------------------------------------------------------
# Jordan-type flags
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JordanFlags:
    semisimple: bool
    nilpotent: bool
    unipotent: bool


def jordan_flags(pair: SymmetricPair, x) -> JordanFlags:
    """Semisimple / nilpotent / unipotent flags via minimal-polynomial tests.

    Accepts an algebra coordinate vector or a GroupElement; both are
    checked through the rational matrix realization.
    """
    m = x.matrix if isinstance(x, GroupElement) else pair.algebra.realize(x)
    return JordanFlags(semisimple=is_semisimple_matrix(m),
                       nilpotent=is_nilpotent_matrix(m),
                       unipotent=is_unipotent_matrix(m))


# ---------------------------------------------------------------------------
# Cones Q, Gamma, R inside the -1 eigenspace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeMembership:
    in_q: bool
    in_gamma: bool
    in_r: bool
    q_projection: tuple


def cone_membership(pair: SymmetricPair, v: Vector) -> ConeMembership:
    """Locate v relative to the invariant-free cone decomposition of s.

    The h-invariants of s split off B-orthogonally; Q is their complement,
    Gamma its nilpotent part, R the rest.  Membership in Gamma is the
    nilpotency of the projected component in the realization.
    """
    if pair.algebra.realization is None:
        raise ShapeError("cone membership requires a matrix realization")
    if not pair.in_gsigma(v):
        raise PreconditionError("element is not in the -1 eigenspace")
    inv = pair.invariants_in_gsigma()
    q_basis = _orthocomplement_in(pair, inv, pair.gsigma_basis)
    if len(inv) + len(q_basis) != pair.dim_gsigma:
        raise InvariantViolation(
            "invariant subspace is B-degenerate: no direct complement")
    coords = coords_in_basis(list(inv) + list(q_basis), [v])[0]
    inv_part = coords[: len(inv)]
    zero = pair.algebra.zero_vector()
    q_proj = list(zero)
    for c, b in zip(coords[len(inv):], q_basis):
        if c:
            q_proj = [a + c * e for a, e in zip(q_proj, b)]
    in_q = all(not c for c in inv_part)
    in_gamma = False
    if in_q:
        in_gamma = is_nilpotent_matrix(pair.algebra.realize(q_proj))
    return ConeMembership(in_q=in_q, in_gamma=in_gamma,
                          in_r=in_q and not in_gamma, q_projection=tuple(q_proj))


def _orthocomplement_in(pair: SymmetricPair, vectors: Sequence[Vector],
                        ambient: Sequence[Vector]) -> List[Vector]:
    """B-orthogonal complement of span(vectors) inside span(ambient)."""
    if not vectors:
        return list(ambient)
    return kernel_in_span(Matrix(list(vectors)) @ pair.form, ambient)


# ---------------------------------------------------------------------------
# Descendants
# ---------------------------------------------------------------------------

def descendant(pair: SymmetricPair, x: Vector) -> SymmetricPair:
    """The sub-pair at a semisimple element of the -1 eigenspace.

    Returns (g_x, theta restricted) where g_x is the centralizer of x.
    Requires x semisimple; its eigenvalues may lie in any extension of Q.
    For semisimple x, g = g_x + [x, g] is B-orthogonal, so the form stays
    non-degenerate on g_x, and subpair_on revalidates every invariant.
    A built-in pair takes both on gl_n.  For x = 0 this is the pair itself.
    """
    if pair.algebra.realization is None:
        raise ShapeError("descendant requires a matrix realization")
    if not pair.in_gsigma(x):
        raise PreconditionError("element is not in the -1 eigenspace")
    if is_zero_vector(x):
        return pair
    return _semisimple_descendant(pair, x, "element is not semisimple in the realization", True)


def descendant_at_group_element(pair: SymmetricPair, g: GroupElement) -> SymmetricPair:
    """Descendant at s(g) for a normal group element.

    Symmetrizes g, reads s(g) back as an algebra vector (its coordinates
    in the realization), and builds the sub-pair on its centralizer.
    """
    if not is_normal(pair, g):
        raise PreconditionError("group element is not normal: sigma(g)g != g sigma(g)")
    s = symmetrize(pair, g)
    return _semisimple_descendant(pair, group_to_algebra_vector(pair, s.matrix),
                                  "symmetrization is not semisimple")


def _semisimple_descendant(pair: SymmetricPair, v: Vector, not_semisimple: str,
                           in_s: bool = False) -> SymmetricPair:
    """Sub-pair on the centralizer of v once v is semisimple in the realization.

    For v in s of a built-in pair both run on inner_gl(n) over X of v = (X, -X)
    or w X: diag(X, -X) and w (x) X (w semisimple, invertible, commuting with X)
    are semisimple iff X is, and g_v = {(A, B) : A, B in z(X)} in both families.
    """
    g, u = pair.algebra, v
    if in_s and pair.family in (FAMILY_DIAGONAL, FAMILY_QUADRATIC_EXT):
        g, u = inner_gl(pair.inner_n), inner_vector(pair, v)
    if not is_semisimple_matrix(g.realize(u)):
        raise PreconditionError(not_semisimple)
    z, zero = g.centralizer([u]), [ZERO] * g.dim
    return subpair_on(pair, z if g is pair.algebra else [a + zero for a in z] + [zero + a for a in z])


def subpair_on(pair: SymmetricPair, basis: Sequence[Vector]) -> SymmetricPair:
    """Restrict the pair to a theta-stable subalgebra given by a basis.

    Builds structure constants, the restricted involution, realization and
    form on the echelon basis, then revalidates every pair invariant.  A
    bracket or theta image that restrict_action finds outside the span is
    named; a degenerate restricted form means the restriction argument
    failed.  Both are raised loudly.
    """
    basis = echelon_subspace(basis)
    k = len(basis)
    if k == 0:
        raise PreconditionError("cannot restrict to the zero subspace")
    g = pair.algebra
    brackets = [(i, j) for i in range(k) for j in range(i + 1, k)]
    coords = restrict_action([nonzeros(b) for b in basis], itertools.chain(
        (g.ad_columns(b) + (i + 1,) for i, b in enumerate(basis[:-1])),
        [pair.theta.transpose().integer_rows() + (0,)]))
    if None in coords:
        t = coords.index(None)
        what = ("closed under bracket: [b_%d, b_%d]" % brackets[t] if t < len(brackets)
                else "theta-stable: theta b_%d" % (t - len(brackets)))
        raise InvariantViolation("subspace is not %s of its echelon basis leaves it" % what)
    rows = {}
    for (i, j), c in zip(brackets, coords):
        row = tuple((m, a) for m, a in enumerate(c) if a)
        if row:
            rows[i, j] = row
            rows[j, i] = tuple((m, -a) for m, a in row)
    realization = None if g.realization is None else [g.realize(b) for b in basis]
    labels = ["z%d" % (i + 1) for i in range(k)]
    sub = LieAlgebra(labels, rows, realization=realization, validate="basic")
    new_theta = Matrix.from_columns(coords[len(brackets):])
    gram = Matrix(basis) @ pair.form @ Matrix.from_columns(basis)
    if rank(gram) != k:
        raise InvariantViolation("degenerate restriction: the invariant form "
                                 "collapses on the centralizer")
    return SymmetricPair(sub, new_theta, gram, family=FAMILY_CUSTOM)


def descendant_dimension_identity(pair: SymmetricPair, x: Vector, sub: SymmetricPair):
    """(lhs, rhs) of dim (g_x)^sigma = dim g - 2 dim h + dim h_x."""
    hx = pair.centralizer_in(x, pair.h_basis)
    lhs = sub.dim_gsigma
    rhs = pair.dim_g - 2 * pair.dim_h + len(hx)
    return lhs, rhs
