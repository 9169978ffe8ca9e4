"""Exact dense linear algebra over Q and Q(sqrt(d)).

Everything here is pure and deterministic: elimination always pivots on
the first row with a nonzero entry in the current column, and reduced row
echelon form is canonical, so kernel bases and particular solutions are
reproducible across runs.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import InvariantViolation, ShapeError
from .scalars import ONE, ZERO, scalar_one_like, scalar_zero_like

Vector = List


def vec_add(x: Vector, y: Vector) -> Vector:
    return [a + b for a, b in zip(x, y)]

def vec_sub(x: Vector, y: Vector) -> Vector:
    return [a - b for a, b in zip(x, y)]

def vec_scale(c, x: Vector) -> Vector:
    return [c * a for a in x]

def vec_neg(x: Vector) -> Vector:
    return [-a for a in x]

def is_zero_vector(x: Vector) -> bool:
    return all(not a for a in x)


class Matrix:
    """Dense matrix over a fixed scalar field, immutable by convention.

    Rows are lists of Fraction or QuadExt entries.  Operations return new
    matrices; nothing mutates after construction, so instances are safe to
    share across threads.
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ShapeError("empty matrix")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    @staticmethod
    def identity(n: int, like=ONE) -> "Matrix":
        one = scalar_one_like(like)
        zero = scalar_zero_like(like)
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int, like=ONE) -> "Matrix":
        zero = scalar_zero_like(like)
        return Matrix([[zero] * ncols for _ in range(nrows)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix([list(r) for r in zip(*cols)])

    def column(self, j: int) -> Vector:
        return [r[j] for r in self.rows]

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(not e for r in self.rows for e in r)

    def transpose(self) -> "Matrix":
        return Matrix([list(c) for c in zip(*self.rows)])

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace of non-square matrix")
        t = scalar_zero_like(self.rows[0][0])
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([vec_add(a, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([vec_sub(a, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([vec_neg(r) for r in self.rows])

    def scale(self, c) -> "Matrix":
        return Matrix([vec_scale(c, r) for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError("matmul shape mismatch: %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        zero = scalar_zero_like(self.rows[0][0])
        width = other.ncols
        b_nz = [[(k, b) for k, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [zero] * width
            for j, a in enumerate(row):
                if a:
                    for k, b in b_nz[j]:
                        acc[k] += a * b
            out.append(acc)
        return Matrix(out)

    def matvec(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ShapeError("matvec length mismatch")
        zero = scalar_zero_like(self.rows[0][0])
        v_nz = {j: c for j, c in enumerate(v) if c}
        out = []
        for row in self.rows:
            acc = zero
            for j, c in v_nz.items():
                e = row[j]
                if e:
                    acc += e * c
            out.append(acc)
        return out

    def _check_same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.rows)
        return "Matrix[%s]" % body


def rref(mat: Matrix):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns (R, pivot_columns).  RREF is canonical for the row space, so
    every consumer downstream inherits determinism from this one routine.
    Elimination works in place on a private copy of the rows and touches
    only the nonzero entries of the pivot row: left of its pivot column
    that row is zero, and every other entry would contribute a - f * 0.
    """
    rows = [list(r) for r in mat.rows]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pivot = prow[c]
        nz = [(j, prow[j]) for j in range(c, n) if prow[j]]
        if pivot != 1:
            inv = 1 / pivot if isinstance(pivot, Fraction) else pivot.inv()
            nz = [(j, e * inv) for j, e in nz]
            for j, e in nz:
                prow[j] = e
        for i in range(m):
            ri = rows[i]
            f = ri[c]
            if f and i != r:
                for j, b in nz:
                    ri[j] -= f * b
        pivots.append(c)
        r += 1
        if r == m:
            break
    return Matrix(rows), pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def kernel_basis(mat: Matrix) -> List[Vector]:
    """Canonical basis of the right kernel, echelonized as rows.

    Basis vectors are linearly independent, annihilated by the matrix, and
    their count is ncols - rank.
    """
    red, pivots = rref(mat)
    n = mat.ncols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    if not free:
        return []
    zero = scalar_zero_like(mat.rows[0][0])
    one = scalar_one_like(mat.rows[0][0])
    vecs = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for t, pc in enumerate(pivots):
            v[pc] = -red.rows[t][fc]
        vecs.append(v)
    return rref(Matrix(vecs))[0].rows


def solve(mat: Matrix, b: Vector) -> Optional[Vector]:
    """Particular solution of mat @ x = b with free coordinates set to 0.

    Returns None when the system is inconsistent.
    """
    sols = solve_many(mat, [b])
    return sols[0] if sols is not None else None


def solve_many(mat: Matrix, bs: Sequence[Vector]) -> Optional[List[Vector]]:
    """Solve mat @ x = b for several right-hand sides with one elimination.

    Returns None if any system is inconsistent.
    """
    if any(len(b) != mat.nrows for b in bs):
        raise ShapeError("rhs length mismatch")
    n = mat.ncols
    k = len(bs)
    aug = Matrix([row + [b[i] for b in bs] for i, row in enumerate(mat.rows)])
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    # Inconsistency can hide past the first rhs column: check residual rows.
    npiv = len(pivots)
    for i in range(npiv, red.nrows):
        if any(red.rows[i][n + j] for j in range(k)):
            return None
    zero = scalar_zero_like(mat.rows[0][0])
    outs = []
    for j in range(k):
        x = [zero] * n
        for t, pc in enumerate(pivots):
            x[pc] = red.rows[t][n + j]
        outs.append(x)
    return outs


def inverse(mat: Matrix) -> Matrix:
    if not mat.is_square():
        raise ShapeError("inverse of non-square matrix")
    n = mat.nrows
    ident = Matrix.identity(n, like=mat.rows[0][0])
    aug = Matrix([mat.rows[i] + ident.rows[i] for i in range(n)])
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    return Matrix([r[n:] for r in red.rows])


def determinant(mat: Matrix):
    """Exact determinant via elimination without pivot normalization."""
    if not mat.is_square():
        raise ShapeError("determinant of non-square matrix")
    rows = [list(r) for r in mat.rows]
    n = len(rows)
    det = scalar_one_like(rows[0][0])
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            return scalar_zero_like(rows[0][0])
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        pivot = rows[c][c]
        det = det * pivot
        inv = 1 / pivot if isinstance(pivot, Fraction) else pivot.inv()
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[c])]
    return det


def matrix_power_is_zero(mat: Matrix) -> bool:
    """Nilpotency by repeated squaring: A**(2^k) with 2^k >= n vanishes iff nilpotent."""
    if not mat.is_square():
        raise ShapeError("nilpotency of non-square matrix")
    b = mat
    steps = max(1, mat.nrows.bit_length())
    for _ in range(steps):
        if b.is_zero():
            return True
        b = b @ b
    return b.is_zero()


def shift_diagonal(mat: Matrix, c) -> Matrix:
    """mat + c * I, changing only the diagonal."""
    if not mat.is_square():
        raise ShapeError("diagonal shift of non-square matrix")
    rows = [list(r) for r in mat.rows]
    for i, row in enumerate(rows):
        row[i] = row[i] + c
    return Matrix(rows)


# ---------------------------------------------------------------------------
# Polynomials over the scalar field (dense, low-to-high coefficients)
# ---------------------------------------------------------------------------

class Poly:
    """Dense univariate polynomial, used for minimal-polynomial arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = list(coeffs)
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        if not cs:
            cs = [ZERO]
        self.coeffs = cs

    @staticmethod
    def x() -> "Poly":
        return Poly([ZERO, ONE])

    @staticmethod
    def constant(c) -> "Poly":
        return Poly([c])

    def degree(self) -> int:
        if len(self.coeffs) == 1 and not self.coeffs[0]:
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree() == -1

    def leading(self):
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        lead = self.leading()
        if not lead:
            raise ShapeError("monic of zero polynomial")
        if lead == 1:
            return self
        inv = 1 / lead if isinstance(lead, Fraction) else lead.inv()
        return Poly([c * inv for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([scalar_zero_like(self.coeffs[0])])
        zero = scalar_zero_like(self.coeffs[0])
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = scalar_zero_like(other.coeffs[0])
        rem = list(self.coeffs)
        dn, dd = self.degree(), other.degree()
        if dn < dd:
            return Poly([zero]), Poly(rem)
        lead = other.leading()
        inv = 1 / lead if isinstance(lead, Fraction) else lead.inv()
        quot = [zero] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k] * inv
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] = rem[j + k] - c * b
        return Poly(quot), Poly(rem[:dd] if dd > 0 else [zero])

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([ZERO])
        g = self.gcd(other)
        q, r = (self * other).divmod(g)
        if not r.is_zero():
            raise InvariantViolation("lcm division left a remainder")
        return q.monic()

    def derivative(self) -> "Poly":
        if self.degree() < 1:
            return Poly([scalar_zero_like(self.coeffs[0])])
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_scalar(self, x):
        acc = scalar_zero_like(x)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, mat: Matrix) -> Matrix:
        n = mat.nrows
        acc = Matrix.zeros(n, n, like=mat.rows[0][0])
        for c in reversed(self.coeffs):
            acc = acc @ mat
            if c:
                acc = shift_diagonal(acc, c)
        return acc

    def is_squarefree(self) -> bool:
        g = self.gcd(self.derivative())
        return g.degree() <= 0

    def is_power_of_x(self) -> bool:
        return self.degree() >= 1 and all(not c for c in self.coeffs[:-1])

    def rational_roots(self) -> Optional[List[Fraction]]:
        """All roots with multiplicity if the polynomial splits over Q, else None.

        Repeated deflation by candidate roots from the rational root bound;
        only valid for Fraction coefficients.
        """
        p = self.monic()
        roots: List[Fraction] = []
        while p.degree() > 0:
            r = _find_rational_root(p)
            if r is None:
                return None
            roots.append(r)
            p, rem = p.divmod(Poly([-r, ONE]))
            if not rem.is_zero():
                raise InvariantViolation("deflation by a verified root left a remainder")
        return roots

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("%s*x" % c if c != 1 else "x")
            else:
                terms.append("%s*x^%d" % (c, i) if c != 1 else "x^%d" % i)
        return " + ".join(terms) if terms else "0"


def _find_rational_root(p: Poly) -> Optional[Fraction]:
    """One rational root of a monic Fraction polynomial, or None."""
    from math import gcd

    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in p.coeffs]
    if ints[0] == 0:
        return ZERO
    # monic p scaled by L: leading coeff L, constant ints[0]; roots are
    # divisors of ints[0]/gcd over divisors of L.
    a0 = abs(ints[0])
    an = abs(ints[-1])
    for q in _divisors(an):
        for pnum in _divisors(a0):
            for cand in (Fraction(pnum, q), Fraction(-pnum, q)):
                if p.eval_scalar(cand) == 0:
                    return cand
    return None


def _divisors(n: int) -> List[int]:
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            if f != n // f:
                out.append(n // f)
        f += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# Minimal polynomial and spectrum utilities
# ---------------------------------------------------------------------------

def minimal_polynomial(mat: Matrix) -> Poly:
    """Monic minimal polynomial via Krylov annihilators per basis seed.

    The annihilator of each standard basis vector is computed from the
    first linear dependence in its Krylov sequence; the minimal polynomial
    is the lcm over seeds, with early exit once the degree hits n.
    """
    if not mat.is_square():
        raise ShapeError("minimal polynomial of non-square matrix")
    n = mat.nrows
    like = mat.rows[0][0]
    zero = scalar_zero_like(like)
    one = scalar_one_like(like)
    m = Poly([one])
    for seed in range(n):
        if m.degree() == n:
            break
        v = [zero] * n
        v[seed] = one
        # Skip seeds already annihilated by the current candidate.
        if is_zero_vector(_apply_poly(mat, m, v)):
            continue
        ann = _vector_annihilator(mat, v)
        m = m.lcm(ann)
    return m.monic()


def _apply_poly(mat: Matrix, p: Poly, v: Vector) -> Vector:
    acc = [scalar_zero_like(v[0])] * len(v)
    for c in reversed(p.coeffs):
        acc = mat.matvec(acc)
        if c:
            acc = [a + c * b for a, b in zip(acc, v)]
    return acc


def _vector_annihilator(mat: Matrix, v: Vector) -> Poly:
    """Minimal monic q with q(mat) @ v = 0, via incremental echelon."""
    n = len(v)
    like = v[0]
    zero = scalar_zero_like(like)
    one = scalar_one_like(like)
    # echelon rows together with the polynomial combination that produced them
    ech: List[Vector] = []
    combos: List[List] = []
    lead_cols: List[int] = []
    cur = list(v)
    power = 0
    while True:
        combo = [zero] * (power + 1)
        combo[power] = one
        w = list(cur)
        for row, rcombo, lc in zip(ech, combos, lead_cols):
            if w[lc]:
                f = w[lc]
                w = [a - f * b if b else a for a, b in zip(w, row)]
                combo = _combo_sub(combo, f, rcombo, zero)
        lead = next((j for j, e in enumerate(w) if e), None)
        if lead is None:
            return Poly(combo).monic()
        pivot = w[lead]
        inv = 1 / pivot if isinstance(pivot, Fraction) else pivot.inv()
        ech.append([e * inv for e in w])
        combos.append([c * inv for c in combo])
        lead_cols.append(lead)
        if power + 1 > n:
            raise InvariantViolation("Krylov sequence failed to close")
        cur = mat.matvec(cur)
        power += 1


def _combo_sub(combo, f, rcombo, zero):
    out = list(combo)
    while len(out) < len(rcombo):
        out.append(zero)
    for i, c in enumerate(rcombo):
        if c:
            out[i] = out[i] - f * c
    return out


def is_semisimple_matrix(mat: Matrix) -> bool:
    """Semisimple iff the minimal polynomial is square-free."""
    return minimal_polynomial(mat).is_squarefree()


def is_nilpotent_matrix(mat: Matrix) -> bool:
    return matrix_power_is_zero(mat)


def is_unipotent_matrix(mat: Matrix) -> bool:
    return matrix_power_is_zero(shift_diagonal(mat, -1))


def split_rational_spectrum(mat: Matrix) -> Optional[List[Fraction]]:
    """Eigenvalues with multiplicity for a semisimple matrix split over Q.

    None means the minimal polynomial has an irrational root.  Callers
    must have established semisimplicity; a split minimal polynomial with
    deficient eigenspaces contradicts that and is raised loudly.
    """
    m = minimal_polynomial(mat)
    roots = m.rational_roots()
    if roots is None:
        return None
    out: List[Fraction] = []
    n = mat.nrows
    for r in sorted(set(roots)):
        mult = n - rank(shift_diagonal(mat, -r))
        out.extend([r] * mult)
    if len(out) != n:
        raise InvariantViolation(
            "split minimal polynomial but defective eigenspaces: matrix is not semisimple")
    return out


def integer_spectrum(mat: Matrix, bound: int) -> dict:
    """Multiplicity of each integer eigenvalue via kernel ranks.

    The caller asserts the matrix acts semisimply with integer eigenvalues
    in [-bound, bound].  Scans k = 0, 1, -1, 2, -2, ... and stops as soon
    as the multiplicities account for the whole dimension; if the bound is
    exhausted first, the asserted spectrum shape is wrong and that gets
    raised, never papered over.
    """
    if not mat.is_square():
        raise ShapeError("spectrum of non-square matrix")
    if bound < 0:
        raise ShapeError("negative spectrum bound")
    n = mat.nrows
    found = {}
    total = 0
    for k in _alternating_range(bound):
        mult = n - rank(shift_diagonal(mat, -k)) if k else n - rank(mat)
        if mult:
            found[k] = mult
            total += mult
            if total == n:
                return dict(sorted(found.items()))
    raise InvariantViolation(
        "non-integral or out-of-range spectrum: accounted %d of %d dimensions "
        "within |k| <= %d" % (total, n, bound))


def _alternating_range(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


# ---------------------------------------------------------------------------
# Subspace helpers (rows-as-vectors convention)
# ---------------------------------------------------------------------------

def echelon_subspace(vectors: Sequence[Vector]) -> List[Vector]:
    """Canonical (RREF-row) basis of the span of the given vectors."""
    vecs = [v for v in vectors if not is_zero_vector(v)]
    if not vecs:
        return []
    red, pivots = rref(Matrix(vecs))
    return red.rows[: len(pivots)]

def in_span(basis: Sequence[Vector], v: Vector) -> bool:
    if is_zero_vector(v):
        return True
    if not basis:
        return False
    return solve(Matrix.from_columns(list(basis)), v) is not None

def coords_in_basis(basis: Sequence[Vector], vectors: Sequence[Vector]) -> List[Vector]:
    """Coordinates of each vector in the given basis; raises if not in span."""
    if not basis:
        if all(is_zero_vector(v) for v in vectors):
            return [[] for _ in vectors]
        raise ShapeError("vector outside the zero subspace")
    sols = solve_many(Matrix.from_columns(list(basis)), list(vectors))
    if sols is None:
        raise ShapeError("vector outside the subspace span")
    return sols
