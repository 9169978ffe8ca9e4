"""Exact dense linear algebra over Q with one elimination routine.

Everything here is pure and deterministic: ``rref`` is the only
Gauss-Jordan loop, it always pivots on the first row with a nonzero entry
in the current column, and reduced row echelon form is canonical, so
ranks, kernel bases, solutions, echelon bases and Krylov annihilators are
reproducible across runs.  No floating point anywhere.  Entries are
rationals (Fraction, or int), scaled to integers by the lcm of their
denominators: ``rref`` eliminates over Z row by row, the products (``@``,
``matvec``, ``LieAlgebra.ad``) accumulate ints over nonzeros, and
``restrict_action`` reads images in sparse RREF rows at their pivots with
no solve; each builds one Fraction per nonzero output entry.  The one sparse
combination, ``int_combination``, runs over Z: the involution, automorphism
and Jacobi checks take it on the cached integer forms of theta and of the
structure constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InvariantViolation, ShapeError
from .scalars import ONE, ZERO

Vector = List
# The nonzero coordinates {index: value} of a vector.
SparseVector = Dict


def vec_scale(c, x: Vector) -> Vector:
    return [c * a if a else a for a in x]

def is_zero_vector(x: Vector) -> bool:
    return all(not a for a in x)

def nonzeros(x: Vector) -> SparseVector:
    """{i: x[i]} over the nonzero entries; the shared ZERO is skipped by identity."""
    return {i: a for i, a in enumerate(x) if a is not ZERO and a}


class Matrix:
    """Dense matrix over Q, immutable by convention.

    Rows are lists of rational entries.  Operations return new matrices;
    nothing but the cached integer form is set after construction, so
    instances are safe to share across threads.
    """

    __slots__ = ("rows", "nrows", "ncols", "_ints")

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
        self._ints = None

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix([list(r) for r in zip(*cols)])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(not e for r in self.rows for e in r)

    def transpose(self) -> "Matrix":
        return Matrix([list(c) for c in zip(*self.rows)])

    def trace(self):
        if not self.is_square():
            raise ShapeError("trace of non-square matrix")
        t = ZERO
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        return Matrix([vec_scale(c, r) for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ShapeError("matmul shape mismatch: %dx%d @ %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        width = other.ncols
        a_rows, a_scale = self.integer_rows()
        b_rows, b_scale = other.integer_rows()
        b_nz = [[(k, b) for k, b in enumerate(row) if b] for row in b_rows]
        out = []
        for row in a_rows:
            acc = [0] * width
            for j, a in enumerate(row):
                if a:
                    for k, b in b_nz[j]:
                        acc[k] += a * b
            out.append(rationals(acc, a_scale * b_scale))
        return Matrix(out)

    def matvec(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ShapeError("matvec length mismatch")
        rows, scale = self.integer_rows()
        ints, v_scale = integer_scaled(v)
        v_nz = [(j, c) for j, c in enumerate(ints) if c]
        return rationals([sum(row[j] * c for j, c in v_nz) for row in rows], scale * v_scale)

    def integer_rows(self) -> Tuple[List[List[int]], int]:
        """(rows times the lcm of all denominators, that lcm), built on first use."""
        if self._ints is None:
            flat, scale = integer_scaled([e for row in self.rows for e in row])
            self._ints = [flat[i:i + self.ncols] for i in range(0, len(flat), self.ncols)], scale
        return self._ints

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
    Elimination is fraction-free: each row is scaled to integers once, and
    a row is only ever replaced by an integer combination of itself and
    the pivot row, which spans the same row space.  When the pivot p
    divides the entry f to clear, the row becomes row - (f/p) * pivot row;
    otherwise it becomes (p/g) * row - (f/g) * pivot row with g = gcd(p, f),
    divided by the gcd of its entries.  Only the nonzero entries of the
    pivot row are touched: left of its pivot column that row is zero.
    Rationals are built once at the end, dividing each pivot row by its
    pivot; the rows past the rank are zero.
    """
    rows = [integer_scaled(r)[0] for r in mat.rows]
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
        p = prow[c]
        nz = [(j, prow[j]) for j in range(c, n) if prow[j]]
        for i in range(m):
            ri = rows[i]
            f = ri[c]
            if f and i != r:
                q, rest = divmod(f, p)
                if rest:
                    g = gcd(p, f)
                    a, q = p // g, f // g
                    ri = [a * x for x in ri]
                for j, b in nz:
                    ri[j] -= q * b
                if rest:
                    g = gcd(*ri)
                    rows[i] = [x // g for x in ri] if g > 1 else ri
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = [_pivot_row(rows[t], c) for t, c in enumerate(pivots)]
    out += [[ZERO] * n for _ in range(m - r)]
    return Matrix(out), pivots


def integer_scaled(entries: Sequence) -> Tuple[List[int], int]:
    """(ints, scale): the rationals times the lcm of their denominators.  The
    shared ZERO is skipped by identity; any other zero reads as 0 over 1."""
    nz = [(j, e.as_integer_ratio()) for j, e in enumerate(entries) if e is not ZERO]
    out = [0] * len(entries)
    scale = lcm(*(q for _, (_, q) in nz))
    for j, (p, q) in nz:
        out[j] = p * (scale // q)
    return out, scale


def rationals(ints: Sequence[int], scale: int) -> Vector:
    """ints / scale: one Fraction per nonzero, the shared ZERO elsewhere."""
    return [Fraction(v, scale) if v else ZERO for v in ints]


def _pivot_row(row: List[int], c: int) -> Vector:
    """The integer pivot row divided by its entry at the pivot column c, as Fractions."""
    p = row[c]
    out = [ZERO] * len(row)
    for j in range(c, len(row)):
        x = row[j]
        if x:
            out[j] = ONE if x == p else Fraction(x, p)
    return out


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1])


def kernel_basis(mat: Matrix) -> List[Vector]:
    """Canonical basis of the right kernel, echelonized as rows.

    Basis vectors are linearly independent, annihilated by the matrix, and
    their count is ncols - rank.
    """
    return echelon_subspace(_null_vectors(mat))


def kernel_in_span(mat: Matrix, span: Sequence[Vector]) -> List[Vector]:
    """Canonical (RREF-row) basis of {v in span(span) : mat @ v = 0}.

    The null vectors of mat @ S (S: span vectors as columns) are mapped back
    through S and echelonized once; a dependent span only adds zero images.
    """
    if not span:
        return []
    sub = Matrix.from_columns(list(span))
    return echelon_subspace([sub.matvec(k) for k in _null_vectors(mat @ sub)])


def _null_vectors(mat: Matrix) -> List[Vector]:
    """One kernel vector per free column of rref(mat): 1 there, 0 at other free columns."""
    red, pivots = rref(mat)
    n = mat.ncols
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    vecs = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        for t, pc in enumerate(pivots):
            v[pc] = -red.rows[t][fc]
        vecs.append(v)
    return vecs


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
    aug = Matrix([row + [b[i] for b in bs] for i, row in enumerate(mat.rows)])
    red, pivots = rref(aug)
    # rows past the rank are zero, so an inconsistent rhs shows as a pivot
    # at a column >= n
    if pivots and pivots[-1] >= n:
        return None
    outs = []
    for j in range(len(bs)):
        x = [ZERO] * n
        for t, pc in enumerate(pivots):
            x[pc] = red.rows[t][n + j]
        outs.append(x)
    return outs


def inverse(mat: Matrix) -> Matrix:
    if not mat.is_square():
        raise ShapeError("inverse of non-square matrix")
    n = mat.nrows
    ident = Matrix.identity(n)
    aug = Matrix([mat.rows[i] + ident.rows[i] for i in range(n)])
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    return Matrix([r[n:] for r in red.rows])


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
        inv = 1 / lead
        return Poly([c * inv for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([ZERO])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
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
        rem = list(self.coeffs)
        dn, dd = self.degree(), other.degree()
        if dn < dd:
            return Poly([ZERO]), Poly(rem)
        inv = 1 / other.leading()
        quot = [ZERO] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k] * inv
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] = rem[j + k] - c * b
        return Poly(quot), Poly(rem[:dd] if dd > 0 else [ZERO])

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
            return Poly([ZERO])
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def is_squarefree(self) -> bool:
        g = self.gcd(self.derivative())
        return g.degree() <= 0

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
    m = Poly([ONE])
    for seed in range(n):
        if m.degree() == n:
            break
        v = [ZERO] * n
        v[seed] = ONE
        # Skip seeds already annihilated by the current candidate.
        if is_zero_vector(_apply_poly(mat, m, v)):
            continue
        ann = _vector_annihilator(mat, v)
        m = m.lcm(ann)
    return m.monic()


def _apply_poly(mat: Matrix, p: Poly, v: Vector) -> Vector:
    acc = [ZERO] * len(v)
    for c in reversed(p.coeffs):
        acc = mat.matvec(acc)
        if c:
            acc = [a + c * b for a, b in zip(acc, v)]
    return acc


def _vector_annihilator(mat: Matrix, v: Vector) -> Poly:
    """Minimal monic q with q(mat) @ v = 0, from one rref of the Krylov columns.

    Among v, Av, ..., A^n v the first k columns are independent and every
    later one lies in their span, so the pivots are exactly 0..k-1 and
    column k of the reduced form holds A^k v in the basis v, ..., A^(k-1) v.
    """
    krylov = [list(v)]
    for _ in range(len(v)):
        krylov.append(mat.matvec(krylov[-1]))
    red, pivots = rref(Matrix.from_columns(krylov))
    k = len(pivots)
    if pivots != list(range(k)):
        raise InvariantViolation("Krylov pivots %s are not a prefix" % pivots)
    return Poly([-red.rows[t][k] for t in range(k)] + [ONE])


def is_semisimple_matrix(mat: Matrix) -> bool:
    """Semisimple iff the minimal polynomial is square-free."""
    return minimal_polynomial(mat).is_squarefree()


def is_nilpotent_matrix(mat: Matrix) -> bool:
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


def is_unipotent_matrix(mat: Matrix) -> bool:
    return is_nilpotent_matrix(shift_diagonal(mat, -1))


def integer_spectrum(mat: Matrix, bound: int) -> dict:
    """Multiplicity of each integer eigenvalue k, counted as n - rank(mat - k).

    The caller asserts the matrix acts semisimply with integer eigenvalues
    in [-bound, bound].  Probes k = 0, 1, -1, 2, -2, ..., taking first the
    diagonal entries of a triangular matrix, which are its eigenvalues, and
    stops as soon as the multiplicities account for the whole dimension; if
    the bound is exhausted first, the asserted spectrum shape is wrong and
    that gets raised, never papered over.
    """
    if not mat.is_square():
        raise ShapeError("spectrum of non-square matrix")
    if bound < 0:
        raise ShapeError("negative spectrum bound")
    n = mat.nrows
    found = {}
    total = 0
    rows = mat.rows
    triangular = (all(not rows[i][j] for i in range(n) for j in range(i))
                  or all(not rows[j][i] for i in range(n) for j in range(i)))
    diagonal = {rows[i][i] for i in range(n)} if triangular else ()
    for k in sorted(range(-bound, bound + 1), key=lambda k: (k not in diagonal, abs(k), k < 0)):
        mult = n - rank(shift_diagonal(mat, -k) if k else mat)
        if mult:
            found[k] = mult
            total += mult
            if total == n:
                return dict(sorted(found.items()))
    raise InvariantViolation(
        "non-integral or out-of-range spectrum: weights %s account for %d of %d "
        "dimensions within |k| <= %d" % (sorted(found), total, n, bound))


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


def is_reduced_echelon(rows: Sequence[SparseVector]) -> bool:
    """Whether sparse rows are in RREF: nonzero, rising pivots, each 1 and alone in its column."""
    if not all(rows):
        return False
    pivots = [min(r) for r in rows]
    return (all(p < q for p, q in zip(pivots, pivots[1:]))
            and all(r[p] == 1 for r, p in zip(rows, pivots))
            and all(p not in r for i, r in enumerate(rows)
                    for j, p in enumerate(pivots) if i != j))


def echelon_rows(rows: Sequence[SparseVector], dim: int) -> List[SparseVector]:
    """Sparse RREF rows of span(rows) in a dim-dimensional space: the rows
    themselves when they are in RREF already, else those of echelon_subspace."""
    if is_reduced_echelon(rows):
        return list(rows)
    return [nonzeros(v) for v in echelon_subspace([[r.get(i, ZERO) for i in range(dim)]
                                                  for r in rows])]


def restrict_action(rows: Sequence[SparseVector], actions: Iterable,
                    modulo: Sequence[SparseVector] = ()) -> List[Optional[Vector]]:
    """Coordinates of linear images of sparse RREF rows, read at their pivots over Z.

    Each action (cols, s, start) maps rows[start:] by the columns cols[l] / s,
    giving one entry per image, in order.  With the rows scaled to ints once
    (row t is L at its pivot p_t and 0 at the other pivots), an image V / S
    lies in the span iff L V = sum_t V[p_t] row_t, and its coordinates are
    then V[p_t] / S; else its entry is None.  Modulo (RREF rows at whose
    pivots the rows vanish) reduces V first.
    """
    (ints, scale), (mod, mod_scale) = _scaled_rows(rows), _scaled_rows(modulo)
    support = set().union(*(row for _, row in ints))
    out = []
    for cols, s, start in actions:
        nz = {l: [(k, c) for k, c in enumerate(cols[l]) if c] for l in support}
        for _, row in ints[start:]:
            v = _residual(int_combination((b, nz[l]) for l, b in row.items()), mod, mod_scale)
            out.append(None if _residual(v, ints, scale)
                       else rationals([v.get(p, 0) for p, _ in ints], s * scale * mod_scale))
    return out


def _scaled_rows(rows: Sequence[SparseVector]) -> Tuple[List[Tuple[int, Dict[int, int]]], int]:
    """(pivot, nonzeros over Z) per sparse row, all scaled by the lcm of their denominators."""
    ints, scale = integer_scaled([a for r in rows for a in r.values()])
    it = iter(ints)
    return [(min(r), {k: next(it) for k in r}) for r in rows], scale


def _residual(v: Dict[int, int], rows, scale: int) -> Dict[int, int]:
    """scale * v - sum v[p] * row over the (p, row) pairs of _scaled_rows: zero at each p."""
    return int_combination([(scale, v.items())]
                            + [(-v[p], row.items()) for p, row in rows if p in v])


def int_combination(terms: Iterable) -> Dict[int, int]:
    """The nonzeros of sum c * row over (c, row) terms, each row a sequence of
    (index, value): over Z, so no Fraction enters."""
    acc: Dict[int, int] = {}
    for c, row in terms:
        for k, a in row:
            acc[k] = acc.get(k, 0) + c * a
    return {k: a for k, a in acc.items() if a}
