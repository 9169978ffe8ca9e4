"""Finite-dimensional Lie algebras over Q via structure constants.

An algebra carries its basis labels, the structure constants as sparse
rows -- [e_i, e_j] = sum_k c_k e_k stored as (i, j) -> ((k, c_k), ...)
over the nonzero c_k only, with zero brackets not stored -- and
optionally a faithful matrix realization (one square rational matrix per
basis element) plus, for algebras obtained by a quadratic base change,
the Galois conjugation as a linear map on coordinates.

The structure constants have one integer form, ``int_structure``, built on
first use; ad and the Jacobi check run over Z on it.  Vectors are coordinate
lists over the basis.  All operations are pure; instances never mutate
after construction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import PreconditionError, ShapeError
from .linalg import (
    Matrix,
    SparseVector,
    Vector,
    int_combination,
    integer_scaled,
    is_zero_vector,
    kernel_basis,
    nonzeros,
    rationals,
)
from .scalars import ONE, ZERO, is_square_free_non_square, rat

SparseRow = Tuple[Tuple[int, Fraction], ...]
SparseRows = Mapping[Tuple[int, int], SparseRow]
DenseTable = List[List[List[Fraction]]]


class LieAlgebra:
    """Structure constants are given either as sparse rows {(i, j): ((k, c), ...)},
    each listing increasing k with nonzero c, or as a dense table c[i][j][k],
    which is converted to sparse rows once.
    """

    def __init__(self, labels: Sequence[str], structure: Union[SparseRows, DenseTable],
                 realization: Optional[List[Matrix]] = None,
                 conjugation: Optional[Matrix] = None,
                 validate: str = "basic"):
        self.labels = list(labels)
        self.dim = len(self.labels)
        # _rows[i][j] is the sparse row of [e_i, e_j]; missing j means zero.
        self._rows: List[Dict[int, SparseRow]] = self._read_structure(structure)
        self.realization = realization
        self.conjugation = conjugation
        self._realization_nz: Optional[List[Dict[Tuple[int, int], Fraction]]] = None
        self._killing: Optional[Matrix] = None
        self._trace_form: Optional[Matrix] = None
        if realization is not None:
            if len(realization) != self.dim:
                raise ShapeError("realization must supply one matrix per basis element")
            sz = realization[0].nrows
            if any(not m.is_square() or m.nrows != sz for m in realization):
                raise ShapeError("realization matrices must be square of equal size")
        if validate == "basic":
            self._check_antisymmetry()
        elif validate == "full":
            self._check_antisymmetry()
            self.check_jacobi()
            if realization is not None:
                self.check_realization()
        elif validate != "none":
            raise ShapeError("unknown validation level %r" % validate)

    def _read_structure(self, structure) -> List[Dict[int, SparseRow]]:
        d = self.dim
        if not isinstance(structure, Mapping):
            if len(structure) != d or any(len(r) != d or any(len(cell) != d for cell in r)
                                          for r in structure):
                raise ShapeError("structure-constant table has wrong shape")
            structure = {(i, j): tuple((k, c) for k, c in enumerate(cell) if c)
                         for i, r in enumerate(structure) for j, cell in enumerate(r)}
        rows: List[Dict[int, SparseRow]] = [{} for _ in range(d)]
        for (i, j), row in structure.items():
            if row:
                rows[i][j] = tuple(row)
        return rows

    # -- structure access ---------------------------------------------------

    def sparse_row(self, i: int, j: int) -> SparseRow:
        return self._rows[i].get(j, ())

    def sparse_rows(self) -> Dict[Tuple[int, int], SparseRow]:
        """Every nonzero bracket of basis elements, keyed by (i, j)."""
        return {(i, j): row for i, left in enumerate(self._rows) for j, row in left.items()}

    def zero_vector(self) -> Vector:
        return [ZERO] * self.dim

    def basis_vector(self, i: int) -> Vector:
        v = self.zero_vector()
        v[i] = ONE
        return v

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y] on coordinate lists: bracket_sparse on their nonzeros, written out densely."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError("bracket operands must have length %d" % self.dim)
        out = self.zero_vector()
        for k, v in self.bracket_sparse(nonzeros(x), nonzeros(y)).items():
            out[k] = v
        return out

    def bracket_sparse(self, x: SparseVector, y: SparseVector) -> SparseVector:
        """[x, y] on vectors given by their nonzero coordinates, returned likewise.

        Each nonzero of x meets the nonzeros of y through its sparse rows, from
        whichever side is shorter, so no dense coordinate list is scanned.
        """
        out: Dict[int, Fraction] = {}
        for i, a in x.items():
            left = self._rows[i]
            if len(y) <= len(left):
                pairs = ((b, left.get(j)) for j, b in y.items())
            else:
                pairs = ((y.get(j), row) for j, row in left.items())
            for b, row in pairs:
                if b is not None and row:
                    ab = a * b
                    for k, c in row:
                        out[k] = out.get(k, ZERO) + ab * c
        return {k: v for k, v in out.items() if v}

    def ad(self, x: Vector) -> Matrix:
        """Matrix of y -> [x, y] in the algebra basis, from ad_columns."""
        cols, scale = self.ad_columns(x)
        return Matrix.from_columns([rationals(col, scale) for col in cols])

    @cached_property
    def int_structure(self) -> Tuple[List[Dict[int, Tuple[Tuple[int, int], ...]]], int]:
        """(rows, s): the sparse rows with every structure constant times s, the
        lcm of all their denominators; the one integer form of the constants."""
        ints, scale = integer_scaled([c for left in self._rows for row in left.values()
                                      for _, c in row])
        it = iter(ints)
        return [{j: tuple((k, next(it)) for k, _ in row) for j, row in left.items()}
                for left in self._rows], scale

    def ad_columns(self, x: Vector) -> Tuple[List[List[int]], int]:
        """(cols, s): column j of ad x is cols[j] / s, accumulated over Z on
        int_structure."""
        if len(x) != self.dim:
            raise ShapeError("ad operand must have length %d" % self.dim)
        rows, c_scale = self.int_structure
        ints, x_scale = integer_scaled(x)
        cols = [[0] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(ints):
            if not a:
                continue
            for j, row in rows[i].items():
                col = cols[j]
                for k, c in row:
                    col[k] += a * c
        return cols, x_scale * c_scale

    def _realization_nonzeros(self) -> List[Dict[Tuple[int, int], Fraction]]:
        """Per basis element, the nonzero entries {(r, c): v} of its realization."""
        if self.realization is None:
            raise ShapeError("algebra has no matrix realization")
        if self._realization_nz is None:
            self._realization_nz = [
                {(r, c): v for r, row in enumerate(m.rows) for c, v in enumerate(row) if v}
                for m in self.realization
            ]
        return self._realization_nz

    def _realize_sparse(self, coeffs) -> Matrix:
        """Sum of c * realization[i] over the (i, c) pairs, nonzeros only."""
        nz = self._realization_nonzeros()
        size = self.realization[0].nrows
        rows = [[ZERO] * size for _ in range(size)]
        for i, c in coeffs:
            for (r, s), v in nz[i].items():
                rows[r][s] += c * v
        return Matrix(rows)

    def realize(self, x: Vector) -> Matrix:
        return self._realize_sparse((i, c) for i, c in enumerate(x) if c)

    # -- invariant forms ----------------------------------------------------

    def killing_form(self) -> Matrix:
        """Gram matrix of (x, y) -> tr(ad x . ad y)."""
        if self._killing is None:
            # ad(e_i) has entry c at (k, j) for every (k, c) in the row of [e_i, e_j].
            ads = [{(k, j): c for j, row in left.items() for k, c in row} for left in self._rows]
            self._killing = _trace_pairing(ads)
        return self._killing

    def trace_form(self) -> Matrix:
        """Gram matrix of (x, y) -> tr(rho(x) rho(y)) in the realization."""
        if self.realization is None:
            raise ShapeError("trace form requires a matrix realization")
        if self._trace_form is None:
            self._trace_form = _trace_pairing(self._realization_nonzeros())
        return self._trace_form

    # -- subspaces ------------------------------------------------------------

    def centralizer(self, elements: Sequence[Vector]) -> List[Vector]:
        """Echelon basis of {y : [s, y] = 0 for all s in elements}."""
        ads = [self.ad(s) for s in elements if not is_zero_vector(s)]
        if not ads:
            return [self.basis_vector(i) for i in range(self.dim)]
        stacked = Matrix([row for m in ads for row in m.rows])
        return kernel_basis(stacked)

    # -- validation -----------------------------------------------------------

    def _check_antisymmetry(self):
        for i, left in enumerate(self._rows):
            if i in left:
                raise ShapeError("nonzero bracket [e_%d, e_%d]" % (i, i))
            for j, row in left.items():
                if tuple((k, -c) for k, c in row) != self.sparse_row(j, i):
                    raise ShapeError("structure constants not antisymmetric at (%d, %d)"
                                     % (min(i, j), max(i, j)))

    def check_jacobi(self):
        """Jacobi identity on all basis triples (i < j < k suffices by antisymmetry),
        over Z on int_structure: scaling every constant by s scales each sum by s^2."""
        rows = self.int_structure[0]
        for i, j, k in itertools.combinations(range(self.dim), 3):
            # [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
            cyclic = ((rows[i].get(j, ()), k), (rows[j].get(k, ()), i), (rows[k].get(i, ()), j))
            if int_combination((a, rows[l].get(m, ())) for first, m in cyclic for l, a in first):
                raise ShapeError("Jacobi identity fails on basis triple (%d, %d, %d)" % (i, j, k))

    def check_realization(self):
        if self.realization is None:
            return
        for i in range(self.dim):
            ri = self.realization[i]
            for j in range(i + 1, self.dim):
                rj = self.realization[j]
                comm = ri @ rj - rj @ ri
                if comm != self._realize_sparse(self.sparse_row(i, j)):
                    raise ShapeError("realization commutator disagrees with structure constants "
                                     "at (%d, %d)" % (i, j))


def _trace_pairing(mats: Sequence[Dict[Tuple[int, int], Fraction]]) -> Matrix:
    """Gram matrix of tr(M_i M_j) for matrices given by their nonzeros {(r, c): v}."""
    d = len(mats)
    gram = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        mi = mats[i]
        for j in range(i, d):
            mj = mats[j]
            s = ZERO
            for (r, c), v in mi.items():
                w = mj.get((c, r))
                if w:
                    s += v * w
            gram[i][j] = s
            gram[j][i] = s
    return Matrix(gram)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_gl(n: int) -> LieAlgebra:
    """gl_n over Q with the defining matrix realization.

    Basis E(a,b) in row-major order; [E(a,b), E(c,d)] = delta(b,c) E(a,d)
    - delta(d,a) E(c,b).
    """
    if n < 1:
        raise PreconditionError("gl_n needs n >= 1")
    labels = ["E%d_%d" % (a + 1, b + 1) for a in range(n) for b in range(n)]

    def idx(a, b):
        return a * n + b

    rows = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b != c and e != a:
                        continue
                    coeffs: Dict[int, Fraction] = {}
                    if b == c:
                        coeffs[idx(a, e)] = ONE
                    if e == a:
                        coeffs[idx(c, b)] = coeffs.get(idx(c, b), ZERO) - ONE
                    row = tuple((k, c) for k, c in sorted(coeffs.items()) if c)
                    if row:
                        rows[idx(a, b), idx(c, e)] = row
    realization = []
    for a in range(n):
        for b in range(n):
            m = [[ZERO] * n for _ in range(n)]
            m[a][b] = ONE
            realization.append(Matrix(m))
    return LieAlgebra(labels, rows, realization=realization, validate="none")


def _shifted(row: SparseRow, offset: int) -> SparseRow:
    return tuple((offset + k, c) for k, c in row)


def build_product(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Direct sum with componentwise bracket; realization is block diagonal."""
    d1 = g1.dim
    labels = ["l.%s" % s for s in g1.labels] + ["r.%s" % s for s in g2.labels]
    rows = g1.sparse_rows()
    for (i, j), row in g2.sparse_rows().items():
        rows[d1 + i, d1 + j] = _shifted(row, d1)
    realization = None
    if g1.realization is not None and g2.realization is not None:
        n1 = g1.realization[0].nrows
        n2 = g2.realization[0].nrows
        realization = []
        for m in g1.realization:
            realization.append(_embed_block(m, 0, n1 + n2))
        for m in g2.realization:
            realization.append(_embed_block(m, n1, n1 + n2))
    return LieAlgebra(labels, rows, realization=realization, validate="none")


def _embed_block(m: Matrix, offset: int, size: int) -> Matrix:
    rows = [[ZERO] * size for _ in range(size)]
    for i, row in enumerate(m.rows):
        for j, v in enumerate(row):
            if v:
                rows[offset + i][offset + j] = v
    return Matrix(rows)


def build_quadratic_extension(g: LieAlgebra, disc) -> LieAlgebra:
    """Base change to Q(sqrt(disc)) viewed over Q: the basis doubles.

    New basis: e_i (plain copy) followed by w*e_i where w**2 = disc.
    Brackets: [e_i, w e_j] = w [e_i, e_j] and [w e_i, w e_j] = disc [e_i, e_j].
    The realization sends A + B w to [[A, disc B], [B, A]], which is also how
    a quadratic_ext group element is given.  The Galois conjugation
    (w -> -w) is stored as a linear map.
    """
    disc = rat(disc)
    if disc.denominator != 1 or not is_square_free_non_square(int(disc)):
        raise PreconditionError("discriminant must be a square-free non-square integer, got %s" % disc)
    d = g.dim
    dd = 2 * d
    labels = list(g.labels) + ["w*%s" % s for s in g.labels]
    rows = {}
    for (i, j), row in g.sparse_rows().items():
        rows[i, j] = row
        rows[i, d + j] = rows[d + i, j] = _shifted(row, d)
        rows[d + i, d + j] = tuple((k, disc * c) for k, c in row)
    realization = None
    if g.realization is not None:
        n = g.realization[0].nrows
        realization = []
        for m in g.realization:
            realization.append(_regular_rep_block(m, n, disc, plain=True))
        for m in g.realization:
            realization.append(_regular_rep_block(m, n, disc, plain=False))
    conj_rows = [[ZERO] * dd for _ in range(dd)]
    for i in range(d):
        conj_rows[i][i] = ONE
        conj_rows[d + i][d + i] = -ONE
    return LieAlgebra(labels, rows, realization=realization,
                      conjugation=Matrix(conj_rows), validate="none")


def _regular_rep_block(m: Matrix, n: int, disc: Fraction, plain: bool) -> Matrix:
    """Realize m (plain) or w*m over Q on Q^n + w Q^n: [[A, disc*B], [B, A]]."""
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i, row in enumerate(m.rows):
        for j, v in enumerate(row):
            if not v:
                continue
            if plain:
                rows[i][j] = v
                rows[n + i][n + j] = v
            else:
                rows[i][n + j] = disc * v
                rows[n + i][j] = v
    return Matrix(rows)

