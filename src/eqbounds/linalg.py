"""Exact rational linear algebra.

Everything in this module works over `fractions.Fraction`; there is no
floating point anywhere.  Matrices are immutable, dense, row-major.
Vectors are plain tuples of Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Fraction
QVector = tuple[Fraction, ...]
Scalar = Union[int, Fraction]


class LinAlgError(Exception):
    pass


class NonSquareError(LinAlgError):
    pass


class SingularMatrixError(LinAlgError):
    pass


class ZeroMatrixError(LinAlgError):
    pass


class DimensionMismatchError(LinAlgError):
    pass


def qvec(entries: Iterable[Scalar]) -> QVector:
    return tuple(Fraction(e) for e in entries)


def rational_to_text(q: Fraction) -> str:
    """"p/q" in lowest terms, "p" when the denominator is 1."""
    return str(q)


class QMatrix:
    """Immutable dense matrix of Fractions (rows >= 0, cols >= 1)."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Iterable[Iterable[Scalar]], cols: int | None = None):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise DimensionMismatchError("ragged rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError(f"expected {cols} columns, got {width}")
        else:
            if cols is None:
                raise DimensionMismatchError("empty matrix needs an explicit column count")
            width = cols
        if width < 1:
            raise DimensionMismatchError("column count must be >= 1")
        self.rows = len(grid)
        self.cols = width
        self._e = grid

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    def row(self, i: int) -> QVector:
        return self._e[i]

    def entry(self, i: int, j: int) -> Fraction:
        return self._e[i][j]

    def row_list(self) -> list[list[Fraction]]:
        return [list(r) for r in self._e]

    def __matmul__(self, other: Union["QMatrix", Sequence[Scalar]]) -> Union["QMatrix", QVector]:
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(f"{self.shape} @ {other.shape}")
            cols = other.cols
            out = []
            for r in self._e:
                out.append(
                    [sum((r[k] * other._e[k][j] for k in range(self.cols)), Fraction(0)) for j in range(cols)]
                )
            return QMatrix(out, cols=cols)
        v = tuple(Fraction(x) for x in other)
        if self.cols != len(v):
            raise DimensionMismatchError(f"{self.shape} @ vector of length {len(v)}")
        return tuple(sum((r[k] * v[k] for k in range(self.cols)), Fraction(0)) for r in self._e)

    def augment(self, b: Sequence[Scalar]) -> "QMatrix":
        if len(b) != self.rows:
            raise DimensionMismatchError("right-hand side length mismatch")
        return QMatrix([list(r) + [Fraction(x)] for r, x in zip(self._e, b)], cols=self.cols + 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QMatrix) and self.shape == other.shape and self._e == other._e

    def __hash__(self) -> int:
        return hash((self.shape, self._e))

    def __repr__(self) -> str:
        return f"QMatrix({[[str(x) for x in r] for r in self._e]})"


def transpose(m: QMatrix) -> QMatrix:
    if m.rows == 0:
        raise DimensionMismatchError("cannot transpose a matrix with no rows")
    return QMatrix([[m.entry(i, j) for i in range(m.rows)] for j in range(m.cols)], cols=m.rows)


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the (0-based, increasing) pivot columns."""
    a = m.row_list()
    rows, cols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return QMatrix(a, cols=cols), tuple(pivots)


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def _det_bareiss_int(a: list[list[int]]) -> int:
    """Fraction-free elimination on an integer matrix; interior divisions exact."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _max_abs_maximal_minor_int(a: list[Sequence[int]]) -> int:
    """Largest |det| over the minors of an r x (r+1) integer matrix that
    delete one column.  The list `a` is reordered and its rows replaced;
    the row objects themselves are never written to.

    One fraction-free Gauss-Jordan elimination (Bareiss steps applied to
    the rows above the pivot as well, every division exact) ends with
    each pivot-column entry equal to the last pivot d and the one free
    column holding f.  Up to sign, d is the minor that deletes the free
    column and f_i the minor that deletes the i-th pivot column
    (Cramer), so together they are the kernel vector of the matrix.  A
    second column without a pivot means rank < r: every minor is 0.
    """
    rows = len(a)
    prev = 1
    free = rows  # the last column when every earlier column gets a pivot
    r = 0
    for c in range(rows + 1):
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][c]:
                break
        else:
            if free != rows:
                return 0
            free = c
            continue
        a[r], a[i] = a[i], a[r]
        prow = a[r]
        p = prow[c]
        for i in range(rows):
            if i != r:
                f = a[i][c]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
                elif p != prev:
                    a[i] = [p * x // prev for x in a[i]]
        prev = p
        r += 1
    return max(abs(prev), *(abs(row[free]) for row in a))


def _integer_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """Rows scaled to integers by the lcm of their denominators, and the
    product of those factors."""
    scale = 1
    grid: list[list[int]] = []
    for row in rows:
        row = [Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        grid.append([int(x * mult) for x in row])
    return grid, scale


def det_bareiss(m: QMatrix) -> Fraction:
    """Exact determinant.

    Integer matrices go through fraction-free (Bareiss) elimination.  A
    matrix with non-integer entries is cleared to integers by scaling
    each row with the lcm of its denominators, and the determinant is
    rescaled by the product of those factors afterwards.
    """
    if m.rows != m.cols:
        raise NonSquareError(f"determinant of {m.shape} matrix")
    if m.rows == 0:
        return Fraction(1)
    grid, scale = _integer_rows(m.row(i) for i in range(m.rows))
    return Fraction(_det_bareiss_int(grid), scale)


def inverse(a: QMatrix) -> QMatrix:
    """Exact inverse by Gauss-Jordan; raises SingularMatrixError."""
    if a.rows != a.cols:
        raise NonSquareError(f"inverse of {a.shape} matrix")
    n = a.rows
    aug = [list(a.row(i)) + [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return QMatrix([row[n:] for row in aug], cols=n)


def solve_cramer(a: QMatrix, b: Sequence[Scalar]) -> QVector:
    """Exact solution of a*x = b for square invertible a, each x_i a
    quotient of two determinants (Cramer)."""
    if a.rows != a.cols:
        raise NonSquareError(f"solve with {a.shape} matrix")
    if len(b) != a.rows:
        raise DimensionMismatchError("right-hand side length mismatch")
    n = a.rows
    d = det_bareiss(a)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    bb = qvec(b)
    out = []
    for j in range(n):
        cols = [[bb[i] if k == j else a.entry(i, k) for k in range(n)] for i in range(n)]
        out.append(det_bareiss(QMatrix(cols)) / d)
    return tuple(out)


def rank_factorization(a: QMatrix) -> tuple[QMatrix, QMatrix]:
    """a = f*g with f the pivot columns of a and g the nonzero rows of rref(a)."""
    reduced, pivots = rref(a)
    r = len(pivots)
    if r == 0:
        raise ZeroMatrixError("rank 0 matrix has no rank factorization")
    f = QMatrix([[a.entry(i, c) for c in pivots] for i in range(a.rows)], cols=r)
    g = QMatrix([reduced.row(i) for i in range(r)], cols=a.cols)
    return f, g


def pseudoinverse(a: QMatrix) -> QMatrix:
    """Exact Moore-Penrose pseudoinverse.

    Computed from a rank factorization a = f*g as
    g^T (g g^T)^-1 (f^T f)^-1 f^T; the two small inverses exist because f
    has full column rank and g full row rank.  The zero matrix maps to
    the zero matrix of transposed shape.
    """
    if a.rows == 0:
        raise DimensionMismatchError("pseudoinverse of a 0-row matrix is not representable")
    try:
        f, g = rank_factorization(a)
    except ZeroMatrixError:
        return QMatrix.zeros(a.cols, a.rows)
    ft, gt = transpose(f), transpose(g)
    middle = inverse(g @ gt) @ inverse(ft @ f)
    return (gt @ middle) @ ft


def min_norm_solution(a: QMatrix, b: Sequence[Scalar]) -> QVector:
    """Least-squares solution of minimal Euclidean norm: pseudoinverse(a) @ b.

    An empty system (no rows) is solved by the zero vector.
    """
    if len(b) != a.rows:
        raise DimensionMismatchError("right-hand side length mismatch")
    if a.rows == 0:
        return (Fraction(0),) * a.cols
    return pseudoinverse(a) @ qvec(b)


def is_consistent(a: QMatrix, b: Sequence[Scalar]) -> bool:
    """True iff rank(a) = rank([a|b]); an empty row set is vacuously consistent."""
    if a.rows == 0:
        return True
    return rank(a) == rank(a.augment(b))
