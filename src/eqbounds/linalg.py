"""Exact rational linear algebra, with no floating point anywhere.

A `QMatrix` is immutable, dense and row-major: integer numerators over
one positive denominator, divided by their gcd, so equal matrices have
equal storage.  A `Fraction` is made only when a caller reads a row, an
entry or a matrix-vector product; vectors are tuples of Fractions.
Elimination is fraction-free (Bareiss 1968): one Gauss-Jordan kernel
serves `rref`, `inverse` and the conj2 maximal minors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

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


def _over_common_denominator(v: QVector) -> tuple[list[int], int]:
    """Integer numerators of v over the lcm of its denominators, and that lcm."""
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


class QMatrix:
    """Immutable dense rational matrix (rows >= 0, cols >= 1)."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, entries: Iterable[Iterable[Scalar]], cols: int | None = None):
        grid = tuple(qvec(row) for row in entries)
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
        den = lcm(*(x.denominator for row in grid for x in row))
        self.rows = len(grid)
        self.cols = width
        self._num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in grid)
        self._den = den

    @classmethod
    def _of(cls, num: Iterable[Iterable[int]], den: int, cols: int) -> "QMatrix":
        """The matrix num / den (den != 0), normalised; no validation."""
        num = tuple(map(tuple, num))
        g = gcd(den, *(x for row in num for x in row)) * (1 if den > 0 else -1)
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
        m = object.__new__(cls)
        m.rows, m.cols, m._num, m._den = len(num), cols, num, den // g
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of([[0] * cols] * rows, 1, cols)

    def row(self, i: int) -> QVector:
        return tuple(Fraction(x, self._den) for x in self._num[i])

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._num[i][j], self._den)

    def __matmul__(self, other: Union["QMatrix", Sequence[Scalar]]) -> Union["QMatrix", QVector]:
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatchError(f"{self.shape} @ {other.shape}")
            columns = tuple(zip(*other._num))
            out = [[sum(map(mul, r, c)) for c in columns] for r in self._num]
            return QMatrix._of(out, self._den * other._den, other.cols)
        v = qvec(other)
        if self.cols != len(v):
            raise DimensionMismatchError(f"{self.shape} @ vector of length {len(v)}")
        w, vden = _over_common_denominator(v)
        den = self._den * vden
        return tuple(Fraction(sum(map(mul, r, w)), den) for r in self._num)

    def augment(self, b: Sequence[Scalar]) -> "QMatrix":
        if len(b) != self.rows:
            raise DimensionMismatchError("right-hand side length mismatch")
        w, vden = _over_common_denominator(qvec(b))
        den = lcm(self._den, vden)
        s, t = den // self._den, den // vden
        rows = [[s * x for x in r] + [t * y] for r, y in zip(self._num, w)]
        return QMatrix._of(rows, den, self.cols + 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, QMatrix) and self.cols == other.cols
                and self._den == other._den and self._num == other._num)

    def __hash__(self) -> int:
        return hash((self.cols, self._den, self._num))

    def __repr__(self) -> str:
        return f"QMatrix({[[str(x) for x in self.row(i)] for i in range(self.rows)]})"


def transpose(m: QMatrix) -> QMatrix:
    if m.rows == 0:
        raise DimensionMismatchError("cannot transpose a matrix with no rows")
    return QMatrix._of(zip(*m._num), m._den, m.rows)


def _gauss_jordan(a: list[Sequence[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan: Bareiss steps applied to the rows above
    the pivot as well, every division exact.  `a` is reordered and its rows
    replaced, never written to.  Returns the pivot columns and the last
    pivot d; every pivot entry ends at d, so rref = rows / d."""
    rows = len(a)
    prev = 1
    pivots: list[int] = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][c]:
                break
        else:
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
        pivots.append(c)
    return pivots, prev


def rref(m: QMatrix) -> tuple[QMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the (0-based, increasing) pivot columns."""
    a = list(m._num)
    pivots, d = _gauss_jordan(a)
    return QMatrix._of(a, d, m.cols), tuple(pivots)


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
    delete one column; `a` is reduced by `_gauss_jordan`.  Up to sign, d
    is the minor that deletes the free column and the free column's i-th
    entry the one that deletes the i-th pivot column (Cramer).  Fewer
    than r pivots mean rank < r: every minor is 0."""
    pivots, d = _gauss_jordan(a)
    if len(pivots) < len(a):
        return 0
    free = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
    return max(abs(d), *(abs(row[free]) for row in a))


def det_bareiss(m: QMatrix) -> Fraction:
    """Exact determinant: Bareiss on the numerators, over den^n."""
    if m.rows != m.cols:
        raise NonSquareError(f"determinant of {m.shape} matrix")
    return Fraction(_det_bareiss_int([list(r) for r in m._num]), m._den ** m.rows)


def inverse(a: QMatrix) -> QMatrix:
    """Exact inverse, the right half of rref([num | den*I]); raises SingularMatrixError."""
    if a.rows != a.cols:
        raise NonSquareError(f"inverse of {a.shape} matrix")
    n = a.rows
    aug = [[*row, *(a._den if j == i else 0 for j in range(n))] for i, row in enumerate(a._num)]
    pivots, d = _gauss_jordan(aug)
    if pivots[n - 1] != n - 1:
        raise SingularMatrixError("matrix is singular")
    return QMatrix._of([row[n:] for row in aug], d, n)


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
    f = QMatrix._of([[row[c] for c in pivots] for row in a._num], a._den, r)
    g = QMatrix._of(reduced._num[:r], reduced._den, a.cols)
    return f, g


def pseudoinverse(a: QMatrix) -> QMatrix:
    """Exact Moore-Penrose pseudoinverse g^T ((f^T f)(g g^T))^-1 f^T from a
    rank factorization a = f*g; both factors are invertible because f has
    full column rank and g full row rank.  The zero matrix maps to the
    zero matrix of transposed shape."""
    if a.rows == 0:
        raise DimensionMismatchError("pseudoinverse of a 0-row matrix is not representable")
    try:
        f, g = rank_factorization(a)
    except ZeroMatrixError:
        return QMatrix.zeros(a.cols, a.rows)
    ft, gt = transpose(f), transpose(g)
    return (gt @ inverse((ft @ f) @ (g @ gt))) @ ft


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
    """True iff rref([a|b]) has no pivot in its last column."""
    return a.cols not in rref(a.augment(b))[1]
