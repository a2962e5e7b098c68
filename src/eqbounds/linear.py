"""Systems of unit, addition and multiplication equations over n variables.

The equation universe is

    { x_i = 1 }  u  { x_i + x_j = x_k : i <= j }  u  { x_i * x_j = x_k : i <= j }

with indices in [1, n].  A system is a duplicate-free tuple of such
equations; the linear systems are its multiplication-free part.  Their
matrix encoding stacks one row per equation: a unit equation contributes
the standard basis row e_i with right-hand side 1, an addition equation
contributes the formal sum e_i + e_j - e_k (colliding indices cancel or
accumulate, so entries always land in {-1, 0, 1, 2}) with right-hand
side 0.

This module also hosts the linear generators (randomized and
exhaustive) and the bound checkers driven by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, gcd
from typing import Iterable, Iterator, Sequence

from .linalg import QMatrix, QVector, qvec
from .rng import SplitMix64


class CapExceededError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Unit:
    """x_i = 1"""

    i: int


@dataclass(frozen=True, order=True)
class _BinaryOp:
    """x_i (op) x_j = x_k, stored with i <= j; equal only within one subclass."""

    i: int
    j: int
    k: int

    def __post_init__(self):
        if self.i > self.j:
            lo, hi = self.j, self.i
            object.__setattr__(self, "i", lo)
            object.__setattr__(self, "j", hi)


class Add(_BinaryOp):
    """x_i + x_j = x_k, stored with i <= j."""


class Mul(_BinaryOp):
    """x_i * x_j = x_k, stored with i <= j."""


Equation = Unit | Add | Mul


def _check_indices(eq: Equation, n: int) -> None:
    idx = (eq.i,) if isinstance(eq, Unit) else (eq.i, eq.j, eq.k)
    for v in idx:
        if not 1 <= v <= n:
            raise ValueError(f"variable index {v} outside [1, {n}] in {eq}")


@dataclass(frozen=True)
class System:
    """Equations over x_1..x_n.  With ``fix_x1`` the symbol x_1 stands for
    the constant 1 and drops out of the unknowns."""

    n: int
    equations: tuple[Equation, ...]
    fix_x1: bool = False

    def __init__(self, n: int, equations: Iterable[Equation], fix_x1: bool = False):
        if n < 1:
            raise ValueError("n must be >= 1")
        eqs = []
        seen = set()
        for eq in equations:
            _check_indices(eq, n)
            if eq not in seen:
                seen.add(eq)
                eqs.append(eq)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "equations", tuple(eqs))
        object.__setattr__(self, "fix_x1", fix_x1)

    @property
    def unknowns(self) -> int:
        return self.n - 1 if self.fix_x1 else self.n


def universe(n: int) -> list[Equation]:
    """Every equation over n variables: units, then additions, then
    multiplications, each in index order."""
    triples = [(i, j, k) for i in range(1, n + 1) for j in range(i, n + 1) for k in range(1, n + 1)]
    units = [Unit(i) for i in range(1, n + 1)]
    return units + [Add(*t) for t in triples] + [Mul(*t) for t in triples]


@dataclass(frozen=True)
class EncodedSystem:
    a: QMatrix
    b: QVector
    provenance: tuple[Equation, ...]


def _row_of(eq: Unit | Add, n: int) -> list[int]:
    row = [0] * n
    if isinstance(eq, Unit):
        row[eq.i - 1] = 1
    else:
        row[eq.i - 1] += 1
        row[eq.j - 1] += 1
        row[eq.k - 1] -= 1
    return row


def encode(s: System) -> EncodedSystem:
    """Matrix encoding of a linear system; row order preserves equation order."""
    if any(isinstance(eq, Mul) for eq in s.equations):
        raise ValueError("a system with a multiplication equation has no matrix encoding")
    rows = [_row_of(eq, s.n) for eq in s.equations]
    b = [1 if isinstance(eq, Unit) else 0 for eq in s.equations]
    return EncodedSystem(QMatrix(rows, cols=s.n), qvec(b), s.equations)


def solves(s: System, x: Sequence[Fraction]) -> bool:
    """Exact check that the tuple x satisfies every equation of s."""
    if len(x) != s.n:
        return False
    for eq in s.equations:
        if isinstance(eq, Unit):
            if x[eq.i - 1] != 1:
                return False
        elif isinstance(eq, Mul):
            if x[eq.i - 1] * x[eq.j - 1] != x[eq.k - 1]:
                return False
        elif x[eq.i - 1] + x[eq.j - 1] != x[eq.k - 1]:
            return False
    return True


# ---------------------------------------------------------------------------
# incremental elimination used by the generators

class _Echelon:
    """Fraction-free forward elimination over the integers.

    Rows are integer lists augmented with the right-hand side.  A new row
    is reduced by cross-multiplying it against each stored pivot row and
    then divided by the gcd of its entries.  Scaling a row by a nonzero
    integer keeps its span and its zero pattern, so rank decisions and
    pivot columns match elimination over Q.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[tuple[int, Sequence[int]]] = []  # (pivot col, row)

    def reduce(self, row: Sequence[int]) -> tuple[int, Sequence[int]] | None:
        """Reduce against current rows; None when the lhs becomes zero."""
        work = row
        for pc, prow in self.rows:
            f = work[pc]
            if f:
                p = prow[pc]
                work = [p * x - f * y for x, y in zip(work, prow)]
        pivot = next((c for c in range(self.width) if work[c]), None)
        if pivot is None:
            return None
        g = gcd(*work)
        if g > 1:
            work = [x // g for x in work]
        return pivot, work

    def push(self, entry: tuple[int, Sequence[int]]) -> None:
        self.rows.append(entry)

    def pop(self) -> None:
        self.rows.pop()

    @property
    def rank(self) -> int:
        return len(self.rows)

    def back_substitute(self) -> QVector:
        """Solution when rank equals width (augmented column holds b).

        Integer back-substitution keeps numerators over one common
        denominator; Fractions are made only for the final entries.
        """
        assert self.rank == self.width
        w = self.width
        num = [0] * w
        den = 1
        for pc, row in sorted(self.rows, reverse=True):  # pivot columns are distinct
            acc = row[w] * den
            for c in range(pc + 1, w):
                acc -= row[c] * num[c]
            p = row[pc]
            if p != 1:
                num = [x * p for x in num]
                den *= p
            num[pc] = acc
        return tuple(Fraction(x, den) for x in num)


# ---------------------------------------------------------------------------
# generators

def random_unique_system(n: int, rng: SplitMix64) -> tuple[System, QVector]:
    """Unit equation on x_1 plus addition rows kept only when they raise
    rank, with the system's unique solution.

    Triples (i, j, k) are drawn uniformly from [1, n]^3 until the stack
    under e_1 reaches rank n; the walk terminates with probability 1.  The
    solution is back-substituted from the echelon that accepted the rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    eqs: list[Equation] = [Unit(1)]
    ech = _Echelon(n)
    ech.push(ech.reduce(_row_of(Unit(1), n) + [1]))
    while ech.rank < n:
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        k = rng.randint(1, n)
        eq = Add(i, j, k)
        entry = ech.reduce(_row_of(eq, n) + [0])
        if entry is not None:
            ech.push(entry)
            eqs.append(eq)
    return System(n, eqs), ech.back_substitute()


def random_card_le_n_system(n: int, rng: SplitMix64, verbatim_rhs: bool = True) -> EncodedSystem:
    """Row e_1 with rhs 1 followed by n-1 unconditionally appended random rows.

    With ``verbatim_rhs`` the right-hand side of a drawn row e_i+e_j-e_k
    is 1 whenever k = j (the row then reads x_i = 1, a unit equation);
    without it the semantic encoding is used and every drawn row gets
    right-hand side 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = [_row_of(Unit(1), n)]
    b = [1]
    provenance: list[Equation] = [Unit(1)]
    for _ in range(n - 1):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        k = rng.randint(1, n)
        eq = Add(i, j, k)
        rows.append(_row_of(eq, n))
        if verbatim_rhs and k == j:
            b.append(1)
            provenance.append(Unit(i))
        else:
            b.append(0)
            provenance.append(eq)
    return EncodedSystem(QMatrix(rows, cols=n), qvec(b), tuple(provenance))


@cache
def addition_row_pool(n: int) -> tuple[tuple[tuple[int, ...], Add], ...]:
    """Distinct rows e_i + e_j - e_k over [1, n]^3, minus e_1.

    Rows appear in first-occurrence order of the (i, j, k) triple loop;
    each row carries the canonical equation that produced it first.  The
    pool is immutable and cached, so the exhaustive driver and every
    enumerator it starts share one copy per n.
    """
    seen: dict[tuple[int, ...], Add] = {}
    order: list[tuple[int, ...]] = []
    for i, j, k in product(range(1, n + 1), repeat=3):
        eq = Add(i, j, k)
        key = tuple(_row_of(eq, n))
        if key not in seen:
            seen[key] = eq
            order.append(key)
    e1 = tuple(1 if c == 0 else 0 for c in range(n))
    return tuple((row, seen[row]) for row in order if row != e1)


def equation_pool(n: int) -> list[Equation]:
    """The multiplication-free part of the universe, deduplicated by
    encoded row and right-hand side (first occurrences kept)."""
    seen: set[tuple[tuple[int, ...], int]] = set()
    pool: list[Equation] = []
    for eq in universe(n):
        if isinstance(eq, Mul):
            continue
        key = (tuple(_row_of(eq, n)), 1 if isinstance(eq, Unit) else 0)
        if key not in seen:
            seen.add(key)
            pool.append(eq)
    return pool


DEFAULT_EXHAUSTIVE_CAP = 5


@dataclass
class ExhaustiveScan:
    """Counters filled in by exhaustive_unique_systems."""

    subsets_considered: int = 0
    yielded: int = 0


def exhaustive_unique_systems(
    n: int,
    start: int | None = None,
    end: int | None = None,
    scan: ExhaustiveScan | None = None,
) -> Iterator[tuple[tuple[Equation, ...], QVector]]:
    """All rank-n stacks of n-1 pool rows under e_1, with their solutions.

    Each item is the stack's equations, x_1 = 1 first and then the pool
    equations in index order, with the unique solution; callers that need
    the matrix encoding build it from the equations.

    (n-1)-subsets of the deduplicated addition-row pool are visited in
    lexicographic order of row indices; ``start``/``end`` select a
    half-open interval of combination ranks so runs can be partitioned
    and resumed.  Subtrees whose prefix is already rank-deficient are
    skipped in bulk but still counted as considered, so the number of
    subsets considered always matches C(|pool|, n-1) for a full scan.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_EXHAUSTIVE_CAP:
        raise CapExceededError(f"exhaustive enumeration capped at n = {DEFAULT_EXHAUSTIVE_CAP}")
    pool = addition_row_pool(n)
    p = len(pool)
    slots = n - 1
    total = comb(p, slots)
    lo = 0 if start is None else max(0, start)
    hi = total if end is None else min(total, end)
    if scan is None:
        scan = ExhaustiveScan()

    rows = [row + (0,) for row, _ in pool]
    ech = _Echelon(n)
    ech.push(ech.reduce(_row_of(Unit(1), n) + [1]))
    chosen: list[Equation] = [Unit(1)]
    pos = 0  # lex rank of the next combination to be visited

    def walk(first: int, slots_left: int) -> Iterator[tuple[tuple[Equation, ...], QVector]]:
        nonlocal pos
        if slots_left == 0:
            if lo <= pos < hi:
                scan.subsets_considered += 1
                scan.yielded += 1
                yield tuple(chosen), ech.back_substitute()
            pos += 1
            return
        for idx in range(first, p - slots_left + 1):
            subtree = comb(p - idx - 1, slots_left - 1)
            if pos + subtree <= lo or pos >= hi:
                pos += subtree
                continue
            entry = ech.reduce(rows[idx])
            if entry is None:
                overlap = min(pos + subtree, hi) - max(pos, lo)
                if overlap > 0:
                    scan.subsets_considered += overlap
                pos += subtree
                continue
            ech.push(entry)
            chosen.append(pool[idx][1])
            yield from walk(idx + 1, slots_left - 1)
            chosen.pop()
            ech.pop()

    yield from walk(0, slots)
    if lo == 0 and hi == total and scan.subsets_considered != total:
        raise AssertionError(
            f"enumerator visited {scan.subsets_considered} subsets, expected {total}"
        )


# ---------------------------------------------------------------------------
# checkers

def check_bound_pow2(x: Sequence[Fraction], n: int) -> bool:
    """Pass iff |x_i| <= 2^(n-1) for every entry, compared exactly."""
    bound = Fraction(2) ** (n - 1)
    return all(abs(value) <= bound for value in x)


def check_bound_sqrt5(x: Sequence[Fraction], n: int) -> bool:
    """Pass iff x_i^2 <= 5^(n-1); squaring keeps the comparison rational."""
    bound = Fraction(5) ** (n - 1)
    return all(value * value <= bound for value in x)


def conj3_stats(x: Sequence[Fraction]) -> tuple[int, int]:
    """(max |numerator|, max denominator) over entries in lowest terms."""
    max_num = 0
    max_den = 1
    for value in x:
        max_num = max(max_num, abs(value.numerator))
        max_den = max(max_den, value.denominator)
    return max_num, max_den


def conj4_check(x: Sequence[Fraction]) -> tuple[Fraction, bool]:
    """Max consecutive ratio of the ascending clamped profile c_i = max(1, |x_i|).

    The clamp makes the |x_i| >= 1 hypothesis automatic; verdict passes
    iff the largest ratio is <= 2 (exact comparison).
    """
    clamped = sorted(max(Fraction(1), abs(Fraction(v))) for v in x)
    ratio = Fraction(1)
    for small, big in zip(clamped, clamped[1:]):
        ratio = max(ratio, big / small)
    return ratio, ratio <= 2


CONJ2_PATTERNS: tuple[tuple[int, ...], ...] = (
    (1,),
    (-1, 2),
    (2, -1),
    (-1, 1, 1),
    (1, -1, 1),
    (1, 1, -1),
)


def conj2_rows(n: int) -> list[tuple[int, ...]]:
    """All width-n rows whose nonzero entries read as one of the six patterns.

    Count is n + 2*C(n,2) + 3*C(n,3).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rows: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for pattern in CONJ2_PATTERNS:
        if len(pattern) > n:
            continue
        for positions in combinations(range(n), len(pattern)):
            row = [0] * n
            for pos, value in zip(positions, pattern):
                row[pos] = value
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                rows.append(key)
    return rows


HAT_CONSTANTS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2))


def hat_axes(xs: Sequence, constants: Sequence, bound) -> list[list]:
    """Per-coordinate hat candidates: x_i first, then the constants, each
    kept once and only when |r| <= bound."""
    axes = []
    for value in xs:
        candidates = []
        for option in (value, *constants):
            if abs(option) <= bound and option not in candidates:
                candidates.append(option)
        axes.append(candidates)
    return axes


def observation1_hat_search(s: System, x: Sequence[Fraction]) -> QVector | None:
    """Search the per-coordinate grid {x_i, 0, 1, 2, 1/2} for a bounded solution.

    Candidates per coordinate keep x_i first, then 0, 1, 2, 1/2, filtered
    to |r| <= 2^(n-1); the first grid point solving the system exactly is
    returned.  None at n <= 4 refutes the replacement claim and must be
    treated as a hard failure by callers.
    """
    if s.n > 4:
        raise PreconditionError("hat search only supports n <= 4")
    xs = qvec(x)
    if not solves(s, xs):
        raise PreconditionError("x does not solve the system")
    for hat in product(*hat_axes(xs, HAT_CONSTANTS, Fraction(2) ** (s.n - 1))):
        if solves(s, hat):
            return hat
    return None
