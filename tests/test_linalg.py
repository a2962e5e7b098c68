from fractions import Fraction
from itertools import combinations

import pytest

from eqbounds.linalg import (
    DimensionMismatchError,
    NonSquareError,
    QMatrix,
    SingularMatrixError,
    ZeroMatrixError,
    _max_abs_maximal_minor_int,
    det_bareiss,
    inverse,
    is_consistent,
    min_norm_solution,
    pseudoinverse,
    qvec,
    rank,
    rank_factorization,
    rational_to_text,
    rref,
    solve_cramer,
    transpose,
)
from eqbounds.linear import conj2_rows
from eqbounds.rng import SplitMix64

F = Fraction


def det_cofactor(rows):
    """Independent oracle: recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return F(0) + 1
    if n == 1:
        return F(rows[0][0])
    total = F(0)
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        total += (-1) ** j * F(x) * det_cofactor(minor)
    return total


def identity(n):
    return QMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def random_small_matrix(rng, max_dim=4):
    n = rng.randint(1, max_dim)
    return [[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)]


def test_rref_identity():
    reduced, pivots = rref(identity(3))
    assert reduced == identity(3)
    assert pivots == (0, 1, 2)


def test_rref_single_row_scaling():
    reduced, pivots = rref(QMatrix([[2, -1], [0, 0]]))
    assert reduced == QMatrix([[1, F(-1, 2)], [0, 0]])
    assert pivots == (0,)


def test_rref_duplicate_rows():
    reduced, pivots = rref(QMatrix([[1, 1], [1, 1]]))
    assert reduced == QMatrix([[1, 1], [0, 0]])
    assert pivots == (0,)


def test_rref_idempotent():
    rng = SplitMix64(7)
    for _ in range(50):
        rows = [[rng.randint(-1, 2) for _ in range(4)] for _ in range(3)]
        reduced, _ = rref(QMatrix(rows))
        again, _ = rref(reduced)
        assert again == reduced


def test_rank():
    assert rank(QMatrix.zeros(2, 3)) == 0
    assert rank(identity(4)) == 4
    # rows e1 and e1+e1-e2 over two columns: 2x2 determinant 2*(-1) != 0
    assert rank(QMatrix([[1, 0], [2, -1]])) == 2


def test_det_trivial():
    assert det_bareiss(QMatrix([[2, -1], [0, 2]])) == 4
    assert det_bareiss(QMatrix([[1, 2, 0], [1, 2, 0], [0, 1, 1]])) == 0
    with pytest.raises(NonSquareError):
        det_bareiss(QMatrix([[1, 2]]))


def test_det_rational_entries():
    m = QMatrix([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]])
    assert det_bareiss(m) == F(1, 2) * F(1, 5) - F(1, 3) * F(1, 4)


def test_det_matches_cofactor_oracle():
    rng = SplitMix64(20240801)
    for _ in range(1000):
        rows = random_small_matrix(rng)
        assert det_bareiss(QMatrix(rows)) == det_cofactor(rows)


def max_minor_by_determinants(rows):
    """Reference for the maximal-minor kernel: one Bareiss determinant per
    deleted column, a different elimination from the kernel's."""
    n = len(rows[0])
    return max(
        abs(det_bareiss(QMatrix([[r[c] for c in range(n) if c != skip] for r in rows])))
        for skip in range(n)
    )


def test_maximal_minor_kernel_matches_determinants_on_conj2_stacks():
    for n in (3, 4):
        for combo in combinations(conj2_rows(n), n - 1):
            assert _max_abs_maximal_minor_int(list(combo)) == max_minor_by_determinants(combo)
    # n = 5: a seeded sample drawn with replacement, so repeated rows and
    # other rank-deficient stacks occur alongside full-rank ones
    rows = conj2_rows(5)
    rng = SplitMix64(20261018)
    deficient = 0
    for _ in range(3000):
        stack = [rows[rng.randint(0, len(rows) - 1)] for _ in range(4)]
        expected = max_minor_by_determinants(stack)
        deficient += expected == 0
        assert _max_abs_maximal_minor_int(list(stack)) == expected
    assert deficient > 0


def test_maximal_minor_kernel_integer_rows():
    rng = SplitMix64(7)
    for _ in range(300):
        width = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(width - 1)]
        expected = max(
            abs(det_cofactor([[r[c] for c in range(width) if c != skip] for r in rows]))
            for skip in range(width)
        )
        assert _max_abs_maximal_minor_int(list(rows)) == expected


def doubling_chain_matrix(n):
    """Encoding of x1 = 1, x1+x1 = x2, ..., x_{n-1}+x_{n-1} = x_n."""
    rows = [[1 if j == 0 else 0 for j in range(n)]]
    for i in range(1, n):
        row = [0] * n
        row[i - 1] = 2
        row[i] = -1
        rows.append(row)
    b = [1] + [0] * (n - 1)
    return QMatrix(rows), qvec(b)


def test_solve_cramer_doubling_chain():
    a, b = doubling_chain_matrix(3)
    assert solve_cramer(a, b) == qvec([1, 2, 4])


def test_solve_cramer_identity_and_forced_zero():
    assert solve_cramer(identity(3), [5, -1, F(1, 3)]) == qvec([5, -1, F(1, 3)])
    # {x1 = 1, x1 + x2 = x1} encodes to [[1,0],[0,1]] with b = (1,0)
    assert solve_cramer(QMatrix([[1, 0], [0, 1]]), [1, 0]) == qvec([1, 0])


def test_solve_cramer_singular():
    with pytest.raises(SingularMatrixError):
        solve_cramer(QMatrix([[1, 1], [1, 1]]), [1, 1])
    with pytest.raises(SingularMatrixError):
        inverse(QMatrix([[1, 1], [1, 1]]))


def test_cramer_agrees_with_inverse_multiply():
    rng = SplitMix64(99)
    checked = 0
    while checked < 200:
        rows = random_small_matrix(rng)
        m = QMatrix(rows)
        if det_bareiss(m) == 0:
            continue
        b = [rng.randint(-2, 2) for _ in range(m.rows)]
        assert solve_cramer(m, b) == inverse(m) @ qvec(b)
        checked += 1


def test_rank_factorization():
    f, g = rank_factorization(identity(3))
    assert f == identity(3) and g == identity(3)
    f, g = rank_factorization(QMatrix([[1, 1], [1, 1]]))
    assert f == QMatrix([[1], [1]]) and g == QMatrix([[1, 1]])
    f, g = rank_factorization(QMatrix([[1, 0], [0, 0]]))
    assert f == QMatrix([[1], [0]]) and g == QMatrix([[1, 0]])
    with pytest.raises(ZeroMatrixError):
        rank_factorization(QMatrix.zeros(2, 2))


def test_rank_factorization_reconstructs():
    rng = SplitMix64(4)
    for _ in range(100):
        cols = rng.randint(1, 4)
        m = QMatrix([[rng.randint(-1, 2) for _ in range(cols)] for _ in range(3)])
        if rank(m) == 0:
            continue
        f, g = rank_factorization(m)
        assert f @ g == m


def penrose_holds(a, x):
    ax, xa = a @ x, x @ a
    return (
        (a @ x) @ a == a
        and (x @ a) @ x == x
        and transpose(ax) == ax
        and transpose(xa) == xa
    )


def test_pseudoinverse_trivial_cases():
    assert pseudoinverse(identity(4)) == identity(4)
    assert pseudoinverse(QMatrix([[1, 1]])) == QMatrix([[F(1, 2)], [F(1, 2)]])
    assert pseudoinverse(QMatrix.zeros(2, 3)) == QMatrix.zeros(3, 2)


def test_pseudoinverse_penrose_identities():
    rng = SplitMix64(11)
    for _ in range(150):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        a = QMatrix([[rng.randint(-1, 2) for _ in range(c)] for _ in range(r)])
        x = pseudoinverse(a)
        assert penrose_holds(a, x)


def test_min_norm_solution_examples():
    assert min_norm_solution(QMatrix([[1, 1]]), [1]) == qvec([F(1, 2), F(1, 2)])
    # consistent invertible system: agrees with the unique solution
    a, b = doubling_chain_matrix(4)
    assert min_norm_solution(a, b) == solve_cramer(a, b)
    # inconsistent least-squares midpoint
    assert min_norm_solution(QMatrix([[1], [1]]), [0, 1]) == qvec([F(1, 2)])
    with pytest.raises(DimensionMismatchError):
        min_norm_solution(QMatrix([[1, 1]]), [1, 2])


def test_min_norm_solution_empty_system():
    assert min_norm_solution(QMatrix.zeros(0, 3), []) == qvec([0, 0, 0])


def test_min_norm_solution_solves_consistent_systems():
    rng = SplitMix64(123)
    for _ in range(100):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = QMatrix([[rng.randint(-1, 2) for _ in range(c)] for _ in range(r)])
        x_true = [rng.randint(-2, 2) for _ in range(c)]
        b = a @ x_true
        x0 = min_norm_solution(a, b)
        assert a @ x0 == b


def test_min_norm_in_row_space():
    rng = SplitMix64(321)
    for _ in range(100):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = QMatrix([[rng.randint(-1, 2) for _ in range(c)] for _ in range(r)])
        b = [rng.randint(-2, 2) for _ in range(r)]
        x0 = min_norm_solution(a, b)
        at = transpose(a) if a.rows else None
        if at is None:
            continue
        assert rank(at) == rank(at.augment(x0))


def test_min_norm_strictly_smaller_than_shifted():
    # for consistent (a, b) and kernel vector k != 0: |x0| < |x0 + k|
    a = QMatrix([[1, 1, 0], [0, 1, 1]])
    x_true = [1, 2, 3]
    b = a @ x_true
    x0 = min_norm_solution(a, b)
    kernel = qvec([1, -1, 1])  # a @ kernel == 0
    assert a @ kernel == qvec([0, 0])
    shifted = tuple(u + v for u, v in zip(x0, kernel))
    assert sum(v * v for v in x0) < sum(v * v for v in shifted)


def test_is_consistent():
    assert is_consistent(QMatrix([[1], [1]]), [1, 1])
    assert not is_consistent(QMatrix([[1], [1]]), [0, 1])
    assert is_consistent(QMatrix.zeros(0, 3), [])


def test_rational_serialization():
    assert rational_to_text(F(3, 2)) == "3/2"
    assert rational_to_text(F(-7)) == "-7"
    assert rational_to_text(F(0)) == "0"


def test_matmul_shapes():
    with pytest.raises(DimensionMismatchError):
        QMatrix([[1, 2]]) @ QMatrix([[1, 2]])
    with pytest.raises(DimensionMismatchError):
        QMatrix([[1, 2]]) @ [1, 2, 3]


def test_inverse_round_trip():
    rng = SplitMix64(5150)
    checked = 0
    while checked < 60:
        rows = random_small_matrix(rng)
        m = QMatrix(rows)
        if det_bareiss(m) == 0:
            continue
        assert m @ inverse(m) == identity(m.rows)
        checked += 1


# ---------------------------------------------------------------------------
# QMatrix against a Fraction-grid oracle

def grid_of(m):
    return [list(m.row(i)) for i in range(m.rows)]


def oracle_matmul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), F(0)) for c in zip(*b)] for r in a]


def oracle_transpose(a):
    return [list(c) for c in zip(*a)]


def oracle_rref(a, cols):
    """Fraction Gauss-Jordan with pivots sought in the first `cols` columns."""
    a = [list(r) for r in a]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(a):
            break
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, tuple(pivots)


def oracle_inverse(a):
    n = len(a)
    aug = [r + [F(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
    reduced, pivots = oracle_rref(aug, n)
    return [r[n:] for r in reduced] if pivots == tuple(range(n)) else None


def oracle_pseudoinverse(a, cols):
    """g^T (g g^T)^-1 (f^T f)^-1 f^T, with two separate inverses."""
    reduced, pivots = oracle_rref(a, cols)
    if not pivots:
        return [[F(0)] * len(a) for _ in range(cols)]
    f = [[r[c] for c in pivots] for r in a]
    g = reduced[:len(pivots)]
    ft, gt = oracle_transpose(f), oracle_transpose(g)
    middle = oracle_matmul(oracle_inverse(oracle_matmul(g, gt)), oracle_inverse(oracle_matmul(ft, f)))
    return oracle_matmul(oracle_matmul(gt, middle), ft)


def random_rational_grid(rng, rows, cols):
    def entry():
        return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.randint(0, 2) else F(0)

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    # a third of the matrices get a row that depends on two others
    if rows >= 3 and rng.randint(0, 2) == 0:
        s, t = entry(), entry()
        grid[rng.randint(0, rows - 1)] = [s * x + t * y for x, y in zip(grid[0], grid[1])]
    return grid


def assert_matches(m, grid):
    assert grid_of(m) == grid
    rebuilt = QMatrix(grid, cols=m.cols)
    assert m == rebuilt and hash(m) == hash(rebuilt)


def test_qmatrix_matches_fraction_oracle():
    rng = SplitMix64(20261018)
    singular = deficient = 0
    for _ in range(2000):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        grid = random_rational_grid(rng, rows, cols)
        m = QMatrix(grid, cols=cols)
        assert_matches(m, grid)
        other = random_rational_grid(rng, cols, rng.randint(1, 4))
        assert_matches(m @ QMatrix(other), oracle_matmul(grid, other))
        v = [r[0] for r in other]
        assert m @ v == tuple(sum((x * y for x, y in zip(r, v)), F(0)) for r in grid)
        reduced, pivots = rref(m)
        expected, expected_pivots = oracle_rref(grid, cols)
        assert pivots == expected_pivots
        assert_matches(reduced, expected)
        deficient += len(pivots) < min(rows, cols)
        if rows == 0:
            continue
        assert_matches(transpose(m), oracle_transpose(grid))
        assert_matches(pseudoinverse(m), oracle_pseudoinverse(grid, cols))
        if rows != cols:
            continue
        assert det_bareiss(m) == det_cofactor(grid)
        expected = oracle_inverse(grid)
        if expected is None:
            singular += 1
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            assert_matches(inverse(m), expected)
    assert singular > 0 and deficient > 0


def test_equal_matrices_have_equal_storage():
    a, b = QMatrix([[F(2, 4), 1]]), QMatrix([[F(1, 2), F(2, 2)]])
    assert a == b and hash(a) == hash(b)
    assert QMatrix([[F(1, 2)]]) @ QMatrix([[2]]) == QMatrix([[1]])
    # the kernel ends on the pivot det = -3, a negative denominator
    m = QMatrix([[2, 1], [1, -1]])
    inv = inverse(m)
    expected = QMatrix([[F(1, 3), F(1, 3)], [F(1, 3), F(-2, 3)]])
    assert inv == expected and hash(inv) == hash(expected)
    assert inv @ m == identity(2) and hash(inv @ m) == hash(identity(2))
    assert rref(QMatrix([[-2, 1]]))[0] == QMatrix([[1, F(-1, 2)]])
    assert inverse(QMatrix([[-1]])) == QMatrix([[-1]])
