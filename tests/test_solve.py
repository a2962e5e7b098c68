import cmath

import pytest

from eqbounds.poly import (
    MonomialOrder,
    NotZeroDimensionalError,
    Polynomial,
    buchberger,
    standard_monomial_count,
)
from eqbounds.solve import (
    aberth_roots,
    solve_zero_dim,
)


def lexvars(n):
    order = MonomialOrder.lex(n)
    return order, [Polynomial.variable(i, n, order) for i in range(n)]


def cpoly(c, n, order):
    return Polynomial.constant(c, n, order)


def assert_root_set(got, expected, tol=1e-9):
    assert len(got) == len(expected)
    remaining = list(expected)
    for z in got:
        best = min(remaining, key=lambda w: abs(w - z))
        assert abs(best - z) < tol
        remaining.remove(best)


def test_aberth_simple():
    assert_root_set(aberth_roots([-1, 0, 1]), [1, -1])  # z^2 - 1
    assert_root_set(aberth_roots([-2, 1]), [2])  # z - 2
    # double root within tolerance: z^2 - 2z + 1
    roots = aberth_roots([1, -2, 1])
    assert len(roots) == 2
    for z in roots:
        assert abs(z - 1) < 1e-5


def test_aberth_larger():
    # (z-1)(z-2)(z-3)(z-4)
    coeffs = [24, -50, 35, -10, 1]
    assert_root_set(aberth_roots(coeffs), [1, 2, 3, 4], tol=1e-7)
    # roots of unity, degree 8
    coeffs = [-1] + [0] * 7 + [1]
    expected = [cmath.exp(2j * cmath.pi * k / 8) for k in range(8)]
    assert_root_set(aberth_roots(coeffs), expected, tol=1e-7)


def test_solve_linear_point():
    order, (x1, x2) = lexvars(2)
    sols = solve_zero_dim([x1 - cpoly(1, 2, order), x2 - cpoly(2, 2, order)])
    assert len(sols) == 1
    assert abs(sols[0].entries[0] - 1) < 1e-12
    assert abs(sols[0].entries[1] - 2) < 1e-12
    assert sols[0].residual < 1e-8


def test_solve_extremal_squaring_chain():
    # x1+x1 = x2, x1*x1 = x2, x2*x2 = x3, x3*x3 = x4: exactly two solutions
    order, (x1, x2, x3, x4) = lexvars(4)
    gens = [x1 + x1 - x2, x1 * x1 - x2, x2 * x2 - x3, x3 * x3 - x4]
    sols = solve_zero_dim(gens)
    assert len(sols) == 2
    expected = [(0, 0, 0, 0), (2, 4, 16, 256)]
    for sol, exp in zip(sols, expected):
        for z, w in zip(sol.entries, exp):
            assert abs(z - w) < 1e-9
        assert sol.residual < 1e-8


def test_solve_inconsistent_returns_empty():
    order, (x,) = lexvars(1)
    assert solve_zero_dim([x, x - cpoly(1, 1, order)]) == []


def test_solve_positive_dimensional_raises():
    order, (x1, x2) = lexvars(2)
    with pytest.raises(NotZeroDimensionalError):
        solve_zero_dim([x1 - x2])


def test_solution_count_bounded_by_staircase():
    order, (x1, x2) = lexvars(2)
    gens = [x1 * x1 - cpoly(1, 2, order), x2 - x1]
    sols = solve_zero_dim(gens)
    basis = buchberger(gens, order)
    assert len(sols) <= standard_monomial_count(basis)
    assert_root_set([s.entries[0] for s in sols], [1, -1])


def test_solutions_sorted_canonically():
    order, (x,) = lexvars(1)
    sols = solve_zero_dim([x * x - cpoly(4, 1, order)])
    assert [round(s.entries[0].real) for s in sols] == [-2, 2]


def test_solve_shuffle_invariance():
    from eqbounds.rng import SplitMix64

    order, (x1, x2, x3) = lexvars(3)
    gens = [x1 + x1 - x2, x1 * x1 - x2, x2 * x2 - x3]
    ref = solve_zero_dim(gens)
    rng = SplitMix64(5)
    for _ in range(5):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        alt = solve_zero_dim(shuffled)
        assert len(alt) == len(ref)
        for a, b in zip(alt, ref):
            assert max(abs(u - v) for u, v in zip(a.entries, b.entries)) < 1e-6


def test_complex_conjugate_pair():
    order, (x,) = lexvars(1)
    sols = solve_zero_dim([x * x + cpoly(1, 1, order)])
    assert_root_set([s.entries[0] for s in sols], [1j, -1j], tol=1e-10)


def test_aberth_iteration_limit():
    from eqbounds.solve import IterationLimitError

    with pytest.raises(IterationLimitError) as err:
        aberth_roots([24, -50, 35, -10, 1], max_iter=1)
    assert len(err.value.roots) == 4
