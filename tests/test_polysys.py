from fractions import Fraction

import pytest

from eqbounds.linear import Add, Mul, System, Unit, universe
from eqbounds.poly import Classification, MonomialOrder, Polynomial
from eqbounds.polysys import (
    CandidatePool,
    InconsistentInputError,
    PreconditionError,
    check_bound_double_exp,
    double_exp_bound,
    equation_polynomial,
    full_pool,
    greedy_saturate,
    is_maximal_consistent,
    minimal_norm_indices,
    observation2_hat_search,
    real_solutions,
    to_polynomials,
)
from eqbounds.rng import SplitMix64
from eqbounds.solve import ComplexVector

F = Fraction


def lexp(n):
    order = MonomialOrder.grevlex(n)
    return order, [Polynomial.variable(i, n, order) for i in range(n)]


def test_mul_canonical():
    assert Mul(3, 1, 2) == Mul(1, 3, 2)
    assert Mul(3, 1, 2).i == 1 and Mul(3, 1, 2).j == 3
    # Add and Mul share the i <= j normalisation but never compare equal
    assert Add(1, 1, 2) != Mul(1, 1, 2)
    assert len({Add(1, 1, 2), Mul(1, 1, 2)}) == 2
    assert repr(Add(2, 1, 3)) == "Add(i=1, j=2, k=3)"
    assert repr(Mul(2, 1, 3)) == "Mul(i=1, j=2, k=3)"


def test_to_polynomials_examples():
    order, (x2,) = lexp(1)
    # x1*x1 = x2 with x1 fixed to 1 reads 1 - x2
    s = System(2, [Mul(1, 1, 2)], fix_x1=True)
    polys = to_polynomials(s, order)
    assert polys == [Polynomial.constant(1, 1, order) - x2]

    order3, (v1, v2, v3) = lexp(3)
    s = System(3, [Add(2, 2, 3)])
    assert to_polynomials(s, order3) == [v2 + v2 - v3]

    s = System(3, [Add(2, 2, 3), Add(2, 2, 3)])
    assert len(to_polynomials(s, order3)) == 1


def test_to_polynomials_drops_trivial_zero():
    # x1*x1 = x1 with x1 fixed: 1 - 1 = 0
    s = System(1, [Mul(1, 1, 1)], fix_x1=True)
    assert to_polynomials(s) == []


def test_full_pool_n2_units_fixed():
    pool = full_pool(2, "with_units_fixed_x1")
    order = MonomialOrder.grevlex(1)
    x2 = Polynomial.variable(0, 1, order)
    one = Polynomial.constant(1, 1, order)
    expected = {
        x2 - one,          # unit on x2
        one,               # 1 + 1 - 1
        Polynomial.zero(1, order),  # 1*1 - 1
        one + one - x2,    # 2 - x2
        one * one - x2,    # 1 - x2
        x2,                # 1 + x2 - 1
        x2 + x2 - one,     # 2*x2 - 1
        x2 * x2 - one,     # x2^2 - 1
        x2 * x2 - x2,      # x2^2 - x2
    }
    polys = [c.poly for c in pool.candidates]
    assert set(polys) == expected
    assert len(polys) == len(set(polys))


def test_full_pool_n1_full_en():
    pool = full_pool(1, "full_En")
    order = MonomialOrder.grevlex(1)
    x1 = Polynomial.variable(0, 1, order)
    one = Polynomial.constant(1, 1, order)
    assert {c.poly for c in pool.candidates} == {x1 - one, x1, x1 * x1 - x1}


def test_full_pool_no_units_has_no_units():
    pool = full_pool(4, "no_units_all_vars")
    assert all(not isinstance(c.equation, Unit) for c in pool.candidates)
    assert pool.fix_x1 is False


def test_pools_duplicate_free():
    for variant in ("with_units_fixed_x1", "no_units_all_vars", "full_En"):
        for n in (2, 3, 4):
            polys = [c.poly for c in full_pool(n, variant).candidates]
            assert len(polys) == len(set(polys))


def test_greedy_saturate_single_unit():
    from eqbounds.polysys import PoolCandidate

    order = MonomialOrder.grevlex(1)
    one = Polynomial.constant(1, 1, order)
    x1 = Polynomial.variable(0, 1, order)
    pool = CandidatePool(1, False, (PoolCandidate(Unit(1), x1 - one),))
    outcome = greedy_saturate(pool, SplitMix64(3))
    assert outcome.classification is Classification.ZERO_DIMENSIONAL
    assert len(outcome.solutions) == 1
    assert abs(outcome.solutions[0].entries[0] - 1) < 1e-10
    assert outcome.max_abs_coordinate == pytest.approx(1.0, abs=1e-9)


def test_greedy_saturate_extremal_chain():
    # pool restricted to the squaring-chain equations: any shuffle appends all
    # four and lands on the two-solution system
    from eqbounds.polysys import PoolCandidate

    n = 4
    order = MonomialOrder.grevlex(4)
    eqs = [Add(1, 1, 2), Mul(1, 1, 2), Mul(2, 2, 3), Mul(3, 3, 4)]
    cands = tuple(
        PoolCandidate(eq, equation_polynomial(eq, n, False, order)) for eq in eqs
    )
    pool = CandidatePool(n, False, cands)
    outcome = greedy_saturate(pool, SplitMix64(123))
    assert outcome.classification is Classification.ZERO_DIMENSIONAL
    assert len(outcome.solutions) == 2
    sols = sorted(outcome.solutions, key=lambda s: abs(s.entries[0]))
    for z, w in zip(sols[0].entries, (0, 0, 0, 0)):
        assert abs(z - w) < 1e-9
    for z, w in zip(sols[1].entries, (2, 4, 16, 256)):
        assert abs(z - w) < 1e-9
    assert outcome.max_abs_coordinate == pytest.approx(256.0, abs=1e-6)
    assert check_bound_double_exp(outcome, n, "n_minus_1")
    assert not check_bound_double_exp(outcome, n, "n_minus_2")
    # minimal-norm solution is the zero tuple
    idx = outcome.min_norm_indices
    assert len(idx) == 1
    assert max(abs(z) for z in outcome.solutions[idx[0]].entries) < 1e-9


def test_greedy_saturate_deterministic():
    pool = full_pool(3, "with_units_fixed_x1")
    a = greedy_saturate(pool, SplitMix64(99))
    b = greedy_saturate(pool, SplitMix64(99))
    assert a == b
    c = greedy_saturate(pool, SplitMix64(100))
    assert isinstance(c.system.equations, tuple)


def test_greedy_saturate_residuals_and_trace():
    pool = full_pool(3, "with_units_fixed_x1")
    for seed in range(6):
        outcome = greedy_saturate(pool, SplitMix64(seed))
        assert outcome.classification is not Classification.INCONSISTENT
        for sol in outcome.solutions:
            assert sol.residual < 1e-8
        # the system's equations, in append order, are distinct
        assert len(outcome.system.equations) == len(set(outcome.system.equations))


def test_double_exp_bound():
    assert double_exp_bound(1, "n_minus_2") == 1.0
    assert double_exp_bound(1, "n_minus_1") == 1.0
    assert double_exp_bound(4, "n_minus_2") == 16.0
    assert double_exp_bound(4, "n_minus_1") == 256.0
    assert double_exp_bound(5, "n_minus_2") == 256.0


def test_minimal_norm_indices_ties():
    a = ComplexVector((1 + 0j,), 0.0)
    b = ComplexVector((1j,), 0.0)
    c = ComplexVector((2 + 0j,), 0.0)
    assert minimal_norm_indices([a, b, c]) == (0, 1)
    assert minimal_norm_indices([c]) == (0,)
    assert minimal_norm_indices([]) == ()


def test_real_solutions_filter():
    a = ComplexVector((1 + 0j, 2 + 0j), 1e-12)
    b = ComplexVector((1j, 0j), 2e-12)
    got = real_solutions([a, b])
    assert got == (a,)
    assert got[0].residual == a.residual


def test_is_maximal_consistent_unit_only():
    s = System(1, [Unit(1)])
    maximal, extensions = is_maximal_consistent(s)
    assert not maximal
    assert Mul(1, 1, 1) in extensions  # x1^2 = x1 holds at x1 = 1


def test_is_maximal_consistent_full_point():
    # x1 = 1 with x1+x1=x2, x1*x1=x1... build the full set of equations
    # satisfied by the single point (1, 2): appending anything else kills it
    n = 2
    point = (1 + 0j, 2 + 0j)
    sat = []
    for eq in universe(n):
        p = equation_polynomial(eq, n, False)
        if abs(p.evaluate(point)) < 1e-12:
            sat.append(eq)
    s = System(n, sat)
    maximal, extensions = is_maximal_consistent(s)
    assert maximal and extensions == []


def test_is_maximal_consistent_rejects_inconsistent():
    s = System(1, [Unit(1), Add(1, 1, 1)])
    with pytest.raises(InconsistentInputError):
        is_maximal_consistent(s)


def test_observation2_examples():
    # single unit keeps its solution
    s = System(1, [Unit(1)])
    assert observation2_hat_search(s, (1 + 0j,)) == (1 + 0j,)

    # homogeneous system admits the zero tuple
    s = System(2, [Add(1, 1, 2)])
    hat = observation2_hat_search(s, (3 + 0j, 6 + 0j))
    assert hat is not None
    polys = to_polynomials(s)
    assert max(abs(p.evaluate(hat)) for p in polys) < 1e-8

    # extremal chain solution (2, 4, 16, 256): 256 exceeds the bound 16, the
    # zero tuple is the replacement
    s = System(4, [Add(1, 1, 2), Mul(1, 1, 2), Mul(2, 2, 3), Mul(3, 3, 4)])
    hat = observation2_hat_search(s, (2, 4, 16, 256))
    assert hat == (0j, 0j, 0j, 0j)


def test_observation2_preconditions():
    with pytest.raises(PreconditionError):
        observation2_hat_search(System(5, []), (0j,) * 5)
    with pytest.raises(PreconditionError):
        observation2_hat_search(System(1, [Unit(1)]), (3 + 0j,))


def test_greedy_trace_replays_consistently():
    # removing the last-appended equation leaves a system that was
    # consistent at append time; replay the trace and verify every prefix
    from eqbounds.poly import buchberger, classify_dimension, MonomialOrder

    pool = full_pool(3, "with_units_fixed_x1")
    poly_of = {c.equation: c.poly for c in pool.candidates}
    for seed in range(4):
        outcome = greedy_saturate(pool, SplitMix64(seed))
        order = MonomialOrder.grevlex(pool.n - 1)
        prefix = []
        for eq in outcome.system.equations:
            prefix.append(poly_of[eq])
            live = [p for p in prefix if not p.is_zero]
            if live:
                basis = buchberger(live, order)
                assert classify_dimension(basis) is not Classification.INCONSISTENT
