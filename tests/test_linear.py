from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from eqbounds.linalg import (
    QMatrix,
    _max_abs_maximal_minor_int,
    is_consistent,
    min_norm_solution,
    qvec,
    rank,
    solve_cramer,
)
from eqbounds.linear import (
    Add,
    CapExceededError,
    ExhaustiveScan,
    Mul,
    PreconditionError,
    System,
    Unit,
    addition_row_pool,
    check_bound_pow2,
    check_bound_sqrt5,
    conj2_rows,
    conj3_stats,
    conj4_check,
    encode,
    equation_pool,
    exhaustive_unique_systems,
    observation1_hat_search,
    random_card_le_n_system,
    random_unique_system,
    solves,
    universe,
)
from eqbounds.rng import SplitMix64

F = Fraction


def test_add_canonical_order():
    assert Add(3, 1, 2) == Add(1, 3, 2)
    assert Add(3, 1, 2).i == 1 and Add(3, 1, 2).j == 3


def test_system_rejects_bad_indices_and_dedupes():
    with pytest.raises(ValueError):
        System(2, [Unit(3)])
    with pytest.raises(ValueError):
        System(2, [Mul(1, 3, 2)])
    s = System(2, [Unit(1), Unit(1), Add(1, 2, 2), Add(2, 1, 2), Mul(2, 1, 2)])
    assert s.equations == (Unit(1), Add(1, 2, 2), Mul(1, 2, 2))
    assert s.unknowns == 2 and System(2, [], fix_x1=True).unknowns == 1


def test_solves_reads_each_operation():
    s = System(3, [Unit(1), Add(1, 1, 2), Mul(2, 2, 3)])
    assert solves(s, qvec([1, 2, 4]))
    assert not solves(s, qvec([1, 2, 3]))  # 2 * 2 != 3
    assert not solves(s, qvec([1, 3, 9]))  # 1 + 1 != 3
    assert not solves(s, qvec([2, 4, 16]))  # x1 != 1
    # 1 * 5 = 5 holds where 1 + 5 = 5 would not
    assert solves(System(2, [Mul(1, 2, 2)]), qvec([1, 5]))


def test_universe_order_and_size():
    # units, then additions, then multiplications, each in index order
    assert universe(2) == [
        Unit(1), Unit(2),
        Add(1, 1, 1), Add(1, 1, 2), Add(1, 2, 1), Add(1, 2, 2), Add(2, 2, 1), Add(2, 2, 2),
        Mul(1, 1, 1), Mul(1, 1, 2), Mul(1, 2, 1), Mul(1, 2, 2), Mul(2, 2, 1), Mul(2, 2, 2),
    ]
    for n in (1, 3, 4):
        assert len(universe(n)) == n + n * n * (n + 1) == len(set(universe(n)))


def test_encode_examples():
    enc = encode(System(2, [Unit(1), Add(1, 1, 2)]))
    assert enc.a == QMatrix([[1, 0], [2, -1]])
    assert enc.b == qvec([1, 0])

    enc = encode(System(2, [Add(1, 2, 1)]))
    assert enc.a == QMatrix([[0, 1]])
    assert enc.b == qvec([0])

    enc = encode(System(1, [Add(1, 1, 1)]))
    assert enc.a == QMatrix([[1]])
    assert enc.b == qvec([0])

    with pytest.raises(ValueError):
        encode(System(2, [Unit(1), Mul(1, 1, 2)]))


def test_encode_entries_in_range():
    rng = SplitMix64(8)
    for _ in range(200):
        n = rng.randint(1, 5)
        eq = Add(rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
        enc = encode(System(n, [eq]))
        assert all(v in (-1, 0, 1, 2) for v in enc.a.row(0))


def test_random_unique_system():
    rng = SplitMix64(1)
    assert random_unique_system(1, rng) == (System(1, [Unit(1)]), qvec([1]))
    for _ in range(20):
        s, x = random_unique_system(5, rng)
        enc = encode(s)
        assert rank(enc.a) == 5
        assert s.equations[0] == Unit(1)
        assert x == solve_cramer(enc.a, enc.b)
    # determinism
    a = random_unique_system(5, SplitMix64(42))
    b = random_unique_system(5, SplitMix64(42))
    assert a == b


def test_random_unique_system_keeps_exactly_rank_raising_rows():
    # replay the same draws with a rational rank oracle
    for n in (2, 3, 4, 5):
        for seed in range(25):
            rng = SplitMix64(seed)
            kept = [Unit(1)]
            while rank(encode(System(n, kept)).a) < n:
                eq = Add(rng.randint(1, n), rng.randint(1, n), rng.randint(1, n))
                if rank(encode(System(n, kept + [eq])).a) > len(kept):
                    kept.append(eq)
            assert random_unique_system(n, SplitMix64(seed))[0].equations == tuple(kept)


def test_random_card_le_n_system_rhs_rule():
    # draws are consumed three at a time (i, j, k); with k == j the verbatim
    # rule sets the right-hand side to 1 and the row reads x_i = 1
    for seed in range(100, 150):
        enc = random_card_le_n_system(3, SplitMix64(seed))
        assert enc.a.rows == 3
        assert enc.b[0] == 1
        for r in range(1, 3):
            eq = enc.provenance[r]
            if isinstance(eq, Unit):
                assert enc.b[r] == 1
                assert list(enc.a.row(r)).count(1) == 1
            else:
                assert enc.b[r] == 0
    strict = random_card_le_n_system(3, SplitMix64(7), verbatim_rhs=False)
    assert all(v == 0 for v in strict.b[1:])


def test_random_card_le_n_n1():
    enc = random_card_le_n_system(1, SplitMix64(0))
    assert enc.a == QMatrix([[1]])
    assert enc.b == qvec([1])


def test_addition_row_pool_counts():
    # distinct rows: (n-1) cancellations + n(n-1) doubled + C(n,2)(n-2) spread
    for n in (2, 3, 4, 5):
        expected = (n - 1) + n * (n - 1) + comb(n, 2) * (n - 2)
        assert len(addition_row_pool(n)) == expected
    assert len(addition_row_pool(5)) == 54


def test_addition_row_pool_n2():
    rows = [row for row, _ in addition_row_pool(2)]
    assert rows == [(2, -1), (0, 1), (-1, 2)]


def test_equation_pool_matches_encoding_dedup():
    # oracle: deduplicate the universe by the encoded row and rhs of a
    # one-equation system, keeping first occurrences (obs1 masks index this order)
    for n in (1, 2, 3, 4):
        universe = [Unit(i) for i in range(1, n + 1)] + [
            Add(i, j, k)
            for i in range(1, n + 1) for j in range(i, n + 1) for k in range(1, n + 1)
        ]
        seen, expected = set(), []
        for eq in universe:
            enc = encode(System(n, [eq]))
            key = (tuple(enc.a.row(0)), enc.b[0])
            if key not in seen:
                seen.add(key)
                expected.append(eq)
        assert equation_pool(n) == expected
    assert len(equation_pool(2)) == 6


def test_exhaustive_n2_full_enumeration_oracle():
    # hand enumeration: {e1,(2,-1)} -> (1,2); {e1,(0,1)} -> (1,0); {e1,(-1,2)} -> (1,1/2)
    got = {sol for _, sol in exhaustive_unique_systems(2)}
    assert got == {qvec([1, 2]), qvec([1, 0]), qvec([1, F(1, 2)])}
    for _, sol in exhaustive_unique_systems(2):
        num, den = conj3_stats(sol)
        assert num <= 2 and den <= 2


def test_exhaustive_yields_satisfy_system():
    for eqs, sol in exhaustive_unique_systems(3):
        enc = encode(System(3, eqs))
        assert enc.a @ sol == enc.b


def test_exhaustive_solutions_match_rational_solver():
    for n in (3, 4):
        for eqs, sol in exhaustive_unique_systems(n):
            enc = encode(System(n, eqs))
            assert sol == solve_cramer(enc.a, enc.b)


def test_exhaustive_matches_bruteforce_on_n3():
    # independent oracle: plain combinations + rank filter
    pool = addition_row_pool(3)
    e1 = (1, 0, 0)
    expected = 0
    for subset in combinations(range(len(pool)), 2):
        rows = [e1] + [list(pool[i][0]) for i in subset]
        if rank(QMatrix(rows, cols=3)) == 3:
            expected += 1
    scan = ExhaustiveScan()
    yielded = sum(1 for _ in exhaustive_unique_systems(3, scan=scan))
    assert yielded == expected
    assert scan.subsets_considered == comb(len(pool), 2)


def test_exhaustive_contains_doubling_chain():
    for n in (2, 3, 4):
        chain_solution = qvec([2**i for i in range(n)])
        assert any(sol == chain_solution for _, sol in exhaustive_unique_systems(n))


def test_exhaustive_range_partition():
    total = comb(len(addition_row_pool(3)), 2)
    split = total // 3
    merged = []
    for lo, hi in ((0, split), (split, 2 * split), (2 * split, total)):
        merged.extend(sol for _, sol in exhaustive_unique_systems(3, start=lo, end=hi))
    full = [sol for _, sol in exhaustive_unique_systems(3)]
    assert merged == full


def test_exhaustive_cap():
    with pytest.raises(CapExceededError):
        next(exhaustive_unique_systems(6))


def test_check_bound_pow2():
    assert check_bound_pow2(qvec([1, 2, 4, 8, 16]), 5) is True
    assert check_bound_pow2(qvec([17, 0, 0, 0, 0]), 5) is False
    assert check_bound_pow2(qvec([0, 0]), 2) is True


def test_check_bound_sqrt5():
    assert check_bound_sqrt5(qvec([1, 2]), 2) is True  # 4 <= 5
    assert check_bound_sqrt5(qvec([1, 2, 4, 8, 16]), 5) is True  # 256 <= 625
    assert check_bound_sqrt5(qvec([3]), 1) is False  # 9 > 1


def test_conj3_stats():
    assert conj3_stats(qvec([F(1, 2), 3])) == (3, 2)
    assert conj3_stats(qvec([1, 2, 4, 8, 16])) == (16, 1)
    assert conj3_stats(qvec([0])) == (0, 1)


def test_conj4_check():
    ratio, ok = conj4_check(qvec([F(1, 4), F(3, 4), 1, F(3, 2), 2, 3]))
    assert (ratio, ok) == (F(3, 2), True)
    ratio, ok = conj4_check(qvec([0, 1]))
    assert (ratio, ok) == (F(1), True)
    ratio, ok = conj4_check(qvec([1, 3]))
    assert (ratio, ok) == (F(3), False)


def test_conj2_rows_counts():
    assert set(conj2_rows(2)) == {(1, 0), (0, 1), (-1, 2), (2, -1)}
    for n in (2, 3, 4, 5):
        expected = n + 2 * comb(n, 2) + 3 * comb(n, 3)
        rows = conj2_rows(n)
        assert len(rows) == expected
        assert len(set(rows)) == expected
    assert len(conj2_rows(4)) == 28
    assert len(conj2_rows(5)) == 55


def test_conj2_check_examples():
    # the doubling stacks attain 2^(n-1); a repeated row forces every minor to 0
    assert _max_abs_maximal_minor_int([(2, -1, 0), (0, 2, -1)]) == 4
    assert _max_abs_maximal_minor_int([(2, -1, 0, 0), (0, 2, -1, 0), (0, 0, 2, -1)]) == 8
    assert _max_abs_maximal_minor_int([(1, 0, 0), (1, 0, 0)]) == 0


def test_observation1_examples():
    s = System(2, [Unit(1), Add(1, 1, 2)])
    assert observation1_hat_search(s, qvec([1, 2])) == qvec([1, 2])

    empty = System(1, [])
    assert observation1_hat_search(empty, qvec([7])) == qvec([0])

    s = System(3, [Add(1, 2, 3)])
    hat = observation1_hat_search(s, qvec([3, -3, 0]))
    assert hat is not None and solves(s, hat)
    grid = {qvec([3, -3, 0])[i] for i in range(3)} | {F(0), F(1), F(2), F(1, 2)}
    assert all(v in grid for v in hat)


def test_observation1_preconditions():
    with pytest.raises(PreconditionError):
        observation1_hat_search(System(5, []), qvec([0] * 5))
    with pytest.raises(PreconditionError):
        observation1_hat_search(System(2, [Unit(1)]), qvec([0, 0]))


def test_generated_solutions_pass_proven_bound():
    rng = SplitMix64(2718)
    for _ in range(50):
        _, x = random_unique_system(4, rng)
        assert check_bound_sqrt5(x, 4)


def test_min_norm_solves_consistent_linear_systems():
    rng = SplitMix64(135)
    for _ in range(80):
        n = rng.randint(1, 4)
        eqs = []
        for _ in range(rng.randint(0, 6)):
            if rng.randint(0, 4) == 0:
                eqs.append(Unit(rng.randint(1, n)))
            else:
                eqs.append(Add(rng.randint(1, n), rng.randint(1, n), rng.randint(1, n)))
        s = System(n, eqs)
        enc = encode(s)
        if not is_consistent(enc.a, enc.b):
            continue
        x = min_norm_solution(enc.a, enc.b)
        assert solves(s, x)
