"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Every tolerance is pinned here; the randomized criteria
use the frozen seed below.
"""

from fractions import Fraction
from math import comb

import pytest

from eqbounds import drivers
from eqbounds.linalg import (
    QMatrix,
    det_bareiss,
    min_norm_solution,
    rank,
    solve_cramer,
    transpose,
)
from eqbounds.linear import (
    Add,
    ExhaustiveScan,
    System,
    Unit,
    check_bound_pow2,
    conj3_stats,
    conj4_check,
    encode,
    exhaustive_unique_systems,
    random_unique_system,
)
from eqbounds.poly import Classification, MonomialOrder, buchberger, standard_monomial_count
from eqbounds.polysys import full_pool, greedy_saturate, to_polynomials
from eqbounds.rng import SplitMix64, derive_seed
from eqbounds.solve import solve_zero_dim

SEED = 20250809
F = Fraction


_reporter = None


@pytest.fixture(autouse=True, scope="module")
def _terminal(request):
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def record(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status} ({detail})"
    # the terminal reporter writes through pytest's capture, so the line
    # shows up in piped output as well
    if _reporter is not None:
        _reporter.write_line(line)
    else:
        print(line)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_conj3_exhaustive_n5(tmp_path):
    # full scan: every (n-1)-subset of the 54-row pool, exact zero-tolerance bounds
    scan = ExhaustiveScan()
    max_num = max_den = 1
    for _, sol in exhaustive_unique_systems(5, scan=scan):
        num, den = conj3_stats(sol)
        max_num = max(max_num, num)
        max_den = max(max_den, den)
    ok = (
        scan.subsets_considered == comb(54, 4) == 316251
        and max_num <= 16
        and max_den <= 16
    )
    # disjoint range partitions merge to the same statistics
    total = comb(54, 4)
    cut = total // 4
    bounds = [(i * cut, (i + 1) * cut if i < 3 else total) for i in range(4)]
    part_num = part_den = 1
    part_considered = 0
    for lo, hi in bounds:
        s = ExhaustiveScan()
        for _, sol in exhaustive_unique_systems(5, start=lo, end=hi, scan=s):
            num, den = conj3_stats(sol)
            part_num = max(part_num, num)
            part_den = max(part_den, den)
        part_considered += s.subsets_considered
    ok = ok and part_considered == total and (part_num, part_den) == (max_num, max_den)
    record(
        "1",
        ok,
        f"316251 subsets, max |numerator| = {max_num}, max denominator = {max_den}, "
        f"partitioned scan agrees",
    )


def test_criterion_2_doubling_chain_tightness():
    n = 8
    s = System(n, [Unit(1)] + [Add(i, i, i + 1) for i in range(1, n)])
    enc = encode(s)
    x = solve_cramer(enc.a, enc.b)
    expected = tuple(F(2) ** i for i in range(n))
    ok = x == expected and check_bound_pow2(x, n) and max(abs(v) for v in x) == F(2) ** (n - 1)
    record("2", ok, f"solution {tuple(int(v) for v in x)}, boundary 128 passes exactly")


def test_criterion_3_squaring_chain_two_solutions():
    order = MonomialOrder.lex(4)
    from eqbounds.poly import Polynomial

    x1, x2, x3, x4 = (Polynomial.variable(i, 4, order) for i in range(4))
    gens = [x1 + x1 - x2, x1 * x1 - x2, x2 * x2 - x3, x3 * x3 - x4]
    sols = solve_zero_dim(gens)
    expected = [(0, 0, 0, 0), (2, 4, 16, 256)]
    ok = len(sols) == 2 and all(
        abs(z - w) <= 1e-9
        for sol, exp in zip(sols, expected)
        for z, w in zip(sol.entries, exp)
    )
    record("3", ok, f"{len(sols)} solutions, matched to (0,0,0,0) and (2,4,16,256) at 1e-9")


def test_criterion_4_conjI_randomized_n5(tmp_path):
    # the driver hard-asserts the proven root-5 bound on every trial
    report = drivers.run_conjI(n=5, iters=1000, seed=SEED, witness_dir=tmp_path)
    ok = report.verdict == "confirmed-at-scale" and not report.witnesses
    ok = ok and F(report.statistic_value) <= 16
    record("4", ok, f"1000 trials, max |coordinate| = {report.statistic_value} <= 16, "
                  f"root-5 gate never tripped")


def test_criterion_5_conj1_randomized_both_semantics(tmp_path):
    # Penrose identities are asserted exactly inside the driver per trial
    verbatim = drivers.run_conj1(n=5, iters=1000, seed=SEED, witness_dir=tmp_path)
    strict = drivers.run_conj1(
        n=5, iters=1000, seed=SEED, strict_semantics=True, witness_dir=tmp_path
    )
    ok = all(
        r.verdict == "confirmed-at-scale" and not r.witnesses and F(r.statistic_value) <= 16
        for r in (verbatim, strict)
    )
    record("5", ok, f"verbatim max = {verbatim.statistic_value}, "
                  f"strict max = {strict.statistic_value}, both <= 16 exactly")


def test_criterion_6_conj2_exhaustive(tmp_path):
    from tests.test_linalg import max_minor_by_determinants

    r4 = drivers.run_conj2(n=4, exhaustive=True, witness_dir=tmp_path)
    chain_rows = [(2, -1, 0, 0), (0, 2, -1, 0), (0, 0, 2, -1)]
    chain_value = max_minor_by_determinants(chain_rows)
    r5 = drivers.run_conj2(n=5, exhaustive=True, witness_dir=tmp_path)
    ok = (
        r4.trials_attempted == comb(28, 3) == 3276
        and int(r4.statistic_value) == 8
        and chain_value == 8
        and r5.trials_attempted == comb(55, 4) == 341055
        and int(r5.statistic_value) <= 16
    )
    record("6", ok, f"n=4: 3276 combos max {r4.statistic_value} attained by the chain; "
                  f"n=5: 341055 combos max {r5.statistic_value} <= 16")


def test_criterion_7_conj4_randomized(tmp_path):
    report = drivers.run_conj4(n=5, iters=1000, seed=SEED, witness_dir=tmp_path)
    ratio, ok_clamp = conj4_check(tuple(map(F, (F(1, 4), F(3, 4), 1, F(3, 2), 2, 3))))
    ok = (
        report.verdict == "confirmed-at-scale"
        and F(report.statistic_value) <= 2
        and ratio == F(3, 2)
        and ok_clamp
    )
    record("7", ok, f"1000 trials max ratio {report.statistic_value} <= 2; "
                  f"clamp on the positive counterexample tuple gives 3/2")


def test_criterion_8_conj5_bc_saturation(tmp_path):
    reports = []
    for variant in ("b", "c"):
        reports.append((variant, 4, drivers.run_conj5(variant, n=4, iters=200, seed=SEED,
                                                      witness_dir=tmp_path)))
        reports.append((variant, 5, drivers.run_conj5(variant, n=5, iters=50, seed=SEED,
                                                      witness_dir=tmp_path)))
    ok = True
    details = []
    for variant, n, r in reports:
        iters = 200 if n == 4 else 50
        bound = 16.0 if n == 4 else 256.0
        good = (
            r.verdict == "confirmed-at-scale"
            and r.extra["zero_dimensional_trials"] == iters
            and float(r.statistic_value) <= bound + 1e-6
            and "pool_exhausted_positive_dimensional" not in r.error_tallies
        )
        ok = ok and good
        details.append(f"{variant}/n={n}: max {r.statistic_value}")
    record("8", ok, "; ".join(details))


def test_criterion_9a_bareiss_vs_cofactor():
    from tests.test_linalg import det_cofactor

    rng = SplitMix64(derive_seed(SEED, 91))
    ok = True
    for _ in range(1000):
        size = rng.randint(1, 4)
        rows = [[rng.randint(-1, 2) for _ in range(size)] for _ in range(size)]
        if det_bareiss(QMatrix(rows)) != det_cofactor(rows):
            ok = False
            break
    record("9a", ok, "1000 random matrices up to 4x4, Bareiss equals cofactor expansion")


def test_criterion_9b_cramer_vs_echelon():
    rng = SplitMix64(derive_seed(SEED, 92))
    ok = True
    for t in range(500):
        n = 3 + t % 3
        s, x = random_unique_system(n, rng)
        enc = encode(s)
        if solve_cramer(enc.a, enc.b) != x:
            ok = False
            break
    record("9b", ok, "500 random invertible encodings, Cramer equals the echelon's solution")


def test_criterion_9c_zero_dim_solutions():
    ok = True
    solved = 0
    trial = 0
    pools = {3: full_pool(3, "full_En"), 4: full_pool(4, "full_En")}
    while solved < 100 and trial < 400:
        n = 3 if trial % 2 == 0 else 4
        rng = SplitMix64(derive_seed(SEED, 9300 + trial))
        trial += 1
        outcome = greedy_saturate(pools[n], rng)
        if outcome.classification is not Classification.ZERO_DIMENSIONAL:
            continue
        solved += 1
        polys = to_polynomials(outcome.system)
        if not polys:
            continue
        basis = buchberger(polys, MonomialOrder.lex(polys[0].nvars))
        cap = standard_monomial_count(basis)
        if len(outcome.solutions) > cap:
            ok = False
            break
        if any(sol.residual >= 1e-8 for sol in outcome.solutions):
            ok = False
            break
    ok = ok and solved == 100
    record("9c", ok, f"{solved} random zero-dimensional systems: residual < 1e-8 and "
                   f"solution count within the staircase bound")


def test_criterion_9d_min_norm_row_space():
    rng = SplitMix64(derive_seed(SEED, 94))
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = QMatrix([[rng.randint(-1, 2) for _ in range(cols)] for _ in range(rows)])
        b = [rng.randint(-2, 2) for _ in range(rows)]
        x0 = min_norm_solution(a, b)
        at = transpose(a)
        if rank(at) != rank(at.augment(x0)):
            ok = False
            break
    record("9d", ok, "500 random (A, b): minimal-norm solution lies in the row space (exact rank)")


def test_criterion_10_observations(tmp_path):
    ok = True
    details = []
    for n in (1, 2, 3):
        r = drivers.run_obs1(n=n, exhaustive=True, witness_dir=tmp_path)
        good = r.verdict == "confirmed-at-scale" and r.statistic_value == "0"
        ok = ok and good
        details.append(f"obs1 n={n}: {r.extra['consistent_systems']} consistent systems")
    for n in (2, 3):
        r = drivers.run_obs2(n=n, iters=100, seed=SEED, witness_dir=tmp_path)
        good = r.verdict == "confirmed-at-scale" and r.statistic_value == "0"
        ok = ok and good
        details.append(f"obs2 n={n}: {r.extra['solutions_searched']} solutions searched")
    record("10", ok, "; ".join(details) + "; hat replacement never failed")


def test_criterion_11_determinism(tmp_path):
    runs = {
        "conjI": lambda threads: drivers.run_conjI(
            n=5, iters=1000, seed=SEED, threads=threads, witness_dir=tmp_path),
        "conj1": lambda threads: drivers.run_conj1(
            n=5, iters=1000, seed=SEED, threads=threads, witness_dir=tmp_path),
        "conj4": lambda threads: drivers.run_conj4(
            n=5, iters=1000, seed=SEED, threads=threads, witness_dir=tmp_path),
        "conj5-n4": lambda threads: drivers.run_conj5(
            "b", n=4, iters=200, seed=SEED, threads=threads, witness_dir=tmp_path),
        "conj5-n5": lambda threads: drivers.run_conj5(
            "b", n=5, iters=50, seed=SEED, threads=threads, witness_dir=tmp_path),
    }
    ok = True
    for name, run in runs.items():
        first = run(1).to_json()
        again = run(1).to_json()
        threaded = run(8).to_json()
        if not (first == again == threaded):
            ok = False
            break
    record("11", ok, "conjI/conj1/conj4/conj5 reports byte-identical across reruns "
                   "and thread counts 1 vs 8")
