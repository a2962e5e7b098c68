"""Batch drivers: one per experiment, each returning a Report.

Every randomized driver derives an independent child seed per trial, so
results do not depend on scheduling; thread pools only spread the work.
Witness files are content-addressed (sha1 of the body), which keeps
names independent of partitioning, and reports list them sorted.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .linalg import (
    QMatrix,
    _max_abs_maximal_minor_int,
    min_norm_solution,
    pseudoinverse,
    rational_to_text,
    rref,
    solve_unique,
    transpose,
)
from .linear import (
    Add,
    ExhaustiveScan,
    LinSystem,
    Unit,
    addition_row_pool,
    check_bound_pow2,
    check_bound_sqrt5,
    conj2_rows,
    conj3_stats,
    conj4_check,
    encode,
    exhaustive_unique_systems,
    observation1_hat_search,
    random_card_le_n_system,
    random_unique_system,
)
from .poly import Classification
from .polysys import (
    check_bound_double_exp,
    double_exp_bound,
    full_pool,
    greedy_saturate,
    is_maximal_consistent,
    minimal_norm_indices,
    observation2_hat_search,
    real_solutions,
)
from .report import Report, decide_verdict
from .rng import SplitMix64, derive_seed
from .textio import lin_witness_text, poly_witness_text


DEFAULT_N = 5
DEFAULT_ITERS = 1000


class WitnessSink:
    """Collects witness bodies and writes them content-addressed."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.paths: list[str] = []

    def add(self, command: str, body: str) -> None:
        digest = hashlib.sha1(body.encode()).hexdigest()[:16]
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{command}-{digest}.txt"
        path.write_text(body)
        rel = str(path)
        if rel not in self.paths:
            self.paths.append(rel)


def _map_trials(iters: int, threads: int, worker: Callable[[int], object]) -> list:
    if threads <= 1:
        return [worker(t) for t in range(iters)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(iters)))


def _chunk_ranges(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    size = hi - lo
    if size <= 0:
        return []
    parts = max(1, min(parts, size))
    step = size // parts
    bounds = [lo + i * step for i in range(parts)] + [hi]
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]


def _tally(into: dict[str, int], tags: Iterable[str]) -> None:
    for tag in tags:
        into[tag] = into.get(tag, 0) + 1


def _finish(
    command: str,
    config: dict,
    attempted: int,
    completed: int,
    stat_name: str,
    stat_value: str,
    bound: str,
    sink: WitnessSink,
    tallies: dict[str, int],
    extra: dict,
    started: float,
) -> Report:
    witnesses = tuple(sink.paths)
    return Report(
        command=command,
        config=config,
        trials_attempted=attempted,
        trials_completed=completed,
        statistic_name=stat_name,
        statistic_value=stat_value,
        bound=bound,
        verdict=decide_verdict(witnesses, tallies),
        witnesses=witnesses,
        error_tallies=tallies,
        extra=extra,
        wall_clock_seconds=time.time() - started,
    )


# ---------------------------------------------------------------------------
# randomized linear drivers

def run_conjI(
    n: int = DEFAULT_N,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Random unique-solution systems; solutions must stay within 2^(n-1).

    The proven root-5 bound is asserted as a hard correctness gate: a
    violation there is a solver bug and aborts the run.
    """
    started = time.time()
    config = {"n": n, "mode": "random", "iters": iters, "seed": seed}
    bound = Fraction(2) ** (n - 1)

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        s = random_unique_system(n, rng)
        enc = encode(s)
        x = solve_unique(enc.a, enc.b)
        if not check_bound_sqrt5(x, n).passed:
            raise AssertionError(
                f"proven root-5 bound violated at trial {t}: solver bug"
            )
        stat = max(abs(v) for v in x)
        verdict = check_bound_pow2(x, n)
        return stat, s, x, verdict

    results = _map_trials(iters, threads, worker)
    sink = WitnessSink(witness_dir)
    max_stat = Fraction(1)
    for t, (stat, s, x, verdict) in enumerate(results):
        max_stat = max(max_stat, stat)
        if not verdict.passed:
            sink.add("conjI", lin_witness_text(s, x, f"bound violation at trial {t}"))
    return _finish(
        "conjI", config, iters, iters,
        "max_abs_coordinate", rational_to_text(max_stat), rational_to_text(bound),
        sink, {}, {}, started,
    )


def _penrose_ok(a: QMatrix, x: QMatrix) -> bool:
    ax, xa = a @ x, x @ a
    return (a @ x) @ a == a and (x @ a) @ x == x and transpose(ax) == ax and transpose(xa) == xa


def run_conj1(
    n: int = DEFAULT_N,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    strict_semantics: bool = False,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Random card-<=-n systems; minimal-norm least-squares solutions must
    stay within 2^(n-1).  Each pseudoinverse is verified against the four
    defining identities exactly (a failure is a solver bug)."""
    started = time.time()
    config = {
        "n": n, "mode": "random", "iters": iters, "seed": seed,
        "strict_semantics": strict_semantics,
    }
    bound = Fraction(2) ** (n - 1)

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        enc = random_card_le_n_system(n, rng, verbatim_rhs=not strict_semantics)
        pinv = pseudoinverse(enc.a)
        if not _penrose_ok(enc.a, pinv):
            raise AssertionError(f"pseudoinverse identities failed at trial {t}")
        x0 = pinv @ enc.b
        stat = max(abs(v) for v in x0)
        verdict = check_bound_pow2(x0, n)
        return stat, enc, x0, verdict

    results = _map_trials(iters, threads, worker)
    sink = WitnessSink(witness_dir)
    max_stat = Fraction(1)
    for t, (stat, enc, x0, verdict) in enumerate(results):
        max_stat = max(max_stat, stat)
        if not verdict.passed:
            s = LinSystem(n, enc.provenance)
            sink.add("conj1", lin_witness_text(s, x0, f"bound violation at trial {t}"))
    return _finish(
        "conj1", config, iters, iters,
        "max_abs_coordinate", rational_to_text(max_stat), rational_to_text(bound),
        sink, {}, {}, started,
    )


def run_conj4(
    n: int = DEFAULT_N,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Random unique-solution systems; clamped consecutive ratios must be <= 2."""
    started = time.time()
    config = {"n": n, "mode": "random", "iters": iters, "seed": seed}

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        s = random_unique_system(n, rng)
        enc = encode(s)
        x = solve_unique(enc.a, enc.b)
        ratio, ok = conj4_check(x)
        return ratio, ok, s, x

    results = _map_trials(iters, threads, worker)
    sink = WitnessSink(witness_dir)
    max_ratio = Fraction(1)
    for t, (ratio, ok, s, x) in enumerate(results):
        max_ratio = max(max_ratio, ratio)
        if not ok:
            sink.add("conj4", lin_witness_text(s, x, f"ratio violation at trial {t}"))
    return _finish(
        "conj4", config, iters, iters,
        "max_clamped_ratio", rational_to_text(max_ratio), "2",
        sink, {}, {}, started,
    )


# ---------------------------------------------------------------------------
# conjecture 3 (exhaustive and randomized)

def run_conj3(
    n: int = DEFAULT_N,
    exhaustive: bool = True,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    comb_range: tuple[int, int] | None = None,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Numerators and denominators of unique solutions must stay within 2^(n-1)."""
    started = time.time()
    bound = 2 ** (n - 1)
    sink = WitnessSink(witness_dir)
    tallies: dict[str, int] = {}

    if exhaustive:
        pool_size = len(addition_row_pool(n))
        total = comb(pool_size, n - 1)
        lo, hi = comb_range if comb_range is not None else (0, total)
        lo, hi = max(0, lo), min(total, hi)
        config = {"n": n, "mode": "exhaustive", "range": [lo, hi], "seed": seed}

        def chunk_worker(bounds: tuple[int, int]):
            scan = ExhaustiveScan()
            max_num = max_den = 1
            violations = []
            for eqs, sol in exhaustive_unique_systems(n, bounds[0], bounds[1], scan=scan):
                num, den = conj3_stats(sol)
                max_num = max(max_num, num)
                max_den = max(max_den, den)
                if num > bound or den > bound:
                    violations.append((LinSystem(n, eqs), sol))
            return scan, max_num, max_den, violations

        chunks = _chunk_ranges(lo, hi, threads)
        outputs = _map_trials(len(chunks), threads, lambda i: chunk_worker(chunks[i]))
        considered = sum(o[0].subsets_considered for o in outputs)
        yielded = sum(o[0].yielded for o in outputs)
        max_num = max((o[1] for o in outputs), default=1)
        max_den = max((o[2] for o in outputs), default=1)
        for o in outputs:
            for s, sol in o[3]:
                sink.add("conj3", lin_witness_text(s, sol, "numerator/denominator violation"))
        extra = {
            "subsets_considered": considered,
            "rank_n_systems": yielded,
            "max_abs_numerator": max_num,
            "max_denominator": max_den,
        }
        return _finish(
            "conj3", config, considered, considered,
            "max_numerator_or_denominator", str(max(max_num, max_den)), str(bound),
            sink, tallies, extra, started,
        )

    config = {"n": n, "mode": "random", "iters": iters, "seed": seed}

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        s = random_unique_system(n, rng)
        enc = encode(s)
        x = solve_unique(enc.a, enc.b)
        return s, x, conj3_stats(x)

    results = _map_trials(iters, threads, worker)
    max_num = max_den = 1
    for t, (s, x, (num, den)) in enumerate(results):
        max_num = max(max_num, num)
        max_den = max(max_den, den)
        if num > bound or den > bound:
            sink.add("conj3", lin_witness_text(s, x, f"violation at trial {t}"))
    extra = {"max_abs_numerator": max_num, "max_denominator": max_den}
    return _finish(
        "conj3", config, iters, iters,
        "max_numerator_or_denominator", str(max(max_num, max_den)), str(bound),
        sink, tallies, extra, started,
    )


# ---------------------------------------------------------------------------
# conjecture 2 (row-pattern minors)

def _unrank_combination(m: int, k: int, rank_index: int) -> list[int]:
    combo = []
    c = 0
    r = rank_index
    for slot in range(k, 0, -1):
        while comb(m - c - 1, slot - 1) <= r:
            r -= comb(m - c - 1, slot - 1)
            c += 1
        combo.append(c)
        c += 1
    return combo


def _combinations_slice(m: int, k: int, lo: int, hi: int):
    """Lexicographic k-combinations of range(m) with ranks in [lo, hi)."""
    if lo >= hi:
        return
    combo = _unrank_combination(m, k, lo)
    yield tuple(combo)
    for _ in range(hi - lo - 1):
        i = k - 1
        while combo[i] == m - k + i:
            i -= 1
        combo[i] += 1
        for j in range(i + 1, k):
            combo[j] = combo[j - 1] + 1
        yield tuple(combo)


def run_conj2(
    n: int = DEFAULT_N,
    exhaustive: bool = True,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    comb_range: tuple[int, int] | None = None,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Minors of pattern-row stacks must have |det| <= 2^(n-1).

    Exhaustive mode visits unordered row combinations without repetition
    (repeated rows force zero minors); randomized mode samples each of
    the n-1 rows independently and uniformly.
    """
    started = time.time()
    bound = 2 ** (n - 1)
    rows = conj2_rows(n)
    m = len(rows)
    sink = WitnessSink(witness_dir)

    def matrix_witness(chosen: Sequence[Sequence[int]], value: int) -> str:
        body = "\n".join(" ".join(str(v) for v in r) for r in chosen)
        return f"# max |minor det| = {value} exceeds {bound}\n{body}\n"

    if exhaustive:
        total = comb(m, n - 1)
        lo, hi = comb_range if comb_range is not None else (0, total)
        lo, hi = max(0, lo), min(total, hi)
        config = {"n": n, "mode": "exhaustive", "range": [lo, hi], "seed": seed}

        def chunk_worker(bounds: tuple[int, int]):
            best = 0
            count = 0
            violations = []
            for combo in _combinations_slice(m, n - 1, bounds[0], bounds[1]):
                chosen = [rows[i] for i in combo]
                value = _max_abs_maximal_minor_int(list(chosen))
                if value > best:
                    best = value
                if value > bound:
                    violations.append((chosen, value))
                count += 1
            return best, count, violations

        chunks = _chunk_ranges(lo, hi, threads)
        outputs = _map_trials(len(chunks), threads, lambda i: chunk_worker(chunks[i]))
        best = max((o[0] for o in outputs), default=0)
        count = sum(o[1] for o in outputs)
        for o in outputs:
            for chosen, value in o[2]:
                sink.add("conj2", matrix_witness(chosen, value))
        extra = {"combinations": count}
        return _finish(
            "conj2", config, count, count,
            "max_abs_minor_det", str(best), str(bound),
            sink, {}, extra, started,
        )

    config = {"n": n, "mode": "random", "iters": iters, "seed": seed}

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        chosen = [rows[rng.randint(0, m - 1)] for _ in range(n - 1)]
        return chosen, _max_abs_maximal_minor_int(list(chosen))

    results = _map_trials(iters, threads, worker)
    best = 0
    for chosen, value in results:
        best = max(best, value)
        if value > bound:
            sink.add("conj2", matrix_witness(chosen, value))
    return _finish(
        "conj2", config, iters, iters,
        "max_abs_minor_det", str(best), str(bound),
        sink, {}, {}, started,
    )


# ---------------------------------------------------------------------------
# polynomial drivers

_VARIANT_POOL = {
    "a": "full_En",
    "b": "with_units_fixed_x1",
    "c": "with_units_fixed_x1",
    "d": "no_units_all_vars",
}
_VARIANT_EXPONENT = {"a": "n_minus_2", "b": "n_minus_2", "c": "n_minus_2", "d": "n_minus_1"}


def run_conj5(
    variant: str,
    n: int = 4,
    iters: int = 200,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Greedy saturation trials with the variant's candidate pool.

    Variants b and c fix x_1 = 1 and use the double-exponential bound
    2^(2^(n-2)); variant d uses the unit-free pool and 2^(2^(n-1));
    variant a saturates over the full equation universe and checks the
    2^(2^(n-2)) bound on the trials whose final system is verified
    maximal, reporting the maximality rate.
    """
    if variant not in _VARIANT_POOL:
        raise ValueError(f"unknown variant {variant!r}")
    started = time.time()
    config = {"n": n, "mode": "random", "iters": iters, "seed": seed, "variant": variant}
    pool = full_pool(n, _VARIANT_POOL[variant])
    exponent = _VARIANT_EXPONENT[variant]
    bound = double_exp_bound(n, exponent)

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        return greedy_saturate(pool, rng)

    outcomes = _map_trials(iters, threads, worker)
    sink = WitnessSink(witness_dir)
    tallies: dict[str, int] = {}
    max_abs = 0.0 if variant == "d" else 1.0
    zero_dim = 0
    maximal_count = 0
    checked_for_bound = 0
    for t, outcome in enumerate(outcomes):
        _tally(tallies, outcome.errors)
        if outcome.classification is Classification.POSITIVE_DIMENSIONAL:
            _tally(tallies, ["pool_exhausted_positive_dimensional"])
            maximal, _ = is_maximal_consistent(outcome.system)
            if maximal:
                sink.add(
                    "conj5",
                    poly_witness_text(
                        outcome.system, (), f"maximal positive-dimensional system, trial {t}"
                    ),
                )
            else:
                _tally(tallies, ["positive_dimensional_not_maximal"])
            continue
        zero_dim += 1
        max_abs = max(max_abs, outcome.max_abs_coordinate)
        if variant == "a":
            maximal, _ = is_maximal_consistent(outcome.system)
            if not maximal:
                continue
            maximal_count += 1
        checked_for_bound += 1
        if not check_bound_double_exp(outcome, n, exponent):
            sink.add(
                "conj5",
                poly_witness_text(
                    outcome.system, outcome.solutions, f"bound violation at trial {t}"
                ),
            )
    extra = {"zero_dimensional_trials": zero_dim, "bound_checked_trials": checked_for_bound}
    if variant == "a":
        extra["maximal_trials"] = maximal_count
        extra["maximality_rate"] = f"{maximal_count}/{zero_dim}" if zero_dim else "0/0"
    return _finish(
        "conj5", config, iters, iters,
        "max_abs_coordinate", repr(max_abs), repr(bound),
        sink, tallies, extra, started,
    )


def run_conjII(
    n: int = 4,
    iters: int = 200,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Minimal-Euclidean-norm solutions of saturated systems must stay
    within 2^(2^(n-2)); the same check runs on the real-filtered subset."""
    started = time.time()
    config = {"n": n, "mode": "random", "iters": iters, "seed": seed}
    pool = full_pool(n, "full_En")
    bound = double_exp_bound(n, "n_minus_2")

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        return greedy_saturate(pool, rng)

    outcomes = _map_trials(iters, threads, worker)
    sink = WitnessSink(witness_dir)
    tallies: dict[str, int] = {}
    max_stat = 1.0
    zero_dim = 0
    for t, outcome in enumerate(outcomes):
        _tally(tallies, outcome.errors)
        if outcome.classification is not Classification.ZERO_DIMENSIONAL:
            _tally(tallies, ["pool_exhausted_positive_dimensional"])
            continue
        zero_dim += 1
        picked = [outcome.solutions[i] for i in outcome.min_norm_indices]
        reals = real_solutions(outcome.solutions)
        picked.extend(reals[i] for i in minimal_norm_indices(reals))
        for sol in picked:
            modulus = max((abs(z) for z in sol.entries), default=0.0)
            max_stat = max(max_stat, modulus)
            if modulus > bound + 1e-6:
                sink.add(
                    "conjII",
                    poly_witness_text(
                        outcome.system, (sol,), f"minimal-norm bound violation, trial {t}"
                    ),
                )
    extra = {"zero_dimensional_trials": zero_dim}
    return _finish(
        "conjII", config, iters, iters,
        "max_min_norm_modulus", repr(max_stat), repr(bound),
        sink, tallies, extra, started,
    )


# ---------------------------------------------------------------------------
# hat-replacement observation drivers

def _wn_equation_pool(n: int) -> list[Unit | Add]:
    """Equations of the linear universe deduplicated by their encoding."""
    seen: set[tuple[tuple[int, ...], int]] = set()
    pool: list[Unit | Add] = []
    for i in range(1, n + 1):
        eq = Unit(i)
        enc = encode(LinSystem(n, [eq]))
        key = (tuple(enc.a.row(0)), 1)
        if key not in seen:
            seen.add(key)
            pool.append(eq)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            for k in range(1, n + 1):
                eq = Add(i, j, k)
                enc = encode(LinSystem(n, [eq]))
                key = (tuple(enc.a.row(0)), 0)
                if key not in seen:
                    seen.add(key)
                    pool.append(eq)
    return pool


def run_obs1(
    n: int = 3,
    exhaustive: bool = True,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Hat replacement must succeed for every consistent linear system.

    Exhaustive mode enumerates every subset of the encoding-deduplicated
    equation pool (n <= 3); each consistent subset is solved by its
    minimal-norm solution and handed to the grid search.
    """
    started = time.time()
    sink = WitnessSink(witness_dir)
    misses = 0
    if exhaustive:
        if n > 3:
            raise ValueError("exhaustive hat verification supports n <= 3")
        pool = _wn_equation_pool(n)
        total = 1 << len(pool)
        config = {"n": n, "mode": "exhaustive", "subsets": total, "seed": seed}

        def chunk_worker(bounds: tuple[int, int]):
            found_misses = []
            consistent = 0
            for mask in range(bounds[0], bounds[1]):
                eqs = [pool[i] for i in range(len(pool)) if mask >> i & 1]
                s = LinSystem(n, eqs)
                enc = encode(s)
                _, pivots = rref(enc.a.augment(enc.b))
                if n in pivots:  # pivot in the rhs column: inconsistent
                    continue
                consistent += 1
                x = min_norm_solution(enc.a, enc.b)
                if observation1_hat_search(s, x) is None:
                    found_misses.append((s, x))
            return consistent, found_misses

        chunks = _chunk_ranges(0, total, threads)
        outputs = _map_trials(len(chunks), threads, lambda i: chunk_worker(chunks[i]))
        consistent = sum(o[0] for o in outputs)
        for o in outputs:
            for s, x in o[1]:
                misses += 1
                sink.add("obs1", lin_witness_text(s, x, "hat replacement failed"))
        extra = {"consistent_systems": consistent}
        return _finish(
            "obs1", config, total, total,
            "hat_misses", str(misses), "0",
            sink, {}, extra, started,
        )

    config = {"n": n, "mode": "random", "iters": iters, "seed": seed}

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        s = random_unique_system(n, rng)
        enc = encode(s)
        x = solve_unique(enc.a, enc.b)
        return s, x, observation1_hat_search(s, x)

    results = _map_trials(iters, threads, worker)
    for s, x, hat in results:
        if hat is None:
            misses += 1
            sink.add("obs1", lin_witness_text(s, x, "hat replacement failed"))
    return _finish(
        "obs1", config, iters, iters,
        "hat_misses", str(misses), "0",
        sink, {}, {}, started,
    )


def run_obs2(
    n: int = 3,
    iters: int = 100,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Hat replacement must succeed for every solution of every
    zero-dimensional system reached by saturation from the given seeds."""
    started = time.time()
    config = {"n": n, "mode": "random", "iters": iters, "seed": seed}
    pool = full_pool(n, "full_En")

    def worker(t: int):
        rng = SplitMix64(derive_seed(seed, t))
        return greedy_saturate(pool, rng)

    outcomes = _map_trials(iters, threads, worker)
    sink = WitnessSink(witness_dir)
    tallies: dict[str, int] = {}
    misses = 0
    searched = 0
    for t, outcome in enumerate(outcomes):
        _tally(tallies, outcome.errors)
        if outcome.classification is not Classification.ZERO_DIMENSIONAL:
            _tally(tallies, ["pool_exhausted_positive_dimensional"])
            continue
        for sol in outcome.solutions:
            searched += 1
            if observation2_hat_search(outcome.system, sol.entries) is None:
                misses += 1
                sink.add(
                    "obs2",
                    poly_witness_text(
                        outcome.system, (sol,), f"hat replacement failed, trial {t}"
                    ),
                )
    extra = {"solutions_searched": searched}
    return _finish(
        "obs2", config, iters, iters,
        "hat_misses", str(misses), "0",
        sink, tallies, extra, started,
    )
