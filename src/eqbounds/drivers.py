"""Batch drivers: one per experiment, each returning a Report.

Every driver runs seed -> trial -> check -> witness -> report; `_Run`,
`_seeded`, `_chunked` and `_saturated` hold those steps.
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
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import (
    QMatrix,
    _max_abs_maximal_minor_int,
    min_norm_solution,
    pseudoinverse,
    rational_to_text,
    rref,
    transpose,
)
from .linear import (
    ExhaustiveScan,
    System,
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
)
from .poly import Classification
from .polysys import (
    TrialOutcome,
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


class _Run:
    """One driver run: start time, config, witnesses, tallies and `extra`."""

    def __init__(self, command: str, config: dict, witness_dir: Path | str):
        self.started = time.time()
        self.command = command
        self.config = config
        self.sink = WitnessSink(witness_dir)
        self.tallies: dict[str, int] = {}
        self.extra: dict = {}
        self.violations = 0  # witness bodies written, duplicates included

    def witness(self, body: str) -> None:
        self.violations += 1
        self.sink.add(self.command, body)

    def tally(self, tags: Iterable[str]) -> None:
        for tag in tags:
            self.tallies[tag] = self.tallies.get(tag, 0) + 1

    def collect(self, results: Iterable[tuple[object, Iterable[str]]]) -> list:
        """Statistics of (statistic, witness bodies) results; the bodies are written."""
        stats = []
        for stat, bodies in results:
            for body in bodies:
                self.witness(body)
            stats.append(stat)
        return stats

    def report(self, trials: int, stat_name: str, stat_value: str, bound: str) -> Report:
        witnesses = tuple(self.sink.paths)
        return Report(
            command=self.command,
            config=self.config,
            trials_attempted=trials,
            trials_completed=trials,
            statistic_name=stat_name,
            statistic_value=stat_value,
            bound=bound,
            verdict=decide_verdict(witnesses, self.tallies),
            witnesses=witnesses,
            error_tallies=self.tallies,
            extra=self.extra,
            wall_clock_seconds=time.time() - self.started,
        )


def _map_trials(iters: int, threads: int, worker: Callable[[int], object]) -> list:
    if threads <= 1:
        return [worker(t) for t in range(iters)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(iters)))


def _seeded(iters: int, seed: int, threads: int, trial: Callable) -> list:
    """trial(t, rng) for every trial t, each on its own derived stream."""
    return _map_trials(iters, threads, lambda t: trial(t, SplitMix64(derive_seed(seed, t))))


def _chunked(lo: int, hi: int, threads: int, scan: Callable[[int, int], object]) -> list:
    """scan(a, b) over consecutive chunks [a, b) of [lo, hi), one per thread."""
    size = hi - lo
    if size <= 0:
        return []
    parts = max(1, min(threads, size))
    bounds = [lo + i * (size // parts) for i in range(parts)] + [hi]
    chunks = list(zip(bounds, bounds[1:]))
    return _map_trials(len(chunks), threads, lambda i: scan(*chunks[i]))


def _exhaustive_run(command: str, n: int, seed: int, comb_range: tuple[int, int] | None,
                    total: int, witness_dir: Path | str) -> tuple[_Run, int, int]:
    """The run of a rank-range scan, with the range clamped to [0, total)."""
    lo, hi = comb_range if comb_range is not None else (0, total)
    lo, hi = max(0, lo), min(total, hi)
    config = {"n": n, "mode": "exhaustive", "range": [lo, hi], "seed": seed}
    return _Run(command, config, witness_dir), lo, hi


def _saturated(run: _Run, n: int, pool_variant: str, iters: int, seed: int, threads: int,
               maximal_witness: bool = False) -> Iterator[tuple[int, TrialOutcome]]:
    """Greedy saturation trials; yields (t, outcome) for zero-dimensional ones.

    Solver errors are tallied.  A trial that exhausts the pool while still
    positive-dimensional is tallied; with `maximal_witness` its system is
    re-checked and, when maximal, written as a witness.
    """
    pool = full_pool(n, pool_variant)
    outcomes = _seeded(iters, seed, threads, lambda t, rng: greedy_saturate(pool, rng))
    for t, outcome in enumerate(outcomes):
        run.tally(outcome.errors)
        if outcome.classification is Classification.ZERO_DIMENSIONAL:
            yield t, outcome
            continue
        run.tally(["pool_exhausted_positive_dimensional"])
        if not maximal_witness:
            continue
        if is_maximal_consistent(outcome.system)[0]:
            run.witness(
                poly_witness_text(
                    outcome.system, (), f"maximal positive-dimensional system, trial {t}"
                )
            )
        else:
            run.tally(["positive_dimensional_not_maximal"])


def _random_config(n: int, iters: int, seed: int) -> dict:
    return {"n": n, "mode": "random", "iters": iters, "seed": seed}


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
    run = _Run("conjI", _random_config(n, iters, seed), witness_dir)

    def trial(t: int, rng: SplitMix64):
        s, x = random_unique_system(n, rng)
        if not check_bound_sqrt5(x, n):
            raise AssertionError(
                f"proven root-5 bound violated at trial {t}: solver bug"
            )
        stat = max(abs(v) for v in x)
        if check_bound_pow2(x, n):
            return stat, ()
        return stat, (lin_witness_text(s, x, f"bound violation at trial {t}"),)

    best = max([Fraction(1), *run.collect(_seeded(iters, seed, threads, trial))])
    return run.report(iters, "max_abs_coordinate", rational_to_text(best),
                      rational_to_text(Fraction(2) ** (n - 1)))


def _penrose_ok(a: QMatrix, x: QMatrix) -> bool:
    ax, xa = a @ x, x @ a
    return ax @ a == a and xa @ x == x and transpose(ax) == ax and transpose(xa) == xa


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
    config = {**_random_config(n, iters, seed), "strict_semantics": strict_semantics}
    run = _Run("conj1", config, witness_dir)

    def trial(t: int, rng: SplitMix64):
        enc = random_card_le_n_system(n, rng, verbatim_rhs=not strict_semantics)
        pinv = pseudoinverse(enc.a)
        if not _penrose_ok(enc.a, pinv):
            raise AssertionError(f"pseudoinverse identities failed at trial {t}")
        x0 = pinv @ enc.b
        stat = max(abs(v) for v in x0)
        if check_bound_pow2(x0, n):
            return stat, ()
        s = System(n, enc.provenance)
        return stat, (lin_witness_text(s, x0, f"bound violation at trial {t}"),)

    best = max([Fraction(1), *run.collect(_seeded(iters, seed, threads, trial))])
    return run.report(iters, "max_abs_coordinate", rational_to_text(best),
                      rational_to_text(Fraction(2) ** (n - 1)))


def run_conj4(
    n: int = DEFAULT_N,
    iters: int = DEFAULT_ITERS,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Random unique-solution systems; clamped consecutive ratios must be <= 2."""
    run = _Run("conj4", _random_config(n, iters, seed), witness_dir)

    def trial(t: int, rng: SplitMix64):
        s, x = random_unique_system(n, rng)
        ratio, ok = conj4_check(x)
        if ok:
            return ratio, ()
        return ratio, (lin_witness_text(s, x, f"ratio violation at trial {t}"),)

    best = max([Fraction(1), *run.collect(_seeded(iters, seed, threads, trial))])
    return run.report(iters, "max_clamped_ratio", rational_to_text(best), "2")


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
    bound = 2 ** (n - 1)
    if exhaustive:
        total = comb(len(addition_row_pool(n)), n - 1)
        run, lo, hi = _exhaustive_run("conj3", n, seed, comb_range, total, witness_dir)

        def scan(a: int, b: int):
            counts = ExhaustiveScan()
            max_num = max_den = 1
            bodies = []
            for eqs, sol in exhaustive_unique_systems(n, a, b, scan=counts):
                num, den = conj3_stats(sol)
                max_num = max(max_num, num)
                max_den = max(max_den, den)
                if num > bound or den > bound:  # a System only for a violation
                    bodies.append(
                        lin_witness_text(System(n, eqs), sol, "numerator/denominator violation")
                    )
            return (max_num, max_den, counts), bodies

        stats = run.collect(_chunked(lo, hi, threads, scan))
        trials = sum(c.subsets_considered for _, _, c in stats)
        run.extra.update(subsets_considered=trials,
                         rank_n_systems=sum(c.yielded for _, _, c in stats))
    else:
        run = _Run("conj3", _random_config(n, iters, seed), witness_dir)

        def trial(t: int, rng: SplitMix64):
            s, x = random_unique_system(n, rng)
            num, den = conj3_stats(x)
            if num <= bound and den <= bound:
                return (num, den), ()
            return (num, den), (lin_witness_text(s, x, f"violation at trial {t}"),)

        stats = run.collect(_seeded(iters, seed, threads, trial))
        trials = iters
    max_num = max([1, *(s[0] for s in stats)])
    max_den = max([1, *(s[1] for s in stats)])
    run.extra.update(max_abs_numerator=max_num, max_denominator=max_den)
    return run.report(trials, "max_numerator_or_denominator", str(max(max_num, max_den)),
                      str(bound))


# ---------------------------------------------------------------------------
# conjecture 2 (row-pattern minors)

def _combinations_slice(m: int, k: int, lo: int, hi: int):
    """Lexicographic k-combinations of range(m) with ranks in [lo, hi)."""
    if lo >= hi:
        return
    combo = []
    c = 0  # unrank lo, then step in lexicographic order
    r = lo
    for slot in range(k, 0, -1):
        while comb(m - c - 1, slot - 1) <= r:
            r -= comb(m - c - 1, slot - 1)
            c += 1
        combo.append(c)
        c += 1
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
    bound = 2 ** (n - 1)
    rows = conj2_rows(n)
    m = len(rows)

    def matrix_witness(chosen: Sequence[Sequence[int]], value: int) -> str:
        body = "\n".join(" ".join(str(v) for v in r) for r in chosen)
        return f"# max |minor det| = {value} exceeds {bound}\n{body}\n"

    if exhaustive:
        run, lo, hi = _exhaustive_run("conj2", n, seed, comb_range, comb(m, n - 1), witness_dir)

        def scan(a: int, b: int):
            best = 0
            count = 0
            bodies = []
            for combo in _combinations_slice(m, n - 1, a, b):
                chosen = [rows[i] for i in combo]
                value = _max_abs_maximal_minor_int(list(chosen))
                if value > best:
                    best = value
                if value > bound:
                    bodies.append(matrix_witness(chosen, value))
                count += 1
            return (best, count), bodies

        stats = run.collect(_chunked(lo, hi, threads, scan))
        trials = sum(count for _, count in stats)
        run.extra["combinations"] = trials
        values = [best for best, _ in stats]
    else:
        run = _Run("conj2", _random_config(n, iters, seed), witness_dir)

        def trial(t: int, rng: SplitMix64):
            chosen = [rows[rng.randint(0, m - 1)] for _ in range(n - 1)]
            value = _max_abs_maximal_minor_int(list(chosen))
            if value <= bound:
                return value, ()
            return value, (matrix_witness(chosen, value),)

        values = run.collect(_seeded(iters, seed, threads, trial))
        trials = iters
    best = max([0, *values])
    return run.report(trials, "max_abs_minor_det", str(best), str(bound))


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
    run = _Run("conj5", {**_random_config(n, iters, seed), "variant": variant}, witness_dir)
    exponent = _VARIANT_EXPONENT[variant]
    bound = double_exp_bound(n, exponent)
    max_abs = 0.0 if variant == "d" else 1.0
    zero_dim = 0
    maximal_count = 0
    checked = 0
    for t, outcome in _saturated(run, n, _VARIANT_POOL[variant], iters, seed, threads,
                                 maximal_witness=True):
        zero_dim += 1
        max_abs = max(max_abs, outcome.max_abs_coordinate)
        if variant == "a":
            if not is_maximal_consistent(outcome.system)[0]:
                continue
            maximal_count += 1
        checked += 1
        if not check_bound_double_exp(outcome, n, exponent):
            run.witness(
                poly_witness_text(
                    outcome.system, outcome.solutions, f"bound violation at trial {t}"
                )
            )
    run.extra.update(zero_dimensional_trials=zero_dim, bound_checked_trials=checked)
    if variant == "a":
        run.extra["maximal_trials"] = maximal_count
        run.extra["maximality_rate"] = f"{maximal_count}/{zero_dim}" if zero_dim else "0/0"
    return run.report(iters, "max_abs_coordinate", repr(max_abs), repr(bound))


def run_conjII(
    n: int = 4,
    iters: int = 200,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Minimal-Euclidean-norm solutions of saturated systems must stay
    within 2^(2^(n-2)); the same check runs on the real-filtered subset."""
    run = _Run("conjII", _random_config(n, iters, seed), witness_dir)
    bound = double_exp_bound(n, "n_minus_2")
    max_stat = 1.0
    zero_dim = 0
    for t, outcome in _saturated(run, n, "full_En", iters, seed, threads):
        zero_dim += 1
        picked = [outcome.solutions[i] for i in outcome.min_norm_indices]
        reals = real_solutions(outcome.solutions)
        picked.extend(reals[i] for i in minimal_norm_indices(reals))
        for sol in picked:
            modulus = max((abs(z) for z in sol.entries), default=0.0)
            max_stat = max(max_stat, modulus)
            if modulus > bound + 1e-6:
                run.witness(
                    poly_witness_text(
                        outcome.system, (sol,), f"minimal-norm bound violation, trial {t}"
                    )
                )
    run.extra["zero_dimensional_trials"] = zero_dim
    return run.report(iters, "max_min_norm_modulus", repr(max_stat), repr(bound))


# ---------------------------------------------------------------------------
# hat-replacement observation drivers

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
    if exhaustive:
        if n > 3:
            raise ValueError("exhaustive hat verification supports n <= 3")
        pool = equation_pool(n)
        trials = 1 << len(pool)
        run = _Run("obs1", {"n": n, "mode": "exhaustive", "subsets": trials, "seed": seed},
                   witness_dir)

        def scan(a: int, b: int):
            consistent = 0
            bodies = []
            for mask in range(a, b):
                s = System(n, [pool[i] for i in range(len(pool)) if mask >> i & 1])
                enc = encode(s)
                _, pivots = rref(enc.a.augment(enc.b))
                if n in pivots:  # pivot in the rhs column: inconsistent
                    continue
                consistent += 1
                x = min_norm_solution(enc.a, enc.b)
                if observation1_hat_search(s, x) is None:
                    bodies.append(lin_witness_text(s, x, "hat replacement failed"))
            return consistent, bodies

        run.extra["consistent_systems"] = sum(run.collect(_chunked(0, trials, threads, scan)))
    else:
        run = _Run("obs1", _random_config(n, iters, seed), witness_dir)

        def trial(t: int, rng: SplitMix64):
            s, x = random_unique_system(n, rng)
            if observation1_hat_search(s, x) is not None:
                return None, ()
            return None, (lin_witness_text(s, x, "hat replacement failed"),)

        run.collect(_seeded(iters, seed, threads, trial))
        trials = iters
    return run.report(trials, "hat_misses", str(run.violations), "0")


def run_obs2(
    n: int = 3,
    iters: int = 100,
    seed: int = 0,
    threads: int = 1,
    witness_dir: Path | str = "witnesses",
) -> Report:
    """Hat replacement must succeed for every solution of every
    zero-dimensional system reached by saturation from the given seeds."""
    run = _Run("obs2", _random_config(n, iters, seed), witness_dir)
    searched = 0
    for t, outcome in _saturated(run, n, "full_En", iters, seed, threads):
        for sol in outcome.solutions:
            searched += 1
            if observation2_hat_search(outcome.system, sol.entries) is None:
                run.witness(
                    poly_witness_text(
                        outcome.system, (sol,), f"hat replacement failed, trial {t}"
                    )
                )
    run.extra["solutions_searched"] = searched
    return run.report(iters, "hat_misses", str(run.violations), "0")
