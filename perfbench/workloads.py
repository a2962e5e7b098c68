"""Call lists of the benchmark workloads.

A call is the argument list of one `eqbounds` invocation, without the
`--json` flag the harness appends.  Every list is a pure function of the
workload name and the benchmark seed; the program itself never sees the
benchmark seed, only the calls made from it.  README.md in this directory
says why each workload exists.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
WORKLOADS = ("scan", "trials", "saturation")
# Every run also makes each call once at this thread count, untimed in
# --trace 0, to check that reports do not depend on it.
CHECK_THREADS = 2

Call = tuple[str, ...]

# Rank-space sizes of the n = 5 exhaustive scans: C(54, 4) addition-row
# subsets for conj3 and C(55, 4) pattern-row combinations for conj2.
CONJ3_N5_RANKS = 316251
CONJ2_N5_RANKS = 341055

# Slices start at these twentieths of the rank space, shifted by a
# seed-drawn offset below SLICE_JITTER.  The cost of a conj3 rank differs
# by up to 2.4x between twentieths: 0 and 2 are early ranks, 8 has the
# lowest rank-n yield (the most pruning), 14 and 19 are late ranks.
CONJ3_TWENTIETHS = (0, 2, 8, 14, 19)
CONJ2_TWENTIETHS = (0, 7, 17)
SLICE_JITTER = 1000
# (slice size, partition size) in ranks; each partition is one --range call.
CONJ3_SLICE = (2000, 100)
CONJ2_SLICE = (3000, 500)

# Randomized linear drivers: (subcommand, iterations per call, calls).
# obs1 runs at n = 4, the smallest n where the CLI does not force
# exhaustive mode.
TRIAL_BLOCKS = (
    (("conjI", "--n", "5"), 25, 20),
    (("conj4", "--n", "5"), 25, 20),
    (("conj3", "--n", "5"), 25, 20),
    (("conj1", "--n", "5"), 10, 10),
    (("conj1", "--strict-semantics", "--n", "5"), 10, 10),
    (("obs1", "--n", "4"), 20, 20),
)
# Every mask of the n = 2 obs1 pool (64 systems, 39 inconsistent).  The
# n = 3 scan (32768 masks) is one 23 s call that the CLI cannot partition.
OBS1_EXHAUSTIVE = ("obs1", "--exhaustive", "--n", "2")

# Saturation drivers: (subcommand, n) -> iterations per call, sized so a
# call takes roughly 20-40 ms on a 2-core Xeon VM.  Each call rebuilds the
# candidate pool, so several trials per call buy more random systems per
# second of run; that keeps the seed's share of the spread small.  obs2
# stops at n = 4 because its hat search rejects larger n.
SATURATION_ITERS = {
    **{
        (("conj5", "--variant", v), n): iters
        for n, bc_iters, d_iters in ((4, 12, 6), (5, 8, 4), (6, 4, 4), (7, 4, 2))
        for v, iters in (("b", bc_iters), ("c", bc_iters), ("d", d_iters))
    },
    (("conjII",), 4): 6,
    (("conjII",), 5): 4,
    (("conjII",), 6): 4,
    (("conjII",), 7): 2,
    (("obs2",), 3): 12,
    (("obs2",), 4): 6,
}
SATURATION_CALLS_PER_CELL = 6


def scan_calls(seed: int, threads: int) -> list[Call]:
    """conj3 and conj2 exhaustive n = 5 slices cut into --range partitions."""
    rng = random.Random(seed)
    calls: list[Call] = []
    for command, total, twentieths, (size, part) in (
        ("conj3", CONJ3_N5_RANKS, CONJ3_TWENTIETHS, CONJ3_SLICE),
        ("conj2", CONJ2_N5_RANKS, CONJ2_TWENTIETHS, CONJ2_SLICE),
    ):
        for t in twentieths:
            lo = min(t * total // 20 + rng.randrange(SLICE_JITTER), total - size)
            for a in range(lo, lo + size, part):
                calls.append((command, "--exhaustive", "--n", "5", "--range",
                              f"{a}..{a + part}", "--threads", str(threads)))
    return calls


def _seed_block(rng: random.Random, count: int) -> range:
    """Consecutive per-call seeds starting at a seed-drawn base."""
    base = rng.getrandbits(32)
    return range(base, base + count)


def trials_calls(seed: int) -> list[Call]:
    """Seed blocks of the randomized linear drivers plus an exhaustive obs1 scan."""
    rng = random.Random(seed)
    calls: list[Call] = []
    for prefix, iters, count in TRIAL_BLOCKS:
        for s in _seed_block(rng, count):
            calls.append((*prefix, "--iters", str(iters), "--seed", str(s)))
    calls.append(OBS1_EXHAUSTIVE)
    return calls


def saturation_calls(seed: int) -> list[Call]:
    """Seed blocks of conj5 b/c/d, conjII and obs2 over n = 3..7."""
    rng = random.Random(seed)
    calls: list[Call] = []
    for (prefix, n), iters in SATURATION_ITERS.items():
        for s in _seed_block(rng, SATURATION_CALLS_PER_CELL):
            calls.append((*prefix, "--n", str(n), "--iters", str(iters), "--seed", str(s)))
    return calls


def calls_for(workload: str, seed: int) -> list[Call]:
    if workload == "scan":
        return scan_calls(seed, 1)
    if workload == "trials":
        return trials_calls(seed)
    if workload == "saturation":
        return saturation_calls(seed)
    raise ValueError(f"unknown workload {workload!r}")


def without_threads(call: Call) -> Call:
    out: list[str] = []
    skip = False
    for arg in call:
        if skip:
            skip = False
        elif arg == "--threads":
            skip = True
        else:
            out.append(arg)
    return tuple(out)


def with_threads(call: Call, threads: int) -> Call:
    """The same call at another thread count."""
    return (*without_threads(call), "--threads", str(threads))


def reference_key(call: Call) -> str:
    """Key of a call in the reference file: the thread count is dropped,
    because reports must not depend on it."""
    return " ".join(without_threads(call))


def range_size(call: Call) -> int | None:
    """Number of ranks a --range A..B call must consider, or None."""
    if "--range" not in call:
        return None
    lo, hi = call[call.index("--range") + 1].split("..")
    return int(hi) - int(lo)
