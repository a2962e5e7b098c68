"""eqbounds benchmark.

Drives the program through its stable entry point, in-process calls to
`eqbounds.cli.main([..., "--json"])`, over the fixed call list of one
workload (see README.md in this directory), and checks every report.
Run it from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

With `--trace 0` each call is first made once at two threads, untimed, so
the gate compares reports across thread counts; then the call list is
repeated untraced while the next round is expected to end within
`--seconds` (and at least three times), and the end-to-end metrics are
printed.  With `--trace 1` untraced rounds at one and at two threads
alternate with traced rounds, and the per-layer metrics are printed.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it record the machine and the
sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3  # untraced rounds per run; a call's cost is its upper quartile over them
DEADLINE_S = 120.0  # no round starts later than this into the measurement
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from eqbounds import cli; "
    "raise SystemExit(cli.main(['conjI', '--n', '1', '--iters', '1', '--json']))"
)
SPIN_LOOPS = 3_000_000


def import_cli():
    """eqbounds.cli from this checkout's sources, never an installed copy."""
    package = SRC / "eqbounds"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"perfbench: no eqbounds sources in {package}")
    sys.path.insert(0, str(SRC))
    from eqbounds import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, expected {package}")
    return cli


def spin_seconds() -> float:
    """A fixed pure-Python loop, timed to show the machine's speed drift."""
    start = perf_counter()
    total = 0
    for i in range(SPIN_LOOPS):
        total += i
    return perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "spin_s": spin_seconds(),
    }


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import eqbounds, parse one
    command line and answer it; the first start only warms caches."""
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        elapsed = perf_counter() - start
        if proc.returncode != 0 or not proc.stdout.lstrip().startswith("{"):
            raise SystemExit(f"perfbench: set-up call failed: {proc.stderr.strip()}")
        if attempt:
            times.append(elapsed)
    return statistics.median(times)


def run_round(main, calls, checker: gate.Gate) -> list[float]:
    """Run every call once and return each call's latency.  Reports are
    judged after the last call, so checking stays out of the timings."""
    results = [gate.run_call(main, call) for call in calls]
    for call, result in zip(calls, results):
        checker.judge(call, result)
    return [r.seconds for r in results]


def keep_going(rounds: int, start: float, seconds: float, min_rounds: int) -> bool:
    """Start another round while one is expected to end within `seconds`."""
    elapsed = perf_counter() - start
    if rounds == 0:
        return True
    if elapsed >= DEADLINE_S:
        return False
    return rounds < min_rounds or elapsed + elapsed / rounds <= seconds


def per_call_costs(rounds: list[list[float]]) -> list[float]:
    """Each call's upper-quartile time over the rounds."""
    return [statistics.quantiles(times, n=4, method="inclusive")[2] if len(times) > 1
            else times[0] for times in zip(*rounds)]


def measure(cli, calls, checker, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from repeated untraced rounds of the call list.

    Other tenants of a shared VM switch it between a common slow state and
    faster spells that last from tens of milliseconds to minutes.  Each
    call's cost is its upper-quartile time over the rounds, which reads the
    common state in nearly every run; wall_s is the sum of those costs over
    the call list and the percentiles are taken over them.
    """
    setup = setup_seconds()
    rounds: list[list[float]] = []
    start = perf_counter()
    while keep_going(len(rounds), start, seconds, MIN_ROUNDS):
        rounds.append(run_round(cli.main, calls, checker))
    cost = per_call_costs(rounds)
    p90 = statistics.quantiles(cost, n=10)[8]
    metrics = {
        "setup_s": setup,
        "wall_s": sum(cost),
        "call_p50_ms": statistics.median(cost) * 1e3,
        "call_p90_ms": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - checker.failed / checker.attempted,
    }
    samples = {
        "rounds": len(rounds),
        "latency_samples": len(cost),
        "beyond_p90": sum(1 for t in cost if t > p90),
        "setup_samples": SETUP_REPEATS,
    }
    return metrics, samples


def measure_traced(cli, calls, threaded, checker, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: untraced rounds at one thread and at
    CHECK_THREADS alternate with traced rounds; each layer value is the
    median over the traced rounds."""
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(cli.main, "cli.main")
    plain: list[list[float]] = []
    parallel: list[list[float]] = []
    traced: list[list[float]] = []
    layers: list[dict[str, float]] = []
    start = perf_counter()
    while keep_going(len(layers), start, seconds, 1):
        plain.append(run_round(cli.main, calls, checker))
        parallel.append(run_round(cli.main, threaded, checker))
        tracer.drain()
        uninstall = tracing.install(tracer)
        try:
            traced.append(run_round(traced_main, calls, checker))
        finally:
            uninstall()
        layers.append(tracing.layer_values(*tracer.drain()))
    metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = sum(per_call_costs(traced)) / sum(per_call_costs(plain))
    metrics["drivers.threads2.wall_ratio"] = (sum(per_call_costs(parallel))
                                              / sum(per_call_costs(plain)))
    return metrics, {"traced_rounds": len(layers), "calls_per_round": len(calls)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_cli()
    machine = machine_record()
    reference = gate.load_reference() if args.seed == workloads.DEFAULT_SEED else None
    checker = gate.Gate(reference)
    calls = workloads.calls_for(args.workload, args.seed)
    # The same calls at more threads; the gate requires byte-identical reports.
    threaded = [workloads.with_threads(call, workloads.CHECK_THREADS) for call in calls]

    if args.trace:
        values, samples = measure_traced(cli, calls, threaded, checker, args.seconds)
        wanted = spec["per_layer"]
    else:
        run_round(cli.main, threaded, checker)
        values, samples = measure(cli, calls, checker, args.seconds)
        wanted = spec["end_to_end"]

    for call, problems in checker.problems[:20]:
        print(f"perfbench: FAILED {' '.join(call)}: {'; '.join(problems)}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "samples": samples}
    print("# record " + json.dumps(record))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
