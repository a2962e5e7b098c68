"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads scan trials --seeds 1-10 --out results.json

Runs are made one at a time, seed by seed, cycling through the workloads.
For every end-to-end metric it prints the median and the spread: the
distance between the first and third quartile of the runs
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound and whether the spread is below a third of it.  With
--out, every run's machine record, sample counts and result are written
to one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = next(json.loads(line[len("# record "):]) for line in lines
                  if line.startswith("# record "))
    return {**record, "result": json.loads(lines[-1]), "stderr": proc.stderr}


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs: list[dict] = []
    for seed in args.seeds:
        for workload in args.workloads:
            run = one_run(workload, seed, spec["run_seconds"], args.trace)
            runs.append(run)
            result = run["result"]
            print(f"{workload:14} seed {seed:3} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"spin={run['machine']['spin_s']:.3f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in {m['name'] for m in spec['end_to_end']}),
                  flush=True)
    summary: dict[str, dict] = {}
    for workload in args.workloads:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        summary[workload] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in mine]
            if len(values) < 2:
                continue
            median, share = spread(values)
            summary[workload][m["name"]] = {"median": median, "iqr_share": share}
            if "bound" in m:
                steady = "ok" if share < m["bound"] / 3 else "WIDE"
                print(f"{workload:14} {m['name']:12} median {median:.5g} "
                      f"spread {share:.4f} bound {m['bound']} {steady}")
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
