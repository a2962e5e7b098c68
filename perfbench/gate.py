"""Running one CLI call and judging its report.

A call fails the gate when it raised, exited non-zero, printed no JSON
report, was vacuous (checked nothing), considered a different number of
ranks than its --range holds, or differs from the report recorded in
reference.json for the default seed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from workloads import Call, range_size, reference_key

REFERENCE_PATH = Path(__file__).with_name("reference.json")

CONFIRMED = "confirmed-at-scale"
# Report fields compared verbatim with the reference.
EXACT_FIELDS = ("command", "config", "trials", "bound", "verdict", "witnesses", "errors")
# Subcommands whose statistic is a float; it must match within the drivers'
# own 1e-6 tolerance (relative above magnitude 1).
FLOAT_STATISTIC_COMMANDS = frozenset({"conj5", "conjII"})
FLOAT_TOLERANCE = 1e-6
# `extra` counters that count what a call actually checked; 0 means vacuous.
CHECKED_COUNTERS = ("bound_checked_trials", "zero_dimensional_trials", "solutions_searched")
# `extra` counters of exhaustive slices that must equal the --range size.
RANGE_COUNTERS = ("subsets_considered", "combinations")


@dataclass(frozen=True)
class CallResult:
    code: int | str | None  # None when the call raised
    text: str  # everything the call printed to stdout
    error: str | None  # "Type: message" when the call raised
    seconds: float


def run_call(main: Callable[[list[str]], int], call: Call) -> CallResult:
    """Invoke `main([*call, "--json"])` with stdout captured and timed."""
    out = io.StringIO()
    error = None
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([*call, "--json"])
    except SystemExit as exc:  # argparse usage errors exit this way
        code = exc.code
    except Exception as exc:  # a raising call is a failed call, not a crashed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    return CallResult(code, out.getvalue(), error, perf_counter() - start)


def load_reference(path: Path = REFERENCE_PATH) -> dict[str, dict]:
    return json.loads(path.read_text())


def check(call: Call, result: CallResult, reference: dict | None) -> list[str]:
    """Problems with one call's result; an empty list passes the gate."""
    if result.error is not None:
        return [f"raised {result.error}"]
    problems = []
    if result.code != 0:
        problems.append(f"exit code {result.code!r}")
    try:
        report = json.loads(result.text)
    except json.JSONDecodeError:
        return problems + ["no JSON report on stdout"]
    if report.get("verdict") != CONFIRMED:
        problems.append(f"verdict {report.get('verdict')!r}")
    trials = report.get("trials", {})
    if not trials.get("completed"):
        problems.append("vacuous: zero completed trials")
    elif trials.get("completed") != trials.get("attempted"):
        problems.append(f"incomplete: trials {trials}")
    extra = report.get("extra", {})
    for key in CHECKED_COUNTERS:
        if extra.get(key) == 0:
            problems.append(f"vacuous: {key} == 0")
    size = range_size(call)
    if size is not None:
        counted = [extra[k] for k in RANGE_COUNTERS if k in extra]
        if counted != [size]:
            problems.append(f"range of {size} ranks, report counts {counted}")
    if reference is not None:
        problems.extend(diff_reference(report, reference))
    return problems


def diff_reference(report: dict, reference: dict) -> list[str]:
    """Differences between a report and its recorded reference.

    Exact statistics and every recorded `extra` counter must match
    exactly; new report fields and new `extra` keys are ignored.
    """
    problems = []
    for key in EXACT_FIELDS:
        if report.get(key) != reference[key]:
            problems.append(f"{key}: {report.get(key)!r} != reference {reference[key]!r}")
    stat, ref_stat = report.get("statistic", {}), reference["statistic"]
    if stat.get("name") != ref_stat["name"]:
        problems.append(f"statistic name {stat.get('name')!r} != {ref_stat['name']!r}")
    elif not _same_statistic(reference["command"], stat.get("value"), ref_stat["value"]):
        problems.append(f"statistic {stat.get('value')!r} != reference {ref_stat['value']!r}")
    extra = report.get("extra", {})
    for key, value in reference["extra"].items():
        if extra.get(key) != value:
            problems.append(f"extra.{key}: {extra.get(key)!r} != reference {value!r}")
    return problems


def _same_statistic(command: str, value, ref_value: str) -> bool:
    if command not in FLOAT_STATISTIC_COMMANDS:
        return value == ref_value
    try:
        got, want = float(value), float(ref_value)
    except (TypeError, ValueError):
        return False
    return abs(got - want) <= FLOAT_TOLERANCE * max(1.0, abs(want))


class Gate:
    """Judges every result of a run and counts the failed ones.

    Beyond `check`, each report must be byte-identical to the first report
    of the same call in this run, whatever the thread count or round.  With
    a reference (the default seed), every call must have a recorded report.
    """

    def __init__(self, reference: dict[str, dict] | None):
        self.reference = reference
        self.first_text: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[tuple[Call, list[str]]] = []

    def judge(self, call: Call, result: CallResult) -> list[str]:
        key = reference_key(call)
        recorded = None if self.reference is None else self.reference.get(key)
        problems = check(call, result, recorded)
        if self.reference is not None and recorded is None:
            problems.append("no reference report recorded for this call")
        if result.text != self.first_text.setdefault(key, result.text):
            problems.append("report not byte-identical to an earlier run of this call")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((call, problems))
        return problems
