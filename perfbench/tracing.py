"""Layer spans for the traced benchmark run.

The tracer replaces each layer entry point at the name its caller binds
(for example `eqbounds.drivers.pseudoinverse`, `eqbounds.polysys.buchberger`)
with a wrapper that records a span: calls, self time and raised
exceptions.  Self time is a span's duration minus the time covered by its
child spans, kept on per-thread span stacks; a span in a worker thread
therefore does not count as a child of the caller's span in the main
thread.  Spans are kept in memory and read out once per round.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import threading
from time import perf_counter
from typing import Callable

_DONE = object()


class Tracer:
    """Per-name span statistics and counters, accumulated per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[tuple[dict, dict]] = []

    def _state(self) -> tuple[list, dict, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})  # span stack, spans, counters
            with self._lock:
                self._tables.append(state[1:])
        return state

    def add(self, counter: str, amount: int = 1) -> None:
        counters = self._state()[2]
        counters[counter] = counters.get(counter, 0) + amount

    def wrap(self, fn: Callable, name: str, observe: Callable | None = None) -> Callable:
        """fn with a span named `name`; `observe(tracer, args, result)` runs
        after each call that returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, _ = self._state()
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            failed = 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                record = spans.get(name)
                if record is None:
                    record = spans[name] = [0, 0.0, 0]
                record[0] += 1
                record[1] += duration - frame[0]
                record[2] += failed
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """Generator function fn with one span per item produced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            step = self.wrap(lambda: next(items, _DONE), name)
            try:
                while (item := step()) is not _DONE:
                    self.add(f"{name}.yielded")
                    yield item
            finally:
                items.close()
            scan = kwargs.get("scan")
            if scan is not None:
                self.add("linear.scan.subsets_considered", scan.subsets_considered)

        return traced

    def drain(self) -> tuple[dict[str, list], dict[str, int]]:
        """Merged (spans, counters) of every thread, then cleared."""
        spans: dict[str, list] = {}
        counters: dict[str, int] = {}
        with self._lock:
            for thread_spans, thread_counters in self._tables:
                for name, (calls, self_s, failed) in thread_spans.items():
                    record = spans.setdefault(name, [0, 0.0, 0])
                    record[0] += calls
                    record[1] += self_s
                    record[2] += failed
                for name, value in thread_counters.items():
                    counters[name] = counters.get(name, 0) + value
                thread_spans.clear()
                thread_counters.clear()
        return spans, counters


def _count_obs1_rref(tracer: Tracer, args, result) -> None:
    # obs1 reduces [A | b]; a pivot in the last column means inconsistent.
    tracer.add("obs1.masks")
    if args[0].cols - 1 not in result[1]:
        tracer.add("obs1.consistent")


def _count_candidate(tracer: Tracer, args, result) -> None:
    tracer.add("polysys.candidates")
    if result.name != "INCONSISTENT":
        tracer.add("polysys.accepted")


def _count_points(tracer: Tracer, args, result) -> None:
    tracer.add("solve.points_returned", len(result))


# (module, attribute, span name, observer); "GEN" marks a generator function.
BINDINGS = (
    ("drivers", "exhaustive_unique_systems", "linear.exhaustive_unique_systems", "GEN"),
    ("drivers", "random_unique_system", "linear.random_unique_system", None),
    ("drivers", "random_card_le_n_system", "linear.random_card_le_n_system", None),
    ("drivers", "encode", "linear.encode", None),
    ("linear", "encode", "linear.encode", None),
    ("drivers", "conj3_stats", "linear.conj3_stats", None),
    ("drivers", "observation1_hat_search", "linear.observation1_hat_search", None),
    ("linalg", "QMatrix.__init__", "linalg.QMatrix.init", None),
    ("linalg", "QMatrix.__matmul__", "linalg.matmul", None),
    ("drivers", "_det_bareiss_int", "linalg.det_bareiss_int", None),
    ("linalg", "_det_bareiss_int", "linalg.det_bareiss_int", None),
    ("drivers", "rref", "linalg.rref", _count_obs1_rref),
    ("linalg", "rref", "linalg.rref", None),
    ("drivers", "pseudoinverse", "linalg.pseudoinverse", None),
    ("linalg", "pseudoinverse", "linalg.pseudoinverse", None),
    ("drivers", "solve_unique", "linalg.solve_unique", None),
    ("drivers", "min_norm_solution", "linalg.min_norm_solution", None),
    ("polysys", "buchberger", "poly.buchberger.incremental", None),
    ("solve", "buchberger", "poly.buchberger.lex", None),
    ("polysys", "classify_dimension", "poly.classify_dimension", _count_candidate),
    ("solve", "classify_dimension", "poly.classify_dimension", None),
    ("polysys", "solve_zero_dim", "solve.solve_zero_dim", _count_points),
    ("solve", "aberth_roots", "solve.aberth_roots", None),
    ("drivers", "greedy_saturate", "polysys.greedy_saturate", None),
    ("drivers", "full_pool", "polysys.full_pool", None),
    ("drivers", "observation2_hat_search", "polysys.observation2_hat_search", None),
)
# Driver entry points, matched by name so one table of drivers also matches.
DRIVER_PATTERN = re.compile(r"run(_\w+)?$")
SPAN_NAMES = ("cli.main", "drivers.run", *sorted({b[2] for b in BINDINGS}))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every binding in BINDINGS; returns the function that undoes it.

    A binding missing from the program is reported on stderr and skipped,
    so its metrics read zero.
    """
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, wrapped) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    for module_name, path, span, observer in BINDINGS:
        owner = importlib.import_module(f"eqbounds.{module_name}")
        *parents, attr = path.split(".")
        try:
            for parent in parents:
                owner = getattr(owner, parent)
            fn = getattr(owner, attr)
        except AttributeError:
            print(f"perfbench: eqbounds.{module_name}.{path} not found; {span} reads 0",
                  file=sys.stderr)
            continue
        if observer == "GEN":
            patch(owner, attr, tracer.wrap_generator(fn, span))
        else:
            patch(owner, attr, tracer.wrap(fn, span, observer))
    drivers = importlib.import_module("eqbounds.drivers")
    for attr in [a for a in vars(drivers) if DRIVER_PATTERN.match(a)]:
        if callable(getattr(drivers, attr)):
            patch(drivers, attr, tracer.wrap(getattr(drivers, attr), "drivers.run"))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(spans: dict[str, list], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metric values of one traced round."""
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s, failed = spans.get(name, (0, 0.0, 0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.failed"] = failed
    values["linear.exhaustive_unique_systems.next_s"] = values[
        "linear.exhaustive_unique_systems.self_s"]
    yielded = counters.get("linear.exhaustive_unique_systems.yielded", 0)
    values["linear.exhaustive_unique_systems.yielded"] = yielded
    values["linear.scan.yield_ratio"] = _ratio(
        yielded, counters.get("linear.scan.subsets_considered", 0))
    values["linalg.rref.consistent_ratio"] = _ratio(
        counters.get("obs1.consistent", 0), counters.get("obs1.masks", 0))
    values["polysys.accept_ratio"] = _ratio(
        counters.get("polysys.accepted", 0), counters.get("polysys.candidates", 0))
    values["solve.points_returned"] = counters.get("solve.points_returned", 0)
    return values
