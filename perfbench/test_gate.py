"""Tests of the benchmark's own gate, workloads and tracer.

    python3 -m pytest perfbench -q

They show that the gate rejects fast-but-wrong results: a statistic off by
one, a slice that considered one rank too few or too many, a call that
raises, a vacuous conj5 variant-a call, and reports that differ between
thread counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads

cli = run.import_cli()
REFERENCE = gate.load_reference()
SLICE = workloads.scan_calls(workloads.DEFAULT_SEED, 1)[0]
TRIAL = workloads.trials_calls(workloads.DEFAULT_SEED)[0]


def result_of(report: dict) -> gate.CallResult:
    return gate.CallResult(0, json.dumps(report, indent=2), None, 0.0)


def reference_of(call) -> dict:
    return json.loads(json.dumps(REFERENCE[workloads.reference_key(call)]))


def test_recorded_calls_pass_the_gate():
    for call in (SLICE, TRIAL):
        result = gate.run_call(cli.main, call)
        assert gate.check(call, result, reference_of(call)) == []


def test_statistic_changed_by_one_is_rejected():
    for call in (SLICE, TRIAL):
        report = reference_of(call)
        report["statistic"]["value"] = str(int(report["statistic"]["value"]) + 1)
        problems = gate.check(call, result_of(report), reference_of(call))
        assert any(p.startswith("statistic") for p in problems)


@pytest.mark.parametrize("delta", (-1, 1))
def test_slice_counting_one_rank_off_is_rejected(delta):
    report = reference_of(SLICE)
    report["extra"]["subsets_considered"] += delta
    # with the reference (default seed) and without it (any other seed)
    assert gate.check(SLICE, result_of(report), reference_of(SLICE))
    assert gate.check(SLICE, result_of(report), None)


def test_raising_call_is_rejected(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.drivers, "run_conjI", broken)
    result = gate.run_call(cli.main, TRIAL)
    assert result.error == "RuntimeError: boom"
    checker = gate.Gate(None)
    assert checker.judge(TRIAL, result) == ["raised RuntimeError: boom"]
    assert (checker.attempted, checker.failed) == (1, 1)


def test_vacuous_conj5_variant_a_is_flagged(tmp_path):
    # Variant a checks the bound on zero trials yet exits 0.
    call = ("conj5", "--variant", "a", "--n", "4", "--iters", "3", "--seed", "1",
            "--witness-dir", str(tmp_path))
    result = gate.run_call(cli.main, call)
    assert result.code == 0
    assert "vacuous: bound_checked_trials == 0" in gate.check(call, result, None)


def test_float_statistic_within_tolerance():
    call = next(c for c in workloads.saturation_calls(workloads.DEFAULT_SEED) if c[0] == "conj5")
    value = float(reference_of(call)["statistic"]["value"])
    for shift, passes in ((1e-9, True), (1e-3, False)):
        report = reference_of(call)
        report["statistic"]["value"] = repr(value + shift)
        assert (gate.check(call, result_of(report), reference_of(call)) == []) is passes


def test_reports_must_be_identical_across_thread_counts():
    checker = gate.Gate(None)
    threaded = (*SLICE[:-1], "2")
    report = reference_of(SLICE)
    assert checker.judge(SLICE, result_of(report)) == []
    assert checker.judge(threaded, gate.CallResult(0, json.dumps(report), None, 0.0)) == [
        "report not byte-identical to an earlier run of this call"]


def test_missing_reference_is_a_failure():
    checker = gate.Gate({})
    assert "no reference report recorded for this call" in checker.judge(
        SLICE, result_of(reference_of(SLICE)))


def test_workloads_are_seeded_and_large_enough():
    for name in workloads.WORKLOADS:
        calls = workloads.calls_for(name, 7)
        assert calls == workloads.calls_for(name, 7)
        assert calls != workloads.calls_for(name, 8)
        assert len(calls) >= 100  # p90 has at least 10 calls beyond it
        threaded = [workloads.with_threads(c, 2) for c in calls]
        assert all(c[-2:] == ("--threads", "2") and c.count("--threads") == 1 for c in threaded)
        assert [workloads.reference_key(c) for c in threaded] == [
            workloads.reference_key(c) for c in calls]


def test_partitions_tile_their_slices():
    for seed in range(5):
        ranges = [c[c.index("--range") + 1] for c in workloads.scan_calls(seed, 1)]
        bounds = [tuple(map(int, r.split(".."))) for r in ranges]
        per_slice = {}
        for (lo, hi), call in zip(bounds, workloads.scan_calls(seed, 1)):
            per_slice.setdefault(call[0], []).append((lo, hi))
        assert sum(hi - lo for lo, hi in per_slice["conj3"]) == 5 * workloads.CONJ3_SLICE[0]
        assert sum(hi - lo for lo, hi in per_slice["conj2"]) == 3 * workloads.CONJ2_SLICE[0]
        assert max(hi for _, hi in per_slice["conj3"]) <= workloads.CONJ3_N5_RANKS
        assert max(hi for _, hi in per_slice["conj2"]) <= workloads.CONJ2_N5_RANKS


def test_tracer_self_time_excludes_children(monkeypatch):
    tracer = tracing.Tracer()
    clock = iter(range(100))
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))

    def child():
        return None

    traced_child = tracer.wrap(child, "child")

    def parent():
        traced_child()
        traced_child()

    tracer.wrap(parent, "parent")()
    spans, _ = tracer.drain()
    # parent runs 0..5, children 1..2 and 3..4
    assert spans["parent"] == [1, 3, 0]
    assert spans["child"] == [2, 2, 0]


def test_install_wraps_every_binding_and_uninstall_restores():
    import eqbounds.drivers as drivers
    import eqbounds.linalg as linalg

    before = (drivers.pseudoinverse, linalg.QMatrix.__init__, drivers.run_conj3)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        result = gate.run_call(tracer.wrap(cli.main, "cli.main"), SLICE)
    finally:
        uninstall()
    assert (drivers.pseudoinverse, linalg.QMatrix.__init__, drivers.run_conj3) == before
    assert gate.check(SLICE, result, reference_of(SLICE)) == []
    values = tracing.layer_values(*tracer.drain())
    report = json.loads(result.text)
    assert values["cli.main.calls"] == 1
    assert values["linear.exhaustive_unique_systems.yielded"] == report["extra"]["rank_n_systems"]
    assert values["linear.scan.yield_ratio"] == pytest.approx(
        report["extra"]["rank_n_systems"] / report["extra"]["subsets_considered"])
    assert values["poly.buchberger.incremental.calls"] == 0


def test_empty_directory_exits_without_result(tmp_path):
    import shutil
    import subprocess

    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
