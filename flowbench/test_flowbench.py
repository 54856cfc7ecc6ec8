"""Fast tests of the flow benchmark itself (miniature workloads).

Run from the repository root::

    python3 -m pytest flowbench -q

They prove that every metric is emitted with its unit, that every output
check fails on a corrupted payload or schedule, and that traced runs
reconcile.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cold-flow", "monitor-sweep", "alert-stream")


def _invoke(tmp_path: Path, workload: str, trace: int, seed: int = 3,
            cwd: Path = ROOT, script: Path = HERE / "run.py"
            ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "mini", "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})


# ----------------------------------------------------------------------
# Every metric, with its unit
# ----------------------------------------------------------------------
def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert layer == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert spec["command"] == ["python3", "flowbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(tmp_path, workload, trace):
    proc = _invoke(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if trace:
        assert (tmp_path / "traces" / f"{workload}-seed3.json").is_file()
    assert not list(tmp_path.glob("work-*")), "work directory left behind"


def test_fails_without_sources(tmp_path):
    """A directory with only the benchmark files must fail, not report."""
    (tmp_path / "flowbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "flowbench" / f.name).write_text(f.read_text())
    proc = _invoke(tmp_path / "out", "cold-flow", 0, cwd=tmp_path,
                   script=tmp_path / "flowbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# Checks fail on corrupted outputs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flow_result():
    from repro.core.flow import HdfTestFlow

    return HdfTestFlow(workloads.resolve("p89k", 0.05)).run()


def test_schedule_check_passes_on_real_schedule(flow_result):
    problems, derived = checks.check_flow_result(flow_result)
    assert problems == []
    assert derived == flow_result.schedules["prop"].covered
    assert derived


def _check(result, schedule):
    return checks.check_schedule(schedule, result.data.pairs_for_fault,
                                 result.configs, result.clock)[0]


def test_schedule_check_catches_dropped_entry(flow_result):
    prop = flow_result.schedules["prop"]
    assert _check(flow_result, replace(prop, entries=prop.entries[1:]))


def test_schedule_check_catches_inflated_claim(flow_result):
    prop = flow_result.schedules["prop"]
    extra = next(iter(prop.targets - prop.covered), None)
    if extra is None:
        extra = max(prop.targets) + 1
    assert _check(flow_result,
                  replace(prop, covered=prop.covered | {extra}))


def test_schedule_check_catches_moved_period(flow_result):
    from repro.scheduling.schedule import ScheduleEntry

    prop = flow_result.schedules["prop"]
    outside = flow_result.clock.t_nom * 2
    moved = [ScheduleEntry(outside, e.pattern, e.config)
             for e in prop.entries]
    assert _check(flow_result, replace(prop, entries=moved))


def test_replay_check():
    fresh = {"table1": {"faults": 10, "gain": 1.5}, "table2": {"n": 3},
             "stages": {"sta": {"seconds": 0.1}}}
    same = {**fresh, "stages": {"sta": {"seconds": 0.2}}}
    assert checks.check_replay(fresh, same, "hit") == []
    assert checks.check_replay(fresh, same, "miss")
    assert checks.check_replay(
        fresh, {**same, "table1": {"faults": 11, "gain": 1.5}}, "hit")
    assert checks.check_replay(fresh, {"table1": fresh["table1"]}, "hit")


def test_resched_check(flow_result):
    from repro.scheduling.resched import (
        AlertDelta,
        apply_alert,
        prepare_state_for_result,
    )

    state = prepare_state_for_result(flow_result)
    gate = next(iter(state.gate_faults))
    apply_alert(state, AlertDelta.from_mapping({gate: 25.0}))
    assert checks.check_resched_state(state)[0] == []
    sched = state.schedule
    state.schedule = replace(sched, periods=sched.periods[:-1])
    assert checks.check_resched_state(state)[0]
    state.schedule = replace(sched, entries=sched.entries[:-1])
    assert checks.check_resched_state(state)[0]


def test_isolation_guard_sees_reads(tmp_path):
    guarded = tmp_path / ".repro_cache"
    guarded.mkdir()
    (guarded / "entry.pkl").write_bytes(b"x")
    guard = bench.IsolationGuard([guarded])
    guard.install()
    try:
        assert guard.check() == []
        guard._active = True
        (guarded / "entry.pkl").read_bytes()
        assert guard.check()
    finally:
        guard._active = False


# ----------------------------------------------------------------------
# Traced runs reconcile
# ----------------------------------------------------------------------
def _traced(tmp_path: Path, fn, seed: int):
    tracer = spans.Tracer()
    work = tmp_path / f"work{seed}"
    work.mkdir(parents=True)
    with tracer.span("workload", "bench", op="workload"):
        m = fn(seed, 0.0, tracer, workloads.MINI, work)
    return tracer, m


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_reconcile(tmp_path, workload):
    fn = workloads.WORKLOADS[workload]
    counts = []
    for _ in range(2):
        tracer, m = _traced(tmp_path / str(len(counts)), fn, seed=5)
        rec = tracer.reconcile()
        assert rec["ok"], rec["problems"]
        assert m.failed == 0, m.problems
        layers, _ = bench.per_layer(tracer, m, 0.0)
        counts.append({k: v for k, v in layers.items()
                       if bench.PER_LAYER[k] == "count"
                       and k != "trace.spans"})
    assert counts[0] == counts[1]


def test_reconcile_flags_escaping_child_and_oversized_splits():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span(1, "root", "bench", 0.0, 1.0, None, "w", "main"),
        spans.Span(2, "child", "core", 0.5, 1.5, 1, "w", "main"),
        spans.Span(3, "stage", "atpg", 0.0, 0.4, 1, "w", "main"),
        spans.Span(4, "stage/podem", "atpg", 0.0, 0.6, 3, "w", "main",
                   {"split": True}),
    ]
    problems = tracer.reconcile()["problems"]
    assert any("escapes" in p for p in problems)
    assert any("timer splits" in p for p in problems)


def test_chrome_trace_shape():
    tracer = spans.Tracer()
    with tracer.span("outer", "bench", op="w"):
        with tracer.span("inner", "core"):
            pass
    doc = tracer.chrome_trace()
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["outer", "inner"]
    assert complete[1]["args"]["parent"] == complete[0]["args"]["id"]
    assert all(e["args"]["op"] == "w" for e in complete)
