"""Benchmark + persistent perf baseline of the multi-worker suite runner.

Three measurements back ``BENCH_suite.json``:

* **Scaling curve** — the stage-unit scheduler drains a 120-circuit
  synthetic matrix (720 work units) at workers ∈ {1, 2, 4, 8}.  The
  units carry *modeled* durations (``timed_plan``: each unit sleeps for
  its cost) so the curve measures the scheduler itself — dispatch,
  readiness, DAG packing — independent of the recording host's
  core count; CI machines with 1-2 cores would otherwise make any
  CPU-bound multi-worker number meaningless.  ``host_cpus`` is recorded
  alongside so readers can judge the real-flow numbers in context.
* **Granularity ablation** — the same heterogeneous matrix (40 small
  circuits plus one straggler *dispatched last*, mimicking the legacy
  whole-circuit ``pool.imap`` order) drained at circuit granularity vs
  stage granularity with LPT priority.  Stage units + LPT start the
  straggler first and overlap it with the small circuits, shrinking the
  tail.
* **Real-flow smoke** — a 12-circuit synthetic matrix executed as real
  flows: plain serial flows vs ``run_suite`` at 1 and 2 workers on fresh
  stores, with ``run_suite`` results pinned equal to serial.

Results persist to ``BENCH_suite.json`` at the repository root; the perf
smoke test in ``tests/test_perf_smoke.py`` guards the committed numbers
and ``repro bench --stage suite`` re-measures the smoke matrix.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from dataclasses import replace

from conftest import _PROFILE, BENCH_SUITE_FILE, write_artifact

from repro.circuits.library import suite_entry
from repro.experiments.artifact_cache import StageCache
from repro.experiments.runner import SuiteRunConfig, run_suite, suite_flow
from repro.experiments.shard import (
    STAGE_COST_WEIGHTS,
    TimedStage,
    run_plan,
    suite_timed_specs,
    timed_plan,
)

#: Worker counts of the committed scaling curve.
SCALING_WORKERS = (1, 2, 4, 8)

#: Synthetic matrix size behind the timed scaling curve (x6 stages each).
MATRIX_CIRCUITS = 120

#: Serial wall-clock the timed matrix is normalized to (seconds).  Large
#: enough that per-unit scheduler overhead (dispatch + stat traffic) stays
#: a small fraction of a unit's cost; small enough for CI.
TARGET_SERIAL_S = 12.0

#: Real-flow smoke matrix: 12 synthetic circuits at half scale.
SMOKE_CIRCUITS = 12
SMOKE_SCALE = 0.5

#: Committed-curve floor asserted here and in the perf smoke test.
MIN_SPEEDUP_8W = 3.0
#: Ablation floor: stage granularity + LPT must beat circuit units in
#: legacy dispatch order by at least this factor on the straggler tail.
MIN_TAIL_SPEEDUP = 1.2


def _merge_baseline(section: str, payload: dict) -> dict:
    """Read-modify-write one section of ``BENCH_suite.json``."""
    doc: dict = {"profile": _PROFILE,
                 "host_cpus": os.cpu_count() or 1}
    if BENCH_SUITE_FILE.exists():
        doc.update(json.loads(BENCH_SUITE_FILE.read_text()))
    doc["profile"] = _PROFILE
    doc["host_cpus"] = os.cpu_count() or 1
    doc[section] = payload
    BENCH_SUITE_FILE.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def _drain_timed(specs, workers: int, **plan_kw) -> float:
    """Wall clock of one cold timed drain on a throwaway store."""
    plan = timed_plan(specs, nonce=uuid.uuid4().hex, **plan_kw)
    with tempfile.TemporaryDirectory() as td:
        t0 = time.perf_counter()
        run_plan(plan, workers=workers, store=StageCache(td))
        return time.perf_counter() - t0


def test_suite_scaling_benchmark(benchmark, results_dir):
    specs = suite_timed_specs(MATRIX_CIRCUITS, serial_s=TARGET_SERIAL_S)
    walls: dict[str, float] = {}

    def run_curve():
        for w in SCALING_WORKERS:
            wall = _drain_timed(specs, w)
            key = str(w)
            walls[key] = min(wall, walls.get(key, wall))
        return walls

    benchmark.pedantic(run_curve, rounds=1, iterations=1)

    speedups = {w: round(walls["1"] / walls[w], 2) for w in walls}
    assert speedups[str(SCALING_WORKERS[-1])] >= MIN_SPEEDUP_8W, (
        f"stage-unit scheduler no longer scales: "
        f"{SCALING_WORKERS[-1]} workers only "
        f"{speedups[str(SCALING_WORKERS[-1])]}x over serial ({walls})")

    payload = {
        "payload": "timed",
        "matrix": {"circuits": MATRIX_CIRCUITS,
                   "units": len(specs),
                   "serial_target_s": TARGET_SERIAL_S},
        "workers": {w: round(s, 3) for w, s in walls.items()},
        "speedups": speedups,
    }
    _merge_baseline("scaling", payload)

    lines = [f"{'workers':>8} {'wall [s]':>9} {'speedup':>8}"]
    for w in SCALING_WORKERS:
        lines.append(f"{w:>8} {walls[str(w)]:>9.3f} "
                     f"{speedups[str(w)]:>8.2f}")
    text = "\n".join(lines)
    write_artifact(results_dir, "bench_suite.txt", text)
    print("\n" + text)


def test_suite_granularity_ablation(benchmark, results_dir):
    """Stage units + LPT vs whole-circuit units in legacy dispatch order.

    40 small circuits plus one straggler appended *last* — the shape
    that makes ``pool.imap`` over circuits pay the full straggler cost
    as tail latency after the pool has drained.
    """
    small = [TimedStage(f"c{i:02d}", stage, 4.0 / (40 * 6))
             for i in range(40)
             for stage in STAGE_COST_WEIGHTS]
    straggler = [TimedStage("straggler", stage, 0.8 * w)
                 for stage, w in STAGE_COST_WEIGHTS.items()]
    specs = small + straggler
    workers = SCALING_WORKERS[-1]
    walls: dict[str, float] = {}

    def run_ablation():
        circ = _drain_timed(specs, workers,
                            granularity="circuit", order="given")
        stage = _drain_timed(specs, workers)
        walls["circuit_granularity_s"] = min(
            circ, walls.get("circuit_granularity_s", circ))
        walls["stage_granularity_s"] = min(
            stage, walls.get("stage_granularity_s", stage))
        return walls

    benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    tail_speedup = (walls["circuit_granularity_s"]
                    / walls["stage_granularity_s"])
    assert tail_speedup >= MIN_TAIL_SPEEDUP, (
        f"stage granularity + LPT no longer beats whole-circuit "
        f"dispatch on the straggler tail: {walls}")

    payload = {
        "payload": "timed",
        "workers": workers,
        "matrix": {"circuits": 41, "straggler_s": 0.8,
                   "small_total_s": 4.0},
        "circuit_granularity_s": round(walls["circuit_granularity_s"], 3),
        "stage_granularity_s": round(walls["stage_granularity_s"], 3),
        "tail_speedup": round(tail_speedup, 2),
    }
    _merge_baseline("ablation", payload)
    text = "\n".join(f"{k:>24}: {v}" for k, v in payload.items()
                     if not isinstance(v, dict))
    write_artifact(results_dir, "bench_suite_ablation.txt", text)
    print("\n" + text)


def _result_signature(res) -> tuple:
    cls_ = res.classification
    return (
        len(res.test_set),
        res.clock.t_nom,
        cls_.num_faults,
        tuple(sorted(cls_.target)),
        tuple(sorted(cls_.at_speed)),
        tuple(sorted(cls_.monitor_at_speed)),
        tuple(sorted(cls_.timing_redundant)),
        tuple(sorted(res.schedules)),
    )


def test_suite_real_smoke(benchmark, results_dir):
    """Real flows: serial in-process vs ``run_suite`` on fresh stores."""
    cfg = SuiteRunConfig.synth(SMOKE_CIRCUITS, scale=SMOKE_SCALE)
    caps = {name: suite_entry(name).pattern_budget(scale=cfg.scale)
            for name in cfg.names}
    measured: dict = {}

    def run_smoke():
        t0 = time.perf_counter()
        serial = {name: suite_flow(name, cfg, caps[name], 1).run(
                      with_schedules=cfg.with_schedules, cache=None)
                  for name in cfg.names}
        serial_s = time.perf_counter() - t0
        walls: dict[str, float] = {}
        parity = True
        for w in (1, 2):
            with tempfile.TemporaryDirectory() as td:
                t0 = time.perf_counter()
                results = run_suite(replace(cfg, jobs=w),
                                    store=StageCache(td))
                walls[str(w)] = time.perf_counter() - t0
            parity = parity and all(
                _result_signature(results[name])
                == _result_signature(serial[name])
                for name in cfg.names)
        measured.update({"serial_inprocess_s": serial_s,
                         "workers": walls, "parity": parity})
        return measured

    benchmark.pedantic(run_smoke, rounds=1, iterations=1)

    assert measured["parity"], \
        "run_suite smoke results diverged from the serial in-process flows"

    payload = {
        "payload": "real",
        "circuits": SMOKE_CIRCUITS,
        "scale": SMOKE_SCALE,
        "names": list(cfg.names),
        "serial_inprocess_s": round(measured["serial_inprocess_s"], 3),
        "workers": {w: round(s, 3)
                    for w, s in measured["workers"].items()},
        "parity": measured["parity"],
    }
    _merge_baseline("smoke", payload)
    text = "\n".join(f"{k:>20}: {v}" for k, v in payload.items()
                     if k != "names")
    write_artifact(results_dir, "bench_suite_smoke.txt", text)
    print("\n" + text)
