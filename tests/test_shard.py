"""Tests for the sharded suite runner (``repro.experiments.shard``).

Covers work-unit planning (DAG structure, LPT priority), the drain
(resume, partial resume, failed store writes), the fork-based dispatcher
(crash recovery with a killed worker), and end-to-end parity of
multi-worker ``run_suite`` drains against the serial in-process flows.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.circuits.library import suite_entry
from repro.experiments.artifact_cache import StageCache
from repro.experiments.runner import SuiteRunConfig, run_suite, suite_flow
from repro.experiments.shard import (
    ShardPlan,
    TimedStage,
    WorkUnit,
    run_plan,
    suite_plan,
    suite_timed_specs,
    timed_plan,
)

STAGES = ("sta", "faults", "atpg", "simulation", "classify", "schedule")


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestPlans:
    def test_suite_plan_mirrors_pipeline_dag(self, tmp_path):
        cfg = SuiteRunConfig(names=("s9234", "s13207"), scale=0.25,
                             with_schedules=False)
        plan = suite_plan(cfg, store=StageCache(tmp_path))
        assert len(plan.units) == 2 * len(STAGES)
        keys = {u.key for u in plan.units}
        assert len(keys) == len(plan.units)  # content keys are unique
        by_circuit = {}
        for u in plan.units:
            by_circuit.setdefault(u.circuit, {})[u.stage] = u
        for name, stages in by_circuit.items():
            assert set(stages) == set(STAGES), name
            # Dep keys point at in-plan upstream units.
            sim = stages["simulation"]
            assert {d for d, _ in sim.deps} == {"sta", "faults", "atpg"}
            for dep_name, dep_key in sim.deps:
                assert stages[dep_name].key == dep_key

    def test_lpt_orders_costliest_circuit_first(self):
        units = [WorkUnit("cheap", "sta", "k1", (), cost=1.0),
                 WorkUnit("pricy", "sta", "k2", (), cost=5.0),
                 WorkUnit("cheap", "faults", "k3", (("sta", "k1"),),
                          cost=1.0)]
        ordered = ShardPlan.order_units(units)
        assert [u.circuit for u in ordered] == ["pricy", "cheap", "cheap"]
        # Topological (insertion) order within a circuit is preserved.
        assert [u.stage for u in ordered[1:]] == ["sta", "faults"]

    def test_timed_plan_validates_arguments(self):
        specs = [TimedStage("c0", "sta", 0.01)]
        with pytest.raises(ValueError, match="granularity"):
            timed_plan(specs, nonce="x", granularity="nope")
        with pytest.raises(ValueError, match="order"):
            timed_plan(specs, nonce="x", order="nope")

    def test_timed_plan_circuit_granularity_sums_costs(self):
        specs = [TimedStage("c0", s, 0.01) for s in STAGES]
        plan = timed_plan(specs, nonce="x", granularity="circuit",
                          order="given")
        assert len(plan.units) == 1
        assert plan.units[0].cost == pytest.approx(0.06)
        assert plan.units[0].deps == ()

    def test_suite_timed_specs_deterministic_and_normalized(self):
        a = suite_timed_specs(10, serial_s=2.0)
        b = suite_timed_specs(10, serial_s=2.0)
        assert a == b
        assert len(a) == 10 * len(STAGES)
        assert sum(s.cost for s in a) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Drain loop (in-process)
# ----------------------------------------------------------------------
class TestDrain:
    def _tiny_specs(self, n=3):
        return [TimedStage(f"c{i}", s, 0.001)
                for i in range(n) for s in STAGES]

    def test_drain_completes_and_resumes(self, tmp_path):
        store = StageCache(tmp_path)
        plan = timed_plan(self._tiny_specs(), nonce="resume")
        stats = run_plan(plan, workers=1, store=store)
        assert stats.computed == len(plan.units)
        assert all(store.contains(u.key) for u in plan.units)
        again = run_plan(timed_plan(self._tiny_specs(), nonce="resume"),
                         workers=1, store=store)
        assert again.computed == 0
        assert again.hits == len(plan.units)

    def test_partial_resume_recomputes_only_missing_unit(self, tmp_path):
        store = StageCache(tmp_path)
        plan = timed_plan(self._tiny_specs(), nonce="partial")
        run_plan(plan, workers=1, store=store)
        store.delete(plan.units[4].key)
        stats = run_plan(timed_plan(self._tiny_specs(), nonce="partial"),
                         workers=1, store=store)
        assert stats.computed == 1
        assert stats.hits == len(plan.units) - 1

    def test_drain_leaves_no_threads_or_processes(self, tmp_path):
        # A long-lived process (the service orchestrator) drains many
        # plans; none may leave a pool thread or a worker behind.
        import multiprocessing
        import threading

        before = set(threading.enumerate())
        plan = timed_plan(self._tiny_specs(), nonce="leak")
        stats = run_plan(plan, workers=2, store=StageCache(tmp_path))
        assert stats.computed == len(plan.units)
        assert set(threading.enumerate()) <= before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_store_write_names_unit_and_store(self, tmp_path,
                                                     workers):
        # A store whose writes fail (a full or read-only disk) only
        # warns; resuming cannot help, so the drain must say so.
        store = _DroppingStore(tmp_path)
        plan = timed_plan(self._tiny_specs(1), nonce="dropped")
        with pytest.raises(RuntimeError,
                           match=r"unit c0/\w+ ran, but writing") as err:
            run_plan(plan, workers=workers, store=store)
        message = str(err.value)
        assert str(store.root) in message
        assert "resume" not in message

    def test_concurrent_drains_on_one_store_agree(self, tmp_path):
        # Independent drains do not coordinate: both may compute a unit,
        # but the store ends complete and each drain accounts for every
        # unit.
        import threading

        store = StageCache(tmp_path)
        specs = self._tiny_specs()
        stats = []
        runs = [threading.Thread(target=lambda: stats.append(run_plan(
                    timed_plan(specs, nonce="both"), workers=1,
                    store=store)))
                for _ in range(2)]
        for t in runs:
            t.start()
        for t in runs:
            t.join()
        plan = timed_plan(specs, nonce="both")
        assert all(store.contains(u.key) for u in plan.units)
        assert [s.computed + s.hits for s in stats] == [len(plan.units)] * 2


class _DroppingStore(StageCache):
    """A stage store whose every write is lost."""

    def store(self, key, obj):
        pass


# ----------------------------------------------------------------------
# Fork dispatcher: crash recovery
# ----------------------------------------------------------------------
@pytest.mark.skipif("fork" not in __import__("multiprocessing")
                    .get_all_start_methods(),
                    reason="requires the fork start method")
class TestCrashRecovery:
    def test_killed_worker_unit_is_reclaimed_once(self, tmp_path):
        store = StageCache(tmp_path / "store")
        flag = tmp_path / "killed-once"
        base = timed_plan([TimedStage(f"c{i}", s, 0.01)
                           for i in range(4) for s in STAGES],
                          nonce="crash")
        victim = base.units[5].key

        def execute(unit, _timer):
            if unit.key == victim and not flag.exists():
                flag.write_text("x")
                os._exit(42)  # simulate a hard-killed worker mid-stage
            time.sleep(unit.cost)
            return {"circuit": unit.circuit, "stage": unit.stage}

        plan = ShardPlan(base.units, execute)
        t0 = time.perf_counter()
        stats = run_plan(plan, workers=2, store=store)
        assert flag.exists()  # one worker really died
        # The plan still completed, without waiting out any claim TTL.
        assert all(store.contains(u.key) for u in plan.units)
        assert stats.computed + stats.hits == len(plan.units)
        assert time.perf_counter() - t0 < 10.0

    def test_unit_that_keeps_killing_workers_stops_the_drain(self,
                                                            tmp_path):
        store = StageCache(tmp_path / "store")
        base = timed_plan([TimedStage("c0", s, 0.01) for s in STAGES],
                          nonce="killer")
        victim = base.units[2].key

        def execute(unit, _timer):
            if unit.key == victim:
                os._exit(42)
            return {"circuit": unit.circuit, "stage": unit.stage}

        plan = ShardPlan(base.units, execute)
        with pytest.raises(RuntimeError, match="resume") as err:
            run_plan(plan, workers=2, store=store)
        assert "c0/atpg" in str(err.value)
        # Upstream units finished before the killer ran stay stored.
        assert all(store.contains(u.key) for u in plan.units[:2])

    def test_all_workers_dead_raises_with_resume_hint(self, tmp_path):
        store = StageCache(tmp_path / "store")
        base = timed_plan([TimedStage("c0", s, 0.01) for s in STAGES],
                          nonce="fatal")

        def execute(unit, _timer):
            raise RuntimeError("stage exploded")

        plan = ShardPlan(base.units, execute)
        with pytest.raises(RuntimeError, match="resume"):
            run_plan(plan, workers=2, store=store)


# ----------------------------------------------------------------------
# End-to-end sharded suite runs
# ----------------------------------------------------------------------
def _deep_signature(res):
    """Bit-level digest of everything a FlowResult derives from stages."""
    cls_ = res.classification
    return (
        [(p.launch, p.capture) for p in res.test_set],
        res.clock.t_nom,
        res.universe_size,
        res.data.faults_with_ranges(),
        sorted(cls_.target),
        sorted(cls_.at_speed),
        sorted(cls_.monitor_at_speed),
        sorted(cls_.timing_redundant),
        sorted(cls_.conv_detected),
        sorted(cls_.prop_detected),
        {k: (sorted(s.periods),
             [(e.period, e.pattern, e.config) for e in s.entries],
             sorted(s.covered))
         for k, s in res.schedules.items()},
    )


def _statuses(results):
    """``{(circuit, stage): cache status}`` over a suite's results."""
    return {(name, stage): info["cache"]
            for name, res in results.items()
            for stage, info in res.meta["stages"].items()}


class TestRunSuiteSharded:
    """``run_suite`` with ``jobs > 1``: the stage-unit drain."""

    @pytest.fixture()
    def cfg(self):
        return SuiteRunConfig(names=("s9234", "s13207"), scale=0.25,
                              with_schedules=True, jobs=2)

    def test_runs_without_a_store(self, cfg, tmp_path, monkeypatch):
        # No store: the drain uses a private temporary one and removes it.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        results = run_suite(cfg, store=None)
        assert list(results) == list(cfg.names)
        assert set(_statuses(results).values()) == {"miss"}
        assert not any(tmp_path.iterdir())

    def test_matches_serial_flows_bit_identically(self, cfg, tmp_path):
        drained = run_suite(cfg, store=StageCache(tmp_path / "a"))
        # Serial reference: plain in-process flows, no cache at all.
        serial = run_suite(replace(cfg, jobs=1), store=None)
        assert list(drained) == list(serial)
        for name in serial:
            assert (_deep_signature(drained[name])
                    == _deep_signature(serial[name])), name

    def test_two_workers_match_one_worker(self, cfg, tmp_path):
        one = run_suite(replace(cfg, jobs=1),
                        store=StageCache(tmp_path / "one"))
        two = run_suite(cfg, store=StageCache(tmp_path / "two"))
        for name in cfg.names:
            assert (_deep_signature(one[name])
                    == _deep_signature(two[name])), name
        assert _statuses(one) == _statuses(two)

    def test_rerun_resumes_entirely_from_store(self, cfg, tmp_path):
        store = StageCache(tmp_path)
        first = run_suite(cfg, store=store)
        assert list(_statuses(first).values()).count("miss") == \
            len(cfg.names) * len(STAGES)
        second = run_suite(cfg, store=store)
        assert set(_statuses(second).values()) == {"hit"}
        for name in cfg.names:
            assert (_deep_signature(first[name])
                    == _deep_signature(second[name])), name

    def test_partial_suite_resumes_missing_stages_only(self, cfg, tmp_path):
        store = StageCache(tmp_path)
        run_suite(cfg, store=store)
        plan = suite_plan(cfg, store=store)
        dropped = [u for u in plan.units
                   if u.circuit == "s9234" and u.stage == "schedule"]
        assert len(dropped) == 1
        store.delete(dropped[0].key)
        resumed = run_suite(cfg, store=store)
        assert [k for k, v in _statuses(resumed).items() if v != "hit"] \
            == [("s9234", "schedule")]

    def test_pattern_budget_matches_run_suite(self, cfg, tmp_path):
        # The shard planner derives the same pattern cap as the in-process
        # run, so stage keys (and artifacts) are shared between both.
        store = StageCache(tmp_path)
        run_suite(cfg, store=store)
        name = cfg.names[0]
        cap = suite_entry(name).pattern_budget(scale=cfg.scale)
        probe = suite_flow(name, cfg, cap, 1).cached_result(
            with_schedules=cfg.with_schedules,
            with_coverage_schedules=cfg.with_coverage_schedules,
            cache=store)
        assert probe is not None
