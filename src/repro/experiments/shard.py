"""Multi-worker suite execution: stage work units over the shared store.

Whole-circuit fan-out lets a long pipeline stage on one big circuit
serialize the suite's tail while other workers idle.  This module (the
``jobs > 1`` shape of :func:`repro.experiments.runner.run_suite`)
decomposes a suite run into **stage work units** — the serializable
``(circuit, stage, upstream-keys)`` descriptors of
:meth:`repro.core.pipeline.Pipeline.unit_descriptors` — and drains them
with a pool of forked workers scheduled by the parent process:

* **Scheduling** happens in the parent, which knows the plan's DAG.  It
  keeps at most ``workers`` units in flight; whenever one finishes it
  submits the first pending unit, in priority order (circuits sorted by
  estimated cost, longest-processing-time first; stages in topological
  order), whose in-plan upstream units are done.  Ready units start the
  moment their upstreams land instead of one circuit being pinned to
  one worker.
* **Artifacts** travel through the Merkle-keyed
  :class:`~repro.experiments.artifact_cache.StageCache`: a worker loads
  its upstream artifacts from the store, runs the stage, stores the
  result and returns only its :class:`~repro.utils.profiling.StageTimer`.
  The parent checks that the artifact landed.
* **Crashes**: a worker killed mid-unit breaks the pool; the parent
  starts a fresh one and re-submits the units not yet stored.  A unit
  in flight at :data:`MAX_BREAKS_PER_UNIT` breaks is taken to be the
  cause and the drain stops with a resume hint.
* **Resumability** comes from the store: units whose artifacts already
  exist count as hits, so re-invoking a partially-completed (or killed)
  suite run computes exactly the missing stage units.

Two *concurrent, independent* drains over one store do not coordinate,
so they may compute the same unit twice.  That wastes work but cannot
corrupt anything: store writes are atomic and stages are deterministic.

:func:`repro.experiments.runner.run_suite` drives ``suite_plan`` +
``run_plan`` whenever it runs more than one circuit with ``jobs > 1``
(surfaced as ``repro suite --workers N`` and ``repro tables --jobs N``);
``timed_plan``/``run_plan`` drive the same scheduler with
simulated-duration units, which is how ``BENCH_suite.json`` measures
scheduler scaling independently of the recording host's core count.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.circuits.library import suite_entry, synthetic_suite
from repro.core.pipeline import DEFAULT_PIPELINE
from repro.core.stages import StageContext
from repro.experiments.artifact_cache import StageCache
from repro.experiments.runner import SuiteRunConfig, suite_flow
from repro.utils.profiling import StageTimer

#: A unit in flight at this many worker-pool breaks stops the drain.
MAX_BREAKS_PER_UNIT = 2

_RESUME_HINT = "re-invoke to resume from the stage store"


# ----------------------------------------------------------------------
# Work units and plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkUnit:
    """One schedulable ``(circuit, stage)`` node of the suite DAG."""

    circuit: str
    stage: str
    #: Content-addressed artifact key (the unit is complete when present).
    key: str
    #: Upstream ``(stage name, artifact key)`` pairs (ready when all present).
    deps: tuple[tuple[str, str], ...]
    #: Scheduling priority / simulated duration (seconds for timed plans,
    #: a unitless cost estimate for suite plans).
    cost: float = 0.0


@dataclass
class ShardStats:
    """Accounting of one drained plan."""

    computed: int = 0
    hits: int = 0
    timer: StageTimer = field(default_factory=StageTimer)


class ShardPlan:
    """An ordered set of work units plus the executor that runs one.

    ``units`` are priority-ordered: circuits sorted by total estimated
    cost descending (LPT — big circuits start first, so no straggler is
    dispatched last into an otherwise-drained pool), stages in
    topological order within each circuit.
    """

    def __init__(self, units: Sequence[WorkUnit],
                 execute: Callable[[WorkUnit, StageTimer | None], Any]
                 ) -> None:
        self.units = tuple(units)
        #: Runs one unit and returns its artifact (not yet stored).
        self.execute = execute

    @staticmethod
    def order_units(units: Iterable[WorkUnit]) -> list[WorkUnit]:
        """LPT priority: costliest circuit first, stages in topo order."""
        units = list(units)
        by_circuit: dict[str, float] = {}
        for u in units:
            by_circuit[u.circuit] = by_circuit.get(u.circuit, 0.0) + u.cost
        rank = {name: (-total, name)
                for name, total in by_circuit.items()}
        # Stable sort keeps the per-circuit topological order intact.
        return sorted(units, key=lambda u: rank[u.circuit])


def suite_plan(cfg: SuiteRunConfig, *,
               store: StageCache,
               progress: bool = False) -> ShardPlan:
    """Decompose a suite replay into stage work units.

    Builds one :class:`~repro.core.stages.StageContext` per circuit (the
    exact context an in-process run would use, so stage keys — and hence
    artifacts — are shared with ``run_suite``) and derives the unit DAG
    from the pipeline's descriptors.
    """
    contexts: dict[str, StageContext] = {}
    units: list[WorkUnit] = []
    for name in cfg.names:
        entry = suite_entry(name)
        cap = entry.pattern_budget(scale=cfg.scale)
        flow = suite_flow(name, cfg, cap, stage_jobs=1)
        ctx = flow.context(
            with_schedules=cfg.with_schedules,
            with_coverage_schedules=cfg.with_coverage_schedules)
        contexts[name] = ctx
        cost = float(entry.gates) * max(1, entry.patterns)
        for stage, key, deps in flow.pipeline.unit_descriptors(ctx):
            if not flow.pipeline.get(stage).cacheable(ctx):
                raise ValueError(
                    f"stage {stage!r} is not cacheable for {name!r}; "
                    f"stage work units coordinate through the store")
            units.append(WorkUnit(circuit=name, stage=stage, key=key,
                                  deps=deps, cost=cost))

    def execute(unit: WorkUnit, timer: StageTimer | None) -> Any:
        ctx = contexts[unit.circuit]
        ctx.timer = timer
        ctx.note = ((lambda m, _n=unit.circuit: print(f"[{_n}] {m}"))
                    if progress else (lambda _m: None))
        stage = DEFAULT_PIPELINE.get(unit.stage)
        inputs: dict[str, Any] = {}
        for dep_name, dep_key in unit.deps:
            artifact = store.load(dep_key)
            if artifact is None:
                raise RuntimeError(
                    f"upstream artifact {dep_name!r} of {unit.circuit!r} "
                    f"disappeared from the stage store mid-run")
            inputs[dep_name] = artifact
        return stage.run(ctx, inputs)

    return ShardPlan(ShardPlan.order_units(units), execute)


@dataclass(frozen=True)
class TimedStage:
    """A simulated-duration work unit spec for scheduler benchmarks."""

    circuit: str
    stage: str
    cost: float


#: Relative duration model of the six pipeline stages (measured shape of
#: the real flow: ATPG and simulation dominate, schedule is the mid cost).
STAGE_COST_WEIGHTS = {"sta": 0.05, "faults": 0.04, "atpg": 0.30,
                      "simulation": 0.40, "classify": 0.04,
                      "schedule": 0.17}


def suite_timed_specs(count: int, *,
                      serial_s: float = 12.0) -> list[TimedStage]:
    """Modeled stage durations for a ``count``-circuit synthetic matrix.

    Per-circuit cost tracks the structural size of the deterministic
    synthetic entries (gates x patterns), split across stages by
    :data:`STAGE_COST_WEIGHTS` and normalized so the serial total is
    ``serial_s``.  This is the workload behind ``BENCH_suite.json``'s
    scaling curve — shared between the benchmark that records it and the
    perf smoke test that re-measures it.
    """
    entries = synthetic_suite(count)
    raw = {e.name: float(e.gates) * max(1, e.patterns) for e in entries}
    norm = serial_s / sum(raw.values())
    return [TimedStage(e.name, stage, raw[e.name] * norm * weight)
            for e in entries
            for stage, weight in STAGE_COST_WEIGHTS.items()]


def timed_plan(specs: Sequence[TimedStage], *, nonce: str,
               granularity: str = "stage",
               order: str = "lpt") -> ShardPlan:
    """A plan whose units sleep for their cost instead of running stages.

    This benchmarks the *scheduler* (dispatch, readiness, packing) with
    modeled stage durations, independent of host core count.  ``nonce``
    salts the unit keys so repeated benchmark runs never hit stale
    artifacts.  ``granularity="circuit"`` collapses each circuit into a
    single unit of summed cost and ``order="given"`` keeps spec order —
    together they model the old whole-circuit ``pool.imap`` dispatch for
    the granularity ablation.
    """
    if granularity not in ("stage", "circuit"):
        raise ValueError(f"unknown granularity {granularity!r}")
    if order not in ("lpt", "given"):
        raise ValueError(f"unknown order {order!r}")

    def key_of(circuit: str, stage: str) -> str:
        blob = f"timed|{nonce}|{circuit}|{stage}"
        return hashlib.sha256(blob.encode()).hexdigest()

    units: list[WorkUnit] = []
    if granularity == "circuit":
        totals: dict[str, float] = {}
        for s in specs:
            totals[s.circuit] = totals.get(s.circuit, 0.0) + s.cost
        units = [WorkUnit(circuit=name, stage="flow",
                          key=key_of(name, "flow"), deps=(), cost=cost)
                 for name, cost in totals.items()]
    else:
        per_circuit: dict[str, dict[str, TimedStage]] = {}
        for s in specs:
            per_circuit.setdefault(s.circuit, {})[s.stage] = s
        for name, stages in per_circuit.items():
            for stage_name in DEFAULT_PIPELINE.stages():
                spec = stages.get(stage_name)
                if spec is None:
                    continue
                deps = tuple(
                    (d, key_of(name, d))
                    for d in DEFAULT_PIPELINE.get(stage_name).deps
                    if d in stages)
                units.append(WorkUnit(circuit=name, stage=stage_name,
                                      key=key_of(name, stage_name),
                                      deps=deps, cost=spec.cost))

    def execute(unit: WorkUnit, _timer: StageTimer | None) -> Any:
        time.sleep(unit.cost)
        return {"circuit": unit.circuit, "stage": unit.stage,
                "cost": unit.cost}

    if order == "lpt":
        units = ShardPlan.order_units(units)
    return ShardPlan(units, execute)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
#: A forked worker's plan and store (plan objects hold closures, so they
#: ride the fork as pool initializer arguments instead of a pickle).
_FORK_STATE: tuple[ShardPlan, StageCache] | None = None


def _adopt(plan: ShardPlan, store: StageCache) -> None:
    global _FORK_STATE
    _FORK_STATE = (plan, store)


def _run_unit(plan: ShardPlan, store: StageCache,
              unit: WorkUnit) -> StageTimer:
    """Execute one unit, store its artifact and return the unit's timer."""
    timer = StageTimer()
    store.store(unit.key, plan.execute(unit, timer))
    return timer


def _forked_unit(unit: WorkUnit) -> StageTimer:
    assert _FORK_STATE is not None
    return _run_unit(*_FORK_STATE, unit)


def _unit_failed(unit: WorkUnit, exc: Exception) -> RuntimeError:
    return RuntimeError(f"unit {unit.circuit}/{unit.stage} failed "
                        f"({type(exc).__name__}: {exc}); {_RESUME_HINT}")


def run_plan(plan: ShardPlan, *, workers: int = 1,
             store: StageCache) -> ShardStats:
    """Drain ``plan`` into ``store`` with up to ``workers`` processes.

    Units already in the store count as hits.  With ``workers > 1`` the
    parent keeps up to ``workers`` units in flight on a fork-context
    process pool (workers inherit the plan copy-on-write) and submits
    the first ready pending unit in plan order whenever a slot frees.
    Without the fork start method, or with ``workers <= 1``, the units
    run in-process in plan order.

    A unit that raises, or whose artifact did not land in the store,
    raises ``RuntimeError``.  A worker killed mid-unit breaks the pool;
    a fresh pool then continues with the units not yet stored, unless a
    unit was in flight at :data:`MAX_BREAKS_PER_UNIT` breaks.
    """
    stats = ShardStats()
    pending: list[WorkUnit] = []
    for unit in plan.units:
        if store.contains(unit.key):
            stats.hits += 1
        else:
            pending.append(unit)
    unfinished = {u.key for u in pending}

    def finish(unit: WorkUnit, timer: StageTimer) -> None:
        if not store.contains(unit.key):
            raise RuntimeError(
                f"unit {unit.circuit}/{unit.stage} ran, but writing its "
                f"artifact to the stage store at {store.root} failed")
        unfinished.discard(unit.key)
        stats.computed += 1
        stats.timer.merge(timer)

    if workers <= 1 or "fork" not in mp.get_all_start_methods():
        for unit in pending:
            try:
                timer = _run_unit(plan, store, unit)
            except Exception as exc:
                raise _unit_failed(unit, exc) from exc
            finish(unit, timer)
        return stats

    breaks: dict[str, int] = {}
    while pending:
        in_flight: dict[Future, WorkUnit] = {}
        try:
            with ProcessPoolExecutor(
                    workers, mp_context=mp.get_context("fork"),
                    initializer=_adopt, initargs=(plan, store)) as pool:
                while pending or in_flight:
                    for unit in list(pending):
                        if len(in_flight) == workers:
                            break
                        if not any(k in unfinished for _, k in unit.deps):
                            pending.remove(unit)
                            in_flight[pool.submit(_forked_unit, unit)] = unit
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for fut in done:
                        unit = in_flight[fut]
                        try:
                            timer = fut.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:
                            raise _unit_failed(unit, exc) from exc
                        del in_flight[fut]
                        finish(unit, timer)
        except BrokenProcessPool as exc:
            for unit in in_flight.values():
                if store.contains(unit.key):  # landed before the break
                    finish(unit, StageTimer())
                    continue
                breaks[unit.key] = breaks.get(unit.key, 0) + 1
                if breaks[unit.key] == MAX_BREAKS_PER_UNIT:
                    raise RuntimeError(
                        f"unit {unit.circuit}/{unit.stage} was in flight "
                        f"at {MAX_BREAKS_PER_UNIT} worker crashes; "
                        f"{_RESUME_HINT}") from exc
            pending = [u for u in plan.units if u.key in unfinished]
    return stats
