"""The one suite executor: every table/figure driver, ``repro tables``,
``repro suite`` and the job service replay suites through :func:`run_suite`.

Results are reused at two levels:

* **in-process** — the default (environment) store keeps a memo keyed by
  the full :class:`SuiteRunConfig` (including the effective job count, so
  runs under different ``REPRO_JOBS`` settings never alias each other's
  timer splits);
* **on disk** — at *stage* granularity via
  :class:`repro.experiments.artifact_cache.StageCache`: repeated
  invocations skip completed stages across processes and sessions, and a
  partially-completed suite run resumes from the last finished stage of
  each circuit.

Execution has two shapes over the same stage keys, bit-identical results
either way:

* ``jobs == 1`` (or a single circuit left to run) — each circuit's
  :meth:`~repro.core.flow.HdfTestFlow.run` in-process, with the job budget
  handed to the in-flow stage pools;
* ``jobs > 1`` — the suite decomposes into ``(circuit, stage)`` work units
  drained by ``jobs`` forked workers over the store
  (:mod:`repro.experiments.shard`).  Without a store the drain runs over
  a private temporary one that is removed afterwards.

``run_suite(..., recompute_from=("schedule",))`` forces the named pipeline
stages plus their downstream closure to recompute on both shapes —
unknown stage names raise ``ValueError`` listing the registered stages.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any

from repro.circuits.library import (
    QUICK_SUITE_NAMES,
    paper_suite,
    suite_circuit,
    suite_entry,
    synthetic_suite,
)
from repro.core.config import FlowConfig
from repro.core.flow import HdfTestFlow
from repro.core.pipeline import DEFAULT_PIPELINE
from repro.core.results import FlowResult
from repro.experiments.artifact_cache import (
    ENV_STORE,
    StageCache,
    resolve_store,
)
from repro.utils.profiling import StageTimer


def _default_jobs() -> int:
    """Worker-process count from the environment (``REPRO_JOBS``).

    Read once into :class:`SuiteRunConfig` at construction time, so the
    effective parallelism is part of the cache key instead of ambient
    state.
    """
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class SuiteRunConfig:
    """Parameters of one suite replay."""

    names: tuple[str, ...] = tuple(e.name for e in paper_suite())
    scale: float = 1.0
    with_schedules: bool = True
    with_coverage_schedules: bool = False
    fast_ratio: float = 3.0
    monitor_fraction: float = 0.25
    atpg_seed: int = 7
    #: Effective worker count (captured from ``REPRO_JOBS`` by default).
    #: With multiple circuits to run, that many workers drain the suite's
    #: stage work units; with a single circuit the jobs go to the in-flow
    #: stage pools.
    jobs: int = field(default_factory=_default_jobs)

    @classmethod
    def quick(cls, **overrides: object) -> "SuiteRunConfig":
        """Four small circuits at reduced scale — tests and CI benchmarks."""
        base = cls(names=tuple(QUICK_SUITE_NAMES), scale=0.6)
        return replace(base, **overrides)  # type: ignore[arg-type]

    @classmethod
    def synth(cls, count: int = 120, *, start: int = 0,
              **overrides: object) -> "SuiteRunConfig":
        """A ``count``-circuit synthetic matrix (``syn0000``, ...).

        The multi-worker suite workload: hundreds of small, deterministic
        circuits (see :func:`repro.circuits.library.synthetic_suite`).
        Schedules are off by default to keep the per-circuit flow cheap.
        """
        names = tuple(e.name for e in synthetic_suite(count, start=start))
        base = cls(names=names, scale=1.0, with_schedules=False)
        return replace(base, **overrides)  # type: ignore[arg-type]


#: In-process memo of the environment-store path: config -> {name: result}.
_CACHE: dict[SuiteRunConfig, dict[str, FlowResult]] = {}


def clear_cache() -> None:
    _CACHE.clear()


def flow_config(cfg: SuiteRunConfig, pattern_cap: int | None,
                stage_jobs: int) -> FlowConfig:
    """The :class:`FlowConfig` one suite circuit runs under."""
    return FlowConfig(
        fast_ratio=cfg.fast_ratio,
        monitor_fraction=cfg.monitor_fraction,
        atpg_seed=cfg.atpg_seed,
        pattern_cap=pattern_cap,
        simulation_jobs=stage_jobs,
        schedule_jobs=stage_jobs,
    )


def suite_flow(name: str, cfg: SuiteRunConfig, pattern_cap: int | None,
               stage_jobs: int) -> HdfTestFlow:
    """Build the flow for one suite circuit (shared with the shard planner)."""
    circuit = suite_circuit(name, scale=cfg.scale)
    return HdfTestFlow(circuit, flow_config(cfg, pattern_cap, stage_jobs))


def _execute_flow(name: str, cfg: SuiteRunConfig, *, stage_jobs: int,
                  progress: bool, timer: StageTimer | None,
                  recompute_from: tuple[str, ...],
                  cache: StageCache | None) -> FlowResult:
    cap = suite_entry(name).pattern_budget(scale=cfg.scale)
    flow = suite_flow(name, cfg, cap, stage_jobs)
    note = (lambda m, _n=name: print(f"[{_n}] {m}")) if progress else None
    return flow.run(
        with_schedules=cfg.with_schedules,
        with_coverage_schedules=cfg.with_coverage_schedules,
        progress=note, timer=timer,
        cache=cache, recompute_from=recompute_from)


def _drain_suite(cfg: SuiteRunConfig, store: StageCache | None, *,
                 recompute_from: tuple[str, ...], progress: bool,
                 timer: StageTimer | None) -> dict[str, FlowResult]:
    """Run ``cfg`` as stage work units drained by ``cfg.jobs`` workers.

    The forced stages' artifacts are deleted up front, so the drain
    recomputes them.  Each result is then assembled by a flow run over the
    store (every stage hits) whose per-stage meta is relabeled to what
    this drain did: ``hit`` for artifacts present before it, ``computed``
    for forced stages and ``miss`` for the rest — the statuses an
    in-process :meth:`~repro.core.pipeline.Pipeline.run` reports.
    """
    from repro.experiments.shard import run_plan, suite_plan

    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-suite-") as tmp:
            return _drain_suite(cfg, StageCache(tmp),
                                recompute_from=recompute_from,
                                progress=progress, timer=timer)
    plan = suite_plan(cfg, store=store, progress=progress)
    forced = (DEFAULT_PIPELINE.descendants(recompute_from)
              if recompute_from else set())
    for unit in plan.units:
        if unit.stage in forced:
            store.delete(unit.key)
    present = {u.key for u in plan.units if store.contains(u.key)}
    stats = run_plan(plan, workers=cfg.jobs, store=store)
    if timer is not None:
        timer.merge(stats.timer)

    results: dict[str, FlowResult] = {}
    for name in cfg.names:
        result = _execute_flow(name, cfg, stage_jobs=1, progress=False,
                               timer=None, recompute_from=(), cache=store)
        meta = result.meta
        if meta["cache"]["misses"]:
            raise RuntimeError(
                f"suite drain completed but {name!r} has missing stage "
                f"artifacts — stage store at {store.root} is inconsistent")
        for stage, key in meta["keys"].items():
            if key not in present:
                meta["stages"][stage]["cache"] = (
                    "computed" if stage in forced else "miss")
        hits = sum(info["cache"] == "hit"
                   for info in meta["stages"].values())
        meta["cache"] = {"hits": hits, "misses": len(meta["stages"]) - hits}
        results[name] = result
    return results


def run_suite(config: SuiteRunConfig | None = None,
              *, store: Any = ENV_STORE,
              recompute_from: tuple[str, ...] = (),
              progress: bool = False,
              timer: StageTimer | None = None) -> dict[str, FlowResult]:
    """Run (or fetch cached) flow results for every circuit of the config.

    ``store`` is the stage store the suite runs against: the default
    ``ENV_STORE`` is the ``REPRO_FLOW_CACHE`` / ``REPRO_CACHE_DIR``
    environment store plus an in-process memo of finished results; an
    explicit :class:`StageCache` (or ``None`` = no disk cache) gets an
    execution against exactly that store and no memo.  ``timer``
    accumulates the per-stage wall-clock split across all circuits
    actually executed (cache hits contribute nothing; workers' splits
    are merged in).  ``recompute_from`` forces the named pipeline stages
    plus everything downstream to recompute even when cached — unknown
    names raise ``ValueError`` listing the registered stages.
    """
    cfg = config or SuiteRunConfig()
    recompute_from = tuple(recompute_from)
    if recompute_from:
        DEFAULT_PIPELINE.descendants(recompute_from)  # validate names early
    memo = _CACHE.setdefault(cfg, {}) if store is ENV_STORE else {}
    store = resolve_store(store)
    pending = [name for name in cfg.names
               if recompute_from or name not in memo]

    if len(pending) > 1 and cfg.jobs > 1:
        memo.update(_drain_suite(
            replace(cfg, names=tuple(pending)), store,
            recompute_from=recompute_from, progress=progress,
            timer=timer))
    else:
        # Serial circuits: hand the job budget to the in-flow stage pools.
        for name in pending:
            memo[name] = _execute_flow(
                name, cfg, stage_jobs=cfg.jobs, progress=progress,
                timer=timer, recompute_from=recompute_from, cache=store)

    return {name: memo[name] for name in cfg.names}
