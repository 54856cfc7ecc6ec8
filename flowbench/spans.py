"""In-memory span tracing for the flow benchmark.

Spans are recorded only from the benchmark's side of the public seams:
a wrapped pipeline :class:`~repro.core.stages.Stage`, a wrapped stage
store, the service's ``run_job`` entry and the ``resched`` engine adapter.
The engines' own :class:`~repro.utils.profiling.StageTimer` split becomes
the lowest level of the tree (synthetic child spans laid end to end from
the stage's start).  Nothing under ``src/`` is modified; every patch is
undone when :func:`instrument` exits.

A span has a name, a layer (the module it times), start/end on the
``time.perf_counter`` clock, a parent and an operation id shared by every
span of one flow, job or alert.  :meth:`Tracer.self_times` gives each
layer's self time; :meth:`Tracer.reconcile` checks that the tree adds up;
:meth:`Tracer.chrome_trace` exports Chrome trace-event JSON for Perfetto.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

#: Relative tolerance of every reconciliation check (plus ABS_TOL_S).
REL_TOL = 0.02
#: Absolute slack for clock granularity and cross-thread hand-offs, s.
ABS_TOL_S = 0.002

#: Pipeline stage -> layer (the module that implements it).
STAGE_LAYER = {
    "sta": "timing",
    "faults": "faults",
    "atpg": "atpg",
    "simulation": "simulation",
    "classify": "faults",
    "schedule": "scheduling",
}

#: Layers in report order; "bench" is the benchmark's own harness code and
#: is reported as the unattributed remainder, never folded into a layer.
LAYERS = ("atpg", "simulation", "faults", "timing", "scheduling",
          "scheduling.resched", "experiments.artifact_cache", "service",
          "core", "bench")


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: str | None
    track: str
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span recorder with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        #: Spans opened on another thread that new root spans attach to,
        #: keyed by a caller-chosen token (the service job fingerprint).
        self.pending: dict[str, Span] = {}

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    @contextmanager
    def span(self, name: str, layer: str, *, op: str | None = None,
             parent: Span | None = None, track: str | None = None,
             **args: Any) -> Iterator[Span]:
        """Open a span; parent defaults to this thread's innermost span."""
        stack = self._stack()
        parent = parent if parent is not None else (
            stack[-1] if stack else None)
        sp = Span(sid=self.new_id(), name=name, layer=layer,
                  start=time.perf_counter(), end=0.0,
                  parent=parent.sid if parent else None,
                  op=op or (parent.op if parent else None),
                  track=track or threading.current_thread().name,
                  args=dict(args))
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def add(self, key: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + value

    def timer_splits(self, parent: Span, prefix: str, totals: dict) -> None:
        """Record a StageTimer's self-time split as children of ``parent``.

        The timer keeps totals, not intervals, so the children are laid
        end to end from the parent's start; their sum is what the
        reconciliation compares against the parent.
        """
        t = parent.start
        for key in sorted(totals):
            seconds = totals[key]
            sp = Span(sid=self.new_id(), name=f"{prefix}/{key}",
                      layer=parent.layer, start=t, end=t + seconds,
                      parent=parent.sid, op=parent.op, track=parent.track,
                      args={"split": True})
            t += seconds
            with self._lock:
                self.spans.append(sp)
            self.add(f"split.{prefix}.{key}", seconds)

    # -- analysis -------------------------------------------------------
    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    def roots(self) -> list[Span]:
        return [sp for sp in self.spans if sp.parent is None]

    def self_times(self) -> tuple[dict[str, float], float]:
        """Per-layer self time and the sibling-overlap excess.

        A span's self time is its duration minus the union of its
        children's intervals.  Children that run in parallel (on different
        threads) cover the same wall-clock interval twice; the excess of
        their summed durations over their union is returned separately so
        ``sum(self) - overlap == root wall clock``.
        """
        kids = self.children()
        out = {layer: 0.0 for layer in LAYERS}
        overlap = 0.0
        for sp in self.spans:
            ch = kids.get(sp.sid, [])
            covered = _union_length(
                [(max(c.start, sp.start), min(c.end, sp.end)) for c in ch])
            out[sp.layer] = out.get(sp.layer, 0.0) + sp.dur - covered
            overlap += sum(c.dur for c in ch) - _union_length(
                [(c.start, c.end) for c in ch])
        return out, overlap

    def reconcile(self) -> dict[str, Any]:
        """Check the span tree adds up; return the findings.

        * every child lies inside its parent;
        * the children of a span never cover more than the span;
        * StageTimer splits sum to at most their stage span;
        * per-layer self times minus the parallel-sibling overlap sum to
          the root's wall clock.
        Each comparison allows ``REL_TOL`` of the parent plus ``ABS_TOL_S``.
        """
        by_id = {sp.sid: sp for sp in self.spans}
        kids = self.children()
        problems: list[str] = []
        split_gap = 0.0
        for sp in self.spans:
            slack = REL_TOL * sp.dur + ABS_TOL_S
            parent = by_id.get(sp.parent) if sp.parent is not None else None
            if parent is not None and not sp.args.get("split"):
                if (sp.start < parent.start - ABS_TOL_S
                        or sp.end > parent.end + ABS_TOL_S):
                    problems.append(f"{sp.name} escapes {parent.name}")
            ch = kids.get(sp.sid, [])
            if not ch:
                continue
            union = _union_length([(c.start, c.end) for c in ch])
            if union > sp.dur + slack:
                problems.append(f"children of {sp.name} cover "
                                f"{union:.4f}s > {sp.dur:.4f}s")
            splits = sum(c.dur for c in ch if c.args.get("split"))
            if splits:
                if splits > sp.dur + slack:
                    problems.append(f"timer splits of {sp.name} sum to "
                                    f"{splits:.4f}s > {sp.dur:.4f}s")
                split_gap = max(split_gap, splits - sp.dur)
        roots = self.roots()
        wall = sum(r.dur for r in roots)
        selfs, overlap = self.self_times()
        total = sum(selfs.values()) - overlap
        if abs(total - wall) > REL_TOL * wall + ABS_TOL_S:
            problems.append(f"self times minus overlap {total:.4f}s != "
                            f"wall clock {wall:.4f}s")
        return {"ok": not problems, "problems": problems, "wall_s": wall,
                "self_sum_s": total, "overlap_s": overlap,
                "max_split_excess_s": split_gap, "rel_tol": REL_TOL,
                "abs_tol_s": ABS_TOL_S}

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (``ph: X`` complete events)."""
        t0 = min((sp.start for sp in self.spans), default=0.0)
        tids: dict[str, int] = {}
        events: list[dict[str, Any]] = []
        for sp in sorted(self.spans, key=lambda s: (s.start, s.sid)):
            tid = tids.setdefault(sp.track, len(tids) + 1)
            events.append({
                "name": sp.name, "cat": sp.layer, "ph": "X",
                "ts": round((sp.start - t0) * 1e6, 3),
                "dur": round(sp.dur * 1e6, 3),
                "pid": os.getpid(), "tid": tid,
                "args": {"id": sp.sid, "parent": sp.parent, "op": sp.op,
                         **sp.args},
            })
        for track, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M",
                           "pid": os.getpid(), "tid": tid,
                           "args": {"name": track}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of opening and closing one span on this host."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate", "bench"):
            pass
    return (time.perf_counter() - t0) / samples


# ----------------------------------------------------------------------
# Seam wrappers
# ----------------------------------------------------------------------
class TracedStage:
    """A pipeline stage that records its run and its engine's timer split.

    Every attribute the pipeline reads for stage keys (``name``, ``deps``,
    ``CACHE_VERSION``, ``config_key`` ...) is delegated, so a traced
    pipeline derives exactly the keys of the untraced one.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

    def run(self, ctx, inputs):
        from repro.utils.profiling import StageTimer

        name = self._inner.name
        layer = STAGE_LAYER.get(name, "core")
        engine = (ctx.config.engine_for(name)
                  if name in ctx.registry.stages() else None)
        outer, timer = ctx.timer, StageTimer()
        ctx.timer = timer
        try:
            with self._tracer.span(f"stage/{name}", layer,
                                   engine=engine) as sp:
                out = self._inner.run(ctx, inputs)
        finally:
            ctx.timer = outer
        if outer is not None:
            outer.merge(timer)
        self._tracer.timer_splits(sp, name, timer.totals)
        self._tracer.add(f"stage.{name}.s", sp.dur)
        if name == "atpg":
            self._tracer.add("atpg.podem_calls",
                             timer.counts.get("podem", 0))
        _count_artifact(self._tracer, name, out)
        return out


def _count_artifact(tracer: Tracer, name: str, out: Any) -> None:
    """Workload counters read from a stage's output artifact."""
    if name == "atpg" and out.atpg is not None:
        tracer.add("atpg.aborted", len(out.atpg.aborted))
        tracer.add("atpg.untestable", len(out.atpg.untestable))
        tracer.add("atpg.patterns", len(out.test_set))
    elif name == "simulation":
        tracer.add("simulation.range_pairs",
                   sum(len(v) for v in out.data.ranges.values()))
    elif name == "classify":
        tracer.add("faults.targets", len(out.classification.target))
    elif name == "schedule":
        tracer.add("scheduling.candidates",
                   sum(s.num_candidates for s in out.schedules.values()))


class TracedStore:
    """Stage-store wrapper timing every load and save (bytes from disk)."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

    def _size(self, key: str) -> int:
        try:
            return os.path.getsize(self._inner._path(key))
        except OSError:
            return 0

    def load(self, key: str):
        tr = self._tracer
        with tr.span("store/load", "experiments.artifact_cache") as sp:
            obj = self._inner.load(key)
        tr.add("store.loads")
        tr.add("store.load_s", sp.dur)
        if obj is not None:
            tr.add("store.hits")
            tr.add("store.bytes_read", self._size(key))
        return obj

    def store(self, key: str, obj) -> None:
        tr = self._tracer
        with tr.span("store/save", "experiments.artifact_cache") as sp:
            self._inner.store(key, obj)
        tr.add("store.saves")
        tr.add("store.save_s", sp.dur)
        tr.add("store.bytes_written", self._size(key))


def traced_pipeline(tracer: Tracer):
    """``Pipeline`` over the default stages, each wrapped in TracedStage."""
    from repro.core.pipeline import Pipeline
    from repro.core.stages import DEFAULT_STAGES

    return Pipeline(TracedStage(s, tracer) for s in DEFAULT_STAGES)


def traced_call(tracer: Tracer, fn, name: str, layer: str):
    """``fn`` wrapped in a span (for engine adapters and kernels)."""
    def wrapped(*args, **kwargs):
        with tracer.span(name, layer):
            return fn(*args, **kwargs)
    return wrapped


@contextmanager
def instrument(tracer: Tracer | None) -> Iterator[Any]:
    """Patch the public seams for one traced run; yields the pipeline.

    With ``tracer=None`` nothing is patched and the default pipeline is
    yielded, so untraced runs execute exactly the code a user calls.
    """
    from repro.core import flow as flow_mod
    from repro.core import stages as stages_mod
    from repro.service import orchestrator as orch_mod

    if tracer is None:
        yield flow_mod.DEFAULT_PIPELINE
        return
    pipeline = traced_pipeline(tracer)
    saved = [
        (flow_mod, "DEFAULT_PIPELINE", flow_mod.DEFAULT_PIPELINE),
        (flow_mod.HdfTestFlow, "run", flow_mod.HdfTestFlow.run),
        (stages_mod, "small_delay_fault_universe",
         stages_mod.small_delay_fault_universe),
        (stages_mod, "structural_prefilter", stages_mod.structural_prefilter),
        (orch_mod, "run_job", orch_mod.run_job),
    ]
    real_run = flow_mod.HdfTestFlow.run
    real_run_job = orch_mod.run_job

    def flow_run(self, *args, **kwargs):
        # A flow called directly by a workload is an operation of its
        # own; one run inside a service job shares the job's id.
        cur = tracer.current()
        op = (None if cur is not None and cur.op not in (None, "workload")
              else f"flow{tracer.new_id()}")
        with tracer.span("flow", "core", op=op, circuit=self.circuit.name):
            return real_run(self, *args, **kwargs)

    def run_job(spec, *args, **kwargs):
        parent = tracer.pending.get(spec.fingerprint())
        with tracer.span("service/execute", "service", parent=parent):
            return real_run_job(spec, *args, **kwargs)

    flow_mod.DEFAULT_PIPELINE = pipeline
    flow_mod.HdfTestFlow.run = flow_run
    stages_mod.small_delay_fault_universe = traced_call(
        tracer, stages_mod.small_delay_fault_universe,
        "faults/universe", "faults")
    stages_mod.structural_prefilter = traced_call(
        tracer, stages_mod.structural_prefilter, "faults/prefilter",
        "faults")
    orch_mod.run_job = run_job
    try:
        yield pipeline
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
