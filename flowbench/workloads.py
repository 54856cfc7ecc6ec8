"""The three benchmark workloads, driven through the public entry points.

* ``cold-flow``     — ``HdfTestFlow.run`` over the quick-suite circuits,
  no stage store (ATPG-bound).
* ``monitor-sweep`` — a fast-ratio x monitor-fraction sweep through the
  ``HdfService`` HTTP API over an explicit ``StageCache`` (simulation,
  scheduling and store/service bound).
* ``alert-stream``  — single-gate alert streams of several simulated
  devices through the default ``resched`` engine (incremental re-solve
  bound).

Every workload returns a :class:`Measurement`; ``run.py`` turns it into
metrics.  The seed reaches the program only as generated inputs: the
ATPG seed (cold-flow), the fresh and replay orders (monitor-sweep)
and the devices' aging-scenario seeds (alert-stream).
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any

import checks
from spans import TracedStore, Tracer, instrument


@dataclass(frozen=True)
class Sizing:
    """How much work each workload does (``FULL`` or the test ``MINI``)."""

    #: cold-flow circuits as (suite or embedded name, scale).
    cold_circuits: tuple[tuple[str, float], ...] = (
        ("s9234", 1.0), ("s13207", 1.0), ("s35932", 1.0), ("p89k", 0.3))
    cold_sets: int = 2
    cold_setup_repeats: int = 10
    #: Circuits of the monitor-sweep and alert-stream workloads.
    sweep_circuit: tuple[str, float] = ("p89k", 0.2)
    alert_circuit: tuple[str, float] = ("p89k", 0.2)
    fast_ratios: tuple[float, ...] = (2.0, 3.0, 4.0)
    monitor_fractions: tuple[float, ...] = (0.1, 0.25, 0.5)
    #: Minimum all-hit resubmissions of the replay pass, so that at least
    #: ten lie beyond the 90th percentile; the pass always ends on a whole
    #: cycle through the points.
    replays: int = 108
    #: alert-stream devices whose schedules the quality metrics sum; an
    #: untraced run goes on with more devices until its time is up.
    devices: int = 12
    #: alert-stream devices per set-up: the set-up is timed again before
    #: every ``alert_setup_every``-th device.
    alert_setup_every: int = 3
    #: monitor-sweep set-ups (each a fresh store and a cold base job); the
    #: last ``sweep_fresh_passes`` of them are followed by a fresh pass.
    sweep_setup_repeats: int = 5
    sweep_fresh_passes: int = 4


FULL = Sizing()
MINI = Sizing(cold_circuits=(("s27", 1.0), ("c17", 1.0)), cold_sets=2,
              cold_setup_repeats=2, sweep_circuit=("p89k", 0.05),
              alert_circuit=("p89k", 0.05),
              fast_ratios=(2.0, 3.0), monitor_fractions=(0.25, 0.5),
              replays=8, devices=2, alert_setup_every=1,
              sweep_setup_repeats=2, sweep_fresh_passes=2)

#: The sweep's base point (the FlowJob defaults).
BASE_POINT = (3.0, 0.25)


@dataclass
class Measurement:
    """Raw samples and counts of one workload run."""

    setup_s: list[float] = field(default_factory=list)
    cold_flow_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: tf coverage as (detected, testable) summed over circuits.
    tf: tuple[int, int] = (0, 0)
    hdf_detected: int = 0
    test_entries: int = 0
    #: Quality metric -> repeated exactly across the run's repetitions.
    repeats_exactly: dict[str, bool] = field(default_factory=dict)
    #: Layer figures only the workload can see (service records, resched
    #: outcome stats), keyed by per-layer metric name.
    layer: dict[str, float] = field(default_factory=dict)
    #: Extra human-readable figures (inputs, sizes, step-1 paths).
    notes: dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str, problems: list[str], ops: int = 1) -> None:
        if problems:
            self.failed += ops
            self.problems.extend(f"{what}: {p}" for p in problems)


def resolve(name: str, scale: float):
    from repro.circuits.library import embedded_circuit, suite_circuit

    try:
        return embedded_circuit(name)
    except KeyError:
        return suite_circuit(name, scale=scale)


def _tf_counts(atpg) -> tuple[int, int]:
    return len(atpg.detected), len(atpg.faults) - len(atpg.untestable)


# ----------------------------------------------------------------------
# cold-flow
# ----------------------------------------------------------------------
def cold_flow(seed: int, seconds: float, tracer: Tracer | None,
              size: Sizing, work: Path) -> Measurement:
    """Cold flow sets; each set runs under its own seed-derived ATPG seed,
    so one run averages over several test sets."""
    from repro.core.config import FlowConfig
    from repro.core.flow import HdfTestFlow

    # The operation is a whole set: single flows of four circuits of
    # different sizes have a bimodal latency whose median jumps between
    # circuits from seed to seed.
    m = Measurement()
    rng = random.Random(seed)

    def generate() -> list:
        # Set-up takes a few tens of ms, short enough for the host's speed
        # swings to show; it is timed several times before every set so
        # that its median spans the whole run.
        circuits = []
        for _ in range(size.cold_setup_repeats):
            t0 = time.perf_counter()
            circuits = [resolve(n, s) for n, s in size.cold_circuits]
            m.setup_s.append(time.perf_counter() - t0)
        return circuits

    with instrument(tracer) as pipeline:
        atpg_seeds = []
        start = time.perf_counter()
        det = tes = 0
        while len(atpg_seeds) < size.cold_sets or (
                tracer is None and time.perf_counter() - start < seconds):
            circuits = generate()
            atpg_seeds.append(rng.randrange(2 ** 31))
            config = FlowConfig(atpg_seed=atpg_seeds[-1], simulation_jobs=1,
                                schedule_jobs=1)
            gc.collect()
            t_set = time.perf_counter()
            for c in circuits:
                m.attempted += 1
                try:
                    res = HdfTestFlow(c, config, pipeline=pipeline).run()
                except Exception as exc:  # noqa: BLE001 — count, go on
                    m.fail(f"flow {c.name}", [repr(exc)])
                    continue
                problems, derived = checks.check_flow_result(res)
                m.fail(f"flow {c.name}", problems)
                if len(atpg_seeds) <= size.cold_sets:
                    # Quality sums cover the fixed sets only, so they do
                    # not depend on how many extra sets the time allowed.
                    d, t = _tf_counts(res.atpg)
                    det, tes = det + d, tes + t
                    m.hdf_detected += len(derived)
                    m.test_entries += res.schedules["prop"].num_entries
            wall = time.perf_counter() - t_set
            m.pass_s.append(wall)
            m.cold_flow_s.append(wall)
            m.op_ms.append(1000.0 * wall)
    m.tf = (det, tes)
    m.notes.update(circuits=[f"{n}@{s}" for n, s in size.cold_circuits],
                   atpg_seeds=atpg_seeds)
    return m


# ----------------------------------------------------------------------
# monitor-sweep
# ----------------------------------------------------------------------
class Client:
    """One closed-loop HTTP client (one keep-alive connection)."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.conn = http.client.HTTPConnection(*address, timeout=170)

    def _call(self, method: str, path: str, body: dict | None = None
              ) -> tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def run(self, doc: dict) -> dict:
        """Submit, follow the event stream to the end, fetch the result."""
        t0 = time.perf_counter()
        status, raw = self._call("POST", "/jobs", doc)
        t1 = time.perf_counter()
        if status != 202:
            raise RuntimeError(f"POST /jobs -> {status}: {raw[:200]!r}")
        job_id = json.loads(raw)["id"]
        self._call("GET", f"/jobs/{job_id}/stream")
        status, raw = self._call("GET", f"/jobs/{job_id}/result")
        t2 = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"result of {job_id} -> {status}")
        record = json.loads(raw)
        return {"id": job_id, "latency_s": t2 - t0, "submit_s": t1 - t0,
                "record": record}

    def close(self) -> None:
        self.conn.close()


class Sweep:
    """One in-process service over an empty store in its own directory."""

    def __init__(self, root: Path, bench: Path, tracer: Tracer | None):
        from repro.experiments.artifact_cache import StageCache
        from repro.service.server import HdfService

        self.root = root
        self.raw_store = StageCache(root / "store")
        if any(self.raw_store.root.rglob("*")):
            raise RuntimeError(f"stage store {self.raw_store.root} is not "
                               f"empty at start")
        store = (TracedStore(self.raw_store, tracer) if tracer is not None
                 else self.raw_store)
        self.bench = bench
        self.tracer = tracer
        self.service = HdfService(host="127.0.0.1", port=0, store=store,
                                  workers=2).start()
        self.thread = threading.Thread(target=self.service.serve_forever,
                                       name="flowbench-http", daemon=True)
        self.thread.start()

    def doc(self, point: tuple[float, float]) -> dict:
        return {"kind": "flow", "circuit": str(self.bench),
                "fast_ratio": point[0], "monitor_fraction": point[1],
                "with_schedules": True}

    def submit(self, client: Client, point, op: str) -> dict:
        """One client request, traced as a ``service`` span when tracing."""
        if self.tracer is None:
            return client.run(self.doc(point))
        from repro.core.spec import job_from_dict

        fingerprint = job_from_dict(self.doc(point)).fingerprint()
        with self.tracer.span("service/request", "service", op=op,
                              point=list(point)) as sp:
            self.tracer.pending[fingerprint] = sp
            try:
                return client.run(self.doc(point))
            finally:
                self.tracer.pending.pop(fingerprint, None)

    def close(self) -> None:
        self.service.shutdown()
        self.thread.join(timeout=10)


def monitor_sweep(seed: int, seconds: float, tracer: Tracer | None,
                  size: Sizing, work: Path) -> Measurement:
    from repro.core.flow import HdfTestFlow
    from repro.core.spec import job_from_dict
    from repro.netlist.bench import load_bench, save_bench

    m = Measurement()
    rng = random.Random(seed)
    points = [(r, f) for r in size.fast_ratios
              for f in size.monitor_fractions]
    if BASE_POINT not in points:
        raise ValueError("the sweep grid must contain the base point")
    fresh_order = [p for p in points if p != BASE_POINT]
    rng.shuffle(fresh_order)
    replay_order = list(points)
    rng.shuffle(replay_order)

    name, scale = size.sweep_circuit
    fresh: dict[tuple, dict] = {}
    sweep = None
    try:
        with instrument(tracer):
            base_rows = set()
            for rep in range(size.sweep_setup_repeats):
                if sweep is not None:
                    sweep.close()
                    shutil.rmtree(sweep.root)
                    sweep = None
                gc.collect()
                t0 = time.perf_counter()
                root = work / f"sweep{rep}"
                root.mkdir()
                bench = root / f"{name}_{scale:g}.bench"
                save_bench(resolve(name, scale), bench)
                sweep = Sweep(root, bench, tracer)
                client = Client(sweep.service.address)
                m.attempted += 1
                out = sweep.submit(client, BASE_POINT, op=f"setup{rep}")
                client.close()
                m.setup_s.append(time.perf_counter() - t0)
                m.cold_flow_s.append(out["latency_s"])
                rec = out["record"]
                if rec.get("state") != "done":
                    raise RuntimeError(f"base job failed: {rec.get('error')}")
                fresh[BASE_POINT] = rec["result"]
                base_rows.add(checks.payload_rows(rec["result"]))
                if rep < size.sweep_setup_repeats - size.sweep_fresh_passes:
                    continue

                # Fresh pass after each of the last set-ups: one
                # closed-loop client; every point recomputes sta..schedule
                # and takes ATPG from the store.
                gc.collect()
                start = time.perf_counter()
                client = Client(sweep.service.address)
                for point in fresh_order:
                    m.attempted += 1
                    try:
                        out = sweep.submit(client, point,
                                           op=f"fresh{rep}{point}")
                        rec = out["record"]
                        if rec.get("state") != "done":
                            raise RuntimeError(rec.get("error"))
                    except Exception as exc:  # noqa: BLE001 — count, go on
                        m.fail(f"fresh {point}", [repr(exc)])
                        continue
                    if point in fresh and (
                            checks.payload_rows(fresh[point])
                            != checks.payload_rows(rec["result"])):
                        # An earlier set-up computed the same point on its
                        # own store: the rows must repeat exactly.
                        m.fail(f"fresh {point}",
                               ["rows differ between set-ups"])
                    fresh[point] = rec["result"]
                m.pass_s.append(time.perf_counter() - start)
                client.close()
            m.repeats_exactly["base_rows"] = len(base_rows) == 1
            m.repeats_exactly["fresh_rows"] = not any(
                "between set-ups" in p for p in m.problems)

            # Replay pass: one closed-loop client resubmits the 9 points in
            # seeded order, so no request is ever in flight twice.  A
            # second concurrent client would contend for the GIL with the
            # service's threads, and its latency would follow the host's
            # load more than the program.  The pass stops only after a
            # whole cycle, so every point has the same number of samples
            # and the percentiles do not shift with where time ran out.
            results: list = []
            client = Client(sweep.service.address)
            try:
                n = 0
                while n < size.replays or n % len(replay_order) or (
                        tracer is None
                        and time.perf_counter() - start < seconds):
                    point = replay_order[n % len(replay_order)]
                    try:
                        out = sweep.submit(client, point, op=f"replay{n}")
                        results.append((point, out, None))
                    except Exception as exc:  # noqa: BLE001 — count, go on
                        results.append((point, None, repr(exc)))
                    n += 1
            finally:
                client.close()

        submit_ms, wait_ms, overhead_ms = [], [], []
        for point, out, error in results:
            m.attempted += 1
            if error is not None:
                m.fail(f"replay {point}", [error])
                continue
            rec = out["record"]
            m.op_ms.append(1000.0 * out["latency_s"])
            submit_ms.append(1000.0 * out["submit_s"])
            overhead_ms.append(1000.0 * (out["latency_s"] - rec["seconds"]))
            job = sweep.service.orchestrator.get(out["id"])
            if job is not None and job.started_at is not None:
                wait_ms.append(1000.0 * (job.started_at - job.submitted_at))
            if point not in fresh:
                m.fail(f"replay {point}", ["no fresh result to compare"])
                continue
            m.fail(f"replay {point}", checks.check_replay(
                fresh[point], rec.get("result") or {}, rec.get("cache", "")))

        # Schedule checks on the stored artifacts of every point.
        hdf = entries = 0
        atpg = None
        for point in points:
            spec = job_from_dict(sweep.doc(point))
            flow = HdfTestFlow(load_bench(sweep.bench), spec.flow_config())
            res = flow.cached_result(cache=sweep.raw_store)
            if res is None:
                m.fail(f"schedule {point}", ["artifacts missing from store"])
                continue
            problems, derived = checks.check_flow_result(res)
            m.fail(f"schedule {point}", problems)
            hdf += len(derived)
            entries += res.schedules["prop"].num_entries
            atpg = res.atpg
    finally:
        if sweep is not None:
            sweep.close()
    m.hdf_detected, m.test_entries = hdf, entries
    if atpg is not None:
        m.tf = _tf_counts(atpg)
    m.repeats_exactly["replay_rows"] = not any(
        "replay" in p for p in m.problems)
    m.layer.update({
        "service.submit_ms": _med(submit_ms),
        "service.queue_wait_ms": _med(wait_ms),
        "service.overhead_ms": _med(overhead_ms),
    })
    m.notes.update(circuit=f"{name}@{scale:g}", fresh_order=fresh_order,
                   replay_order=replay_order,
                   replays=len(m.op_ms))
    return m


def _med(values: list[float]) -> float:
    return median(values) if values else 0.0


# ----------------------------------------------------------------------
# alert-stream
# ----------------------------------------------------------------------
def alert_stream(seed: int, seconds: float, tracer: Tracer | None,
                 size: Sizing, work: Path) -> Measurement:
    """Devices one after another, each with its own freshly prepared state
    and seed-derived alert stream, until ``seconds`` have passed.

    The operation is one alert; ``pass_s`` is the median wall clock of one
    device's whole stream.  Per-device costs differ with the gates their
    scenario picks, so a run covers many devices rather than one long
    stream, and each device's state is released once it is checked.

    A fresh state's first re-solve fills its caches and takes about 1.5x
    as long as the rest.  It counts in ``pass_s`` but not in the alert
    percentiles: one alert in 16 sits just above the 90th percentile and
    would make ``op_ms_p90`` jump between the two populations.

    The set-up (cold flow and state preparation) takes about a second;
    timed back to back, its samples would all see the host's speed of
    those few seconds.  It is therefore repeated before every
    ``alert_setup_every``-th device, so its median spans the whole run.
    """
    from repro.aging.scenario import ScenarioSpec
    from repro.core.config import FlowConfig
    from repro.core.engines import ENGINES
    from repro.core.flow import HdfTestFlow
    from repro.experiments.resched import alert_stream_for_state
    from repro.scheduling.resched import prepare_state_for_result

    m = Measurement()
    rng = random.Random(seed)
    engine = ENGINES.resolve("resched")
    name, scale = size.alert_circuit
    apply = engine.fn
    prepare = prepare_state_for_result
    prepare_s: list[float] = []
    first_ms: list[float] = []
    paths: dict[str, int] = {}
    ilp_calls = 0
    alerts_per_device: list[int] = []
    scenario_seeds: list[list[int]] = []
    with instrument(tracer) as pipeline:
        if tracer is not None:
            from spans import traced_call

            apply = traced_call(tracer, engine.fn, "resched/apply",
                                "scheduling.resched")
            prepare = traced_call(tracer, prepare_state_for_result,
                                  "resched/prepare", "scheduling.resched")
        tf_seen = set()
        result = circuit = None
        start = time.perf_counter()
        d = 0
        while d < size.devices or (
                tracer is None and time.perf_counter() - start < seconds):
            spec = ScenarioSpec(gate_seed=rng.randrange(2 ** 31),
                                seed=rng.randrange(2 ** 31))
            scenario_seeds.append([spec.gate_seed, spec.seed])
            state = None
            gc.collect()
            setting_up = d % size.alert_setup_every == 0
            t0 = time.perf_counter()
            if setting_up:
                # Set-up: the cold flow and this device's state.
                result = None
                circuit = resolve(name, scale)
                result = HdfTestFlow(circuit, FlowConfig(), pipeline=pipeline
                                     ).run(with_schedules=False)
                m.cold_flow_s.append(time.perf_counter() - t0)
                tf_seen.add(_tf_counts(result.atpg))
            t1 = time.perf_counter()
            state = prepare(result)
            prepare_s.append(time.perf_counter() - t1)
            if setting_up:
                m.setup_s.append(time.perf_counter() - t0)
            stream = alert_stream_for_state(circuit, state, spec=spec)
            alerts_per_device.append(len(stream))
            failed = 0
            gc.collect()
            t_dev = time.perf_counter()
            for k, delta in enumerate(stream):
                m.attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = apply(state, delta)
                    else:
                        with tracer.span("alert", "bench", op=f"alert{d}.{k}"):
                            out = apply(state, delta)
                except Exception as exc:  # noqa: BLE001 — count, go on
                    m.fail(f"device {d} alert {k}", [repr(exc)])
                    failed += 1
                    continue
                (m.op_ms if k else first_ms).append(
                    1000.0 * (time.perf_counter() - t0))
                path = out.fast_path or out.stats.get("step1_path", "?")
                paths[path] = paths.get(path, 0) + 1
                ilp_calls += (path in ("presolve-ilp", "warm-presolve-ilp",
                                       "cold-ilp"))
                ilp_calls += out.stats.get("step2_ilp", 0)
            m.pass_s.append(time.perf_counter() - t_dev)
            if not failed:
                problems, derived = checks.check_resched_state(state)
                m.fail(f"device {d}", problems, ops=len(stream))
                if d < size.devices:
                    # Quality sums cover the fixed devices only, so they
                    # do not depend on how many more the time allowed.
                    m.hdf_detected += len(derived)
                    m.test_entries += state.schedule.num_entries
            d += 1

    m.tf = _tf_counts(result.atpg)
    m.repeats_exactly["tf_coverage"] = len(tf_seen) == 1
    alerts = max(1, len(m.op_ms) + len(first_ms))
    m.layer.update({
        "resched.prepare_s": _med(prepare_s),
        "resched.apply_ms": _med(m.op_ms),
        "resched.repair_frac": paths.get("repair", 0) / alerts,
        "resched.ilp_calls": float(ilp_calls),
    })
    m.notes.update(circuit=f"{name}@{scale:g}", devices=d,
                   alerts_per_device=alerts_per_device,
                   first_alert_ms=_med(first_ms), step1_paths=paths,
                   scenario_seeds=scenario_seeds)
    return m


WORKLOADS = {
    "cold-flow": cold_flow,
    "monitor-sweep": monitor_sweep,
    "alert-stream": alert_stream,
}
