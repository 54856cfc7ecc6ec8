"""End-to-end flow benchmark: one command, three workloads, traced layers.

Usage (from the repository root)::

    python3 flowbench/run.py --workload cold-flow --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` runs untraced and reports the end-to-end metrics;
``--trace 1`` runs the same workload with spans recorded at the public
seams, reports the per-layer metrics, checks that the span tree
reconciles and writes a Chrome trace-event file that Perfetto opens.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report that also names each metric the way its
workload calls it.

Isolation: every run works in a fresh directory under ``.flowbench/``
of the checkout, pins ``REPRO_FLOW_CACHE=0`` and ``REPRO_CACHE_DIR`` for
its own process, hands each service an explicit empty ``StageCache`` and
fails if the checkout's ``.repro_cache/`` is opened, listed or changed.
See ``flowbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit.  ``BENCHMARK.json`` lists the same
#: names with their direction and bound (a test keeps the two in step).
END_TO_END = {
    "setup_s": "s",
    "cold_flow_s": "s",
    "pass_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "tf_coverage": "ratio",
    "hdf_detected": "count",
    "test_entries": "count",
}

#: Workload-specific names of the generic metrics, for the report.
WORKLOAD_NAMES = {
    "cold-flow": {"op_ms_p50": "set_ms_p50", "op_ms_p90": "set_ms_p90"},
    "monitor-sweep": {"cold_flow_s": "base_job_s", "pass_s": "sweep_s",
                      "op_ms_p50": "replay_ms_p50",
                      "op_ms_p90": "replay_ms_p90"},
    "alert-stream": {"cold_flow_s": "base_flow_s",
                     "pass_s": "device_stream_s",
                     "op_ms_p50": "alert_ms_p50",
                     "op_ms_p90": "alert_ms_p90"},
}

_SECONDS = "s"
_COUNT = "count"

#: Per-layer metrics: name -> unit (reported by ``--trace 1``).
PER_LAYER = {
    "atpg.s": _SECONDS, "atpg.random_s": _SECONDS, "atpg.podem_s": _SECONDS,
    "atpg.grade_s": _SECONDS, "atpg.compact_s": _SECONDS,
    "atpg.podem_calls": _COUNT, "atpg.aborted": _COUNT,
    "atpg.untestable": _COUNT, "atpg.patterns": _COUNT,
    "atpg.aborted_frac": "ratio",
    "simulation.s": _SECONDS, "simulation.base_sim_s": _SECONDS,
    "simulation.site_inject_s": _SECONDS,
    "simulation.faulty_sim_s": _SECONDS,
    "simulation.intervals_s": _SECONDS, "simulation.range_pairs": _COUNT,
    "faults.universe_s": _SECONDS, "faults.prefilter_s": _SECONDS,
    "faults.classify_s": _SECONDS, "faults.targets": _COUNT,
    "timing.sta_s": _SECONDS,
    "scheduling.s": _SECONDS, "scheduling.target_ranges_s": _SECONDS,
    "scheduling.discretize_s": _SECONDS, "scheduling.presolve_s": _SECONDS,
    "scheduling.step1_s": _SECONDS, "scheduling.step2_s": _SECONDS,
    "scheduling.candidates": _COUNT,
    "resched.prepare_s": _SECONDS, "resched.apply_ms": "ms",
    "resched.repair_frac": "ratio", "resched.ilp_calls": _COUNT,
    "store.loads": _COUNT, "store.load_s": _SECONDS,
    "store.bytes_read": "B", "store.saves": _COUNT,
    "store.save_s": _SECONDS, "store.bytes_written": "B",
    "store.hit_frac": "ratio",
    "service.submit_ms": "ms", "service.queue_wait_ms": "ms",
    "service.overhead_ms": "ms",
    "core.pipeline_overhead_s": _SECONDS,
    "self.atpg_s": _SECONDS, "self.simulation_s": _SECONDS,
    "self.faults_s": _SECONDS, "self.timing_s": _SECONDS,
    "self.scheduling_s": _SECONDS, "self.resched_s": _SECONDS,
    "self.store_s": _SECONDS, "self.service_s": _SECONDS,
    "self.core_s": _SECONDS,
    "trace.unattributed_s": _SECONDS, "trace.wall_s": _SECONDS,
    "trace.parallel_overlap_s": _SECONDS,
    "trace.reconcile_error": "ratio", "trace.spans": _COUNT,
    "trace.overhead_est_s": _SECONDS, "trace.pass_s": _SECONDS,
    "trace.op_ms_p50": "ms", "trace.atpg_share": "ratio",
    "trace.store_load_share": "ratio",
}

#: Layer name (span ``layer``) -> ``self.*`` metric.
SELF_METRIC = {
    "atpg": "self.atpg_s", "simulation": "self.simulation_s",
    "faults": "self.faults_s", "timing": "self.timing_s",
    "scheduling": "self.scheduling_s",
    "scheduling.resched": "self.resched_s",
    "experiments.artifact_cache": "self.store_s",
    "service": "self.service_s", "core": "self.core_s",
    "bench": "trace.unattributed_s",
}

#: Filesystem audit events the isolation guard watches.
_FS_EVENTS = frozenset({
    "open", "os.listdir", "os.scandir", "os.mkdir", "os.remove",
    "os.rename", "os.rmdir", "os.utime", "os.chmod", "shutil.rmtree",
})


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# Isolation guard
# ----------------------------------------------------------------------
def _snapshot(path: Path) -> list[tuple[str, int, int]]:
    if not path.exists():
        return []
    out = []
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            out.append((os.path.join(dirpath, name), st.st_size,
                        st.st_mtime_ns))
    return sorted(out)


class IsolationGuard:
    """Fails the run if a guarded directory is opened, listed or changed.

    Every filesystem audit event (``sys.addaudithook``) is matched against
    the guarded prefixes, which catches reads as well as writes from any
    code path; a before/after snapshot catches changes made without an
    audited call.
    """

    def __init__(self, guarded: list[Path]) -> None:
        self.guarded = [os.path.abspath(p) for p in guarded]
        self.violations: list[str] = []
        self._before = {p: _snapshot(Path(p)) for p in self.guarded}
        self._active = False

    def _hook(self, event: str, args: tuple) -> None:
        if not self._active or event not in _FS_EVENTS or not args:
            return
        path = args[0]
        if not isinstance(path, (str, bytes, os.PathLike)):
            return
        try:
            full = os.path.abspath(os.fsdecode(path))
        except (TypeError, ValueError):
            return
        for g in self.guarded:
            if full == g or full.startswith(g + os.sep):
                self.violations.append(f"{event} {full}")

    def install(self) -> None:
        sys.addaudithook(self._hook)
        self._active = True

    def check(self) -> list[str]:
        self._active = False  # the guard's own snapshot is not a breach
        out = list(self.violations)
        for p, before in self._before.items():
            if _snapshot(Path(p)) != before:
                out.append(f"{p} changed during the run")
        return out


# ----------------------------------------------------------------------
# Context
# ----------------------------------------------------------------------
def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def context(args, m, samples: dict[str, int]) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "samples": samples,
        "raw": {"setup_s": m.setup_s, "cold_flow_s": m.cold_flow_s,
                "pass_s": m.pass_s, "op_ms": m.op_ms},
        "repeats_exactly": m.repeats_exactly,
        "notes": m.notes,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(m) -> tuple[dict[str, float], dict[str, int]]:
    detected, testable = m.tf
    values = {
        "setup_s": median(m.setup_s),
        "cold_flow_s": median(m.cold_flow_s),
        "pass_s": median(m.pass_s),
        "op_ms_p50": median(m.op_ms) if m.op_ms else 0.0,
        "op_ms_p90": percentile(m.op_ms, 0.9) if m.op_ms else 0.0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - m.failed / max(1, m.attempted),
        "tf_coverage": detected / testable if testable else 0.0,
        "hdf_detected": float(m.hdf_detected),
        "test_entries": float(m.test_entries),
    }
    samples = {"setup_s": len(m.setup_s), "cold_flow_s": len(m.cold_flow_s),
               "pass_s": len(m.pass_s), "op_ms_p50": len(m.op_ms),
               "op_ms_p90": len(m.op_ms),
               "op_ms_p90_beyond": len(m.op_ms) - math.ceil(
                   0.9 * len(m.op_ms))}
    return values, samples


def _split(c: dict, stage: str, key: str) -> float:
    """Sum of a stage's timer split under every path ending in ``key``."""
    prefix = f"split.{stage}."
    return sum(v for k, v in c.items() if k.startswith(prefix)
               and k[len(prefix):].split("/")[-1] == key)


def per_layer(tracer, m, span_cost: float) -> tuple[dict[str, float], dict]:
    c = tracer.counters
    rec = tracer.reconcile()
    selfs, overlap = tracer.self_times()
    spans = tracer.spans

    def named(name: str) -> float:
        return sum(sp.dur for sp in spans if sp.name == name)

    replay_req = sum(sp.dur for sp in spans if sp.name == "service/request"
                     and (sp.op or "").startswith("replay"))
    replay_load = sum(sp.dur for sp in spans if sp.name == "store/load"
                      and (sp.op or "").startswith("replay"))
    wall = rec["wall_s"]
    loads = c.get("store.loads", 0.0)
    podem = c.get("atpg.podem_calls", 0.0)
    values = {
        "atpg.s": c.get("stage.atpg.s", 0.0),
        "atpg.random_s": _split(c, "atpg", "random"),
        "atpg.podem_s": _split(c, "atpg", "podem"),
        "atpg.grade_s": _split(c, "atpg", "grade"),
        "atpg.compact_s": _split(c, "atpg", "compact"),
        "atpg.podem_calls": podem,
        "atpg.aborted": c.get("atpg.aborted", 0.0),
        "atpg.untestable": c.get("atpg.untestable", 0.0),
        "atpg.patterns": c.get("atpg.patterns", 0.0),
        "atpg.aborted_frac": c.get("atpg.aborted", 0.0) / podem
        if podem else 0.0,
        "simulation.s": c.get("stage.simulation.s", 0.0),
        "simulation.base_sim_s": _split(c, "simulation", "base_sim"),
        "simulation.site_inject_s": _split(c, "simulation", "site_inject"),
        "simulation.faulty_sim_s": _split(c, "simulation", "faulty_sim"),
        "simulation.intervals_s": _split(c, "simulation", "intervals"),
        "simulation.range_pairs": c.get("simulation.range_pairs", 0.0),
        "faults.universe_s": named("faults/universe"),
        "faults.prefilter_s": named("faults/prefilter"),
        "faults.classify_s": c.get("stage.classify.s", 0.0),
        "faults.targets": c.get("faults.targets", 0.0),
        "timing.sta_s": c.get("stage.sta.s", 0.0),
        "scheduling.s": c.get("stage.schedule.s", 0.0),
        "scheduling.target_ranges_s": _split(c, "schedule",
                                             "target_ranges"),
        "scheduling.discretize_s": _split(c, "schedule", "discretize"),
        "scheduling.presolve_s": _split(c, "schedule", "presolve"),
        "scheduling.step1_s": _split(c, "schedule", "step1"),
        "scheduling.step2_s": _split(c, "schedule", "step2"),
        "scheduling.candidates": c.get("scheduling.candidates", 0.0),
        "resched.prepare_s": m.layer.get("resched.prepare_s", 0.0),
        "resched.apply_ms": m.layer.get("resched.apply_ms", 0.0),
        "resched.repair_frac": m.layer.get("resched.repair_frac", 0.0),
        "resched.ilp_calls": m.layer.get("resched.ilp_calls", 0.0),
        "store.loads": loads,
        "store.load_s": c.get("store.load_s", 0.0),
        "store.bytes_read": c.get("store.bytes_read", 0.0),
        "store.saves": c.get("store.saves", 0.0),
        "store.save_s": c.get("store.save_s", 0.0),
        "store.bytes_written": c.get("store.bytes_written", 0.0),
        "store.hit_frac": c.get("store.hits", 0.0) / loads if loads else 0.0,
        "service.submit_ms": m.layer.get("service.submit_ms", 0.0),
        "service.queue_wait_ms": m.layer.get("service.queue_wait_ms", 0.0),
        "service.overhead_ms": m.layer.get("service.overhead_ms", 0.0),
        "core.pipeline_overhead_s": selfs.get("core", 0.0),
        "trace.wall_s": wall,
        "trace.parallel_overlap_s": overlap,
        "trace.reconcile_error": abs(rec["self_sum_s"] - wall) / wall
        if wall else 0.0,
        "trace.spans": float(len(spans)),
        "trace.overhead_est_s": span_cost * len(spans),
        "trace.pass_s": median(m.pass_s),
        "trace.op_ms_p50": median(m.op_ms) if m.op_ms else 0.0,
        "trace.atpg_share": c.get("stage.atpg.s", 0.0) / wall
        if wall else 0.0,
        "trace.store_load_share": replay_load / replay_req
        if replay_req else 0.0,
    }
    for layer, metric in SELF_METRIC.items():
        values[metric] = selfs.get(layer, 0.0)
    return values, rec


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold-flow", "monitor-sweep", "alert-stream"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="minimum measuring time of an untraced run; the "
                         "traced run does the fixed minimum work only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "mini"), default="full",
                    help="'mini' runs the miniature workloads of the tests")
    ap.add_argument("--out", type=Path, default=ROOT / ".flowbench",
                    help="directory for work files, results and traces")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    out_dir = args.out.resolve()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=_mkdir(out_dir)))
    os.environ["REPRO_FLOW_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(work / "env-store")
    os.environ["TMPDIR"] = str(_mkdir(work / "tmp"))
    tempfile.tempdir = os.environ["TMPDIR"]
    guard = IsolationGuard([ROOT / ".repro_cache"])
    guard.install()
    sys.path.insert(0, str(SRC))
    try:
        return _run(args, work, out_dir, guard)
    finally:
        shutil.rmtree(work, ignore_errors=True)


#: Quality metrics that must repeat exactly for the same workload and seed.
QUALITY = ("tf_coverage", "hdf_detected", "test_entries")


def _repeats(results: Path, e2e: dict) -> dict[str, bool | None]:
    """Compare the quality metrics with earlier runs of the same seed.

    Looks at the previous result files of this workload and seed (traced
    or not); ``None`` means there was no earlier run to compare with.
    """
    earlier = []
    for path in results.parent.glob(results.name.rsplit("-trace", 1)[0]
                                     + "-trace*.json"):
        try:
            earlier.append(json.loads(path.read_text())["end_to_end"])
        except (OSError, ValueError, KeyError):
            continue
    return {k: (all(e.get(k) == e2e[k] for e in earlier) if earlier
                else None) for k in QUALITY}


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run(args, work: Path, out_dir: Path, guard: IsolationGuard) -> int:
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer, span_cost_s

    size = workloads.FULL if args.size == "full" else workloads.MINI
    tracer = Tracer() if args.trace else None
    fn = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    if tracer is None:
        m = fn(args.seed, args.seconds, None, size, work)
    else:
        with tracer.span(f"workload/{args.workload}", "bench",
                         op="workload"):
            m = fn(args.seed, args.seconds, tracer, size, work)
    elapsed = time.perf_counter() - t0

    problems = list(m.problems)
    isolation = guard.check()
    if Path(os.environ["REPRO_CACHE_DIR"]).exists():
        isolation.append("the environment stage store was used")
    problems += [f"isolation: {p}" for p in isolation]

    e2e, samples = end_to_end(m)
    results = _mkdir(out_dir / "results") / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    m.repeats_exactly.update(_repeats(results, e2e))
    report: dict = {"workload": args.workload, "elapsed_s": elapsed}
    if tracer is None:
        metrics = e2e
        units = END_TO_END
    else:
        metrics, rec = per_layer(tracer, m, span_cost_s())
        units = PER_LAYER
        report["reconcile"] = rec
        problems += [f"reconcile: {p}" for p in rec["problems"]]
        trace_path = _mkdir(out_dir / "traces") / (
            f"{args.workload}-seed{args.seed}.json")
        trace_path.write_text(json.dumps(tracer.chrome_trace()))
        report["trace_file"] = str(trace_path)

    correct = not problems
    report.update(
        context=context(args, m, samples), end_to_end=e2e,
        metrics=metrics, problems=problems, attempted=m.attempted,
        failed=m.failed)
    results.write_text(json.dumps(report, indent=2, default=str))

    _print_report(args, m, e2e, metrics if tracer else None, report)
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


def _print_report(args, m, e2e: dict, layers: dict | None,
                  report: dict) -> None:
    names = WORKLOAD_NAMES[args.workload]
    print(f"# flowbench {args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size}")
    for key, unit in END_TO_END.items():
        alias = names.get(key)
        label = f"{alias} ({key})" if alias and alias != key else key
        print(f"  {label:<30} {e2e[key]:>14.6g} {unit}")
    print(f"  {'failed_frac':<30} {m.failed / max(1, m.attempted):>14.6g} "
          f"ratio  ({m.failed}/{m.attempted} operations)")
    ctx = report["context"]
    print(f"  samples: {ctx['samples']}")
    print(f"  repeats exactly: {ctx['repeats_exactly']}")
    print(f"  context: commit={ctx['commit']} nproc={ctx['nproc']} "
          f"python={ctx['python']} numpy={ctx['numpy']} "
          f"scipy={ctx['scipy']}")
    if layers is not None:
        rec = report["reconcile"]
        print(f"  reconcile: ok={rec['ok']} wall={rec['wall_s']:.4f}s "
              f"self-sum={rec['self_sum_s']:.4f}s overlap="
              f"{rec['overlap_s']:.4f}s tolerance={rec['rel_tol']:.0%}"
              f"+{rec['abs_tol_s'] * 1000:g}ms")
        print(f"  unattributed (benchmark harness): "
              f"{layers['trace.unattributed_s']:.4f}s")
        print(f"  atpg share of wall clock: {layers['trace.atpg_share']:.1%}"
              f"; store-load share of replay latency: "
              f"{layers['trace.store_load_share']:.1%}")
        print(f"  tracing overhead: traced pass {layers['trace.pass_s']:.4f}s"
              f" (compare pass_s of the untraced run); "
              f"{int(layers['trace.spans'])} spans x calibrated cost = "
              f"{layers['trace.overhead_est_s']:.4f}s")
        for key in sorted(SELF_METRIC.values()):
            print(f"  {key:<30} {layers[key]:>14.6g} s")
        print(f"  trace: {report['trace_file']}")
    for p in report["problems"][:10]:
        print(f"  PROBLEM: {p}")


if __name__ == "__main__":
    sys.exit(main())
