"""Service layer: facade equivalence, orchestrator dedupe, HTTP API.

The facade (:func:`repro.service.orchestrator.run_job`) must be
output-identical to driving the underlying pipelines directly — the CLI
and the HTTP service share it, so these are the golden tests pinning the
refactor.  The orchestrator tests pin the dedupe contract: identical
in-flight submissions execute once, repeats after completion replay from
the stage store.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.core.spec import FleetJob, FlowJob, ReschedJob, ScenarioSpec, SuiteJob
from repro.experiments.artifact_cache import StageCache
from repro.service.orchestrator import (
    Orchestrator,
    resolve_circuit,
    run_job,
)
from repro.service.server import MAX_BODY_BYTES, HdfService


# ----------------------------------------------------------------------
# Circuit resolution
# ----------------------------------------------------------------------
class TestResolveCircuit:
    def test_embedded_name(self):
        assert resolve_circuit("s27").name == "s27"

    def test_suite_name(self):
        assert resolve_circuit("s9234").name == "s9234"

    def test_bench_file(self, tmp_path, s27):
        from repro.netlist.bench import save_bench

        path = tmp_path / "mine.bench"
        save_bench(s27, path)
        assert resolve_circuit(str(path)).stats() == s27.stats()

    def test_unknown_spec_is_actionable(self):
        from repro.core.spec import SpecError

        with pytest.raises(SpecError, match="cannot resolve circuit"):
            resolve_circuit("never-a-circuit")


# ----------------------------------------------------------------------
# Facade golden equivalence (CLI == service == direct pipeline)
# ----------------------------------------------------------------------
class TestFacadeEquivalence:
    def test_flow_job_matches_direct_flow(self, s27):
        from repro.core import FlowConfig, HdfTestFlow

        outcome = run_job(FlowJob(circuit="s27"), store=None)
        direct = HdfTestFlow(s27, FlowConfig()).run()
        assert outcome.value.table1_row() == direct.table1_row()
        assert outcome.value.table2_row() == direct.table2_row()
        assert outcome.payload["table1"] == direct.table1_row()
        assert outcome.cache == "uncached"
        assert outcome.fingerprint == FlowJob(circuit="s27").fingerprint()

    def test_fleet_job_matches_direct_study(self, s27):
        from repro.experiments.fleet import run_fleet_study

        job = FleetJob(circuit="s27", devices=32,
                       scenario=ScenarioSpec(seed=2))
        outcome = run_job(job, store=None)
        direct = run_fleet_study(s27, spec=job.scenario, devices=32,
                                 use_cache=False)
        assert outcome.value.summary()["metrics"] == \
            direct.summary()["metrics"]
        assert outcome.payload["scenario"] == job.scenario.fingerprint()

    def test_suite_job_matches_direct_suite(self):
        from repro.experiments.runner import SuiteRunConfig, run_suite

        job = SuiteJob(names=("s9234",), scale=0.25,
                       with_schedules=False)
        outcome = run_job(job, store=None)
        direct = run_suite(SuiteRunConfig(names=("s9234",), scale=0.25,
                                          with_schedules=False))
        assert outcome.value["s9234"].table1_row() == \
            direct["s9234"].table1_row()
        assert outcome.payload["results"]["s9234"]["faults"] == \
            direct["s9234"].classification.num_faults

    def test_resched_job_replay_is_deterministic(self):
        job = ReschedJob(circuit="s27", alerts=(((13, 2.0),),
                                                ((16, 1.0),)))
        a = run_job(job, store=None)
        b = run_job(job, store=None)
        assert a.payload["initial"] == b.payload["initial"]
        assert [e["covered"] for e in a.payload["events"]] == \
            [e["covered"] for e in b.payload["events"]]
        assert a.payload["summary"]["alerts"] == 2

    def test_store_round_trip_hits_every_stage(self, tmp_path):
        store = StageCache(tmp_path)
        first = run_job(FlowJob(circuit="s27"), store=store)
        second = run_job(FlowJob(circuit="s27"), store=store)
        assert first.cache == "miss"
        assert second.cache == "hit"
        assert second.payload["table1"] == first.payload["table1"]

    def test_progress_events_cover_stages(self):
        events = []
        run_job(FlowJob(circuit="s27", with_schedules=False),
                store=None, progress=events.append)
        kinds = {e["event"] for e in events}
        assert "log" in kinds and "stage" in kinds
        stages = {e["stage"] for e in events if e["event"] == "stage"}
        assert {"sta", "atpg", "simulation"} <= stages


class TestSuiteJobStore:
    """Suite jobs run against exactly the store the caller passes."""

    JOB = SuiteJob(names=("s9234", "s13207"), scale=0.25,
                   with_schedules=False)
    UNITS = 2 * 6  # circuits x pipeline stages

    @pytest.fixture()
    def env_dir(self, tmp_path, monkeypatch):
        env = tmp_path / "env"
        monkeypatch.setenv("REPRO_FLOW_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env))
        return env

    @pytest.mark.parametrize("workers", [1, 2])
    def test_explicit_store_receives_the_artifacts(self, env_dir, tmp_path,
                                                   workers):
        job = replace(self.JOB, workers=workers)
        outcome = run_job(job, store=StageCache(tmp_path / "a"))
        assert len(list((tmp_path / "a").rglob("*.pkl"))) == self.UNITS
        assert not list(env_dir.rglob("*.pkl"))
        assert outcome.cache == "miss"
        assert outcome.payload["units"] == {"computed": self.UNITS,
                                            "cached": 0}
        again = run_job(job, store=StageCache(tmp_path / "a"))
        assert again.cache == "hit"
        assert again.payload["units"] == {"computed": 0,
                                          "cached": self.UNITS}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_store_writes_nothing(self, env_dir, tmp_path, monkeypatch,
                                     workers):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        outcome = run_job(replace(self.JOB, workers=workers), store=None)
        assert not list(tmp_path.rglob("*.pkl"))
        assert not any(scratch.iterdir())  # private drain store removed
        assert outcome.cache == "uncached"
        assert outcome.payload["units"]["computed"] == self.UNITS

    def test_recompute_from_reaches_every_circuit(self, env_dir, tmp_path):
        job = replace(self.JOB, workers=2)
        store = StageCache(tmp_path / "a")
        first = run_job(job, store=store).value
        paths = {(name, stage): store._path(key)
                 for name, res in first.items()
                 for stage, key in res.meta["keys"].items()}
        assert all(path.exists() for path in paths.values())
        for path in paths.values():
            os.utime(path, ns=(0, 0))
        forced = run_job(job, store=store, recompute_from=("schedule",))
        assert forced.payload["units"] == {"computed": 2,
                                           "cached": self.UNITS - 2}
        for (name, stage), path in paths.items():
            status = forced.value[name].meta["stages"][stage]["cache"]
            rewritten = path.stat().st_mtime_ns > 0
            assert status == ("computed" if stage == "schedule"
                              else "hit"), (name, stage)
            assert rewritten == (stage == "schedule"), (name, stage)


# ----------------------------------------------------------------------
# Orchestrator dedupe
# ----------------------------------------------------------------------
class _Loop:
    """A background asyncio loop the tests drive the orchestrator on."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result()

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5.0)


@pytest.fixture()
def loop():
    background = _Loop()
    yield background
    background.close()


def _wait_terminal(orch, job_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        record = orch.get(job_id)
        if record.terminal:
            return record
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} did not finish")


JOB = FlowJob(circuit="s27", with_schedules=False)


class TestOrchestrator:
    def test_identical_inflight_submissions_execute_once(self, loop):
        orch = Orchestrator(store=None, workers=2)
        # Submit both before starting the workers: the second MUST
        # attach to the first, not race it to the queue.
        first = loop.call(orch.submit(JOB))
        second = loop.call(orch.submit(JOB))
        assert second.dedup_of == first.id
        loop.call(orch.start())
        try:
            done_first = _wait_terminal(orch, first.id)
            done_second = _wait_terminal(orch, second.id)
            assert done_first.state == done_second.state == "done"
            assert done_first.cache == "uncached"   # store=None
            assert done_second.cache == "dedup"
            assert done_second.payload == done_first.payload
        finally:
            loop.call(orch.close())

    def test_resubmission_after_completion_replays_from_store(
            self, loop, tmp_path):
        orch = Orchestrator(store=StageCache(tmp_path), workers=1)
        loop.call(orch.start())
        try:
            first = loop.call(orch.submit(JOB))
            assert _wait_terminal(orch, first.id).cache == "miss"
            again = loop.call(orch.submit(JOB))
            assert again.dedup_of is None           # not in flight anymore
            done = _wait_terminal(orch, again.id)
            assert done.cache == "hit"
            # Stage timings differ between the cold and replay runs;
            # the result rows must not.
            assert done.payload["table1"] == \
                orch.get(first.id).payload["table1"]
        finally:
            loop.call(orch.close())

    def test_different_fingerprints_do_not_dedupe(self, loop):
        orch = Orchestrator(store=None, workers=1)
        a = loop.call(orch.submit(JOB))
        b = loop.call(orch.submit(FlowJob(circuit="c17",
                                          with_schedules=False)))
        assert a.dedup_of is None and b.dedup_of is None

    def test_cancel_queued_job_frees_the_slot(self, loop):
        orch = Orchestrator(store=None, workers=1)
        first = loop.call(orch.submit(JOB))
        assert loop.call(orch.cancel(first.id))
        assert orch.get(first.id).state == "cancelled"
        follow = loop.call(orch.submit(JOB))
        assert follow.dedup_of is None              # slot was freed
        assert not loop.call(orch.cancel(first.id))  # already terminal

    def test_execution_failure_is_reported_not_raised(self, loop):
        orch = Orchestrator(store=None, workers=1)
        loop.call(orch.start())
        try:
            record = loop.call(orch.submit(
                FlowJob(circuit="never-a-circuit")))
            done = _wait_terminal(orch, record.id)
            assert done.state == "failed"
            assert "cannot resolve circuit" in done.error
        finally:
            loop.call(orch.close())

    def test_event_log_orders_lifecycle(self, loop):
        orch = Orchestrator(store=None, workers=1)
        loop.call(orch.start())
        try:
            record = loop.call(orch.submit(JOB))
            _wait_terminal(orch, record.id)
            events, terminal = orch.events_since(record.id)
            assert terminal
            kinds = [e["event"] for e in events]
            assert kinds[0] == "queued"
            assert kinds[1] == "started"
            assert kinds[-1] == "done"
            assert "stage" in kinds
            assert [e["seq"] for e in events] == list(range(len(events)))
        finally:
            loop.call(orch.close())


# ----------------------------------------------------------------------
# HTTP API
# ----------------------------------------------------------------------
def _get(url: str) -> dict:
    with urllib.request.urlopen(url) as resp:
        return json.loads(resp.read())


def _post(url: str, document) -> dict:
    req = urllib.request.Request(
        url, data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = HdfService(host="127.0.0.1", port=0,
                     store=StageCache(tmp_path_factory.mktemp("svc")),
                     workers=1).start()
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()


def _wait_done(service, job_id, timeout=60.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = _get(f"{service.url}/jobs/{job_id}")
        if status["state"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish over HTTP")


def _post_headers(service, headers: dict) -> tuple[int, dict]:
    """POST /jobs with exactly ``headers`` and no body."""
    host, port = service.address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.putrequest("POST", "/jobs")
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestHttpApi:
    def test_healthz(self, service):
        assert _get(f"{service.url}/healthz")["ok"] is True

    def test_submit_status_result_and_cached_resubmit(self, service):
        document = {"kind": "flow", "circuit": "s27",
                    "with_schedules": False}
        submitted = _post(f"{service.url}/jobs", document)
        assert submitted["kind"] == "flow"
        status = _wait_done(service, submitted["id"])
        assert status["state"] == "done"
        result = _get(f"{service.url}/jobs/{submitted['id']}/result")
        assert result["result"]["circuit"] == "s27"
        assert "table1" in result["result"]

        again = _post(f"{service.url}/jobs", document)
        assert again["fingerprint"] == submitted["fingerprint"]
        final = _wait_done(service, again["id"])
        assert final["cache"] in ("hit", "dedup")

    def test_stream_delivers_lifecycle_events(self, service):
        submitted = _post(f"{service.url}/jobs",
                          {"kind": "flow", "circuit": "c17",
                           "with_schedules": False})
        with urllib.request.urlopen(
                f"{service.url}/jobs/{submitted['id']}/stream") as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            events = [json.loads(line) for line in resp if line.strip()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] in ("done", "failed")
        assert all(e["job"] == submitted["id"] for e in events)

    def test_events_endpoint_paginates(self, service):
        submitted = _post(f"{service.url}/jobs",
                          {"kind": "flow", "circuit": "s27",
                           "with_schedules": False})
        _wait_done(service, submitted["id"])
        page = _get(f"{service.url}/jobs/{submitted['id']}/events")
        assert page["terminal"] is True
        rest = _get(f"{service.url}/jobs/{submitted['id']}/events"
                    f"?since={len(page['events'])}")
        assert rest["events"] == []

    def test_bad_document_is_400_with_message(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{service.url}/jobs", {"kind": "warp"})
        assert err.value.code == 400
        assert "unknown job kind" in json.loads(err.value.read())["error"]

    def test_malformed_field_types_are_400(self, service):
        for doc in ({"kind": "suite", "names": "s27"},
                    {"kind": "flow", "circuit": ["s27"]}):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(f"{service.url}/jobs", doc)
            assert err.value.code == 400, doc
            assert "string" in json.loads(err.value.read())["error"]

    def test_unknown_job_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{service.url}/jobs/job-9999")
        assert err.value.code == 404

    def test_jobs_listing_grows(self, service):
        before = len(_get(f"{service.url}/jobs")["jobs"])
        _post(f"{service.url}/jobs", {"kind": "flow", "circuit": "s27",
                                      "with_schedules": False})
        assert len(_get(f"{service.url}/jobs")["jobs"]) == before + 1

    @pytest.mark.parametrize("length", [None, "-5", "abc", "1.5"])
    def test_bad_content_length_is_400(self, service, length):
        headers = {} if length is None else {"Content-Length": length}
        status, body = _post_headers(service, headers)
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413_unread(self, service):
        # Only the header is sent: answering proves the body is not read.
        status, body = _post_headers(
            service, {"Content-Length": str(MAX_BODY_BYTES + 1)})
        assert status == 413
        assert str(MAX_BODY_BYTES) in body["error"]
        assert _get(f"{service.url}/healthz")["ok"] is True
