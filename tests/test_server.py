"""Job-server tests: HTTP round trips, dedupe, SSE, and restart recovery.

Each server runs in-process on a background thread (``start_background``)
bound to a free port; clients are plain ``urllib`` over the loopback.
"""

import json
import os
import pathlib
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.solve import run_spec
from repro.api.spec import JobSpec, spec_hash
from repro.engine.sink import JsonlSink
from repro.server import JobServer, JobStore
from repro.server.store import JobStoreError
from repro.testing import faults
from repro.testing.faults import Fault, FaultPlan


@pytest.fixture(autouse=True)
def _isolated_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()

SPEC = {
    "problems": [
        {"graph": {"family": "random_regular", "n": n, "delta": 6}}
        for n in (80, 120, 160)
    ],
    "run": {"algorithm": "delta_plus_one", "backend": "array"},
}


# --------------------------------------------------------------------------- #
# HTTP helpers
# --------------------------------------------------------------------------- #


def get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.load(response)


def post(url: str, document) -> tuple[int, dict]:
    body = document if isinstance(document, bytes) else json.dumps(document).encode()
    request = urllib.request.Request(url, data=body, method="POST",
                                     headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.load(response)


def http_error(callable_):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_()
    payload = json.load(excinfo.value)
    return excinfo.value.code, payload


def wait_terminal(url: str, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.time() + timeout
    while time.time() < deadline:
        _, status = get(f"{url}/jobs/{job_id}")
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} still {status['state']} after {timeout}s")


def sse_events(url: str, job_id: str, timeout: float = 120.0) -> list[tuple[str, dict]]:
    """Read the job's SSE stream until its terminal event."""
    events, kind = [], None
    with urllib.request.urlopen(f"{url}/jobs/{job_id}/events", timeout=timeout) as stream:
        for raw in stream:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                kind = line[len("event: "):]
            elif line.startswith("data: "):
                events.append((kind, json.loads(line[len("data: "):])))
                if kind in ("done", "failed"):
                    break
    return events


@pytest.fixture
def job_json_writes(monkeypatch):
    """The ``job.json`` documents renamed into place during the test."""
    writes = []
    replace = os.replace

    def counting(src, dst):
        if pathlib.Path(dst).name == "job.json":
            writes.append(dst)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", counting)
    return writes


@pytest.fixture
def server(tmp_path):
    instance = JobServer(tmp_path / "state", port=0, workers=2).start_background()
    yield instance
    instance.stop()


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #


class TestJobStore:
    def test_create_is_content_addressed(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.create("abc123", {"k": 1})
        again = store.create("abc123", {"k": 1})
        assert first == again and store.job_ids() == ["abc123"]

    def test_update_round_trips_atomically(self, tmp_path):
        store = JobStore(tmp_path)
        store.create("abc123", {})
        store.update("abc123", state="running", cells_total=5)
        status = store.load("abc123")
        assert (status.state, status.cells_total) == ("running", 5)
        assert not list(store.job_dir("abc123").glob("*.tmp"))  # replace, not leave

    def test_job_json_written_once_per_state_transition(self, tmp_path, job_json_writes):
        store = JobStore(tmp_path)
        store.create("abc", {})
        store.update("abc", state="running", cells_total=3)
        for done in (1, 2, 3):
            store.update("abc", cells_done=done)
        # progress stays in memory: job.json holds the `running` transition
        on_disk = JobStore(tmp_path).load("abc")
        assert (on_disk.state, on_disk.cells_done) == ("running", 0)
        assert store.load("abc").cells_done == 3
        store.update("abc", state="done")
        assert len(job_json_writes) == 3  # queued, running, done
        for reader in (store, JobStore(tmp_path)):
            status = reader.load("abc")
            assert (status.state, status.cells_done, status.cells_total) == ("done", 3, 3)

    def test_concurrent_progress_updates_lose_nothing(self, tmp_path, job_json_writes):
        # Job threads and the HTTP thread share a live job's in-memory status.
        # Each thread here owns one field, so a lost read-modify-write would
        # leave some field short of its thread's last value.
        store = JobStore(tmp_path)
        store.create("abc", {})
        store.update("abc", state="running")
        fields, last = ("cells_done", "cells_total", "attempts", "started_at"), 300

        def bump(field):
            for value in range(1, last + 1):
                store.update("abc", **{field: value})
                store.load("abc")

        threads = [threading.Thread(target=bump, args=(field,)) for field in fields]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        status = store.load("abc")
        assert [getattr(status, field) for field in fields] == [last] * len(fields)
        assert len(job_json_writes) == 2  # queued and running; progress writes nothing

    def test_malformed_ids_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        for bad in ("", "../escape", "ABC", "a/b"):
            with pytest.raises(JobStoreError, match="malformed job id"):
                store.job_dir(bad)

    def test_unknown_fields_and_states_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        store.create("abc", {})
        with pytest.raises(JobStoreError, match="no field"):
            store.update("abc", nope=1)
        with pytest.raises(JobStoreError, match="unknown job state"):
            store.update("abc", state="exploded")

    def test_incomplete_ids_are_queued_and_running(self, tmp_path):
        store = JobStore(tmp_path)
        for job_id, state in (("aa", "queued"), ("bb", "running"),
                              ("cc", "done"), ("dd", "failed")):
            store.create(job_id, {})
            store.update(job_id, state=state)
        assert store.incomplete_job_ids() == ["aa", "bb"]
        assert store.counts() == {"queued": 1, "running": 1, "done": 1, "failed": 1}

    def test_records_skip_manifest_and_torn_tail(self, tmp_path):
        store = JobStore(tmp_path)
        store.create("ab", {})
        path = store.records_path("ab")
        with JsonlSink(path) as sink:
            from test_engine_sink import manifest

            sink.start(manifest())
            sink.write("c1", {"rounds": 2})
        with path.open("a") as handle:
            handle.write('{"cell": "c2", "rec')  # torn: the write never finished
        assert [obj["cell"] for obj in store.records("ab")] == ["c1"]
        assert store.manifest("ab")["task"] == "kdelta"


# --------------------------------------------------------------------------- #
# End-to-end over HTTP
# --------------------------------------------------------------------------- #


class TestSubmitAndPoll:
    def test_job_runs_to_done_with_manifest_parity(self, server, tmp_path):
        code, submitted = post(server.url + "/jobs", SPEC)
        assert code == 201 and submitted["cached"] is False
        job_id = submitted["id"]
        assert job_id == spec_hash(JobSpec.from_dict(SPEC))  # content address

        status = wait_terminal(server.url, job_id)
        assert status["state"] == "done"
        assert status["cells_done"] == status["cells_total"] == 3
        assert status["manifest"]["spec_hash"] == job_id
        assert status["backend_tier"] == "array"

        # records match a local run of the very same spec, byte for byte
        # (modulo the wall-clock seconds field)
        _, served = get(f"{server.url}/jobs/{job_id}/records")
        local = run_spec(SPEC, sink=JsonlSink(tmp_path / "local.jsonl"))[0]
        assert len(served["records"]) == 3
        for obj, record in zip(served["records"], local.records):
            expected = {k: v for k, v in record.items() if k != "seconds"}
            got = {k: v for k, v in obj["record"].items() if k != "seconds"}
            assert got == expected

    def test_live_progress_is_in_memory_until_done(self, tmp_path):
        # job.json holds the last state transition; the server answers with
        # the live count, which reaches disk with the `done` write.
        plan = FaultPlan((Fault(site="server-cell", op="hang", seconds=1.0,
                                match={"done": 1}, once="progress-hang"),),
                         marker_dir=str(tmp_path))
        faults.install(plan)
        state_dir = tmp_path / "state"
        server = JobServer(state_dir, port=0, workers=1).start_background()
        try:
            _, submitted = post(server.url + "/jobs", SPEC)
            job_id = submitted["id"]
            deadline = time.time() + 60
            while "progress-hang" not in faults.fired_names():
                assert time.time() < deadline, "injected hang never fired"
                time.sleep(0.02)
            _, live = get(f"{server.url}/jobs/{job_id}")
            on_disk = JobStore(state_dir).load(job_id)
            assert (live["state"], live["cells_done"]) == ("running", 1)
            assert (on_disk.state, on_disk.cells_done) == ("running", 0)
            status = wait_terminal(server.url, job_id)
            on_disk = JobStore(state_dir).load(job_id)
            assert (status["state"], status["cells_done"], status["cells_total"]) == ("done", 3, 3)
            assert (on_disk.state, on_disk.cells_done, on_disk.cells_total) == ("done", 3, 3)
        finally:
            faults.clear()
            server.stop()

    def test_resubmission_is_a_cache_hit(self, server):
        _, first = post(server.url + "/jobs", SPEC)
        wait_terminal(server.url, first["id"])
        executed = server.store.load(first["id"])
        code, again = post(server.url + "/jobs", SPEC)
        assert code == 200 and again["cached"] is True
        assert again["id"] == first["id"] and again["state"] == "done"
        # no re-execution: the attempt counter did not move
        assert server.store.load(first["id"]).attempts == executed.attempts == 1

    def test_dedupe_ignores_key_order_and_default_fields(self, server):
        _, first = post(server.url + "/jobs", SPEC)
        reordered = {"run": {**SPEC["run"], "workers": 1}, "problems": SPEC["problems"]}
        code, again = post(server.url + "/jobs", reordered)
        assert code == 200 and again["id"] == first["id"] and again["cached"]

    def test_jobs_listing(self, server):
        _, submitted = post(server.url + "/jobs", SPEC)
        _, listing = get(server.url + "/jobs")
        assert [job["id"] for job in listing["jobs"]] == [submitted["id"]]

    def test_healthz_reports_backends_and_tiers(self, server):
        from repro import __version__

        _, health = get(server.url + "/healthz")
        assert health["status"] == "ok" and health["version"] == __version__
        assert {info["backend"] for info in health["backends"]} >= {"reference", "array", "jit"}
        assert health["backend_tiers"]["array"] == "array"
        assert health["backend_tiers"]["jit"].startswith("jit:")
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}


class TestValidation:
    def test_bad_json_is_400(self, server):
        code, payload = http_error(lambda: post(server.url + "/jobs", b"{not json"))
        assert code == 400 and "JSON" in payload["error"]

    def test_unknown_algorithm_is_422(self, server):
        bad = {**SPEC, "run": {"algorithm": "quantum_rainbow"}}
        code, payload = http_error(lambda: post(server.url + "/jobs", bad))
        assert code == 422 and "quantum_rainbow" in payload["error"]

    def test_bad_params_are_422(self, server):
        bad = {**SPEC, "run": {"algorithm": "kdelta", "params": {"k": -3}}}
        code, _ = http_error(lambda: post(server.url + "/jobs", bad))
        assert code == 422

    def test_unknown_backend_is_422(self, server):
        bad = {**SPEC, "run": {**SPEC["run"], "backend": "gpu9000"}}
        code, payload = http_error(lambda: post(server.url + "/jobs", bad))
        assert code == 422 and "gpu9000" in payload["error"]

    def test_unknown_graph_family_is_422(self, server):
        bad = {**SPEC, "problems": [{"graph": {"family": "nope", "n": 10, "delta": 3}}]}
        code, payload = http_error(lambda: post(server.url + "/jobs", bad))
        assert code == 422 and "nope" in payload["error"]
        # validation rejected it before it became a job
        assert server.store.job_ids() == []

    def test_unknown_job_is_404(self, server):
        code, _ = http_error(lambda: get(server.url + "/jobs/abcdef0123456789"))
        assert code == 404

    def test_unknown_route_is_404_and_wrong_method_405(self, server):
        assert http_error(lambda: get(server.url + "/nope"))[0] == 404
        assert http_error(lambda: post(server.url + "/healthz", {}))[0] == 405


class TestEvents:
    def test_sse_streams_every_cell_then_done(self, server):
        _, submitted = post(server.url + "/jobs", SPEC)
        events = sse_events(server.url, submitted["id"])
        kinds = [kind for kind, _ in events]
        assert kinds[-1] == "done"
        cells = [data for kind, data in events if kind == "cell"]
        assert len(cells) == 3 and len({c["cell"] for c in cells}) == 3
        assert [c["done"] for c in cells] == [1, 2, 3]
        assert all(c["total"] == 3 for c in cells)
        assert all("rounds" in c["record"] for c in cells)

    def test_sse_on_finished_job_replays_history(self, server):
        _, submitted = post(server.url + "/jobs", SPEC)
        wait_terminal(server.url, submitted["id"])
        events = sse_events(server.url, submitted["id"])
        kinds = [kind for kind, _ in events]
        assert kinds == ["cell", "cell", "cell", "done"]
        assert events[-1][1]["state"] == "done"


# --------------------------------------------------------------------------- #
# Restart recovery
# --------------------------------------------------------------------------- #


class TestRestartRecovery:
    def test_killed_job_resumes_and_matches_uninterrupted_run(self, tmp_path):
        state_dir = tmp_path / "state"
        # SystemExit at the per-cell seam is a BaseException: it escapes the
        # queue's `except Exception`, so the job stays `running` on disk —
        # exactly a SIGKILL mid-cell.  (reap_interval=None: the point here is
        # the *restart* recovery path, not the in-process reaper.)
        plan = FaultPlan((Fault(site="server-cell", op="raise",
                                exception="SystemExit", message="simulated kill",
                                match={"done": 2}, once="server-kill"),),
                         marker_dir=str(tmp_path))
        faults.install(plan)
        try:
            first = JobServer(state_dir, port=0, workers=1,
                              reap_interval=None).start_background()
            _, submitted = post(first.url + "/jobs", SPEC)
            job_id = submitted["id"]
            deadline = time.time() + 120
            while "server-kill" not in faults.fired_names():
                assert time.time() < deadline, "injected kill never fired"
                time.sleep(0.05)
            time.sleep(0.3)  # let the dying worker settle
            first.stop(abort=True)
        finally:
            faults.clear()

        # the crash left the job incomplete — not failed — with durable cells
        crashed = JobStore(state_dir).load(job_id)
        assert crashed.state == "running"
        partial = JobStore(state_dir).records(job_id)
        assert 0 < len(partial) < 3
        partial_cells = {obj["cell"] for obj in partial}

        second = JobServer(state_dir, port=0, workers=1).start_background()
        try:
            status = wait_terminal(second.url, job_id)
            assert status["state"] == "done"
            assert status["cells_done"] == status["cells_total"] == 3
            assert status["attempts"] == 2

            # byte-identical to an uninterrupted run: resumed cells untouched,
            # re-run cells equal modulo the wall-clock seconds field
            _, served = get(f"{second.url}/jobs/{job_id}/records")
            clean = run_spec(SPEC, sink=JsonlSink(tmp_path / "clean.jsonl"))[0]
            assert len(served["records"]) == 3
            for obj, record in zip(served["records"], clean.records):
                expected = {k: v for k, v in record.items() if k != "seconds"}
                got = {k: v for k, v in obj["record"].items() if k != "seconds"}
                assert got == expected
            by_cell = {obj["cell"]: obj["record"] for obj in served["records"]}
            for cell, record in ((o["cell"], o["record"]) for o in partial):
                assert by_cell[cell] == record  # resumed exactly, never re-run

            # ... and the finished job is now a cache hit
            code, again = post(second.url + "/jobs", SPEC)
            assert code == 200 and again["cached"] is True
            assert len(partial_cells) < 3  # the kill really was mid-job
        finally:
            second.stop()

    def test_failed_job_reports_error_and_retries_on_resubmit(self, server):
        # valid as a document, impossible as a graph (degree >= n): the
        # generator raises at execution time, after the job was accepted
        doomed = {
            "problems": [{"graph": {"family": "random_regular", "n": 5, "delta": 10}}],
            "run": {"algorithm": "delta_plus_one", "backend": "array"},
        }
        _, submitted = post(server.url + "/jobs", doomed)
        status = wait_terminal(server.url, submitted["id"])
        assert status["state"] == "failed"
        # the error is a structured object, not a bare string
        error = status["error"]
        assert error["kind"] == "error" and error["message"]
        assert error["type"] and error["attempts"] == 1
        assert error["traceback_digest"] and len(error["traceback_digest"]) == 16
        # ... and the SSE history replays the same structured failure
        events = sse_events(server.url, submitted["id"])
        assert events[-1][0] == "failed"
        assert events[-1][1]["error"]["type"] == error["type"]
        # a resubmission of a failed job retries instead of caching the failure
        code, again = post(server.url + "/jobs", doomed)
        assert code == 201 and again["cached"] is False
        status = wait_terminal(server.url, submitted["id"])
        assert status["state"] == "failed" and status["attempts"] == 2


# --------------------------------------------------------------------------- #
# The fault plane: reaper, drain, structured errors
# --------------------------------------------------------------------------- #


class TestFaultPlane:
    def test_reaper_fails_jobs_whose_executor_died(self, tmp_path):
        # A BaseException ends the executor without terminal bookkeeping; on a
        # server that never restarts, only the reaper can surface that.
        plan = FaultPlan((Fault(site="server-cell", op="raise",
                                exception="SystemExit", message="executor died",
                                match={"done": 1}, once="reap-kill"),),
                         marker_dir=str(tmp_path))
        faults.install(plan)
        server = JobServer(tmp_path / "state", port=0, workers=1,
                           reap_interval=0.2).start_background()
        try:
            _, submitted = post(server.url + "/jobs", SPEC)
            status = wait_terminal(server.url, submitted["id"], timeout=60)
            assert status["state"] == "failed"
            assert status["error"]["type"] == "SystemExit"
            assert status["error"]["kind"] == "interrupt"
            _, health = get(server.url + "/healthz")
            assert health["queue"]["reaped_total"] == 1
        finally:
            faults.clear()
            server.stop()

    def test_healthz_reports_the_queue(self, server):
        _, health = get(server.url + "/healthz")
        assert health["queue"]["pending"] == 0
        assert health["queue"]["reaped_total"] == 0
        assert health["queue"]["drain_timeout"] == 30.0

    def test_graceful_stop_drains_and_persists(self, tmp_path):
        server = JobServer(tmp_path / "state", port=0, workers=1).start_background()
        _, submitted = post(server.url + "/jobs", SPEC)
        server.stop()  # graceful: wait for the running job, persist the rest
        assert server.drained_clean
        status = JobStore(tmp_path / "state").load(submitted["id"])
        # finished within the budget, or dropped back to `queued` for restart
        assert status.state in ("done", "queued")

    def test_drain_timeout_reports_unclean_and_leaves_job_resumable(self, tmp_path):
        plan = FaultPlan((Fault(site="server-cell", op="hang", seconds=6.0,
                                match={"done": 1}, once="drain-hang"),),
                         marker_dir=str(tmp_path))
        faults.install(plan)
        server = JobServer(tmp_path / "state", port=0, workers=1,
                           drain_timeout=0.3, reap_interval=None).start_background()
        try:
            _, submitted = post(server.url + "/jobs", SPEC)
            deadline = time.time() + 60
            while "drain-hang" not in faults.fired_names():
                assert time.time() < deadline, "injected hang never fired"
                time.sleep(0.05)
            server.stop()  # the hung job cannot finish within 0.3s
            assert not server.drained_clean
            status = JobStore(tmp_path / "state").load(submitted["id"])
            assert status.state == "running"  # resumable: recovery re-queues it
        finally:
            faults.clear()


# --------------------------------------------------------------------------- #
# The process execution plane
# --------------------------------------------------------------------------- #


class TestProcessExecution:
    def test_invalid_execution_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="execution"):
            JobServer(tmp_path / "state", port=0, execution="fiber")

    def test_auto_resolves_by_core_count(self, tmp_path, monkeypatch):
        import repro.engine.sink as sink_mod
        import repro.server.queue as queue_mod

        monkeypatch.setattr(sink_mod, "machine_cores", lambda: 8)
        monkeypatch.setattr(queue_mod, "machine_cores", lambda: 8)
        many = JobServer(tmp_path / "a", port=0, workers=2, execution="auto")
        assert many.queue.execution == "process"
        assert many.queue.job_workers == 4  # 8 cores over 2 job slots
        monkeypatch.setattr(sink_mod, "machine_cores", lambda: 1)
        one = JobServer(tmp_path / "b", port=0, workers=2, execution="auto")
        assert one.queue.execution == "thread"
        assert one.queue.job_workers is None

    def test_healthz_reports_execution_plane(self, tmp_path):
        server = JobServer(tmp_path / "state", port=0, workers=2,
                           execution="process", job_workers=3).start_background()
        try:
            _, health = get(server.url + "/healthz")
            assert health["execution"] == {"mode": "process",
                                           "job_workers": 3, "pool_size": 2}
        finally:
            server.stop()

    def test_process_job_matches_thread_job(self, tmp_path):
        server = JobServer(tmp_path / "state", port=0, workers=1,
                           execution="process", job_workers=2).start_background()
        try:
            _, submitted = post(server.url + "/jobs", SPEC)
            status = wait_terminal(server.url, submitted["id"])
            assert status["state"] == "done"
            assert status["cells_done"] == status["cells_total"] == 3
            _, served = get(f"{server.url}/jobs/{submitted['id']}/records")
        finally:
            server.stop()
        clean = run_spec(SPEC, sink=JsonlSink(tmp_path / "clean.jsonl"))[0]
        for obj, record in zip(served["records"], clean.records):
            expected = {k: v for k, v in record.items() if k != "seconds"}
            got = {k: v for k, v in obj["record"].items() if k != "seconds"}
            assert got == expected

    def test_pool_worker_sigkill_is_contained(self, tmp_path, monkeypatch):
        # A SIGKILLed pool worker is the pool's problem, not the job's: the
        # crash is contained, the cell re-dispatched, the job still `done`.
        plan = FaultPlan((Fault(site="cell", op="kill", match={"n": 120},
                                once="server-pool-kill"),),
                         marker_dir=str(tmp_path))
        monkeypatch.setenv(faults.ENV_VAR, plan.to_json())
        server = JobServer(tmp_path / "state", port=0, workers=1,
                           execution="process", job_workers=2).start_background()
        try:
            _, submitted = post(server.url + "/jobs", SPEC)
            status = wait_terminal(server.url, submitted["id"])
        finally:
            server.stop()
            monkeypatch.delenv(faults.ENV_VAR)
        assert status["state"] == "done"
        assert status["cells_done"] == 3

    def test_kill_restart_recovery_in_process_mode(self, tmp_path):
        state_dir = tmp_path / "state"
        plan = FaultPlan((Fault(site="server-cell", op="raise",
                                exception="SystemExit", message="simulated kill",
                                match={"done": 2}, once="proc-kill"),),
                         marker_dir=str(tmp_path))
        faults.install(plan)
        try:
            first = JobServer(state_dir, port=0, workers=1, reap_interval=None,
                              execution="process", job_workers=2).start_background()
            _, submitted = post(first.url + "/jobs", SPEC)
            job_id = submitted["id"]
            deadline = time.time() + 120
            while "proc-kill" not in faults.fired_names():
                assert time.time() < deadline, "injected kill never fired"
                time.sleep(0.05)
            time.sleep(0.3)
            first.stop(abort=True)
        finally:
            faults.clear()

        assert JobStore(state_dir).load(job_id).state == "running"
        second = JobServer(state_dir, port=0, workers=1, execution="process",
                           job_workers=2).start_background()
        try:
            status = wait_terminal(second.url, job_id)
            assert status["state"] == "done"
            assert status["cells_done"] == status["cells_total"] == 3
            assert status["attempts"] == 2
        finally:
            second.stop()
