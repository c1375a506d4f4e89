"""The ``serve`` workload: a ``repro serve`` subprocess and two closed-loop clients.

The ``interactive`` client submits single-problem jobs and waits on
``/jobs/<id>/events`` for ``done``; every fourth request resubmits a finished
spec, which the server must answer from its store (``cached: true``,
``attempts`` unchanged).  The ``bulk`` client keeps submitting 4-problem
``delta_plus_one`` jobs until the interactive client is done.  Each client
holds at most one connection at a time; the server closes every connection
after its response.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

from perfbench import inputs

#: Executed interactive jobs per run: p95 needs ten samples beyond it.
INTERACTIVE_MIN_SAMPLES = 210

#: Interactive request list length (far more than a run consumes).
INTERACTIVE_LIST = 4000
BULK_LIST = 400

#: The interactive client stops at this age even without enough samples.
HARD_LIMIT_S = 120.0

REQUEST_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0

#: Consecutive client failures after which a client gives up.
MAX_CONSECUTIVE_FAILURES = 20


class ClientError(RuntimeError):
    """An HTTP error or a wrong answer from the server."""


def request(port: int, method: str, path: str, document: dict | None = None,
            timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, dict | None]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if document is None else json.dumps(document)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, (json.loads(data) if data else None)
    finally:
        conn.close()


def wait_terminal(port: int, job_id: str) -> tuple[str, dict, dict, float, float]:
    """Follow ``/jobs/<id>/events`` to ``done``/``failed``.

    Returns the terminal event, its data, the cell records seen (by cell id),
    and the ``perf_counter`` and wall-clock times the terminal event arrived.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise ClientError(f"GET /jobs/{job_id}/events answered {response.status}")
        cells: dict[str, dict] = {}
        event = None
        while True:
            line = response.readline()
            if not line:
                raise ClientError(f"event stream of {job_id} ended without done/failed")
            text = line.decode("utf-8").rstrip("\r\n")
            if text.startswith("event:"):
                event = text[len("event:"):].strip()
            elif text.startswith("data:"):
                data = json.loads(text[len("data:"):])
                if event == "cell":
                    cells[data["cell"]] = data["record"]
                elif event in ("done", "failed"):
                    return event, data, cells, time.perf_counter(), time.time()
    finally:
        conn.close()


def check_record(algorithm: str, record: dict) -> str | None:
    if "error" in record:
        error = record["error"] or {}
        return f"CellError {error.get('type')}: {error.get('message')}"
    if not isinstance(record.get("rounds"), int):
        return f"record without an integer round count: {sorted(record)}"
    if algorithm == "delta_plus_one" and record["colors used"] > record["Delta"] + 1:
        return f"delta_plus_one used {record['colors used']} > Delta+1 colors"
    return None


def run_job(port: int, document: dict) -> dict:
    """Submit a new job, wait for it, check it; return its observations."""
    problems = [p["graph"] for p in document["problems"]]
    algorithm = document["run"]["algorithm"]
    began = time.perf_counter()
    status, payload = request(port, "POST", "/jobs", document)
    posted = time.perf_counter() - began
    if status != 201 or payload.get("cached") is not False:
        raise ClientError(f"POST /jobs answered {status} "
                          f"(cached={payload and payload.get('cached')})")
    job_id = payload["id"]
    event, _data, cells, done_at, done_wall = wait_terminal(port, job_id)
    latency = done_at - began
    status, job = request(port, "GET", f"/jobs/{job_id}")
    if status != 200:
        raise ClientError(f"GET /jobs/{job_id} answered {status}")
    issues = []
    if event != "done" or job["state"] != "done":
        issues.append(f"job ended {event}/{job['state']}: {job.get('error')}")
    if not (job["cells_done"] == job["cells_total"] == len(problems) == len(cells)):
        issues.append(f"{len(cells)} records, {job['cells_done']}/{job['cells_total']} "
                      f"cells for {len(problems)} problems")
    issues += [p for p in (check_record(algorithm, r) for r in cells.values()) if p]
    return {
        "id": job_id,
        "latency": latency,
        "post": posted,
        "queue_wait": job["started_at"] - job["submitted_at"],
        "run": job["finished_at"] - job["started_at"],
        "notify": done_wall - job["finished_at"],
        "attempts": job["attempts"],
        "cells": len(cells),
        "edges": sum(inputs.edges_of(g["family"], g["n"], g["delta"]) for g in problems),
        "issues": issues,
    }


class ClientLog:
    """What one client attempted, observed and got wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.jobs: list[dict] = []
        self.cache_hits: list[float] = []
        self._streak = 0

    def ok(self) -> None:
        self._streak = 0

    def fail(self, message: str) -> None:
        self.failures.append(message)
        self._streak += 1

    @property
    def broken(self) -> bool:
        return self._streak >= MAX_CONSECUTIVE_FAILURES


def interactive_client(port: int, jobs: list[dict], seconds: float, log: ClientLog) -> None:
    finished: dict[int, tuple[str, int]] = {}
    start = time.perf_counter()
    for index, entry in enumerate(jobs):
        age = time.perf_counter() - start
        if (age >= seconds and len(log.jobs) >= INTERACTIVE_MIN_SAMPLES) \
                or age >= HARD_LIMIT_S or log.broken:
            return
        log.attempted += 1
        try:
            if "repeat" in entry:
                expected = finished.get(entry["repeat"])
                if expected is None:
                    raise ClientError(f"resubmission of request {entry['repeat']}, "
                                      "which did not finish")
                began = time.perf_counter()
                status, payload = request(port, "POST", "/jobs",
                                          jobs[entry["repeat"]]["document"])
                elapsed = time.perf_counter() - began
                if status != 200 or payload.get("cached") is not True \
                        or payload["id"] != expected[0] \
                        or payload["attempts"] != expected[1] \
                        or payload["state"] != "done":
                    raise ClientError(f"cache hit answered {status}: cached="
                                      f"{payload and payload.get('cached')}, attempts="
                                      f"{payload and payload.get('attempts')}/{expected[1]}")
                log.cache_hits.append(elapsed)
            else:
                job = run_job(port, entry["document"])
                if job["issues"]:
                    raise ClientError("; ".join(job["issues"]))
                finished[index] = (job["id"], job["attempts"])
                log.jobs.append(job)
            log.ok()
        except (ClientError, OSError, ValueError, KeyError) as exc:
            log.fail(f"interactive request {index}: {type(exc).__name__}: {exc}")


def bulk_client(port: int, jobs: list[dict], stop: threading.Event, log: ClientLog) -> None:
    for index, entry in enumerate(jobs):
        if stop.is_set() or log.broken:
            return
        log.attempted += 1
        try:
            job = run_job(port, entry["document"])
            if job["issues"]:
                raise ClientError("; ".join(job["issues"]))
            log.jobs.append(job)
            log.ok()
        except (ClientError, OSError, ValueError, KeyError) as exc:
            log.fail(f"bulk request {index}: {type(exc).__name__}: {exc}")


class Server:
    """One ``repro serve`` subprocess on a free port with its own state dir."""

    def __init__(self, root, env: dict, directory):
        self.root = root
        self.env = env
        self.directory = directory
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self) -> tuple[float, dict]:
        """Launch; return the set-up time (to ``/healthz`` 200) and its payload."""
        log_path = self.directory / "serve.log"
        with open(log_path, "w", encoding="utf-8") as log:
            began = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.launch_server", "serve",
                 "--port", "0", "--state-dir", str(self.directory / "state")],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        while self.port is None:
            match = re.search(r"listening on http://[^\s:]+:(\d+)",
                              log_path.read_text(encoding="utf-8", errors="replace"))
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.monotonic() - began > START_TIMEOUT_S:
                tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
                raise RuntimeError(f"repro serve did not start:\n{tail}")
            time.sleep(0.002)
        while True:
            try:
                status, payload = request(self.port, "GET", "/healthz", timeout=5)
                if status == 200:
                    return time.monotonic() - began, payload
            except OSError:
                pass
            if time.monotonic() - began > START_TIMEOUT_S:
                raise RuntimeError("repro serve never answered /healthz with 200")
            time.sleep(0.002)

    def stop(self) -> float | None:
        """Graceful SIGTERM drain, then kill whatever is left of its group.

        Returns the server's peak RSS in MiB (see :func:`reap`).
        """
        if self.proc is None:
            return None
        rss = None
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                rss = reap(self.proc, STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        kill_group(self.proc)
        return rss


def reap(proc: subprocess.Popen, timeout: float) -> float | None:
    """Wait for a child to exit and reap it.

    Returns the peak RSS in MiB of the largest process among the child and
    the descendants it reaped, or ``None`` when the child was reaped before.
    Raises :class:`subprocess.TimeoutExpired` after ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    while proc.returncode is None:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage.ru_maxrss / 1024
        if time.monotonic() >= deadline:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        time.sleep(0.02)
    return None


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a child's whole process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def check_health(payload: dict) -> dict:
    tiers = payload.get("backend_tiers") or {}
    if tiers.get("jit") == "jit:fallback-array":
        raise RuntimeError("the server's jit backend resolved to jit:fallback-array")
    jit = next((b for b in payload.get("backends") or () if b.get("backend") == "jit"), {})
    return {
        "jit_tier": tiers.get("jit"),
        "jit_threads": jit.get("threads"),
        "execution": payload.get("execution"),
        "package_version": payload.get("version"),
    }


def drive(port: int, seed: int, seconds: float, zoo: list[str]) -> dict:
    """Run both clients against a started server; return their logs."""
    interactive = inputs.interactive_jobs(seed, INTERACTIVE_LIST, zoo)
    bulk = inputs.bulk_jobs(seed, BULK_LIST)
    ilog, blog = ClientLog(), ClientLog()
    stop = threading.Event()
    began = time.perf_counter()
    bulk_thread = threading.Thread(target=bulk_client, args=(port, bulk, stop, blog),
                                   name="bulk-client", daemon=True)
    bulk_thread.start()
    try:
        interactive_client(port, interactive, seconds, ilog)
    finally:
        stop.set()
        bulk_thread.join(timeout=REQUEST_TIMEOUT_S * 3)
    if bulk_thread.is_alive():
        blog.fail("bulk client did not finish its last job")
    return {"interactive": ilog, "bulk": blog, "wall": time.perf_counter() - began}
