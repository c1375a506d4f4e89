"""Bounded-worker job execution for the job server.

Jobs execute through :func:`repro.api.solve.run_spec` — the exact machinery
behind ``repro run --spec`` — against the store's resumable JSONL sink, so a
served job's records are byte-identical to a local replay of the same spec
(modulo wall-clock fields), restart recovery is the sink's ``resume=True``
path, and the manifest pins the spec hash the job is addressed by.

The pool is a :class:`~concurrent.futures.ThreadPoolExecutor`: the hot loops
are NumPy/compiled kernels that release the GIL, a spec may itself request
process-pool sharding (``run.workers > 1``), and threads can share the
process-wide engine instances (and their warmed-up JIT kernels) for free.

With ``execution="process"`` each job *additionally* fans its cells out
through the crash-containing process pool of :mod:`repro.engine.parallel`:
the job still runs on its queue thread (keeping the durable-sink, progress,
and SSE semantics identical), but ``run_spec`` is called with a per-job
``workers`` budget, so the cells execute in worker processes — hardware-bound
instead of GIL-bound, with pool-worker crashes contained and re-dispatched by
the pool itself (kill-restart recovery extends to pool workers for free).
The budget overrides the spec's own ``run.workers`` (the server owns its
execution resources; the spec hash is untouched — execution overrides never
change it).  Single-cell jobs still run serially in-thread: there is nothing
to fan out.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from typing import Any, Callable

from repro.engine.retry import RetryPolicy, describe_error
from repro.engine.sink import machine_cores
from repro.server.store import JobStore
from repro.testing import faults

__all__ = ["JobQueue", "EXECUTION_MODES"]

#: Job execution modes: "thread" runs a job's cells on its queue thread;
#: "process" fans them out through the engine's crash-containing process pool.
EXECUTION_MODES = ("thread", "process")


class JobQueue:
    """Execute stored jobs on a bounded worker pool with progress events.

    ``on_event(job_id, event)`` — when given — is called from worker threads
    for every lifecycle transition and completed cell; the HTTP layer bridges
    these onto the asyncio loop for SSE.  Event shapes::

        {"type": "status", "state": "running", "attempts": n}
        {"type": "progress", "done": d, "total": t, "resumed": d}   # on start
        {"type": "cell", "cell": id, "done": d, "total": t, "record": {...}}
        {"type": "done", "cells_done": d, "cells_total": t, "backend_tier": ...}
        {"type": "failed", "error": {"kind": ..., "type": ..., "message": ...,
                                     "traceback_digest": ..., "attempts": ...}}

    ``default_retry`` — when given — is the server-wide
    :class:`~repro.engine.retry.RetryPolicy` applied to jobs whose spec does
    not declare its own ``run.retry``; a spec-declared policy always wins
    (the spec is the contract the job is addressed by).

    ``execution`` selects the per-job execution plane (see the module
    docstring): ``"thread"`` or ``"process"``.  ``job_workers`` is the
    per-job worker budget of process mode; when ``None`` it defaults to
    ``max(2, cores // workers)`` — the machine's cores split across the
    concurrently executing jobs, floored at 2 so the crash-containing pool
    actually engages.  Thread mode ignores the budget unless one is given
    explicitly (an explicit budget is honored in either mode).

    The per-cell progress hook doubles as the ``"server-cell"`` fault-injection
    site (:mod:`repro.testing.faults`): chaos tests inject a raise/hang there
    to simulate a job executor dying mid-job without patching queue internals.
    """

    def __init__(
        self,
        store: JobStore,
        workers: int = 2,
        on_event: Callable[[str, dict[str, Any]], None] | None = None,
        default_retry: RetryPolicy | None = None,
        execution: str = "thread",
        job_workers: int | None = None,
    ):
        if int(workers) < 1:
            raise ValueError(f"JobQueue workers must be >= 1, got {workers!r}")
        if execution not in EXECUTION_MODES:
            raise ValueError(f"JobQueue execution must be one of {EXECUTION_MODES}, "
                             f"got {execution!r}")
        if job_workers is not None and int(job_workers) < 1:
            raise ValueError(f"JobQueue job_workers must be >= 1, got {job_workers!r}")
        self.store = store
        self.workers = int(workers)
        self.execution = execution
        if job_workers is not None:
            self.job_workers: int | None = int(job_workers)
        elif execution == "process":
            self.job_workers = max(2, machine_cores() // self.workers)
        else:
            self.job_workers = None
        self.on_event = on_event
        self.default_retry = default_retry
        self.reaped_total = 0
        self._pool = ThreadPoolExecutor(max_workers=self.workers,
                                        thread_name_prefix="repro-job")
        self._futures: dict[str, Future] = {}
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission / recovery
    # ------------------------------------------------------------------ #

    def submit(self, job_id: str) -> Future:
        """Queue one stored job for execution (idempotent while in flight)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("JobQueue is shut down")
            future = self._futures.get(job_id)
            if future is not None and not future.done():
                return future
            future = self._pool.submit(self._execute, job_id)
            self._futures[job_id] = future
            return future

    def recover(self) -> list[str]:
        """Re-queue every incomplete (queued/running) job in the store.

        This is the restart path: jobs the previous process died under go
        back on the pool, and their sinks resume — completed cells are loaded
        from ``records.jsonl``, never recomputed.
        """
        incomplete = self.store.incomplete_job_ids()
        for job_id in incomplete:
            self.store.update(job_id, state="queued")
            self.submit(job_id)
        return incomplete

    def pending(self) -> int:
        with self._lock:
            return sum(1 for f in self._futures.values() if not f.done())

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.  ``wait=False`` abandons queued jobs (they stay
        ``queued``/``running`` on disk and are recovered on restart)."""
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait, cancel_futures=not wait)

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful drain: refuse new work, drop *queued* jobs back to the
        store (they stay ``queued`` on disk — restart recovery re-queues
        them), and wait up to ``timeout`` seconds for the jobs already
        running to finish their cells and close their sinks.

        Returns ``True`` when every running job completed within the budget;
        ``False`` means the drain timed out and the caller should force-abort
        (running jobs stay ``running`` on disk and resume on restart, losing
        at most their in-flight cells).
        """
        with self._lock:
            self._closed = True
            futures = list(self._futures.values())
        # cancel_futures drops queued (not-yet-started) jobs; wait=False so
        # *we* own the bounded wait below instead of blocking indefinitely.
        self._pool.shutdown(wait=False, cancel_futures=True)
        running = [f for f in futures if not f.done() and not f.cancelled()]
        _, not_done = futures_wait(running, timeout=timeout)
        return not not_done

    # ------------------------------------------------------------------ #
    # Reaping dead executors
    # ------------------------------------------------------------------ #

    def reap(self) -> list[str]:
        """Mark jobs whose executor died without a terminal state as failed.

        A ``BaseException`` escaping a job thread (``SystemExit`` from
        library code, an injected chaos fault) ends the future but skips the
        ``except Exception`` bookkeeping, leaving ``job.json`` saying
        ``running`` forever on a server that is never restarted.  This scans
        for exactly that: a *done* future whose job is still non-terminal in
        the store.  Cancelled futures are skipped — their jobs are legitimately
        ``queued`` (the drain path).  Returns the reaped job ids.
        """
        reaped: list[str] = []
        with self._lock:
            items = list(self._futures.items())
        for job_id, future in items:
            if not future.done() or future.cancelled():
                continue
            status = self.store.load(job_id)
            if status is None or status.terminal or status.state == "queued":
                continue
            exc = future.exception()
            if exc is not None:
                error = describe_error(exc, attempts=status.attempts)
            else:
                error = {
                    "kind": "crash",
                    "type": "DeadExecutor",
                    "message": "job executor ended without recording a terminal state",
                    "traceback_digest": None,
                    "attempts": status.attempts,
                }
            self.store.update(job_id, state="failed", finished_at=time.time(),
                              error=error)
            self._emit(job_id, {"type": "failed", "error": error})
            reaped.append(job_id)
        self.reaped_total += len(reaped)
        return reaped

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _emit(self, job_id: str, event: dict[str, Any]) -> None:
        if self.on_event is not None:
            self.on_event(job_id, event)

    def _execute(self, job_id: str) -> None:
        from repro.api.solve import run_spec
        from repro.engine.sink import JsonlSink

        status = self.store.load(job_id)
        if status is None or status.terminal:
            return  # deleted or already finished (e.g. duplicate recovery)
        status = self.store.update(
            job_id, state="running", started_at=time.time(),
            attempts=status.attempts + 1, error=None,
        )
        self._emit(job_id, {"type": "status", "state": "running",
                            "attempts": status.attempts})

        def progress(done: int, total: int, cell: str | None, record) -> None:
            changes: dict[str, Any] = {"cells_done": done, "cells_total": total}
            if cell is None:
                # First callback: the sink has started, so the manifest (and
                # the backend tier that will run the job) is durable already.
                # The tier stays in the live status through the done update.
                manifest = self.store.manifest(job_id)
                if manifest is not None:
                    changes["backend_tier"] = manifest.get("backend_tier")
                self.store.update(job_id, **changes)
                self._emit(job_id, {"type": "progress", "done": done,
                                    "total": total, "resumed": done})
            else:
                self.store.update(job_id, **changes)
                self._emit(job_id, {"type": "cell", "cell": cell, "done": done,
                                    "total": total, "record": dict(record)})
            if cell is not None:
                faults.fire("server-cell", job_id=job_id, done=done, total=total)

        # The server-wide default policy applies only when the spec does not
        # declare its own (the spec is the contract the job is addressed by).
        retry = None
        if self.default_retry is not None and \
                not (status.spec.get("run") or {}).get("retry"):
            retry = self.default_retry

        sink = JsonlSink(self.store.records_path(job_id), resume=True)
        try:
            try:
                run_spec(status.spec, sink=sink, retry=retry, progress=progress,
                         workers=self.job_workers)
            finally:
                sink.close()
        except Exception as exc:  # noqa: BLE001 — any job failure is recorded
            error = describe_error(exc, attempts=status.attempts)
            status = self.store.update(
                job_id, state="failed", finished_at=time.time(), error=error,
            )
            self._emit(job_id, {"type": "failed", "error": error})
            return
        status = self.store.update(job_id, state="done", finished_at=time.time())
        self._emit(job_id, {
            "type": "done",
            "cells_done": status.cells_done,
            "cells_total": status.cells_total,
            "backend_tier": status.backend_tier,
        })
