"""Fault-tolerant process-pool sharding for :class:`~repro.engine.batch.BatchRunner`.

The (graph x seed x params) cells of a sweep are embarrassingly parallel map
steps: no cell reads another cell's output.  This module shards an *ordered*
job list across worker processes while preserving everything the serial
runner guarantees:

* **Deterministic records** — jobs carry their grid index; the parent buffers
  completions and yields them in exact grid order, so a parallel sweep is
  byte-identical to the serial one modulo wall-clock fields — *even when
  cells were retried, re-dispatched after a worker death, or downgraded*.
* **A zero-copy shared graph plane** — the parent publishes each cell's CSR
  arrays through :mod:`multiprocessing.shared_memory` and workers attach
  read-only views (:meth:`~repro.congest.graph.Graph.from_shared`) instead of
  regenerating graphs; memory stays flat in the worker count.
* **A parallel-safe parity oracle** — with ``parity_check=True`` every worker
  re-runs its own cells on its own parity engine; a
  :class:`~repro.engine.batch.ParityError` in any worker is *fatal* (never
  retried — a parity mismatch is a correctness bug, not a transient fault)
  and re-raises in the parent.

Crash containment
-----------------

Earlier versions used one shared :class:`multiprocessing.pool.Pool`: a single
worker death (segfaulting kernel, OOM kill) either hung the ordered ``imap``
forever or surfaced as an opaque pool-wide ``BrokenProcessPool``, destroying
the whole sweep.  This pool owns each worker individually — one process, one
duplex pipe, one in-flight cell — so the parent always knows *which* cell a
dead worker was running and since when:

* a worker EOF/death charges exactly its in-flight cell with a ``"crash"``
  attempt; the worker is respawned and only the lost cell is re-dispatched;
* a :attr:`~repro.engine.retry.RetryPolicy.cell_timeout` breach kills the
  worker (``SIGKILL`` — a hung kernel cannot be asked nicely) and counts a
  ``"timeout"`` attempt;
* a killed/corrupted pipe is *contained*: other workers' pipes are untouched,
  so no shared result queue can be poisoned by a mid-write death;
* when a cell exhausts its attempts (see
  :meth:`~repro.engine.retry.RetryPolicy.next_action`: retry with backoff ->
  jit->array downgrade -> record/raise) the parent emits a structured
  CellError record (:func:`~repro.engine.retry.cell_error_record`) in the
  cell's grid slot and the sweep continues.

Workers are described by *names* (backend registry keys, task registry keys
or importable callables), never by live objects: that is what makes the
sharding safe under both ``fork`` and ``spawn`` start methods.  Third-party
backends registered at runtime can be made visible to workers by passing an
importable ``worker_init`` callable, which runs first in every worker.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.engine.base import EngineError
from repro.engine.retry import (
    FATAL_KINDS,
    CellExecutionError,
    CellTimeoutError,
    RetryPolicy,
    WorkerCrashError,
    cell_error_record,
    describe_error,
)

__all__ = ["default_start_method", "run_cells_parallel"]

#: How long the parent blocks waiting for worker messages per scheduling pass.
_POLL_SECONDS = 0.25

#: Grace period for workers to exit after receiving the shutdown sentinel.
_JOIN_SECONDS = 5.0


def default_start_method() -> str:
    """``"fork"`` where available (cheap, inherits registrations), else ``"spawn"``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _require_importable(value: Any, role: str) -> None:
    """Reject objects a freshly spawned worker could not reconstruct."""
    if value is None or isinstance(value, str):
        return
    import importlib

    module, qualname = getattr(value, "__module__", None), getattr(value, "__qualname__", None)
    resolved = None
    if module and qualname and "<locals>" not in qualname:
        try:
            resolved = importlib.import_module(module)
            for part in qualname.split("."):
                resolved = getattr(resolved, part)
        except (ImportError, AttributeError):
            resolved = None
    if resolved is not value:
        raise EngineError(
            f"parallel execution needs an importable {role}, got {value!r}; "
            f"use a registered name or a module-level function"
        )


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #


def _dumps_exc(exc: BaseException) -> bytes | None:
    """Best-effort pickle of an exception so the parent can re-raise natively."""
    try:
        return pickle.dumps(exc)
    except Exception:  # noqa: BLE001 — unpicklable: the structured dict suffices
        return None


def _loads_exc(payload: bytes | None) -> BaseException | None:
    if payload is None:
        return None
    try:
        exc = pickle.loads(payload)
    except Exception:  # noqa: BLE001
        return None
    return exc if isinstance(exc, BaseException) else None


def _worker_main(
    conn,
    backend: str,
    parity_check: bool,
    worker_init: Callable[[], None] | None,
    shared_graphs: Mapping[Any, Any] | None,
) -> None:
    """One pool worker: recv job tuples, send result tuples, until sentinel.

    The worker keeps one :class:`~repro.engine.batch.BatchRunner` per backend
    it has been asked to run (the primary, plus ``"array"`` once a downgraded
    cell arrives), each pre-seeded with the parent's shared-memory graphs.
    A cell raising an ordinary exception is *reported*, not fatal: the worker
    survives to run the next cell, so one poisoned cell cannot take healthy
    in-flight work down with it.
    """
    runners: dict[str, Any] = {}

    def runner_for(name: str):
        if name not in runners:
            from repro.engine.batch import BatchRunner

            runner = BatchRunner(backend=name, parity_check=parity_check)
            if shared_graphs:
                from repro.congest.graph import Graph

                for spec, handle in shared_graphs.items():
                    runner.preload_graph(spec, Graph.from_shared(handle))
            runners[name] = runner
        return runners[name]

    def tier_of(name: str) -> str | None:
        try:
            return runners[name].engine.active_tier()
        except Exception:  # noqa: BLE001 — tier is provenance, never load-bearing
            return None

    try:
        try:
            if worker_init is not None:
                worker_init()
            runner_for(backend)  # build + warm the primary engine up front
        except Exception as exc:  # noqa: BLE001 — reported, parent aborts the sweep
            conn.send(("init-error", describe_error(exc), _dumps_exc(exc)))
            return
        while True:
            job = conn.recv()
            if job is None:
                return
            index, task, spec, params, attempt, backend_override = job
            name = backend_override or backend
            try:
                record = runner_for(name)._attempt_cell(task, spec, params, attempt=attempt)
            except Exception as exc:  # noqa: BLE001 — reported; worker survives
                conn.send(("error", index,
                           describe_error(exc, attempts=attempt, tier=tier_of(name)),
                           _dumps_exc(exc)))
            except BaseException as exc:
                # Interrupt-class failures: report (so the parent can abort
                # deliberately) and let the exception end this worker.
                conn.send(("error", index,
                           describe_error(exc, attempts=attempt, tier=tier_of(name)),
                           _dumps_exc(exc)))
                raise
            else:
                conn.send(("ok", index, record))
    except (EOFError, BrokenPipeError, OSError, KeyboardInterrupt):
        return  # parent went away (or the sweep was interrupted): die quietly


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #


@dataclass
class _Cell:
    """Scheduling state of one grid cell (one job)."""

    index: int
    task: Any
    spec: Any
    params: dict[str, Any]
    attempt: int = 1
    downgraded: bool = False
    not_before: float = 0.0


@dataclass
class _Worker:
    """One owned worker process and its duplex pipe."""

    process: Any
    conn: Any
    cell: _Cell | None = None
    deadline: float | None = None

    @property
    def idle(self) -> bool:
        return self.cell is None

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=_JOIN_SECONDS)
        self._close()

    def _close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class _FaultTolerantPool:
    """Per-worker-owned process pool: spawn, dispatch, detect death, respawn."""

    def __init__(self, ctx, size: int, worker_args: tuple):
        self._ctx = ctx
        self.size = size
        self._worker_args = worker_args
        self.workers: list[_Worker] = []

    def spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, *self._worker_args),
            daemon=True, name="repro-pool-worker",
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        worker = _Worker(process=process, conn=parent_conn)
        self.workers.append(worker)
        return worker

    def ensure(self, needed: int) -> None:
        """Respawn up to the pool size while there is work to run."""
        while len(self.workers) < min(self.size, needed):
            self.spawn()

    def discard(self, worker: _Worker) -> None:
        if worker in self.workers:
            self.workers.remove(worker)
        worker.kill()

    def shutdown(self) -> None:
        """Graceful: sentinel every idle worker, then reap; kill stragglers."""
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=_JOIN_SECONDS)
            if worker.process.is_alive():
                worker.kill()
            else:
                worker._close()
        self.workers.clear()

    def terminate(self) -> None:
        """Hard stop (error paths): kill everything, reap, close pipes."""
        for worker in self.workers:
            worker.kill()
        self.workers.clear()


def run_cells_parallel(
    jobs: list[tuple[int, str | Callable[..., Mapping[str, Any]], Any, Mapping[str, Any]]],
    *,
    workers: int,
    backend: str,
    parity_check: bool,
    worker_init: Callable[[], None] | None = None,
    start_method: str | None = None,
    shared_graphs: Mapping[Any, Any] | None = None,
    retry: RetryPolicy | None = None,
    on_event: Callable[[int, dict[str, Any]], None] | None = None,
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Run ``(index, task, spec, params)`` jobs on a fault-tolerant pool;
    yield ``(index, record)`` in exact job order.

    Results stream to the caller as the ordered prefix completes, so records
    can be sunk while later cells are still computing.  Failure semantics are
    ``retry``'s (default :class:`~repro.engine.retry.RetryPolicy`): worker
    deaths re-dispatch the lost cell (crash floor of two attempts), deadline
    breaches kill and recount, a failing ``jit`` cell gets one attempt on
    ``"array"``, and exhausted cells yield a CellError record in their grid
    slot instead of aborting the sweep.  Fatal failures —
    :class:`~repro.engine.batch.ParityError`, interrupts, exhausted plain
    errors under ``on_error="raise"`` — re-raise here.

    ``on_event(index, event)`` — when given — is called for every retry,
    downgrade and exhaustion decision (``event["event"]`` is ``"retry"`` /
    ``"degrade"`` / ``"cell-error"``); the batch layer forwards these to the
    sink's provenance notes.

    ``shared_graphs`` maps :class:`~repro.engine.batch.GraphSpec` to
    :class:`repro.congest.shared.SharedGraphHandle`; every worker attaches the
    published graphs zero-copy.  The caller owns the handles' lifetime
    (publish before, close after the pool is drained).
    """
    if workers < 1:
        raise EngineError(f"workers must be >= 1, got {workers}")
    for _, task, _, _ in jobs:
        _require_importable(task, "task")
    _require_importable(worker_init, "worker_init")
    policy = retry or RetryPolicy()
    ctx = mp.get_context(start_method or default_start_method())
    pool = _FaultTolerantPool(
        ctx, max(1, min(workers, len(jobs))),
        (backend, parity_check, worker_init,
         dict(shared_graphs) if shared_graphs else None),
    )

    order = [index for index, _, _, _ in jobs]
    cells = {index: _Cell(index=index, task=task, spec=spec, params=dict(params))
             for index, task, spec, params in jobs}
    ready: deque[int] = deque(order)
    delayed: list[int] = []  # indices backing off; runnable once not_before passes
    buffered: dict[int, dict[str, Any]] = {}
    outstanding = set(order)
    next_pos = 0

    def emit(index: int, event: dict[str, Any]) -> None:
        if on_event is not None:
            on_event(index, event)

    def cell_label(cell: _Cell) -> str:
        from repro.engine.sink import cell_key

        return cell_key(cell.task, cell.spec, cell.params)

    def reraise(cell: _Cell, kind: str, err: Mapping[str, Any],
                exc: BaseException | None) -> None:
        if exc is not None:
            raise exc
        message = (f"{err.get('type')}: {err.get('message')} "
                   f"(cell index {cell.index}, attempt {cell.attempt}, "
                   f"traceback digest {err.get('traceback_digest')})")
        if kind == "crash":
            raise WorkerCrashError(message)
        if kind == "timeout":
            raise CellTimeoutError(message)
        raise CellExecutionError(message)

    def register_failure(cell: _Cell, kind: str, err: Mapping[str, Any],
                         exc: BaseException | None = None) -> None:
        action = policy.next_action(kind, cell.attempt, backend=backend,
                                    downgraded=cell.downgraded)
        if action == "retry":
            emit(cell.index, {"event": "retry", "kind": kind,
                              "attempt": cell.attempt, "error": dict(err)})
            cell.not_before = time.monotonic() + policy.delay(cell_label(cell), cell.attempt)
            cell.attempt += 1
            delayed.append(cell.index)
        elif action == "downgrade":
            emit(cell.index, {"event": "degrade", "from": backend, "to": "array",
                              "kind": kind, "attempt": cell.attempt, "error": dict(err)})
            cell.downgraded = True
            cell.not_before = 0.0
            cell.attempt += 1
            ready.append(cell.index)
        elif action == "record":
            error = {**err, "attempts": cell.attempt}
            emit(cell.index, {"event": "cell-error", "error": error})
            complete(cell.index, cell_error_record(
                cell.spec, cell.params,
                backend="array" if cell.downgraded else backend, error=error,
            ))
        else:  # "raise" — fatal for the whole sweep
            reraise(cell, kind, err, exc)

    def complete(index: int, record: dict[str, Any]) -> None:
        buffered[index] = record
        outstanding.discard(index)

    def on_worker_dead(worker: _Worker) -> None:
        cell = worker.cell
        worker.cell = None
        pool.discard(worker)
        if cell is not None:
            exc = WorkerCrashError(
                f"worker process died while executing cell index {cell.index} "
                f"(attempt {cell.attempt})"
            )
            register_failure(cell, "crash", describe_error(exc, attempts=cell.attempt))

    def on_worker_timeout(worker: _Worker) -> None:
        cell = worker.cell
        worker.cell = None
        pool.discard(worker)  # SIGKILL: a hung kernel cannot be asked nicely
        exc = CellTimeoutError(
            f"cell index {cell.index} exceeded cell_timeout={policy.cell_timeout}s "
            f"(attempt {cell.attempt}); its worker was killed"
        )
        register_failure(cell, "timeout", describe_error(exc, attempts=cell.attempt))

    def on_message(worker: _Worker, message: tuple) -> None:
        tag = message[0]
        if tag == "init-error":
            _, err, payload = message
            pool.discard(worker)
            exc = _loads_exc(payload)
            if exc is not None:
                raise exc
            raise EngineError(
                f"pool worker initialization failed: {err.get('type')}: {err.get('message')}"
            )
        cell = worker.cell
        worker.cell = None
        worker.deadline = None
        if cell is None:
            return  # message for a cell already resolved elsewhere (late result)
        if tag == "ok":
            complete(cell.index, message[2])
            return
        _, _, err, payload = message
        kind = err.get("kind", "error")
        exc = _loads_exc(payload)
        if kind in FATAL_KINDS:
            reraise(cell, kind, err, exc)
        register_failure(cell, kind, err, exc=exc)

    try:
        while outstanding:
            now = time.monotonic()
            # Promote backed-off retries whose delay has passed.
            due = [i for i in delayed if cells[i].not_before <= now]
            for index in due:
                delayed.remove(index)
                ready.append(index)
            # Keep the pool sized to the remaining work (respawning after
            # crashes), and dispatch ready cells to idle workers.
            busy = sum(1 for w in pool.workers if not w.idle)
            pool.ensure(busy + len(ready) + len(delayed))
            for worker in list(pool.workers):
                if not ready:
                    break
                if not worker.idle:
                    continue
                cell = cells[ready.popleft()]
                try:
                    worker.conn.send((cell.index, cell.task, cell.spec, cell.params,
                                      cell.attempt,
                                      "array" if cell.downgraded else None))
                except (BrokenPipeError, OSError):
                    ready.appendleft(cell.index)  # never reached the worker: no attempt charged
                    on_worker_dead(worker)
                    continue
                worker.cell = cell
                worker.deadline = (
                    None if policy.cell_timeout is None else now + policy.cell_timeout
                )
            # Wait for results (bounded so deadlines/backoffs stay responsive).
            timeout = _POLL_SECONDS
            for worker in pool.workers:
                if worker.deadline is not None:
                    timeout = min(timeout, max(0.0, worker.deadline - now))
            if delayed:
                soonest = min(cells[i].not_before for i in delayed)
                timeout = min(timeout, max(0.0, soonest - now))
            conns = {w.conn: w for w in pool.workers}
            if not conns:
                time.sleep(min(timeout, 0.05) or 0.01)
            else:
                for conn in _wait_connections(list(conns), timeout):
                    worker = conns[conn]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        on_worker_dead(worker)
                        continue
                    on_message(worker, message)
            # Enforce per-cell deadlines on whoever is still running.
            now = time.monotonic()
            for worker in list(pool.workers):
                if worker.cell is not None and worker.deadline is not None \
                        and now >= worker.deadline:
                    on_worker_timeout(worker)
            # Stream the completed prefix in exact grid order.
            while next_pos < len(order) and order[next_pos] in buffered:
                index = order[next_pos]
                next_pos += 1
                yield index, buffered.pop(index)
        pool.shutdown()
        while next_pos < len(order):  # drain any buffered tail
            index = order[next_pos]
            next_pos += 1
            yield index, buffered.pop(index)
    finally:
        pool.terminate()
