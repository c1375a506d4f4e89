"""Batched experiment execution: sweep (graph x seed x params) grids through a backend.

:class:`BatchRunner` is the experiment driver of the engine layer.  It

* **shares precomputed structures** — graphs (CSR adjacency) and their
  ``Delta^4`` input colorings are built once per :class:`GraphSpec` and reused
  across every parameter combination and backend that touches the cell;
* **runs named or custom tasks** — a task maps one workload to a flat record
  of measurements (``{"rounds": 7, "colors used": 33, ...}``); named tasks
  resolve through the algorithm registry (:mod:`repro.api.registry`), which
  covers every algorithm family of the paper and validates parameters against
  each algorithm's typed schema;
* **parity-checks against the reference backend** — with
  ``parity_check=True`` every cell is re-run on the reference engine and all
  scalar measurements plus array artifacts (colors, parts, ruling sets) must
  match exactly, so a fast array sweep is continuously validated against the
  model-faithful simulator;
* **returns a tidy records table** — one dict per (graph, seed, params) cell,
  convertible to the :class:`repro.analysis.tables.Table` the experiment
  harness renders;
* **shards across processes** — ``workers=N`` fans the deterministic cell
  order out over a :mod:`multiprocessing` pool (see
  :mod:`repro.engine.parallel`) with per-worker workload caches and
  shard-local parity checking; records come back in the serial order, so a
  parallel sweep is byte-identical to a serial one modulo wall-clock fields;
* **streams to durable sinks** — pass ``sink=`` (see
  :mod:`repro.engine.sink`) to append each record to a JSONL/CSV file as it
  completes; a sink opened with ``resume=True`` skips already-completed
  cells, making interrupted sweeps restartable.

The CLI (``python -m repro batch``), the E1-E10 experiment suite, and the
benchmark harness all drive their sweeps through this class.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.congest.graph import Graph
from repro.engine.base import Engine, EngineError
from repro.engine.registry import get_engine
from repro.engine.retry import (
    RetryPolicy,
    call_with_deadline,
    cell_error_record,
    classify_error,
    describe_error,
)
from repro.engine.sink import (
    ResultSink,
    RunManifest,
    cell_id,
    cell_key,
    grid_hash,
    machine_cores,
    shard_of,
    task_name,
)
from repro.testing import faults

__all__ = ["GraphSpec", "Workload", "BatchRunner", "BatchResult", "ParityError"]


class ParityError(AssertionError):
    """A backend produced different results than the parity (reference) backend."""


@dataclass(frozen=True)
class GraphSpec:
    """One cell of a sweep grid: a graph family instantiation plus its seed.

    Two kinds of cell share this shape:

    * a *generator* cell — ``family`` names one of
      :data:`repro.congest.generators.FAMILIES` and ``path`` is ``None``;
    * a *file* cell — ``family == "file"`` and ``path`` names an on-disk edge
      list (or cached artifact) ingested by :mod:`repro.corpus`; ``n`` and
      ``delta`` record the ingested graph's actual values and are verified
      against the file at build time, so a spec silently drifting from its
      file fails loudly.

    ``path`` defaults to ``None`` and is omitted from every serialized form
    when absent, so the identity (cell keys, grid hashes, spec hashes) of all
    pre-existing generator specs is unchanged.
    """

    family: str
    n: int
    delta: int
    seed: int = 0
    path: str | None = None

    def label(self) -> str:
        base = f"{self.family}(n={self.n}, Delta={self.delta}, seed={self.seed})"
        if self.path is not None:
            import pathlib

            return f"{self.family}({pathlib.Path(self.path).name}, n={self.n}, Delta={self.delta})"
        return base


@dataclass(frozen=True)
class Workload:
    """A materialised cell: the graph and its standing ``Delta^4`` input coloring.

    The input coloring — the assumption of Corollary 1.2 ("on any
    Delta^4-input colored graph"): distinct colors whenever the ``Delta^4``
    space allows it, otherwise a greedy coloring spread into the space — is
    built *lazily* on first access, so algorithms that start from unique IDs
    instead (registered with ``requires_input_coloring=False``, e.g.
    ``linial`` / ``delta_plus_one``) never pay for its construction.
    """

    spec: GraphSpec
    graph: Graph

    @cached_property
    def _delta4_input(self) -> tuple[np.ndarray, int]:
        from repro.congest.ids import delta4_input_coloring

        return delta4_input_coloring(self.graph, seed=self.spec.seed)

    @property
    def input_colors(self) -> np.ndarray:
        return self._delta4_input[0]

    @property
    def m(self) -> int:
        return int(self._delta4_input[1])

    @property
    def eff_delta(self) -> int:
        return max(1, self.graph.max_degree)


# --------------------------------------------------------------------------- #
# Tasks
#
# A task is ``task(workload, engine, **params) -> Mapping[str, Any]``.  Keys
# starting with "_" are artifacts (arrays used for parity checking, stripped
# from the tidy record); everything else must be a scalar measurement.
#
# Named tasks live in the algorithm registry (:mod:`repro.api.registry`):
# every ``repro.core`` module self-registers its algorithms, so the runner
# needs no hardcoded task table.  The registry import is local (inside the
# resolver) so that ``repro.engine`` never imports ``repro.core`` at module
# load time (``repro.core`` imports the engine registry).
# --------------------------------------------------------------------------- #


# --------------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------------- #


@dataclass
class BatchResult:
    """Tidy records produced by a sweep (one dict per cell).

    ``records`` holds one dict per cell in grid order; a cell that exhausted
    its retry budget contributes a *CellError record* (its ``"error"`` key
    carries the structured failure — see :attr:`failures`) so partial results
    keep their grid shape.  ``events`` is the fault-tolerance provenance
    stream: one entry per retry / jit->array downgrade / recorded failure.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    backend: str = "array"
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def failures(self) -> list[dict[str, Any]]:
        """The CellError records of the sweep (cells that exhausted retries)."""
        return [r for r in self.records if "error" in r]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, key: str) -> list[Any]:
        return [r.get(key) for r in self.records]

    def columns(self, exclude: Sequence[str] = ()) -> list[str]:
        """The union of record keys in first-seen order.

        A heterogeneous params grid (e.g. ``[{"r": 2}, {"r": 2, "baseline":
        True}]``) yields records with different key sets; taking the union —
        not the first record's keys — keeps every measurement visible.
        """
        seen: dict[str, None] = {}
        for record in self.records:
            seen.update(dict.fromkeys(record))
        return [key for key in seen if key not in exclude]

    @property
    def total_seconds(self) -> float:
        return float(sum(r.get("seconds", 0.0) for r in self.records))

    def to_table(self, title: str, columns: Sequence[str] | None = None):
        """Render the records as a :class:`repro.analysis.tables.Table`."""
        from repro.analysis.tables import Table

        if columns is None:
            columns = self.columns()
        table = Table(title, list(columns))
        for record in self.records:
            table.add_row(*(record.get(c, "") for c in columns))
        return table


# --------------------------------------------------------------------------- #
# The runner
# --------------------------------------------------------------------------- #


class BatchRunner:
    """Run experiment tasks over grids of graphs with a pluggable backend.

    Parameters
    ----------
    backend:
        The engine (or backend name) every cell runs on; default ``"array"``,
        the fast path.
    parity_check:
        Re-run every cell on the reference backend and require identical
        scalar measurements and array artifacts (colors / parts / ruling
        sets).  This is the built-in reference-parity check of the engine
        layer.
    workers:
        Number of worker processes :meth:`run` shards its cells across.  The
        default ``1`` executes serially in-process; ``N > 1`` requires
        ``backend`` to be a registered *name* (workers rebuild their engines
        from the registry) and named or importable tasks.  Records are
        identical either way.
    worker_init:
        Importable callable executed first in every worker process (e.g. to
        register a third-party backend); ignored when ``workers == 1``.
    start_method:
        ``multiprocessing`` start method for the pool; default ``"fork"``
        where available, else ``"spawn"``.
    retry:
        The :class:`~repro.engine.retry.RetryPolicy` governing failing cells
        in :meth:`run` (attempts, per-cell timeout, backoff, record-vs-raise
        on exhaustion).  The default policy keeps today's fail-fast behavior
        for plain exceptions while still containing worker crashes and
        downgrading failing jit cells to ``"array"``.

    Graphs and input colorings are cached per :class:`GraphSpec`, so a sweep
    over many parameter settings of the same graphs pays the generation and
    CSR construction cost exactly once — including across the parity re-runs.
    With ``workers > 1`` each worker process keeps its own cache.
    """

    def __init__(
        self,
        backend: str | Engine = "array",
        parity_check: bool = False,
        workers: int = 1,
        worker_init: Callable[[], None] | None = None,
        start_method: str | None = None,
        retry: RetryPolicy | None = None,
    ):
        self.engine = get_engine(backend)
        self.parity_check = bool(parity_check)
        self.parity_engine = get_engine("reference")
        self.workers = int(workers)
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {workers}")
        self.worker_init = worker_init
        self.start_method = start_method
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise EngineError(f"retry must be a RetryPolicy or None, got {retry!r}")
        self.retry = retry or RetryPolicy()
        self._downgrade_engine: Engine | None = None
        # Pay one-time backend setup (JIT compilation) before any cell is
        # timed; a no-op for the reference/array engines.
        self.engine.warmup()
        # Registry names survive the trip to a worker process; live Engine
        # instances do not, so remember which kind we were given.
        self._backend_name = backend if isinstance(backend, str) else None
        self._graphs: dict[GraphSpec, Graph] = {}
        self._workloads: dict[GraphSpec, Workload] = {}

    # ------------------------------------------------------------------ #
    # Grid and workload construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def grid(
        families: str | Iterable[str],
        ns: int | Iterable[int],
        deltas: int | Iterable[int],
        seeds: int | Iterable[int] = (0,),
    ) -> list[GraphSpec]:
        """Cross product of the given axes as a list of :class:`GraphSpec`."""

        def tup(x):
            return (x,) if isinstance(x, (int, str)) else tuple(x)

        return [
            GraphSpec(family=f, n=n, delta=d, seed=s)
            for f, n, d, s in itertools.product(tup(families), tup(ns), tup(deltas), tup(seeds))
        ]

    def _build_graph(self, spec: GraphSpec) -> Graph:
        """The cell's graph, from the cache when present but *without* caching.

        The parallel path publishes graphs to shared memory and must not pin
        private parent-process copies alive for the whole sweep — the shared
        segment (closed when the sweep ends) is the only copy that should
        exist.
        """
        if spec in self._graphs:
            return self._graphs[spec]
        if spec.family == "file":
            from repro.corpus import load_file_graph

            return load_file_graph(spec)
        from repro.congest import generators

        return generators.by_name(spec.family, spec.n, spec.delta, seed=spec.seed)

    def graph(self, spec: GraphSpec) -> Graph:
        """The (cached) graph of a cell."""
        if spec not in self._graphs:
            self._graphs[spec] = self._build_graph(spec)
        return self._graphs[spec]

    def preload_graph(self, spec: GraphSpec, graph: Graph) -> None:
        """Seed the graph cache: ``spec``'s cell runs on ``graph`` as given.

        This is how live (non-generator) graphs enter the runner — the solver
        API uses it for ``Problem(graph=<Graph>)``, and the parallel workers
        use it to attach the parent's shared-memory graphs.  The derived
        ``Delta^4`` workload is still built from the cell's seed, exactly as
        for a generated graph.
        """
        self._graphs[spec] = graph
        self._workloads.pop(spec, None)

    def workload(self, spec: GraphSpec) -> Workload:
        """The (cached) graph plus its standing ``Delta^4`` input coloring
        (built lazily — see :class:`Workload`)."""
        if spec not in self._workloads:
            self._workloads[spec] = Workload(spec=spec, graph=self.graph(spec))
        return self._workloads[spec]

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @staticmethod
    def _resolve_task(task: str | Callable[..., Mapping[str, Any]]):
        if callable(task):
            return task
        from repro.api.registry import get_algorithm

        return get_algorithm(task).runner  # raises UnknownAlgorithmError (a KeyError)

    @staticmethod
    def _validate_params(
        task: str | Callable[..., Mapping[str, Any]], params: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Registry-validate ``params`` for named tasks; custom callables pass through.

        Unknown keys raise :class:`repro.api.registry.UnknownParameterError`
        naming the algorithm and its accepted keys; ill-typed values raise
        :class:`repro.api.registry.ParameterValueError`.  Values are returned
        exactly as given (validation never coerces), so cell keys and records
        are unaffected.
        """
        params = dict(params or {})
        if isinstance(task, str):
            from repro.api.registry import get_algorithm

            get_algorithm(task).validate_params(params)
        return params

    @staticmethod
    def _split_artifacts(raw: Mapping[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
        record = {k: v for k, v in raw.items() if not k.startswith("_")}
        artifacts = {k: v for k, v in raw.items() if k.startswith("_")}
        return record, artifacts

    def _check_parity(self, task_fn, workload: Workload, params: Mapping[str, Any],
                      record: Mapping[str, Any], artifacts: Mapping[str, Any],
                      engine: Engine | None = None) -> None:
        engine = engine or self.engine
        ref_raw = task_fn(workload, self.parity_engine, **params)
        ref_record, ref_artifacts = self._split_artifacts(ref_raw)
        cell = f"{workload.spec.label()} params={dict(params)}"
        for key, value in ref_record.items():
            if record.get(key) != value:
                raise ParityError(
                    f"parity mismatch on {cell}: field {key!r} is {record.get(key)!r} on "
                    f"backend {engine.name!r} but {value!r} on {self.parity_engine.name!r}"
                )
        for key, value in ref_artifacts.items():
            if key not in artifacts or not np.array_equal(artifacts[key], value):
                raise ParityError(
                    f"parity mismatch on {cell}: artifact {key!r} differs between "
                    f"backends {engine.name!r} and {self.parity_engine.name!r}"
                )

    def run_cell(
        self,
        task: str | Callable[..., Mapping[str, Any]],
        spec: GraphSpec,
        params: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Run one (graph, seed, params) cell and return its tidy record."""
        record, _ = self.run_cell_with_artifacts(task, spec, params=params)
        return record

    def run_cell_with_artifacts(
        self,
        task: str | Callable[..., Mapping[str, Any]],
        spec: GraphSpec,
        params: Mapping[str, Any] | None = None,
        _engine: Engine | None = None,
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Like :meth:`run_cell`, but also return the artifacts (colors, parts, ...).

        The solver API (:func:`repro.api.solve.solve`) uses this to build a
        :class:`~repro.api.report.RunReport` carrying the actual coloring.
        ``_engine`` overrides the runner's engine for this one call — the
        retry ladder's jit->array downgrade path; the record's ``"backend"``
        field reports the engine that actually produced it.
        """
        task_fn = self._resolve_task(task)
        params = self._validate_params(task, params)
        engine = _engine or self.engine
        workload = self.workload(spec)
        start = time.perf_counter()
        raw = task_fn(workload, engine, **params)
        elapsed = time.perf_counter() - start
        record, artifacts = self._split_artifacts(raw)
        if self.parity_check:
            self._check_parity(task_fn, workload, params, record, artifacts, engine=engine)
        out: dict[str, Any] = {
            "family": spec.family,
            "n": workload.graph.n,
            "Delta": workload.eff_delta,
            "seed": spec.seed,
            **params,
            **record,
            "backend": engine.name,
            "seconds": elapsed,
        }
        if getattr(spec, "path", None) is not None:
            out["path"] = str(spec.path)
        return out, artifacts

    # ------------------------------------------------------------------ #
    # Fault-tolerant execution (the retry ladder)
    # ------------------------------------------------------------------ #

    def _attempt_cell(
        self,
        task: str | Callable[..., Mapping[str, Any]],
        spec: GraphSpec,
        params: Mapping[str, Any] | None = None,
        attempt: int = 1,
        engine: Engine | None = None,
    ) -> dict[str, Any]:
        """One attempt of one cell (the unit the retry ladder retries).

        This is also where the ``"cell"`` fault-injection site fires — before
        any work, with the cell's identity and attempt number as match
        context — and it is the method pool workers invoke, so an injected
        kill/hang lands inside the worker process exactly like a real one.
        """
        faults.fire(
            "cell",
            family=spec.family, n=spec.n, delta=spec.delta, seed=spec.seed,
            attempt=attempt, backend=(engine or self.engine).name,
        )
        record, _ = self.run_cell_with_artifacts(task, spec, params=params, _engine=engine)
        return record

    def _array_engine(self) -> Engine:
        """The lazily-built downgrade target for failing jit cells."""
        if self._downgrade_engine is None:
            self._downgrade_engine = get_engine("array")
            self._downgrade_engine.warmup()
        return self._downgrade_engine

    def _run_cell_guarded(
        self,
        task: str | Callable[..., Mapping[str, Any]],
        spec: GraphSpec,
        params: Mapping[str, Any],
        key: str,
        on_event: Callable[[dict[str, Any]], None],
    ) -> dict[str, Any]:
        """Run one cell under :attr:`retry` (the serial arm of the ladder).

        Mirrors the parallel scheduler's failure handling exactly —
        :meth:`RetryPolicy.next_action` is the single shared state machine —
        except that deadlines are enforced by abandoning the hung thread
        (:func:`~repro.engine.retry.call_with_deadline`) rather than killing
        a worker process.
        """
        policy = self.retry
        backend = self._backend_name or self.engine.name
        attempt, downgraded = 1, False
        engine: Engine | None = None  # None = the runner's own engine
        while True:
            try:
                if policy.cell_timeout is not None:
                    return call_with_deadline(
                        lambda: self._attempt_cell(task, spec, params,
                                                   attempt=attempt, engine=engine),
                        policy.cell_timeout, key,
                    )
                return self._attempt_cell(task, spec, params, attempt=attempt, engine=engine)
            except BaseException as exc:  # noqa: BLE001 — classified; fatal kinds re-raise
                kind = classify_error(exc)
                action = policy.next_action(kind, attempt, backend=backend,
                                            downgraded=downgraded)
                tier = None
                try:
                    tier = (engine or self.engine).active_tier()
                except Exception:  # noqa: BLE001 — tier is provenance only
                    pass
                err = describe_error(exc, kind=kind, attempts=attempt, tier=tier)
                if action == "retry":
                    on_event({"event": "retry", "kind": kind,
                              "attempt": attempt, "error": err})
                    delay = policy.delay(key, attempt)
                    if delay > 0:
                        time.sleep(delay)
                    attempt += 1
                elif action == "downgrade":
                    on_event({"event": "degrade", "from": backend, "to": "array",
                              "kind": kind, "attempt": attempt, "error": err})
                    engine = self._array_engine()
                    downgraded = True
                    attempt += 1
                elif action == "record":
                    on_event({"event": "cell-error", "error": err})
                    return cell_error_record(
                        spec, params,
                        backend="array" if downgraded else backend, error=err,
                    )
                else:  # "raise" — fatal, or exhausted under on_error="raise"
                    raise

    def _jobs(
        self,
        task: str | Callable[..., Mapping[str, Any]],
        cells: Iterable[GraphSpec],
        params_grid: Iterable[Mapping[str, Any]] | None,
    ) -> list[tuple[int, str, GraphSpec, dict[str, Any]]]:
        """The deterministic job list: ``(index, cell key, spec, params)``.

        Materialises both axes up front so one-shot iterables (generators)
        behave identically to lists — ``params_grid`` is re-used per spec.
        """
        grids = [dict(p) for p in params_grid] if params_grid is not None else [{}]
        grids = [self._validate_params(task, p) for p in grids]
        jobs = []
        for spec in cells:
            for params in grids:
                jobs.append((len(jobs), cell_key(task, spec, params), spec, dict(params)))
        return jobs

    @staticmethod
    def _apply_shard(
        jobs: list, shard: tuple[int, int] | None,
    ) -> tuple[list, dict[str, Any] | None]:
        """Filter the deterministic job list down to one shard.

        Returns ``(shard jobs, shard descriptor)``.  Shard jobs keep their
        *global* grid indices, so a shard's records — and its sink line order
        — are exactly the corresponding slice of an unsharded run.  The
        descriptor (``index`` / ``of`` / ``total`` / ``cells`` mapping each
        cell id to its global grid position) goes into the sink manifest,
        where ``repro merge`` validates coverage and restores grid order.
        """
        if shard is None:
            return jobs, None
        try:
            index, of = int(shard[0]), int(shard[1])
        except (TypeError, ValueError, IndexError, KeyError):
            raise EngineError(
                f"shard must be an (index, of) pair, got {shard!r}"
            ) from None
        if of < 1 or not 0 <= index < of:
            raise EngineError(
                f"shard must satisfy 0 <= index < of (of >= 1), got {index}/{of}"
            )
        mine = [job for job in jobs if shard_of(job[1], of) == index]
        descriptor = {
            "index": index,
            "of": of,
            "total": len(jobs),
            "cells": {cell_id(key): position for position, key, _, _ in mine},
        }
        return mine, descriptor

    def _manifest_from_jobs(
        self, task: str | Callable[..., Mapping[str, Any]], jobs: list,
        spec_hash: str | None = None, all_jobs: list | None = None,
        shard: dict[str, Any] | None = None,
    ) -> RunManifest:
        from repro import __version__

        # grid_hash always pins the FULL grid (identical on every shard and
        # on an unsharded run); `cells` counts what this file will contain.
        keys = all_jobs if all_jobs is not None else jobs
        return RunManifest(
            task=task_name(task),
            backend=self.engine.name,
            grid_hash=grid_hash(key for _, key, _, _ in keys),
            cells=len(jobs),
            parity_check=self.parity_check,
            version=__version__,
            spec_hash=spec_hash,
            backend_tier=self.engine.active_tier(),
            workers=self.workers,
            cores=machine_cores(),
            shard=shard,
        )

    def manifest(
        self,
        task: str | Callable[..., Mapping[str, Any]],
        cells: Iterable[GraphSpec],
        params_grid: Iterable[Mapping[str, Any]] | None = None,
        spec_hash: str | None = None,
        shard: tuple[int, int] | None = None,
    ) -> RunManifest:
        """The :class:`RunManifest` describing a sweep (what sinks record/check)."""
        all_jobs = self._jobs(task, cells, params_grid)
        jobs, descriptor = self._apply_shard(all_jobs, shard)
        return self._manifest_from_jobs(task, jobs, spec_hash=spec_hash,
                                        all_jobs=all_jobs, shard=descriptor)

    def run(
        self,
        task: str | Callable[..., Mapping[str, Any]],
        cells: Iterable[GraphSpec],
        params_grid: Iterable[Mapping[str, Any]] | None = None,
        sink: ResultSink | None = None,
        spec_hash: str | None = None,
        progress: Callable[[int, int, str | None, Mapping[str, Any] | None], None] | None = None,
        shard: tuple[int, int] | None = None,
    ) -> BatchResult:
        """Sweep ``task`` over every cell (and every params dict, if given).

        Cells are ordered deterministically (grid order), sharded across
        :attr:`workers` processes when ``workers > 1``, streamed to ``sink``
        as they complete, and returned as a :class:`BatchResult` in grid
        order.  A sink opened with ``resume=True`` pre-loads the records of
        already-completed cells; those cells are not re-executed.  When the
        sweep was described by a saved spec (``repro run --spec``),
        ``spec_hash`` is embedded in the sink's manifest so the result file
        pins the exact spec that produced it.

        ``progress(done, total, cell_id, record)`` — when given — is called
        once up front with the resumed-cell count (``cell_id=None``) and then
        after every completed cell (after the sink write, so a reported cell
        is always durable).  This is the hook the job server's SSE stream and
        live status counters hang off.

        Failing cells follow :attr:`retry` (see
        :mod:`repro.engine.retry`): transient failures are retried with
        deterministic backoff, worker crashes re-dispatch only the lost
        cells, failing jit cells get one attempt on ``"array"`` (the
        downgrade is recorded in the event stream and the record's backend
        field), and exhausted cells yield CellError records in their grid
        slot instead of aborting the sweep.  A resumed sink re-runs cells
        whose stored record is a CellError — failure is never "completed".

        ``shard=(i, k)`` restricts the sweep to shard ``i`` of ``k``: the
        deterministic, worker-count-independent partition of the full grid
        by :func:`~repro.engine.sink.shard_of`.  A shard's records are
        byte-identical (modulo wall-clock fields) to the corresponding slice
        of an unsharded run, its sink manifest carries the shard descriptor,
        and ``repro merge`` joins the ``k`` shard files back into one
        canonical run.
        """
        self._resolve_task(task)  # fail fast on unknown task names
        all_jobs = self._jobs(task, cells, params_grid)
        jobs, shard_descriptor = self._apply_shard(all_jobs, shard)
        ids = {index: cell_id(key) for index, key, _, _ in jobs}
        records: dict[int, dict[str, Any]] = {}
        if sink is not None:
            sink.start(self._manifest_from_jobs(task, jobs, spec_hash=spec_hash,
                                                all_jobs=all_jobs,
                                                shard=shard_descriptor))
            for index, cid in ids.items():
                done = sink.completed.get(cid)
                if done is not None and "error" not in done:
                    records[index] = done
        pending = [job for job in jobs if job[0] not in records]
        if progress is not None:
            progress(len(records), len(jobs), None, None)

        events: list[dict[str, Any]] = []

        def on_event(index: int, event: dict[str, Any]) -> None:
            entry = {"cell": ids[index], **event}
            events.append(entry)
            if sink is not None:
                sink.note(entry)

        handles: dict[GraphSpec, Any] = {}
        try:
            if self.workers > 1 and len(pending) > 1:
                if self._backend_name is None:
                    raise EngineError(
                        "parallel execution requires a backend given by one of the registered names "
                        "(workers rebuild their engines from the registry); pass e.g. "
                        "backend='array' or register_engine() your engine and use its name"
                    )
                from repro.engine.parallel import run_cells_parallel

                # The zero-copy graph plane: build each pending cell's graph
                # ONCE in the parent, publish its CSR arrays to shared memory,
                # and let every worker attach read-only views — instead of W
                # workers regenerating W private copies.  Handles are closed
                # (and the segments unlinked) as soon as the pool is drained,
                # even on worker exceptions.  Deliberate trade-off: the parent
                # generates serially before the pool starts and the segments
                # live for the whole sweep, buying zero redundant generation
                # and worker-count-independent memory; per-worker lazy
                # regeneration would overlap generation with compute but redo
                # it up to W (x2 with parity) times and multiply peak memory.
                for spec in dict.fromkeys(spec for _, _, spec, _ in pending):
                    handles[spec] = self._build_graph(spec).to_shared()
                results = run_cells_parallel(
                    [(index, task, spec, params) for index, _, spec, params in pending],
                    workers=self.workers,
                    backend=self._backend_name,
                    parity_check=self.parity_check,
                    worker_init=self.worker_init,
                    start_method=self.start_method,
                    shared_graphs=handles,
                    retry=self.retry,
                    on_event=on_event,
                )
            else:
                results = (
                    (index,
                     self._run_cell_guarded(task, spec, params, key,
                                            lambda e, i=index: on_event(i, e)))
                    for index, key, spec, params in pending
                )

            for index, record in results:
                records[index] = record
                if sink is not None:
                    if "error" in record:
                        sink.write_failure(ids[index], record)
                    else:
                        sink.write(ids[index], record)
                if progress is not None:
                    progress(len(records), len(jobs), ids[index], record)
        finally:
            for handle in handles.values():
                handle.close()
        return BatchResult(
            records=[records[index] for index, _, _, _ in jobs],
            backend=self.engine.name,
            events=events,
        )
