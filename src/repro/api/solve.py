"""``solve(problem, run)`` — the one front door — and the saved-spec runner.

Both entry points execute through the existing engine machinery
(:class:`~repro.engine.batch.BatchRunner`), so a one-off ``solve()``, a
programmatic sweep, and a replayed ``repro run --spec run.json`` produce
byte-identical records for the same cells (modulo wall-clock fields).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping

from repro.congest.graph import Graph
from repro.api.registry import get_algorithm
from repro.api.report import RunReport
from repro.api.spec import SCHEMA_VERSION, JobSpec, Problem, Run, SpecError, spec_hash
from repro.engine.batch import BatchResult, BatchRunner, GraphSpec
from repro.engine.sink import ResultSink

__all__ = ["solve", "run_spec"]

#: Family label used for problems holding a live (non-generator) Graph.
ADHOC_FAMILY = "<adhoc>"


def _resolve_problem(problem: Problem, run: Run) -> tuple[GraphSpec, Graph | None]:
    """The cell to run: its GraphSpec (seed-overridden) and a live graph, if any."""
    graph = problem.graph
    if isinstance(graph, GraphSpec):
        if run.seed is not None and run.seed != graph.seed:
            graph = replace(graph, seed=run.seed)
        return graph, None
    seed = 0 if run.seed is None else run.seed
    return GraphSpec(ADHOC_FAMILY, graph.n, graph.max_degree, seed=seed), graph


def solve(problem: Problem, run: Run) -> RunReport:
    """Run one registered algorithm on one problem; return a :class:`RunReport`.

    The algorithm name and params are validated against the registry schema
    up front (:class:`~repro.api.registry.UnknownParameterError` /
    :class:`~repro.api.registry.ParameterValueError` on mismatch).  The cell
    executes exactly like a ``BatchRunner`` cell — same input-coloring
    convention, same record shape — with the array artifacts (colors, parts,
    ruling set) kept and the registry's guarantee string attached.  With
    ``run.parity_check=True`` the cell is re-run on the reference backend and
    must match exactly.
    """
    algorithm = get_algorithm(run.algorithm)
    params = algorithm.validate_params(run.params)
    cell, live_graph = _resolve_problem(problem, run)

    runner = BatchRunner(backend=run.backend, parity_check=run.parity_check)
    if live_graph is not None:
        runner.preload_graph(cell, live_graph)
    record, raw_artifacts = runner.run_cell_with_artifacts(run.algorithm, cell, params=params)
    artifacts = {key.lstrip("_"): value for key, value in raw_artifacts.items()}

    provenance: dict[str, Any] = {
        "package_version": _package_version(),
        "schema": SCHEMA_VERSION,
        "engine": runner.engine.name,
        "backend_tier": runner.engine.active_tier(),
    }
    if problem.is_serializable:
        document = JobSpec.single(problem, run).to_dict()
        provenance["spec"] = document
        provenance["spec_hash"] = spec_hash(document)

    return RunReport(
        algorithm=run.algorithm,
        params=params,
        backend=runner.engine.name,
        record=record,
        artifacts=artifacts,
        guarantee=algorithm.guarantee,
        output=algorithm.output,
        verified=True,  # registered runners assert their hard invariants
        parity_checked=run.parity_check,
        provenance=provenance,
    )


def run_spec(
    job: JobSpec | Mapping[str, Any],
    sink: ResultSink | None = None,
    backend: str | None = None,
    workers: int | None = None,
    parity_check: bool | None = None,
    retry=None,
    progress=None,
    shard: tuple[int, int] | None = None,
) -> tuple[BatchResult, str]:
    """Execute a saved sweep spec; return its records and the spec's hash.

    ``job`` may be a :class:`~repro.api.spec.JobSpec` or its dict form (the
    content of a ``run.json``).  The hash is computed over the document *as
    given* — the ``backend`` / ``workers`` / ``parity_check`` / ``retry`` /
    ``shard`` execution overrides (the CLI's flags) never change it — and is
    embedded in the sink's manifest, so the result file pins the exact spec
    it came from.  ``progress`` is forwarded to
    :meth:`~repro.engine.batch.BatchRunner.run` (per-cell completion
    callbacks — what the job server streams over SSE); the spec's declared
    :class:`~repro.engine.retry.RetryPolicy` (``run.retry``) governs failing
    cells unless ``retry`` overrides it.

    ``shard=(i, k)`` — or a spec-declared ``run.shard`` — executes only the
    deterministic shard ``i`` of ``k`` of the cell grid; the override keeps
    the hash of the document as given, so the ``k`` shard runs of one
    spec all pin the *same* spec hash in their manifests (what ``repro
    merge`` validates before joining them).
    """
    if isinstance(job, Mapping):
        job = JobSpec.from_dict(job)
    elif not isinstance(job, JobSpec):
        raise SpecError(f"run_spec expects a JobSpec or its dict form, got {type(job).__name__}")
    digest = spec_hash(job)

    run = job.run
    if backend is not None:
        run = replace(run, backend=backend)
    if workers is not None:
        run = replace(run, workers=workers)
    if parity_check is not None:
        run = replace(run, parity_check=parity_check)
    if retry is not None:
        run = replace(run, retry=retry)
    if shard is not None:
        run = replace(run, shard=shard)
    job = replace(job, run=run)

    algorithm = get_algorithm(run.algorithm)
    for grid_entry in job.effective_grid() or [{}]:
        algorithm.validate_params(grid_entry)

    runner = BatchRunner(
        backend=run.backend, parity_check=run.parity_check, workers=run.workers,
        retry=run.retry,
    )
    result = runner.run(
        run.algorithm, job.cells(), params_grid=job.effective_grid(),
        sink=sink, spec_hash=digest, progress=progress, shard=run.shard,
    )
    return result, digest


def _package_version() -> str:
    from repro import __version__

    return __version__
