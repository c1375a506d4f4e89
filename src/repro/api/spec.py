"""Declarative request objects: ``Problem`` + ``Run`` (+ ``JobSpec`` sweeps).

One spec format drives everything: :func:`repro.api.solve.solve`, the
:class:`~repro.engine.batch.BatchRunner`, the sinks' manifests, and
``repro run --spec run.json``.  All objects round-trip losslessly through
``to_dict`` / ``from_dict`` and JSON, and every serialized document carries a
``schema`` version so saved specs stay readable as the format evolves.

* :class:`Problem` — *what* to solve: a graph (a :class:`~repro.engine.batch.GraphSpec`
  naming a generator cell, or a live :class:`~repro.congest.graph.Graph`) plus
  the input-coloring convention (``"delta4"``, the standing assumption of
  Corollary 1.2).
* :class:`Run` — *how* to solve it: the registered algorithm name, its
  params, the backend, worker count, an optional seed override, and whether
  to parity-check against the reference backend.
* :class:`JobSpec` — a whole sweep: many problems x one run (optionally with
  a params grid).  ``repro run --spec`` executes exactly this document, and
  :func:`spec_hash` pins it into the result sink's manifest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from repro.congest.graph import Graph
from repro.engine.batch import GraphSpec
from repro.engine.retry import RetryPolicy

__all__ = [
    "SCHEMA_VERSION",
    "JOB_STATES",
    "SpecError",
    "Problem",
    "Run",
    "JobSpec",
    "JobStatus",
    "canonical_json",
    "graph_fingerprint",
    "spec_hash",
]

#: Version of the serialized spec format (bump on incompatible changes).
SCHEMA_VERSION = 1

#: Input-coloring conventions a Problem can declare.  ``"delta4"`` is the
#: standing assumption of Corollary 1.2: the ``Delta^4`` input coloring built
#: by :func:`repro.congest.ids.delta4_input_coloring` from the cell's seed.
INPUT_COLORINGS = ("delta4",)


class SpecError(ValueError):
    """A malformed or non-serializable spec document."""


def _check_schema(data: Mapping[str, Any], kind: str) -> None:
    schema = data.get("schema", SCHEMA_VERSION)
    if not isinstance(schema, int) or schema < 1 or schema > SCHEMA_VERSION:
        raise SpecError(
            f"cannot read {kind} spec with schema {schema!r}; "
            f"this package reads schema <= {SCHEMA_VERSION}"
        )


def _reject_unknown(data: Mapping[str, Any], allowed: Sequence[str], kind: str) -> None:
    unknown = set(data) - set(allowed) - {"schema"}
    if unknown:
        raise SpecError(f"unknown {kind} spec field(s) {sorted(unknown)}; allowed: {list(allowed)}")


def _graph_to_dict(graph: GraphSpec) -> dict[str, Any]:
    data = {"family": graph.family, "n": graph.n, "delta": graph.delta, "seed": graph.seed}
    if graph.path is not None:
        data["path"] = str(graph.path)
    return data


def _graph_from_dict(data: Mapping[str, Any]) -> GraphSpec:
    _reject_unknown(data, ("family", "n", "delta", "seed", "path"), "graph")
    path = data.get("path")
    family = str(data.get("family", ""))
    if path is not None and family != "file":
        raise SpecError(
            f"graph spec field 'path' is only valid for family 'file', got "
            f"family {family!r}"
        )
    if family == "file" and path is None:
        raise SpecError("graph spec with family 'file' needs a 'path' field")
    try:
        return GraphSpec(
            family=str(data["family"]), n=int(data["n"]), delta=int(data["delta"]),
            seed=int(data.get("seed", 0)),
            path=None if path is None else str(path),
        )
    except KeyError as exc:
        raise SpecError(f"graph spec is missing field {exc.args[0]!r}: {dict(data)!r}") from None


@dataclass(frozen=True)
class Problem:
    """What to solve: a graph plus the input-coloring convention."""

    graph: GraphSpec | Graph
    input_coloring: str = "delta4"

    def __post_init__(self):
        if self.input_coloring not in INPUT_COLORINGS:
            raise SpecError(
                f"unknown input_coloring {self.input_coloring!r}; known: {list(INPUT_COLORINGS)}"
            )
        if not isinstance(self.graph, (GraphSpec, Graph)):
            raise SpecError(
                f"Problem.graph must be a GraphSpec or a Graph, got {type(self.graph).__name__}"
            )

    @property
    def is_serializable(self) -> bool:
        """Only generator-described graphs round-trip (a live Graph does not)."""
        return isinstance(self.graph, GraphSpec)

    def canonical_dict(self) -> dict[str, Any]:
        """The dict :func:`spec_hash` hashes — defined for *every* Problem.

        A GraphSpec-described problem hashes its ``to_dict`` form.  A problem
        holding a live :class:`~repro.congest.graph.Graph` cannot round-trip
        through JSON (``to_dict`` raises), but it still has a canonical
        identity: the content of its frozen CSR triplet.  Hashing that —
        rather than failing, or hashing unstable object state like ``id()`` —
        makes dedupe over live-graph submissions well defined: two
        structurally identical graphs produce the same hash, two different
        graphs never collide by construction.

        A *file-backed* problem (``GraphSpec(family="file", path=...)``)
        canonicalizes by **content**, not location: the ``path`` field is
        replaced by the SHA-256 digest of the file's bytes (the same key the
        ingestion cache uses).  Submitting one corpus graph from two paths —
        two checkouts, a moved corpus directory, a server-side copy — hashes
        identically, and an edited file is a different document.
        """
        if self.is_serializable:
            data = self.to_dict()
            graph = self.graph
            if isinstance(graph, GraphSpec) and graph.family == "file":
                from repro.corpus import cache

                try:
                    digest = cache.file_digest(graph.path)
                except OSError as exc:
                    raise SpecError(
                        f"cannot hash file-backed graph spec: {exc}"
                    ) from None
                entry = dict(data["graph"])
                del entry["path"]
                entry["digest"] = digest
                data["graph"] = entry
            return data
        return {
            "schema": SCHEMA_VERSION,
            "graph": {
                "live": True,
                "n": self.graph.n,
                "delta": self.graph.max_degree,
                "csr_sha256": graph_fingerprint(self.graph),
            },
            "input_coloring": self.input_coloring,
        }

    def to_dict(self) -> dict[str, Any]:
        if not self.is_serializable:
            raise SpecError(
                "a Problem holding a live Graph is not serializable; describe the "
                "graph as a GraphSpec(family, n, delta, seed) to save it"
            )
        return {
            "schema": SCHEMA_VERSION,
            "graph": _graph_to_dict(self.graph),
            "input_coloring": self.input_coloring,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Problem":
        _check_schema(data, "problem")
        _reject_unknown(data, ("graph", "input_coloring"), "problem")
        if "graph" not in data:
            raise SpecError(f"problem spec is missing 'graph': {dict(data)!r}")
        return cls(
            graph=_graph_from_dict(data["graph"]),
            input_coloring=str(data.get("input_coloring", "delta4")),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Problem":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class Run:
    """How to solve it: algorithm, params, backend, workers, seed, parity, retry.

    ``retry`` is the :class:`~repro.engine.retry.RetryPolicy` governing
    failing cells (attempts, per-cell timeout, backoff, record-vs-raise).
    It is part of the spec — a non-default policy serializes under the
    ``"retry"`` key and is hashed into the spec hash; the default policy is
    *omitted* from the serialized form, so every pre-existing spec document
    and spec hash is unchanged.

    ``shard`` — an ``(index, of)`` pair — restricts execution to one
    deterministic shard of the sweep's cell grid (see
    :func:`repro.engine.sink.shard_of`).  Like ``retry`` it follows the
    omit-by-default rule: ``None`` (run everything, the default) never
    appears in the serialized form, so the hash of every pre-existing spec
    is unchanged; a sharded spec serializes ``"shard": [i, k]`` and hashes
    differently — shard ``0/2`` of a sweep *is* a different document than
    the whole sweep.
    """

    algorithm: str
    params: Mapping[str, Any] = field(default_factory=dict)
    backend: str = "array"
    workers: int = 1
    seed: int | None = None
    parity_check: bool = False
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    shard: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        if not self.algorithm or not isinstance(self.algorithm, str):
            raise SpecError(f"Run.algorithm must be a non-empty string, got {self.algorithm!r}")
        if not self.backend or not isinstance(self.backend, str):
            raise SpecError(f"Run.backend must be a non-empty string, got {self.backend!r}")
        from repro.engine.registry import ensure_known_backend

        ensure_known_backend(self.backend, context="Run.backend")
        if int(self.workers) < 1:
            raise SpecError(f"Run.workers must be >= 1, got {self.workers!r}")
        if not isinstance(self.retry, RetryPolicy):
            raise SpecError(
                f"Run.retry must be a RetryPolicy, got {type(self.retry).__name__}"
            )
        if self.shard is not None:
            try:
                pair = (int(self.shard[0]), int(self.shard[1]))
            except (TypeError, ValueError, IndexError, KeyError):
                raise SpecError(
                    f"Run.shard must be an (index, of) pair, got {self.shard!r}"
                ) from None
            if pair[1] < 1 or not 0 <= pair[0] < pair[1]:
                raise SpecError(
                    f"Run.shard must satisfy 0 <= index < of (of >= 1), "
                    f"got {pair[0]}/{pair[1]}"
                )
            object.__setattr__(self, "shard", pair)

    def to_dict(self) -> dict[str, Any]:
        data = {
            "schema": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "backend": self.backend,
            "workers": self.workers,
            "seed": self.seed,
            "parity_check": self.parity_check,
        }
        if not self.retry.is_default:
            data["retry"] = self.retry.to_dict()
        if self.shard is not None:
            data["shard"] = list(self.shard)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Run":
        _check_schema(data, "run")
        _reject_unknown(
            data,
            ("algorithm", "params", "backend", "workers", "seed", "parity_check",
             "retry", "shard"),
            "run",
        )
        if "algorithm" not in data:
            raise SpecError(f"run spec is missing 'algorithm': {dict(data)!r}")
        seed = data.get("seed")
        retry = data.get("retry")
        try:
            policy = RetryPolicy() if retry is None else RetryPolicy.from_dict(retry)
        except ValueError as exc:
            raise SpecError(f"bad run spec 'retry' field: {exc}") from None
        shard = data.get("shard")
        if shard is not None and (not isinstance(shard, (list, tuple)) or len(shard) != 2):
            raise SpecError(f"run spec 'shard' must be an [index, of] pair, got {shard!r}")
        return cls(
            algorithm=str(data["algorithm"]),
            params=dict(data.get("params") or {}),
            backend=str(data.get("backend", "array")),
            workers=int(data.get("workers", 1)),
            seed=None if seed is None else int(seed),
            parity_check=bool(data.get("parity_check", False)),
            retry=policy,
            shard=None if shard is None else tuple(shard),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Run":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class JobSpec:
    """A whole declarative sweep: many problems x one run (x a params grid).

    ``params_grid`` entries extend/override ``run.params`` per cell; without a
    grid the sweep runs every problem once with ``run.params``.
    """

    run: Run
    problems: tuple[Problem, ...]
    params_grid: tuple[dict[str, Any], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "problems", tuple(self.problems))
        if not self.problems:
            raise SpecError("JobSpec needs at least one problem")
        if self.params_grid is not None:
            object.__setattr__(
                self, "params_grid", tuple(dict(p) for p in self.params_grid)
            )

    @classmethod
    def single(cls, problem: Problem, run: Run) -> "JobSpec":
        return cls(run=run, problems=(problem,))

    # -- execution views -------------------------------------------------- #

    def cells(self) -> list[GraphSpec]:
        """The sweep's grid cells (requires every problem to be a GraphSpec).

        ``run.seed`` (when set) overrides every cell's seed — the one-off
        override semantics of :func:`repro.api.solve.solve`.
        """
        cells = []
        for problem in self.problems:
            if not problem.is_serializable:
                raise SpecError("batch execution needs GraphSpec-described problems")
            g = problem.graph
            if self.run.seed is not None and self.run.seed != g.seed:
                g = replace(g, seed=self.run.seed)
            cells.append(g)
        return cells

    def effective_grid(self) -> list[dict[str, Any]] | None:
        """The params grid actually swept (``run.params`` merged under each entry)."""
        base = dict(self.run.params)
        if self.params_grid is not None:
            return [{**base, **entry} for entry in self.params_grid]
        return [base] if base else None

    def num_cells(self) -> int:
        """How many (problem x params) cells the sweep executes."""
        grid = self.effective_grid()
        return len(self.problems) * (len(grid) if grid else 1)

    # -- serialization ---------------------------------------------------- #

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "problems": [p.to_dict() for p in self.problems],
            "run": self.run.to_dict(),
        }
        if self.params_grid is not None:
            data["params_grid"] = [dict(p) for p in self.params_grid]
        return data

    def canonical_dict(self) -> dict[str, Any]:
        """Like :meth:`to_dict`, but defined for live-graph problems too
        (each problem contributes its :meth:`Problem.canonical_dict`)."""
        data: dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "problems": [p.canonical_dict() for p in self.problems],
            "run": self.run.to_dict(),
        }
        if self.params_grid is not None:
            data["params_grid"] = [dict(p) for p in self.params_grid]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        _check_schema(data, "job")
        _reject_unknown(data, ("problem", "problems", "run", "params_grid"), "job")
        if "run" not in data:
            raise SpecError(f"job spec is missing 'run': {dict(data)!r}")
        if "problem" in data and "problems" in data:
            raise SpecError("job spec must have either 'problem' or 'problems', not both")
        if "problem" in data:
            problems = [Problem.from_dict(data["problem"])]
        elif "problems" in data:
            problems = [Problem.from_dict(p) for p in data["problems"]]
        else:
            raise SpecError(f"job spec is missing 'problem(s)': {dict(data)!r}")
        grid = data.get("params_grid")
        return cls(
            run=Run.from_dict(data["run"]),
            problems=tuple(problems),
            params_grid=None if grid is None else tuple(dict(p) for p in grid),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------------- #
# Canonical form and hashing
# --------------------------------------------------------------------------- #


def canonical_json(data: Mapping[str, Any]) -> str:
    """The canonical (sorted-keys, compact) JSON rendering of a spec dict."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a live graph: SHA-256 over its frozen CSR triplet.

    Hashes ``n`` plus the exact bytes of ``indptr`` and ``indices`` (which
    together determine the adjacency; ``src_index`` is derived), so the
    fingerprint depends only on graph structure — never on object identity,
    memory layout of a shared segment, or construction order of an equal
    graph.
    """
    if not isinstance(graph, Graph):
        raise SpecError(f"graph_fingerprint expects a Graph, got {type(graph).__name__}")
    digest = hashlib.sha256()
    digest.update(f"csr:{graph.n}:".encode("ascii"))
    digest.update(np.ascontiguousarray(graph.indptr, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(graph.indices, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def spec_hash(spec: Problem | Run | JobSpec | Mapping[str, Any]) -> str:
    """Stable hex id of a spec: SHA-256 over its canonical JSON (16-char prefix).

    This is the hash :func:`repro.api.solve.run_spec` embeds in the sink's
    :class:`~repro.engine.sink.RunManifest` (``spec_hash``) and the job server
    dedupes submissions by, pinning a result file to the exact document that
    produced it.  Problems holding a live :class:`Graph` hash canonically via
    the graph's CSR content (:func:`graph_fingerprint`) — see
    :meth:`Problem.canonical_dict`.
    """
    if isinstance(spec, Mapping):
        data = spec
    elif isinstance(spec, (Problem, JobSpec)):
        data = spec.canonical_dict()
    else:
        data = spec.to_dict()
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Job-level status (the serialized state of one server-side job)
# --------------------------------------------------------------------------- #

#: Lifecycle states of a submitted job.  ``queued`` and ``running`` are the
#: *incomplete* states a restarted server re-queues; ``done`` / ``failed``
#: are terminal.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class JobStatus:
    """The serialized status of one job: what ``GET /jobs/<id>`` returns.

    ``id`` is the job's :func:`spec_hash` — jobs are content-addressed, so a
    resubmission of the same document *is* the same job.  ``cells_total`` /
    ``cells_done`` carry per-cell progress (mirrored from the sink), and
    ``backend_tier`` surfaces which execution tier actually ran the job
    (e.g. ``jit:cc`` vs ``jit:fallback-array``) — the per-job answer to
    "did the compiled path degrade?", which a one-time process warning cannot
    give a long-running server.

    ``error`` is the structured error object of a failed job (see
    :func:`repro.engine.retry.describe_error`: kind / type / message /
    traceback digest / attempts); plain strings written by older servers
    still round-trip.
    """

    id: str
    spec: dict[str, Any]
    state: str = "queued"
    cells_total: int = 0
    cells_done: int = 0
    error: str | dict[str, Any] | None = None
    backend_tier: str | None = None
    submitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0

    def __post_init__(self):
        if self.state not in JOB_STATES:
            raise SpecError(f"unknown job state {self.state!r}; known: {list(JOB_STATES)}")

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "id": self.id,
            "spec": dict(self.spec),
            "state": self.state,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "error": self.error,
            "backend_tier": self.backend_tier,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobStatus":
        _check_schema(data, "job status")
        if "id" not in data or "spec" not in data:
            raise SpecError(f"job status is missing 'id'/'spec': {dict(data)!r}")
        return cls(
            id=str(data["id"]),
            spec=dict(data["spec"]),
            state=str(data.get("state", "queued")),
            cells_total=int(data.get("cells_total", 0)),
            cells_done=int(data.get("cells_done", 0)),
            error=data.get("error"),
            backend_tier=data.get("backend_tier"),
            submitted_at=data.get("submitted_at"),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            attempts=int(data.get("attempts", 0)),
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "JobStatus":
        return cls.from_dict(json.loads(text))
