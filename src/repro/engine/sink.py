"""Streaming result sinks: durable, resumable record streams for sweeps.

A :class:`ResultSink` receives the tidy records of a
:class:`repro.engine.batch.BatchRunner` sweep *as each cell completes* and
appends them to a durable file, so an interrupted sweep loses at most the
cells in flight.  Two formats ship with the package:

* :class:`JsonlSink` — one JSON object per line.  The first line is the run
  manifest; every following line is ``{"cell": <id>, "record": {...}}``.
  JSONL is the *resumable* format of record: types round-trip exactly, and
  partially written final lines (a sweep killed mid-write) are detected and
  discarded on resume.
* :class:`CsvSink` — a spreadsheet-friendly table with a leading ``cell``
  column; the manifest lives in a ``<path>.manifest.json`` sidecar.  CSV also
  resumes, but values read back from a CSV are re-typed best-effort (CSV has
  no types), so prefer JSONL when the file feeds further tooling.

The **manifest** pins down what a result file is: the task, the backend, the
package version, whether cells were parity-checked, and a hash over the
ordered cell keys of the grid.  ``resume=True`` refuses to append to a file
whose manifest disagrees — resuming a *different* sweep into an existing file
is always an error, never silent corruption.

Cell identity is the (task, graph spec, params) triple, canonicalised by
:func:`cell_key` and hashed by :func:`cell_id`; the runner skips cells whose
ids are already present in the sink.  Because the runner also orders cells
deterministically, a resumed or parallel sweep produces the same records as
an uninterrupted serial one (modulo the wall-clock ``seconds`` field).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import pathlib
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.testing import faults

__all__ = [
    "SinkError",
    "RunManifest",
    "ResultSink",
    "JsonlSink",
    "CsvSink",
    "open_sink",
    "task_name",
    "cell_key",
    "cell_id",
    "grid_hash",
    "shard_of",
    "machine_cores",
]


class SinkError(RuntimeError):
    """Raised for unusable sink files: malformed lines, manifest mismatches."""


# --------------------------------------------------------------------------- #
# Cell identity
# --------------------------------------------------------------------------- #


def task_name(task: str | Callable[..., Any]) -> str:
    """Canonical name of a task: the registry key, or ``module:qualname``."""
    if isinstance(task, str):
        return task
    return f"{getattr(task, '__module__', '?')}:{getattr(task, '__qualname__', repr(task))}"


def _jsonable(value: Any) -> Any:
    """JSON encoder fallback: NumPy scalars become plain Python scalars."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"value {value!r} of type {type(value).__name__} is not JSON-serializable")


def cell_key(task: str | Callable[..., Any], spec, params: Mapping[str, Any]) -> str:
    """Canonical JSON identity of one (task, graph spec, params) cell.

    A file-backed spec (``family="file"``) contributes its ``path`` — two
    corpus cells with equal (n, delta) must not collide — while generator
    specs keep the exact pre-file payload, so every existing cell id, grid
    hash, and shard assignment is unchanged.
    """
    payload = {
        "task": task_name(task),
        "family": spec.family,
        "n": spec.n,
        "delta": spec.delta,
        "seed": spec.seed,
        "params": {k: params[k] for k in sorted(params)},
    }
    path = getattr(spec, "path", None)
    if path is not None:
        payload["path"] = str(path)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonable)


def cell_id(key: str) -> str:
    """Short stable id of a cell key (hex SHA-256 prefix)."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def grid_hash(keys: Iterable[str]) -> str:
    """Hash of the *ordered* cell keys of a sweep; pins grid and cell order."""
    digest = hashlib.sha256()
    for key in keys:
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def shard_of(key: str, of: int) -> int:
    """Deterministic shard index of one cell: a stable hash of its identity.

    The assignment depends only on the cell's canonical :func:`cell_key` and
    the shard count ``of`` — never on worker counts, the machine, execution
    order, or Python's per-process hash seed — so shard ``i`` of ``k`` names
    the same set of cells anywhere, any time.  Domain-separated from
    :func:`cell_id` (different hash input prefix), so shard index and cell id
    are independent functions of the same key.
    """
    of = int(of)
    if of < 1:
        raise SinkError(f"shard count must be >= 1, got {of!r}")
    digest = hashlib.sha256(b"shard:" + key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % of


def machine_cores() -> int:
    """CPU cores available to this process (manifest/benchmark provenance)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# --------------------------------------------------------------------------- #
# Manifest
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunManifest:
    """What a result stream contains; written first, checked on resume.

    ``spec_hash`` is set when the sweep was described by a saved declarative
    spec (see :mod:`repro.api.spec`): it is the canonical hash of the exact
    ``{problems, run, params_grid}`` document, so a result file can be traced
    back to — and re-verified against — the spec that produced it.

    ``backend_tier`` records the execution tier that actually ran (see
    :meth:`repro.engine.base.Engine.active_tier` — e.g. ``"jit:cc"`` vs
    ``"jit:fallback-array"``), so a result file also answers *how* its
    backend executed.  The tier is informational provenance, not identity:
    resume does **not** compare it (results are bit-identical across tiers
    by the parity guarantee, and a restart may legitimately resolve a
    different tier).  ``workers`` and ``cores`` are equally provenance —
    how many worker processes the producing run sharded across and how many
    CPU cores its machine had — and are never compared on resume (records
    are worker-count-independent by construction).

    ``shard``, when set, marks the file as one shard of a sharded sweep:
    ``{"index": i, "of": k, "total": N, "cells": {cell_id: grid_position}}``.
    ``grid_hash`` stays the hash of the *full* grid (all ``N`` cells, the
    same value on every shard and on an unsharded run), while ``cells``
    counts only this shard's cells.  Unlike the provenance fields the shard
    identity *is* compared on resume — resuming shard 1/2 into shard 0/2's
    file is a different sweep — and ``repro merge`` uses the per-shard cell
    position maps to validate disjoint, complete coverage and to interleave
    records back into full grid order.
    """

    task: str
    backend: str
    grid_hash: str
    cells: int
    parity_check: bool
    version: str
    spec_hash: str | None = None
    backend_tier: str | None = None
    workers: int = 1
    cores: int | None = None
    shard: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        fields = {f: data.get(f) for f in ("task", "backend", "grid_hash", "cells",
                                           "parity_check", "version")}
        if any(v is None for v in fields.values()):
            raise SinkError(f"incomplete run manifest: {dict(data)!r}")
        return cls(**fields, spec_hash=data.get("spec_hash"),
                   backend_tier=data.get("backend_tier"),
                   workers=int(data.get("workers", 1)),
                   cores=data.get("cores"),
                   shard=data.get("shard"))

    def shard_identity(self) -> tuple[int, int] | None:
        """The ``(index, of)`` pair of a shard manifest, or ``None``."""
        if self.shard is None:
            return None
        return (self.shard.get("index"), self.shard.get("of"))

    def check_resumable(self, existing: "RunManifest", path: os.PathLike | str) -> None:
        """Refuse to resume into a file produced by a *different* run setup."""
        for field in ("task", "backend", "grid_hash", "parity_check"):
            ours, theirs = getattr(self, field), getattr(existing, field)
            if ours != theirs:
                raise SinkError(
                    f"cannot resume into {os.fspath(path)!r}: manifest field {field!r} is "
                    f"{theirs!r} in the file but {ours!r} for this run — the file belongs "
                    f"to a different sweep"
                )
        if self.shard_identity() != existing.shard_identity():
            raise SinkError(
                f"cannot resume into {os.fspath(path)!r}: the file belongs to shard "
                f"{existing.shard_identity()!r} but this run is shard "
                f"{self.shard_identity()!r} — shards never share a result file"
            )


# --------------------------------------------------------------------------- #
# Sinks
# --------------------------------------------------------------------------- #


class ResultSink:
    """Base class: a durable, append-only stream of sweep records.

    Lifecycle: ``start(manifest)`` once (loads completed cells when resuming,
    writes the manifest otherwise), then ``write(cell, record)`` per completed
    cell, then ``close()``.  Sinks are context managers; :attr:`completed`
    maps cell ids to their previously recorded records after ``start``.
    """

    #: cell id -> record, loaded by ``start`` when resuming.
    completed: dict[str, dict[str, Any]]

    def __init__(self, path: os.PathLike | str, resume: bool = False):
        self.path = pathlib.Path(path)
        self.resume = bool(resume)
        self.completed = {}
        self.written = 0

    # -- interface ------------------------------------------------------- #

    def start(self, manifest: RunManifest) -> None:
        raise NotImplementedError

    def write(self, cell: str, record: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def write_failure(self, cell: str, record: Mapping[str, Any]) -> None:
        """Record a CellError record (a record whose ``"error"`` key carries a
        structured failure — see :func:`repro.engine.retry.cell_error_record`).

        Default: same as :meth:`write`.  Sinks whose format cannot hold the
        nested error object (CSV) override this to keep the failure in their
        provenance channel instead; either way the cell is *not* treated as
        completed on resume, so a later run re-executes it.
        """
        self.write(cell, record)

    def note(self, event: Mapping[str, Any]) -> None:
        """Append a provenance event (retry / downgrade / cell-error) to the
        sink's side channel.  Events are *not* records: resume ignores them
        and they never mark a cell completed.  Default: dropped."""

    def _fire_write_fault(self, cell: str) -> None:
        """The ``"sink-write"`` fault-injection site (fires before the append)."""
        faults.fire("sink-write", cell=cell, write=self.written + 1)

    def close(self) -> None:
        pass

    # -- context management ---------------------------------------------- #

    def __enter__(self) -> "ResultSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlSink(ResultSink):
    """Line-delimited JSON: manifest first, then one ``{cell, record}`` per line."""

    def __init__(self, path: os.PathLike | str, resume: bool = False):
        super().__init__(path, resume)
        self._file = None

    def start(self, manifest: RunManifest) -> None:
        if self.resume and self.path.exists() and self.path.stat().st_size > 0:
            self._load_existing(manifest)
            self._file = self.path.open("a", encoding="utf-8")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8")
            self._emit({"manifest": manifest.to_dict()})

    def _load_existing(self, manifest: RunManifest) -> None:
        text = self.path.read_text(encoding="utf-8")
        lines = text.split("\n")
        # A trailing chunk without a newline is a write the previous run did
        # not survive mid-write; it is dropped — but only *after* the file has
        # been validated as belonging to this sweep (never mutate a file the
        # resume is about to refuse).
        torn = lines[-1] != ""
        complete_lines = [line for line in lines[:-1] if line.strip()]
        if not complete_lines:
            raise SinkError(f"cannot resume from {self.path}: no manifest line")
        parsed = []
        for lineno, line in enumerate(complete_lines, start=1):
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise SinkError(
                    f"cannot resume from {self.path}: malformed JSONL at line {lineno}: {exc}"
                ) from None
        head = parsed[0]
        if not isinstance(head, dict) or "manifest" not in head:
            raise SinkError(f"cannot resume from {self.path}: first line is not a manifest")
        manifest.check_resumable(RunManifest.from_dict(head["manifest"]), self.path)
        for lineno, obj in enumerate(parsed[1:], start=2):
            if isinstance(obj, dict) and "event" in obj and "record" not in obj:
                continue  # provenance event line (retry/downgrade notes), not a record
            if not isinstance(obj, dict) or "cell" not in obj or "record" not in obj:
                raise SinkError(
                    f"cannot resume from {self.path}: line {lineno} is not a "
                    "{'cell': ..., 'record': ...} object"
                )
            self.completed[obj["cell"]] = obj["record"]
        if torn:
            self.path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")

    def _emit(self, obj: Mapping[str, Any]) -> None:
        self._file.write(json.dumps(obj, separators=(",", ":"), default=_jsonable) + "\n")
        self._file.flush()

    def write(self, cell: str, record: Mapping[str, Any]) -> None:
        self._fire_write_fault(cell)
        self._emit({"cell": cell, "record": dict(record)})
        self.written += 1

    def note(self, event: Mapping[str, Any]) -> None:
        self._emit({"event": dict(event)})

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def _csv_scalar(value: str) -> Any:
    """Legacy best-effort re-typing of a CSV cell (pre-schema sidecars only).

    Kept for resuming files whose sidecar predates the typed column schema;
    it is *lossy* (the string ``"42"`` comes back as the int ``42``), which is
    exactly the bug the schema fixes.
    """
    if value == "True":
        return True
    if value == "False":
        return False
    try:
        return json.loads(value)
    except (json.JSONDecodeError, ValueError):
        return value


#: Column type tags of the CSV schema (stored in the manifest sidecar under
#: ``"columns"``).  One tag per column, frozen by the first record.
_CSV_TAGS = ("int", "float", "bool", "str", "none", "json")


def _csv_tag(value: Any) -> str:
    """The schema tag of one record value (numpy scalars unwrap first)."""
    item = getattr(value, "item", None)
    if callable(item):
        value = item()
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if value is None:
        return "none"
    return "json"


def _csv_encode(value: Any, tag: str) -> str:
    """Render ``value`` as the CSV cell text its ``tag`` decodes exactly."""
    item = getattr(value, "item", None)
    if callable(item):
        value = item()
    if tag == "json":
        return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_jsonable)
    if tag == "none":
        return ""
    if isinstance(value, str) and ("\n" in value or "\r" in value):
        # The torn-tail detector uses the newline as the row-completion
        # marker; a multi-line quoted field would defeat it.
        raise SinkError(
            "CSV sinks cannot store strings containing newlines; use a JSONL sink"
        )
    return str(value)


def _csv_decode(text: str, tag: str | None) -> Any:
    """Re-type one CSV cell from its column tag — the exact inverse of
    :func:`_csv_encode` (so CSV resume round-trips like JSONL).

    ``tag=None`` means a pre-schema sidecar: fall back to the legacy lossy
    heuristic.  The empty string is the "column absent in this record"
    marker for every tag except ``str`` (where it is a genuine empty string)
    and ``none`` (where it is ``None``).
    """
    if tag is None:
        return _csv_scalar(text)
    if tag == "str":
        return text
    if tag == "none":
        return None
    if text == "":
        return ""
    if tag == "int":
        return int(text)
    if tag == "float":
        return float(text)
    if tag == "bool":
        return text == "True"
    if tag == "json":
        return json.loads(text)
    raise SinkError(f"unknown CSV column tag {tag!r}; known: {list(_CSV_TAGS)}")


class CsvSink(ResultSink):
    """Streaming CSV with a leading ``cell`` id column and a manifest sidecar.

    The column set is frozen by the first record written (or by the header of
    the file being resumed); a record with unknown keys raises
    :class:`SinkError` rather than silently dropping measurements.

    Cells are plain spreadsheet-friendly text, but each column's Python type
    is recorded in the sidecar (``"columns": {name: tag}``) when the header
    freezes, and resume re-types every value from that schema — so a resumed
    CSV sweep returns records identical to the ones originally written
    (the string ``"42"`` stays a string, ``True`` stays a bool), exactly
    like JSONL.  A record whose value type disagrees with the column's
    frozen tag raises :class:`SinkError` (a lossless round-trip needs
    homogeneous column types; mixed-type sweeps belong in JSONL).
    """

    def __init__(self, path: os.PathLike | str, resume: bool = False):
        super().__init__(path, resume)
        self._file = None
        self._writer = None
        self._columns: list[str] | None = None
        self._column_types: dict[str, str] | None = None
        self._manifest_doc: dict[str, Any] | None = None
        self._events: list[dict[str, Any]] = []

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.path.with_name(self.path.name + ".manifest.json")

    def start(self, manifest: RunManifest) -> None:
        if self.resume and self.path.exists() and self.path.stat().st_size > 0:
            self._load_existing(manifest)
            self._file = self.path.open("a", encoding="utf-8", newline="")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w", encoding="utf-8", newline="")
            self._manifest_doc = manifest.to_dict()
            self._write_sidecar()

    def _write_sidecar(self) -> None:
        doc = dict(self._manifest_doc or {})
        if self._column_types is not None:
            doc["columns"] = dict(self._column_types)
        if self._events:
            doc["events"] = list(self._events)
        self.manifest_path.write_text(
            json.dumps(doc, indent=2, default=_jsonable) + "\n", encoding="utf-8"
        )

    def _load_existing(self, manifest: RunManifest) -> None:
        if not self.manifest_path.exists():
            raise SinkError(
                f"cannot resume from {self.path}: missing sidecar {self.manifest_path.name}"
            )
        try:
            sidecar = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SinkError(f"cannot resume from {self.manifest_path}: {exc}") from None
        existing = RunManifest.from_dict(sidecar)
        manifest.check_resumable(existing, self.path)
        types = sidecar.get("columns")
        self._events = [dict(e) for e in sidecar.get("events", [])]
        self._manifest_doc = {k: v for k, v in sidecar.items()
                              if k not in ("columns", "events")}
        text = self.path.read_text(encoding="utf-8")
        # A trailing chunk without a newline is a row the previous run did not
        # survive mid-write.  Field counting cannot detect a row truncated
        # *inside* its last field, so the newline is the completion marker —
        # exactly as in the JSONL sink.  (Record values are scalars and
        # newline-free strings — enforced on write — so embedded newlines
        # cannot occur.)
        torn_tail = None
        if text and not text.endswith("\n"):
            head, _, torn_tail = text.rpartition("\n")
            text = head + "\n" if head else ""
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or not rows[0] or rows[0][0] != "cell":
            raise SinkError(f"cannot resume from {self.path}: missing 'cell' header column")
        self._columns = rows[0][1:]
        if types is not None:
            if set(types) != set(self._columns):
                raise SinkError(
                    f"cannot resume from {self.path}: sidecar column schema "
                    f"{sorted(types)} disagrees with the CSV header {self._columns}"
                )
            self._column_types = {col: str(types[col]) for col in self._columns}
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(rows[0]):
                raise SinkError(
                    f"cannot resume from {self.path}: row {lineno} has {len(row)} fields, "
                    f"expected {len(rows[0])}"
                )
            tags = self._column_types
            self.completed[row[0]] = {
                col: _csv_decode(val, None if tags is None else tags[col])
                for col, val in zip(self._columns, row[1:])
            }
        if torn_tail is not None:
            self.path.write_text(text, encoding="utf-8")

    def write_failure(self, cell: str, record: Mapping[str, Any]) -> None:
        """CSV cannot hold the nested error object as a column (and failure
        records would poison the frozen column schema), so the failure goes to
        the sidecar's event list; the cell stays incomplete and re-runs on
        resume."""
        self.note({"cell": cell, "event": "cell-error",
                   "error": dict(record.get("error") or {})})

    def note(self, event: Mapping[str, Any]) -> None:
        self._events.append(dict(event))
        self._write_sidecar()

    def write(self, cell: str, record: Mapping[str, Any]) -> None:
        self._fire_write_fault(cell)
        if self._columns is None:
            self._columns = list(record)
            self._column_types = {col: _csv_tag(record[col]) for col in self._columns}
            csv.writer(self._file).writerow(["cell", *self._columns])
            # The sidecar is rewritten (not appended) so the schema lands in
            # the same document the manifest check reads on resume.
            self._write_sidecar()
        unknown = set(record) - set(self._columns)
        if unknown:
            raise SinkError(
                f"record has columns {sorted(unknown)} not in the CSV header "
                f"{self._columns} — CSV sinks need a fixed column set per sweep"
            )
        row = [cell]
        for col in self._columns:
            if col not in record:
                row.append("")
                continue
            value = record[col]
            if self._column_types is not None:
                tag = _csv_tag(value)
                if tag != self._column_types[col]:
                    raise SinkError(
                        f"column {col!r} holds {self._column_types[col]} values but this "
                        f"record carries a {tag} ({value!r}) — a lossless CSV round-trip "
                        "needs homogeneous column types; use a JSONL sink for mixed types"
                    )
                row.append(_csv_encode(value, tag))
            else:
                # Pre-schema file being resumed: keep the legacy rendering.
                row.append("" if value is None else str(value))
        csv.writer(self._file).writerow(row)
        self._file.flush()
        self.written += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def open_sink(path: os.PathLike | str, resume: bool = False) -> ResultSink:
    """Build the sink matching ``path``'s suffix (``.jsonl``/``.ndjson``/``.csv``)."""
    suffix = pathlib.Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return JsonlSink(path, resume=resume)
    if suffix == ".csv":
        return CsvSink(path, resume=resume)
    raise SinkError(
        f"cannot infer sink format from {os.fspath(path)!r}; use a .jsonl/.ndjson/.csv suffix"
    )
