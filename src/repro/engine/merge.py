"""Merge shard result files back into one canonical run.

A sharded sweep runs as ``k`` shard files (``repro batch --shard i/k``
or ``run_spec(..., shard=(i, k))``), each carrying a shard descriptor in its
manifest: ``{"index": i, "of": k, "total": N, "cells": {cell_id: grid
position}}``.  :func:`merge_shards` validates that the files really are the
``k`` disjoint, complete shards of *one* sweep and writes a merged file that
is indistinguishable from a single-box run:

* identity must agree everywhere — same task, backend, parity setting,
  ``grid_hash`` (the hash of the *full* grid, identical on every shard),
  ``spec_hash``, package version, and shard count;
* coverage must be exact — every shard index ``0..k-1`` present exactly
  once, the union of the per-shard cell maps covering every grid position
  ``0..N-1`` with no duplicate cell and no gap;
* every shard must be complete — each cell in a shard's descriptor needs a
  durable record in its file (a torn final line is not durable, so an
  interrupted shard fails the merge loudly: finish it with ``--resume``
  first), and a CellError record (a cell that exhausted its retry budget)
  also refuses the merge — failure is never silently merged;

and any violation raises :class:`MergeError` naming the offending shard —
overlap, gap, and hash drift are never silent.

The merged file carries the records in full grid order under an unsharded
manifest (``shard`` stripped, ``cells = N``), with every shard's provenance
events appended after the records tagged with their shard index.  The
manifest reports ``workers = 1``: the merged run is the canonical
serial-equivalent run, byte-identical (modulo wall-clock ``seconds``) to an
unsharded ``workers=1`` sweep of the same spec on the same machine — and
``--resume`` against the merged file re-runs zero cells.
"""

from __future__ import annotations

import csv
import io
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Sequence

from repro.engine.sink import (
    RunManifest,
    SinkError,
    _csv_decode,
    open_sink,
)

__all__ = ["MergeError", "MergeResult", "merge_shards"]


class MergeError(SinkError):
    """Shard files that cannot be merged: overlap, gaps, or identity drift."""


@dataclass
class _Shard:
    """One parsed shard input: its manifest, durable records, and events."""

    path: pathlib.Path
    manifest: RunManifest
    records: dict[str, dict[str, Any]]  # cell id -> record, in file order
    events: list[dict[str, Any]]

    @property
    def index(self) -> int:
        return int(self.manifest.shard["index"])


@dataclass
class MergeResult:
    """What :func:`merge_shards` produced (for reporting, not validation)."""

    output: pathlib.Path
    manifest: RunManifest
    cells: int
    shards: int
    events: int


# --------------------------------------------------------------------------- #
# Shard readers (read-only: merging never mutates its inputs)
# --------------------------------------------------------------------------- #


def _read_jsonl(path: pathlib.Path) -> tuple[RunManifest, dict, list]:
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines[-1] != "":
        # A torn final line is a write the producing run did not survive; it
        # is not durable, so it contributes nothing (the missing cell is
        # reported by the coverage check, loudly).
        lines = lines[:-1]
    parsed = []
    for lineno, line in enumerate((l for l in lines if l.strip()), start=1):
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise MergeError(f"{path}: malformed JSONL at line {lineno}: {exc}") from None
    if not parsed or not isinstance(parsed[0], dict) or "manifest" not in parsed[0]:
        raise MergeError(f"{path}: first line is not a run manifest")
    manifest = RunManifest.from_dict(parsed[0]["manifest"])
    records: dict[str, dict[str, Any]] = {}
    events: list[dict[str, Any]] = []
    for obj in parsed[1:]:
        if isinstance(obj, dict) and "event" in obj and "record" not in obj:
            events.append(dict(obj["event"]))
        elif isinstance(obj, dict) and "cell" in obj and "record" in obj:
            records[obj["cell"]] = obj["record"]
        else:
            raise MergeError(f"{path}: unrecognized line {obj!r}")
    return manifest, records, events


def _read_csv(path: pathlib.Path) -> tuple[RunManifest, dict, list]:
    sidecar_path = path.with_name(path.name + ".manifest.json")
    if not sidecar_path.exists():
        raise MergeError(f"{path}: missing sidecar {sidecar_path.name}")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MergeError(f"{sidecar_path}: {exc}") from None
    manifest = RunManifest.from_dict(sidecar)
    tags = sidecar.get("columns")
    events = [dict(e) for e in sidecar.get("events", [])]
    text = path.read_text(encoding="utf-8")
    if text and not text.endswith("\n"):
        head, _, _torn = text.rpartition("\n")
        text = head + "\n" if head else ""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or not rows[0] or rows[0][0] != "cell":
        raise MergeError(f"{path}: missing 'cell' header column")
    columns = rows[0][1:]
    records: dict[str, dict[str, Any]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise MergeError(f"{path}: row {lineno} has {len(row)} fields, "
                             f"expected {len(rows[0])}")
        records[row[0]] = {
            col: _csv_decode(val, None if tags is None else tags.get(col))
            for col, val in zip(columns, row[1:])
        }
    return manifest, records, events


def _read_shard(path: os.PathLike | str) -> _Shard:
    path = pathlib.Path(path)
    if not path.exists():
        raise MergeError(f"shard file not found: {path}")
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        manifest, records, events = _read_jsonl(path)
    elif suffix == ".csv":
        manifest, records, events = _read_csv(path)
    else:
        raise MergeError(f"cannot infer shard format from {os.fspath(path)!r}; "
                         "use a .jsonl/.ndjson/.csv suffix")
    if manifest.shard is None:
        raise MergeError(
            f"{path}: not a shard file (its manifest has no shard descriptor) — "
            "it already is a canonical run"
        )
    for field in ("index", "of", "total", "cells"):
        if field not in manifest.shard:
            raise MergeError(f"{path}: shard descriptor is missing {field!r}: "
                             f"{manifest.shard!r}")
    return _Shard(path=path, manifest=manifest, records=records, events=events)


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #

#: Manifest fields every shard of one sweep must agree on.  ``grid_hash`` is
#: the full-grid hash (identical across shards by construction) and
#: ``spec_hash``/``version`` pin the document and code that produced them —
#: drift on any of these means the files are not shards of one run.
_IDENTITY_FIELDS = ("task", "backend", "parity_check", "grid_hash",
                    "spec_hash", "version")


def _validate(shards: Sequence[_Shard]) -> int:
    """Check identity, disjointness, and completeness; return the cell total."""
    first = shards[0]
    for shard in shards[1:]:
        for field in _IDENTITY_FIELDS:
            ours, theirs = getattr(first.manifest, field), getattr(shard.manifest, field)
            if ours != theirs:
                raise MergeError(
                    f"manifest drift: field {field!r} is {ours!r} in {first.path} "
                    f"but {theirs!r} in {shard.path} — these are not shards of "
                    "the same run"
                )
    of = int(first.manifest.shard["of"])
    total = int(first.manifest.shard["total"])
    for shard in shards:
        if int(shard.manifest.shard["of"]) != of or \
                int(shard.manifest.shard["total"]) != total:
            raise MergeError(
                f"shard-count drift: {first.path} says {of} shard(s) of "
                f"{total} cell(s) but {shard.path} says "
                f"{shard.manifest.shard['of']} of {shard.manifest.shard['total']}"
            )
    by_index: dict[int, _Shard] = {}
    for shard in shards:
        index = shard.index
        if not 0 <= index < of:
            raise MergeError(f"{shard.path}: shard index {index} out of range 0..{of - 1}")
        if index in by_index:
            raise MergeError(
                f"overlapping shards: both {by_index[index].path} and {shard.path} "
                f"claim shard {index}/{of}"
            )
        by_index[index] = shard
    missing = sorted(set(range(of)) - set(by_index))
    if missing:
        raise MergeError(
            f"incomplete shard set: got {len(shards)} file(s) but shard(s) "
            f"{missing} of {of} are missing"
        )

    seen_cells: dict[str, _Shard] = {}
    seen_positions: dict[int, _Shard] = {}
    for shard in shards:
        cells = shard.manifest.shard["cells"]
        for cid, position in cells.items():
            if cid in seen_cells and seen_cells[cid] is not shard:
                raise MergeError(
                    f"overlapping shards: cell {cid} appears in both "
                    f"{seen_cells[cid].path} and {shard.path}"
                )
            seen_cells[cid] = shard
            position = int(position)
            if position in seen_positions:
                raise MergeError(
                    f"overlapping shards: grid position {position} is claimed by "
                    f"both {seen_positions[position].path} and {shard.path}"
                )
            seen_positions[position] = shard
        # Completeness of this shard's file vs its own descriptor.
        declared = set(cells)
        durable = set(shard.records)
        lost = sorted(declared - durable)
        if lost:
            raise MergeError(
                f"{shard.path}: shard {shard.index}/{of} is incomplete — "
                f"{len(lost)} declared cell(s) have no durable record "
                f"(e.g. {lost[0]}); finish the shard with --resume before merging"
            )
        stray = sorted(durable - declared)
        if stray:
            raise MergeError(
                f"{shard.path}: record(s) for cell(s) not in the shard's "
                f"descriptor (e.g. {stray[0]}) — the file does not match its "
                "manifest"
            )
        failed = sorted(cid for cid, record in shard.records.items()
                        if "error" in record)
        if failed:
            raise MergeError(
                f"{shard.path}: {len(failed)} cell(s) recorded a CellError "
                f"(e.g. {failed[0]}); re-run the shard with --resume until it "
                "completes before merging"
            )
    gaps = sorted(set(range(total)) - set(seen_positions))
    if gaps:
        raise MergeError(
            f"coverage gap: grid position(s) {gaps[:5]}{'...' if len(gaps) > 5 else ''} "
            f"of {total} are in no shard — the shard set does not cover the grid"
        )
    if len(seen_positions) != total:
        raise MergeError(
            f"coverage drift: shards cover {len(seen_positions)} position(s) "
            f"but the grid has {total} cell(s)"
        )
    return total


def _merged_manifest(shards: Sequence[_Shard], total: int) -> RunManifest:
    """The unsharded manifest of the merged run.

    ``workers`` is reported as 1 (the merged file is the canonical
    serial-equivalent run); ``backend_tier``/``cores`` are kept only when
    every shard agrees — they are provenance, and shards run on mixed
    machines have no single honest value.
    """
    first = shards[0].manifest
    tiers = {s.manifest.backend_tier for s in shards}
    cores = {s.manifest.cores for s in shards}
    return RunManifest(
        task=first.task,
        backend=first.backend,
        grid_hash=first.grid_hash,
        cells=total,
        parity_check=first.parity_check,
        version=first.version,
        spec_hash=first.spec_hash,
        backend_tier=tiers.pop() if len(tiers) == 1 else None,
        workers=1,
        cores=cores.pop() if len(cores) == 1 else None,
        shard=None,
    )


# --------------------------------------------------------------------------- #
# The merge
# --------------------------------------------------------------------------- #


def merge_shards(
    inputs: Sequence[os.PathLike | str],
    output: os.PathLike | str,
) -> MergeResult:
    """Join the shard result files ``inputs`` into the canonical run ``output``.

    Validates identity (same task/backend/parity/grid hash/spec hash/version
    across every shard), disjoint + complete coverage (each shard index and
    each grid position exactly once), and per-shard completeness (every
    declared cell durable, no CellError records) — any violation raises
    :class:`MergeError` and nothing is written.  The output format follows
    the suffix of ``output`` exactly like ``--output`` on a sweep
    (``.jsonl``/``.ndjson``/``.csv``); records land in full grid order and
    the shards' provenance events are appended after them, tagged with their
    shard index.
    """
    if not inputs:
        raise MergeError("merge needs at least one shard file")
    shards = [_read_shard(path) for path in inputs]
    total = _validate(shards)
    shards.sort(key=lambda s: s.index)
    manifest = _merged_manifest(shards, total)

    ordered: list[tuple[int, str, dict[str, Any]]] = []
    for shard in shards:
        for cid, position in shard.manifest.shard["cells"].items():
            ordered.append((int(position), cid, shard.records[cid]))
    ordered.sort(key=lambda item: item[0])

    output = pathlib.Path(output)
    events_written = 0
    sink = open_sink(output, resume=False)
    try:
        sink.start(manifest)
        for _, cid, record in ordered:
            sink.write(cid, record)
        for shard in shards:
            for event in shard.events:
                sink.note({"shard": shard.index, **event})
                events_written += 1
    finally:
        sink.close()
    return MergeResult(output=output, manifest=manifest, cells=total,
                       shards=len(shards), events=events_written)
