"""Durable, content-addressed job state for the job server.

Layout of the state directory::

    <state_dir>/
      jobs/
        <spec_hash>/
          job.json        # JobStatus document (atomically replaced on update)
          records.jsonl   # the job's JSONL sink (manifest first line)

The job id *is* the spec's canonical hash, so the store doubles as the
result cache: a resubmission of the same document lands in the same
directory, and a finished job's records are served without re-execution.

``job.json`` holds a job's last state transition: it is written when the
job is created and whenever an update sets ``state``, write-temp-then-rename
so a killed server never leaves a torn document.  The status of a live job
(``queued`` or ``running``) is kept in the store's memory, so loading or
updating it reads no file, and per-cell progress (``cells_done``,
``cells_total``, ``backend_tier``) stays there until the next transition; a
job that reaches ``done`` or ``failed`` is written once more and leaves
memory, so a finished job (a cache hit) loads from disk.  Another process
reading ``job.json`` mid-run therefore sees the counts of the last
transition.  The durable per-cell record is the records file, the sink's own
torn-line-tolerant JSONL, so restart recovery is the sink's ``resume=True``
path: a job found ``running`` on disk resumes from its finished cells.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import threading
import time
from typing import Any, Iterator

from repro.api.spec import JOB_STATES, JobStatus, SpecError

__all__ = ["JobStoreError", "JobStore"]


class JobStoreError(RuntimeError):
    """An unusable job directory (missing/corrupt status document)."""


_FIELDS = frozenset(field.name for field in dataclasses.fields(JobStatus))


class JobStore:
    """The server's persistent job table (one directory per spec hash)."""

    def __init__(self, state_dir: os.PathLike | str):
        self.root = pathlib.Path(state_dir)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        # One lock for all read-modify-write status updates: worker threads
        # (progress callbacks) and the asyncio thread (submissions) both
        # touch job statuses.
        self._lock = threading.Lock()
        # The status of every live job this store created or updated.  An
        # entry is replaced on each update, never changed in place, so a
        # status handed to a caller stays a consistent snapshot.
        self._live: dict[str, JobStatus] = {}

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def job_dir(self, job_id: str) -> pathlib.Path:
        if not job_id or any(c not in "0123456789abcdef" for c in job_id):
            raise JobStoreError(f"malformed job id {job_id!r} (expected a hex spec hash)")
        return self.jobs_dir / job_id

    def status_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "job.json"

    def records_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "records.jsonl"

    # ------------------------------------------------------------------ #
    # Status documents
    # ------------------------------------------------------------------ #

    def create(self, job_id: str, spec: dict[str, Any]) -> JobStatus:
        """Create a queued job (or return the existing one — content address)."""
        with self._lock:
            existing = self._load_unlocked(job_id)
            if existing is not None:
                return existing
            status = JobStatus(id=job_id, spec=spec, state="queued",
                               submitted_at=time.time())
            self.job_dir(job_id).mkdir(exist_ok=True)
            self._write_unlocked(status)
            self._live[job_id] = status
            return status

    def load(self, job_id: str) -> JobStatus | None:
        """A job's status: from memory while live, else from ``job.json``."""
        with self._lock:
            return self._load_unlocked(job_id)

    def _load_unlocked(self, job_id: str) -> JobStatus | None:
        live = self._live.get(job_id)
        if live is not None:
            return live
        path = self.status_path(job_id)
        if not path.exists():
            return None
        try:
            return JobStatus.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (json.JSONDecodeError, SpecError) as exc:
            raise JobStoreError(f"corrupt job status {path}: {exc}") from None

    def update(self, job_id: str, **changes: Any) -> JobStatus:
        """Apply field changes to a job's status.

        A change that sets ``state`` (or touches a job this store does not
        hold live) atomically rewrites ``job.json``; any other change to a
        live job only replaces its in-memory status.
        """
        with self._lock:
            status = self._load_unlocked(job_id)
            if status is None:
                raise JobStoreError(f"unknown job {job_id!r}")
            for field_name in changes:
                if field_name not in _FIELDS:
                    raise JobStoreError(f"JobStatus has no field {field_name!r}")
            if "state" in changes and changes["state"] not in JOB_STATES:
                raise JobStoreError(f"unknown job state {changes['state']!r}")
            status = dataclasses.replace(status, **changes)
            if "state" in changes or job_id not in self._live:
                self._write_unlocked(status)
            if status.terminal:
                self._live.pop(job_id, None)
            else:
                self._live[job_id] = status
            return status

    def _write_unlocked(self, status: JobStatus) -> None:
        path = self.status_path(status.id)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(status.to_dict(), indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, path)  # atomic on POSIX: never a torn job.json

    # ------------------------------------------------------------------ #
    # Enumeration / recovery
    # ------------------------------------------------------------------ #

    def job_ids(self) -> list[str]:
        """All known job ids (sorted for deterministic listings)."""
        return sorted(
            p.name for p in self.jobs_dir.iterdir()
            if p.is_dir() and (p / "job.json").exists()
        )

    def statuses(self) -> Iterator[JobStatus]:
        for job_id in self.job_ids():
            status = self.load(job_id)
            if status is not None:
                yield status

    def incomplete_job_ids(self) -> list[str]:
        """Jobs a restarted server must re-queue (``queued`` or ``running``).

        A job found ``running`` at startup is a job the previous process died
        under; its sink holds every cell that completed durably, so re-running
        it resumes — it never recomputes finished cells.
        """
        return [s.id for s in self.statuses() if not s.terminal]

    def counts(self) -> dict[str, int]:
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for status in self.statuses():
            counts[status.state] = counts.get(status.state, 0) + 1
        return counts

    # ------------------------------------------------------------------ #
    # Records (the job's sink file, read-side)
    # ------------------------------------------------------------------ #

    def manifest(self, job_id: str) -> dict[str, Any] | None:
        """The sink manifest of a job's records file (first JSONL line)."""
        path = self.records_path(job_id)
        if not path.exists():
            return None
        with path.open("r", encoding="utf-8") as fh:
            head = fh.readline()
        if not head.endswith("\n"):
            return None  # torn first line: the manifest write did not survive
        try:
            return json.loads(head).get("manifest")
        except json.JSONDecodeError:
            return None

    def records(self, job_id: str) -> list[dict[str, Any]]:
        """The ``{cell, record}`` entries written so far (torn tail skipped)."""
        path = self.records_path(job_id)
        if not path.exists():
            return []
        out = []
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        if lines and lines[-1] != "":
            lines = lines[:-1]  # torn final line: not durable, not reported
        for line in lines[1:]:  # skip the manifest line
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and "cell" in obj and "record" in obj:
                out.append(obj)
        return out
