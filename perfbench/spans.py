"""Spans around the package's public calls, recorded from outside the package.

:func:`install` wraps the calls listed in :data:`TRACED` in the running
process: module-level functions are rebound everywhere the package imported
them, methods are replaced on their class.  Forked pool workers inherit the
wrappers.  Each span is ``[pid, id, parent id, name, start, end, thread,
context, attribute]``; spans live in memory and each process appends them to
``spans-<pid>.jsonl`` in the trace directory when it exits.  Pool workers
leave through ``os._exit``, so a forked process writes its spans whenever its
outermost span closes, once per cell.

:func:`layer_metrics` folds the span files into the per-layer metrics of
:data:`PER_LAYER`.  This module imports nothing from the package until
:func:`install` runs, so the harness can aggregate without importing it.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from collections import defaultdict

from perfbench.stats import self_time

#: Environment variable naming the directory span files go to.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

#: Context of spans recorded before a benchmark process starts its first op.
SETUP = "setup"

#: (span name, "module:qualified.name") for every wrapped call.
TRACED = (
    ("congest.generate", "repro.congest.generators:by_name"),
    ("congest.csr_build", "repro.congest.graph:Graph.from_edge_array"),
    ("congest.shm_publish", "repro.congest.graph:Graph.to_shared"),
    ("corpus.parse", "repro.corpus.ingest:parse_edge_list"),
    ("corpus.digest", "repro.corpus.cache:file_digest"),
    ("corpus.ingest", "repro.corpus.ingest:ingest"),
    ("core.run_mother", "repro.engine.array:ArrayEngine.run_mother"),
    ("core.run_mother", "repro.engine.jit:JitEngine.run_mother"),
    ("core.remove_color_class", "repro.engine.array:ArrayEngine.remove_color_class"),
    ("core.remove_color_class", "repro.engine.jit:JitEngine.remove_color_class"),
    ("engine.warmup", "repro.engine.base:Engine.warmup"),
    ("engine.warmup", "repro.engine.jit:JitEngine.warmup"),
    ("engine.cell", "repro.engine.batch:BatchRunner.run_cell_with_artifacts"),
    ("engine.run", "repro.engine.batch:BatchRunner.run"),
    ("engine.pool", "repro.engine.parallel:run_cells_parallel"),
    ("engine.sink_write", "repro.engine.sink:ResultSink.write"),
    ("engine.sink_write", "repro.engine.sink:JsonlSink.write"),
    ("engine.sink_write", "repro.engine.sink:CsvSink.write"),
    ("verify.check", "repro.verify.coloring:assert_proper_coloring"),
    ("verify.check", "repro.verify.coloring:assert_defective_coloring"),
    ("verify.check", "repro.verify.orientation:assert_outdegree_orientation"),
    ("verify.check", "repro.verify.partition:assert_partition_degree_bound"),
    ("verify.check", "repro.verify.ruling:assert_ruling_set"),
    ("verify.check", "repro.congest.ids:validate_proper_coloring"),
    ("api.solve", "repro.api.solve:solve"),
    ("api.run_spec", "repro.api.solve:run_spec"),
    ("api.spec_hash", "repro.api.spec:spec_hash"),
    ("api.validate", "repro.api.spec:JobSpec.from_dict"),
    ("api.validate", "repro.api.registry:AlgorithmSpec.validate_params"),
    ("server.execute", "repro.server.queue:JobQueue._execute"),
    ("server.store_update", "repro.server.store:JobStore.update"),
    ("server.store_read", "repro.server.store:JobStore.load"),
    ("server.store_read", "repro.server.store:JobStore.manifest"),
    ("server.store_read", "repro.server.store:JobStore.records"),
)

#: Per-span attributes taken from the wrapped call's return value.
_ATTRIBUTES = {
    "corpus.parse": lambda parsed: int(parsed.lines[-1]) if len(parsed.lines) else 0,
    "corpus.ingest": lambda loaded: int(bool(loaded.cached)),
    "engine.cell": lambda out: int(out[0].get("rounds") or 0),
    "engine.run": lambda result: len(result.events),
}

#: Per-layer metrics: (name, unit, better, how, span, should move, on which workload).
#: ``how``: ``self`` sums self time, ``count`` counts spans, ``attr`` sums the
#: span attribute, ``mean`` averages it; ``client`` metrics are timed by the
#: serve clients from outside the server.
PER_LAYER = (
    ("congest.generate_s", "s", "lower", "self", "congest.generate",
     "edges_per_s; op_p50_s", "big_graph (scale_free); serve"),
    ("congest.generate_calls", "count", "lower", "count", "congest.generate",
     "edges_per_s", "big_graph; serve"),
    ("congest.csr_build_s", "s", "lower", "self", "congest.csr_build",
     "edges_per_s", "big_graph (file)"),
    ("congest.shm_publish_s", "s", "lower", "self", "congest.shm_publish",
     "cells_per_s", "sweep; serve (bulk)"),
    ("corpus.parse_s", "s", "lower", "self", "corpus.parse",
     "edges_per_s", "big_graph (file)"),
    ("corpus.parse_lines", "count", "lower", "attr", "corpus.parse",
     "edges_per_s", "big_graph (file)"),
    ("corpus.digest_s", "s", "lower", "self", "corpus.digest",
     "edges_per_s; cells_per_s", "big_graph; sweep"),
    ("corpus.cache_hit_frac", "ratio", "higher", "mean", "corpus.ingest",
     "cells_per_s", "sweep"),
    ("core.run_mother_s", "s", "lower", "self", "core.run_mother",
     "edges_per_s; cells_per_s; op_p50_s", "big_graph (grid); sweep; serve"),
    ("core.run_mother_calls", "count", "lower", "count", "core.run_mother",
     "edges_per_s; cells_per_s", "big_graph; sweep; serve"),
    ("core.remove_color_class_s", "s", "lower", "self", "core.remove_color_class",
     "edges_per_s; cells_per_s", "big_graph; sweep"),
    ("core.remove_color_class_calls", "count", "lower", "count",
     "core.remove_color_class", "edges_per_s; cells_per_s", "big_graph; sweep"),
    ("core.rounds", "count", "lower", "attr", "engine.cell",
     "explains core.run_mother_s and core.remove_color_class_s", "all"),
    ("engine.warmup_s", "s", "lower", "self", "engine.warmup", "setup_s", "all"),
    ("engine.cell_self_s", "s", "lower", "self", "engine.cell",
     "op_p50_s; cells_per_s", "serve; sweep"),
    ("engine.pool_s", "s", "lower", "self", "engine.pool",
     "cells_per_s", "sweep; serve (bulk)"),
    ("engine.sink_write_s", "s", "lower", "self", "engine.sink_write",
     "cells_per_s; op_p50_s", "sweep; serve"),
    ("engine.sink_writes", "count", "lower", "count", "engine.sink_write",
     "cells_per_s; op_p50_s", "sweep; serve"),
    ("engine.retry_events", "count", "lower", "attr", "engine.run",
     "failed ops (attempted/failed)", "all"),
    ("verify.check_s", "s", "lower", "self", "verify.check",
     "cells_per_s; edges_per_s", "sweep; big_graph"),
    ("verify.checks", "count", "lower", "count", "verify.check",
     "cells_per_s; edges_per_s", "sweep; big_graph"),
    ("api.solve_s", "s", "lower", "self", "api.solve", "edges_per_s", "big_graph"),
    ("api.run_spec_s", "s", "lower", "self", "api.run_spec",
     "op_p50_s; cells_per_s", "serve"),
    ("api.spec_hash_s", "s", "lower", "self", "api.spec_hash",
     "op_p50_s (cache hits)", "serve"),
    ("api.validate_s", "s", "lower", "self", "api.validate",
     "op_p50_s (cache hits)", "serve"),
    ("server.post_new_p50_s", "s", "lower", "client", None,
     "op_p50_s", "serve"),
    ("server.post_cached_p50_s", "s", "lower", "client", None,
     "op_p50_s (cache hits)", "serve"),
    ("server.queue_wait_p50_s", "s", "lower", "client", None, "op_p50_s", "serve"),
    ("server.queue_wait_p95_s", "s", "lower", "client", None,
     "interactive p95 (printed)", "serve"),
    ("server.run_p50_s", "s", "lower", "client", None,
     "op_p50_s; cells_per_s", "serve"),
    ("server.notify_p50_s", "s", "lower", "client", None, "op_p50_s", "serve"),
    ("server.store_update_s", "s", "lower", "self", "server.store_update",
     "op_p50_s; cells_per_s", "serve"),
    ("server.store_updates", "count", "lower", "count", "server.store_update",
     "op_p50_s; cells_per_s", "serve"),
    ("server.store_read_s", "s", "lower", "self", "server.store_read",
     "op_p50_s (cache hits)", "serve"),
    ("trace.spans", "count", "lower", "total", None,
     "the tracing overhead itself", "all"),
)


class Tracer:
    """In-memory span recorder for one process (and, after fork, its child)."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = pathlib.Path(directory)
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.context = SETUP
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._forked = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child inherits the parent's buffer and open-span stack: drop
        # both, and write spans per outermost span from now on.
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._forked = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_context(self, context: str, thread_only: bool = False) -> None:
        """Tag later spans (of this thread, or of the whole process)."""
        if thread_only:
            self._local.context = context
        else:
            self.context = context

    def current(self) -> str | None:
        stack = self._stack()
        return stack[-1][2] if stack else None

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1][0] if stack else 0, name,
                time.perf_counter(), None, threading.get_ident(),
                getattr(self._local, "context", None) or self.context, None]
        stack.append(span)
        return span

    def end(self, span: list, attribute=None) -> None:
        span[4] = time.perf_counter()
        span[7] = attribute
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # closed out of order (an abandoned generator)
            for index, open_span in enumerate(stack):
                if open_span is span:
                    del stack[index]
                    break
        self.spans.append(span)
        if self._forked and not stack:
            self.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        opened = self.begin(name)
        try:
            yield
        finally:
            self.end(opened)

    def flush(self) -> None:
        if not self.spans:
            return
        spans, self.spans = self.spans, []
        with open(self.directory / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps([self.pid, *span]) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    attribute = _ATTRIBUTES.get(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator(*args, **kwargs):
            if tracer.current() == name:
                return (yield from fn(*args, **kwargs))
            span = tracer.begin(name)
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                tracer.end(span)
        return generator

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if tracer.current() == name:  # a nested call of the same layer boundary
            return fn(*args, **kwargs)
        if name == "server.execute":  # JobQueue._execute(self, job_id)
            tracer.set_context(f"job:{args[1][:16]}", thread_only=True)
        span = tracer.begin(name)
        value = None
        try:
            result = fn(*args, **kwargs)
            if attribute is not None:
                value = attribute(result)
            return result
        finally:
            tracer.end(span, value)
    return call


def _rebind(original, wrapped) -> None:
    """Point every package module's reference to ``original`` at ``wrapped``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(directory: str | os.PathLike | None = None) -> Tracer:
    """Wrap every call of :data:`TRACED` in this process; return the tracer."""
    tracer = Tracer(directory or os.environ[TRACE_DIR_ENV])
    for name, target in TRACED:
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        *owners, attr = qualname.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(_wrap(tracer, name, raw.__func__)))
            else:
                setattr(owner, attr, _wrap(tracer, name, raw))
        else:
            original = getattr(module, attr)
            _rebind(original, _wrap(tracer, name, original))
    atexit.register(tracer.flush)
    return tracer


def maybe_install() -> Tracer | None:
    """Install when the trace directory is set in the environment."""
    return install() if os.environ.get(TRACE_DIR_ENV) else None


# --------------------------------------------------------------------------- #
# Aggregation
# --------------------------------------------------------------------------- #


def load_spans(directory: str | os.PathLike) -> list[list]:
    spans = []
    for path in sorted(pathlib.Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def span_self_times(spans: list[list]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``."""
    children = defaultdict(list)
    for pid, sid, parent, _name, start, end, *_ in spans:
        if parent:
            children[(pid, parent)].append((start, end))
    return {
        (pid, sid): self_time(start, end, children.get((pid, sid), ()))
        for pid, sid, _parent, _name, start, end, *_ in spans
    }


def layer_metrics(spans: list[list], client: dict | None = None) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans (and the serve clients).

    Spans tagged :data:`SETUP`, and spans nested under an ``engine.warmup``,
    count only towards ``engine.warmup_s``.  A layer that did no work in a
    workload reports 0.
    """
    by_key = {(span[0], span[1]): span for span in spans}
    selfs = span_self_times(spans)

    def in_warmup(span) -> bool:
        pid, parent = span[0], span[2]
        while parent:
            up = by_key.get((pid, parent))
            if up is None:
                return False
            if up[3] == "engine.warmup":
                return True
            parent = up[2]
        return False

    measured = defaultdict(list)
    for span in spans:
        name = span[3]
        if name == "engine.warmup" or (span[7] != SETUP and not in_warmup(span)):
            measured[name].append(span)

    client = client or {}
    out: dict[str, float] = {}
    for metric, _unit, _better, how, span_name, _moves, _on in PER_LAYER:
        chosen = measured.get(span_name, [])
        if how == "self":
            out[metric] = sum(selfs[(s[0], s[1])] for s in chosen)
        elif how == "count":
            out[metric] = len(chosen)
        elif how == "attr":
            out[metric] = sum(s[8] or 0 for s in chosen)
        elif how == "mean":
            out[metric] = sum(s[8] or 0 for s in chosen) / len(chosen) if chosen else 0.0
        elif how == "total":
            out[metric] = len(spans)
        else:
            out[metric] = client.get(metric, 0.0)
    return out
