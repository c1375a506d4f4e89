"""Importable shared test helpers.

Kept out of ``conftest.py`` on purpose: ``conftest`` modules are loaded by
pytest under the single module name ``conftest``, so ``from conftest import
...`` resolves to whichever conftest was imported first when more than one
directory is collected.  Test modules must import helpers from here
instead.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.congest.ids import distinct_input_coloring, random_proper_coloring
from repro.engine.array import ArrayEngine
from repro.engine.registry import register_engine

__all__ = [
    "make_input_coloring",
    "graph_fingerprint",
    "BrokenArrayEngine",
    "register_broken_engine",
    "scaled_n_task",
    "shared_graph_probe_task",
    "failing_task",
]


def make_input_coloring(
    graph: Graph, m: int | None = None, seed: int = 0
) -> tuple[np.ndarray, int]:
    """A proper m-coloring for tests: distinct colors when the space allows it."""
    delta = max(1, graph.max_degree)
    if m is None:
        m = max(delta + 1, delta ** 4, graph.n)
    if m >= graph.n:
        return distinct_input_coloring(graph, m, seed=seed), m
    colors, m = random_proper_coloring(graph, num_colors=m, seed=seed)
    return colors, m


def graph_fingerprint(family: str, n: int, delta: int, seed: int) -> bytes:
    """CSR bytes of a generated graph — comparable across worker processes.

    Module-level so multiprocessing can ship it to freshly spawned
    interpreters (the cross-process determinism tests run this in a
    ``spawn``-context pool and compare against the parent's bytes).
    """
    from repro.congest import generators

    g = generators.by_name(family, n, delta, seed=seed)
    return g.indptr.tobytes() + b"|" + g.indices.tobytes()


class BrokenArrayEngine(ArrayEngine):
    """A deliberately wrong backend for exercising ``ParityError`` paths.

    Shifts every color by the color-space size: the coloring stays proper
    (verification passes) but no longer matches the reference engine, so a
    parity check must trip — under serial and parallel execution alike.
    """

    name = "broken-array"

    def run_mother(self, graph, input_colors, m, **kwargs):
        result = super().run_mother(graph, input_colors, m, **kwargs)
        result.colors = result.colors + result.color_space_size
        return result


def register_broken_engine() -> None:
    """Register :class:`BrokenArrayEngine`; importable, so usable as ``worker_init``."""
    register_engine("broken-array", BrokenArrayEngine)


def scaled_n_task(workload, engine, scale: int = 2):
    """Minimal importable custom task for pickling/parallel tests."""
    return {"value": workload.graph.n * scale}


def shared_graph_probe_task(workload, engine):
    """Importable task reporting how the worker's graph is backed.

    ``segment`` is the shared-memory segment name when the workload graph is a
    zero-copy attachment of the parent's published graph, or ``"private"``
    when the worker holds its own copy — the parallel lifecycle tests assert
    on it (segment sharing, not W x copies).
    """
    return {
        "segment": workload.graph.shared_name or "private",
        "pid": __import__("os").getpid(),
        "n": workload.graph.n,
    }


def failing_task(workload, engine):
    """Importable task that always raises (worker-exception cleanup tests)."""
    raise RuntimeError(f"deliberate failure on n={workload.graph.n}")
