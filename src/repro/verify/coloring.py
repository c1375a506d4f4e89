"""Proper and defective coloring verification.

Every check compares the two endpoint colors of each CSR entry
(``colors[graph.src_index]`` against ``colors[graph.indices]``), so no
``(m, 2)`` edge array is built.  Each edge appears once per endpoint; the
first monochromatic entry has ``u < v`` and is the lexicographically first
monochromatic edge, so error messages name that edge.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.core.results import count_distinct

__all__ = [
    "VerificationError",
    "is_proper_coloring",
    "assert_proper_coloring",
    "count_colors",
    "color_classes",
    "defect_vector",
    "max_defect",
    "assert_defective_coloring",
]


class VerificationError(AssertionError):
    """Raised when a claimed structural property does not hold."""


def _as_colors(graph: Graph, colors) -> np.ndarray:
    arr = np.asarray(colors)
    if arr.shape != (graph.n,):
        raise VerificationError(
            f"coloring has shape {arr.shape}, expected ({graph.n},)"
        )
    return arr


def _mono_entries(graph: Graph, arr: np.ndarray) -> np.ndarray:
    """Per CSR entry: do its two endpoints share a color?"""
    return arr[graph.src_index] == arr[graph.indices]


def is_proper_coloring(graph: Graph, colors) -> bool:
    """True iff no edge is monochromatic."""
    return not _mono_entries(graph, _as_colors(graph, colors)).any()


def assert_proper_coloring(graph: Graph, colors, max_colors: int | None = None) -> None:
    """Raise :class:`VerificationError` unless ``colors`` is proper (and within ``max_colors``)."""
    arr = _as_colors(graph, colors)
    same = _mono_entries(graph, arr)
    if same.any():
        entry = int(np.argmax(same))
        u, v = int(graph.src_index[entry]), int(graph.indices[entry])
        raise VerificationError(
            f"edge ({u}, {v}) is monochromatic with color {arr[u]!r}"
        )
    if max_colors is not None and count_colors(graph, arr) > max_colors:
        raise VerificationError(
            f"coloring uses {count_colors(graph, arr)} colors, allowed at most {max_colors}"
        )


def count_colors(graph: Graph, colors) -> int:
    """Number of distinct colors used."""
    return count_distinct(_as_colors(graph, colors))


def color_classes(graph: Graph, colors) -> dict:
    """Mapping ``color -> sorted array of vertices`` of that color."""
    arr = _as_colors(graph, colors)
    classes: dict = {}
    for v in range(graph.n):
        key = arr[v] if arr.dtype == object else int(arr[v])
        classes.setdefault(key, []).append(v)
    return {c: np.array(vs, dtype=np.int64) for c, vs in classes.items()}


def defect_vector(graph: Graph, colors) -> np.ndarray:
    """Per-vertex defect: number of neighbors sharing the vertex's color."""
    same = _mono_entries(graph, _as_colors(graph, colors))
    return np.bincount(graph.src_index[same], minlength=graph.n)


def max_defect(graph: Graph, colors) -> int:
    """Maximum per-vertex defect (0 for a proper coloring)."""
    vec = defect_vector(graph, colors)
    return int(vec.max()) if vec.size else 0


def assert_defective_coloring(
    graph: Graph, colors, d: int, max_colors: int | None = None
) -> None:
    """Raise unless the coloring is ``d``-defective (every defect ``<= d``) and within ``max_colors``."""
    vec = defect_vector(graph, colors)
    if vec.size and int(vec.max()) > d:
        v = int(np.argmax(vec))
        raise VerificationError(
            f"vertex {v} has defect {int(vec[v])}, exceeding the allowed defect {d}"
        )
    if max_colors is not None and count_colors(graph, colors) > max_colors:
        raise VerificationError(
            f"coloring uses {count_colors(graph, colors)} colors, allowed at most {max_colors}"
        )
