"""Verification of ``(alpha, r)``-ruling sets.

A ``(2, r)``-ruling set is an independent set ``S`` such that every vertex has
a vertex of ``S`` within hop distance ``r``.  More generally an
``(alpha, r)``-ruling set requires ``S`` to be independent in the power graph
``G^(alpha - 1)``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.congest.graph import Graph
from repro.verify.coloring import VerificationError

__all__ = ["is_independent_set", "domination_radius", "assert_ruling_set"]


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff no two vertices of the set are adjacent."""
    chosen = np.zeros(graph.n, dtype=bool)
    chosen[np.fromiter(vertices, dtype=np.int64)] = True
    return not np.any(chosen[graph.src_index] & chosen[graph.indices])


def domination_radius(graph: Graph, vertices: Iterable[int]) -> int:
    """Smallest ``r`` such that every vertex is within distance ``r`` of the set.

    Returns ``-1`` if some vertex cannot reach the set at all (or the set is
    empty while the graph is not).
    """
    frontier = np.unique(np.fromiter(vertices, dtype=np.int64))
    if graph.n == 0:
        return 0
    if not frontier.size:
        return -1
    # Multi-source BFS from the whole set, one CSR gather per level.
    dist = -np.ones(graph.n, dtype=np.int64)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        level += 1
        positions, _ = graph.incident_csr_entries(frontier)
        reached = graph.indices[positions]
        frontier = np.unique(reached[dist[reached] < 0])
        dist[frontier] = level
    if np.any(dist < 0):
        return -1
    return int(dist.max())


def assert_ruling_set(
    graph: Graph,
    vertices: Iterable[int],
    r: int,
    alpha: int = 2,
) -> None:
    """Check that ``vertices`` is an ``(alpha, r)``-ruling set.

    Raises
    ------
    VerificationError
        If the set is not independent in ``G^(alpha - 1)`` or some vertex is
        farther than ``r`` hops from the set.
    """
    chosen = np.unique(np.fromiter(vertices, dtype=np.int64))
    out_of_range = chosen[(chosen < 0) | (chosen >= graph.n)]
    if out_of_range.size:
        raise VerificationError(f"ruling-set vertex {out_of_range[0]} out of range")
    base = graph if alpha == 2 else graph.power_graph(alpha - 1)
    if not is_independent_set(base, chosen):
        raise VerificationError(
            f"set is not independent in G^{alpha - 1}"
        )
    radius = domination_radius(graph, chosen)
    if radius < 0 or radius > r:
        raise VerificationError(
            f"set does not dominate the graph within distance {r} "
            f"(measured radius: {radius})"
        )
