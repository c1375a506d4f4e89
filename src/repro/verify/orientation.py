"""Verification of low-outdegree orientations of monochromatic edges.

A ``beta``-outdegree ``c``-coloring (Section 1.1) is a coloring with ``c``
colors together with an orientation of the *monochromatic* edges such that
every vertex has at most ``beta`` outgoing edges.  The orientation is given as
a ``(k, 2)`` integer array whose row ``(u, v)`` means the edge ``{u, v}`` is
oriented ``u -> v``.  Every check is an array operation over the rows and the
CSR entries; nothing loops over edges in Python.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.verify.coloring import VerificationError, _as_colors, _mono_entries

__all__ = [
    "monochromatic_edges",
    "orientation_outdegrees",
    "assert_outdegree_orientation",
]


def monochromatic_edges(graph: Graph, colors) -> np.ndarray:
    """All edges ``(u, v)`` (``u < v``) whose endpoints share a color, in
    lexicographic order."""
    src, dst = graph.src_index, graph.indices
    mask = _mono_entries(graph, _as_colors(graph, colors))
    mask &= src < dst
    return np.stack([src[mask], dst[mask]], axis=1)


def _checked_rows(graph: Graph, orientation) -> tuple[np.ndarray, np.ndarray]:
    """The orientation's tails and heads, after checking every row is an edge.

    A row ``(u, v)`` is an edge iff its key ``u * n + v`` occurs among the
    CSR keys ``src * n + dst``, which are sorted (rows by source, neighbors
    sorted within a row).
    """
    rows = np.asarray(orientation, dtype=np.int64).reshape(-1, 2)
    u, v = rows[:, 0], rows[:, 1]
    n = graph.n
    keys = graph.src_index * n + graph.indices
    wanted = u * n + v
    pos = np.searchsorted(keys, wanted)
    is_edge = (u >= 0) & (u < n) & (v >= 0) & (v < n) & (pos < keys.size)
    is_edge[is_edge] = keys[pos[is_edge]] == wanted[is_edge]
    if not is_edge.all():
        bad = int(np.argmin(is_edge))
        raise VerificationError(f"orientation contains non-edge ({int(u[bad])}, {int(v[bad])})")
    return u, v


def orientation_outdegrees(graph: Graph, orientation) -> np.ndarray:
    """Outdegree of every vertex under the given ``(k, 2)`` orientation."""
    u, _ = _checked_rows(graph, orientation)
    return np.bincount(u, minlength=graph.n)


def assert_outdegree_orientation(
    graph: Graph,
    colors,
    orientation,
    beta: int,
) -> None:
    """Check that ``orientation`` orients every monochromatic edge exactly once
    with outdegree at most ``beta`` per vertex.

    Raises
    ------
    VerificationError
        If a monochromatic edge is unoriented / doubly oriented, if the
        orientation contains a non-monochromatic or non-existent edge, or if
        some vertex has outdegree exceeding ``beta``.
    """
    arr = _as_colors(graph, colors)
    u, v = _checked_rows(graph, orientation)
    n = graph.n
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    canon = np.sort(lo * n + hi)
    twice = canon[1:] == canon[:-1]
    if twice.any():
        key = int(canon[1:][np.argmax(twice)])
        raise VerificationError(f"edge {divmod(key, n)} oriented twice")
    differ = arr[u] != arr[v]
    if differ.any():
        bad = int(np.argmax(differ))
        raise VerificationError(
            f"orientation contains edge ({int(u[bad])}, {int(v[bad])}) "
            "whose endpoints have different colors"
        )

    # The rows are distinct monochromatic edges, so they cover every
    # monochromatic edge iff there are as many of them.
    mono = monochromatic_edges(graph, arr)
    if mono.shape[0] != canon.size:
        covered = np.isin(mono[:, 0] * n + mono[:, 1], canon)
        a, b = mono[np.argmin(covered)]
        raise VerificationError(f"monochromatic edge ({int(a)}, {int(b)}) is not oriented")

    out = np.bincount(u, minlength=n)
    if out.size and int(out.max()) > beta:
        w = int(np.argmax(out))
        raise VerificationError(
            f"vertex {w} has outdegree {int(out[w])}, exceeding the bound beta={beta}"
        )
