"""Unique identifiers and input colorings.

The paper's algorithms take an *input coloring* with ``m`` colors rather than
unique IDs; Linial's algorithm treats the unique ``O(log n)``-bit IDs as an
input coloring with ``m = poly(n)`` colors.  This module provides

* unique ID assignments (identity or a seeded permutation over a polynomial
  ID space),
* helpers that turn IDs into input colorings,
* a sequential greedy proper coloring used to manufacture ``m``-input-colored
  test instances,
* validation of input colorings.
"""

from __future__ import annotations

import numpy as np

from repro.congest.generators import canonical_rng
from repro.congest.graph import Graph

__all__ = [
    "assign_unique_ids",
    "ids_as_coloring",
    "greedy_coloring",
    "random_proper_coloring",
    "distinct_input_coloring",
    "delta4_input_coloring",
    "validate_proper_coloring",
    "InputColoringError",
]


class InputColoringError(ValueError):
    """Raised when an input coloring is not a proper coloring or out of range."""


def assign_unique_ids(graph: Graph, id_space: int | None = None, seed: int | None = None) -> np.ndarray:
    """Assign distinct IDs from ``[id_space]`` to the vertices.

    With ``seed=None`` the identity assignment ``id(v) = v`` is used (and
    ``id_space`` defaults to ``n``); otherwise IDs are a random injection into
    ``[id_space]`` (default ``n**2``, mimicking the usual polynomial ID space).
    """
    n = graph.n
    if seed is None:
        space = n if id_space is None else int(id_space)
        if space < n:
            raise InputColoringError(f"id space {space} too small for {n} vertices")
        return np.arange(n, dtype=np.int64)
    space = int(id_space) if id_space is not None else max(n * n, 4)
    if space < n:
        raise InputColoringError(f"id space {space} too small for {n} vertices")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(space, size=n, replace=False)).astype(np.int64, copy=False)[
        rng.permutation(n)
    ]


def ids_as_coloring(ids: np.ndarray, id_space: int | None = None) -> tuple[np.ndarray, int]:
    """Interpret unique IDs as an input coloring; returns ``(colors, m)``."""
    ids = np.asarray(ids, dtype=np.int64)
    m = int(id_space) if id_space is not None else int(ids.max()) + 1 if ids.size else 1
    if ids.size and (ids.min() < 0 or ids.max() >= m):
        raise InputColoringError("ids out of range of the declared id space")
    return ids.copy(), m


def greedy_coloring(graph: Graph, order: np.ndarray | None = None) -> np.ndarray:
    """Sequential greedy coloring (first-fit) along ``order``; uses ``<= Delta + 1`` colors.

    This is the centralized baseline the ``Delta + 1`` bound comes from; it is
    also used to manufacture proper ``m``-input colorings for experiments.
    """
    n = graph.n
    if order is None:
        order = np.arange(n, dtype=np.int64)
    order = np.asarray(order, dtype=np.int64)
    if order.size != n or set(order.tolist()) != set(range(n)):
        raise InputColoringError("order must be a permutation of the vertices")
    colors = -np.ones(n, dtype=np.int64)
    for v in order:
        used = {int(colors[u]) for u in graph.neighbors(int(v)) if colors[u] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[v] = c
    return colors


def random_proper_coloring(
    graph: Graph, num_colors: int | None = None, seed: int = 0
) -> tuple[np.ndarray, int]:
    """A proper input coloring with (at most) ``num_colors`` colors.

    The coloring is produced by greedy first-fit along a random vertex order
    and then randomly "spread out" over the requested color space so that the
    input coloring actually uses large color values (as an adversarial input
    coloring would).  Returns ``(colors, m)`` where ``m`` is the size of the
    color space (``num_colors`` or ``Delta + 1`` if not given).
    """
    rng = canonical_rng(seed)
    base = greedy_coloring(graph, order=rng.permutation(graph.n).astype(np.int64))
    used = int(base.max()) + 1 if base.size else 1
    m = int(num_colors) if num_colors is not None else used
    if m < used:
        raise InputColoringError(
            f"requested {m} colors but the greedy coloring needs {used} "
            f"(graph has max degree {graph.max_degree})"
        )
    # Injectively remap the used colors into [m] so that high color values occur.
    remap = np.sort(rng.choice(m, size=used, replace=False))
    rng.shuffle(remap)
    return remap[base], m


def distinct_input_coloring(graph: Graph, m: int, seed: int = 0) -> np.ndarray:
    """A proper input coloring where every vertex gets a *distinct* color from ``[m]``.

    This mimics the typical source of an ``m``-input coloring in the paper —
    unique IDs, or the output of Linial's algorithm — where the number of
    distinct colors is large.  (The greedy-based
    :func:`random_proper_coloring` only produces ``~Delta + 1`` distinct
    colors, which makes the coloring algorithms finish unrealistically fast.)
    Requires ``m >= n``.
    """
    if m < graph.n:
        raise InputColoringError(
            f"distinct input coloring needs m >= n, got m={m}, n={graph.n}"
        )
    rng = canonical_rng(seed)
    return np.sort(rng.choice(m, size=graph.n, replace=False).astype(np.int64))[
        rng.permutation(graph.n)
    ]


def delta4_input_coloring(graph: Graph, seed: int = 0) -> tuple[np.ndarray, int]:
    """The standing ``Delta^4``-input coloring of Corollary 1.2, as ``(colors, m)``.

    Distinct colors whenever the ``Delta^4`` space covers all vertices (as
    with unique IDs), otherwise a greedy coloring spread into the space.  The
    single source of this construction — the experiment harness and the
    BatchRunner both build their workloads from it, so recorded tables stay
    reproducible.
    """
    delta = max(1, graph.max_degree)
    m = max(delta + 1, delta ** 4)
    if m >= graph.n:
        return distinct_input_coloring(graph, m, seed=seed), m
    return random_proper_coloring(graph, num_colors=m, seed=seed)


def validate_proper_coloring(graph: Graph, colors: np.ndarray, m: int | None = None) -> None:
    """Raise :class:`InputColoringError` unless ``colors`` is a proper coloring in ``[m]``."""
    colors = np.asarray(colors)
    if colors.shape != (graph.n,):
        raise InputColoringError(
            f"coloring has shape {colors.shape}, expected ({graph.n},)"
        )
    if graph.n and colors.min() < 0:
        raise InputColoringError("colors must be non-negative")
    if m is not None and graph.n and colors.max() >= m:
        raise InputColoringError(
            f"color {int(colors.max())} out of range for declared m={m}"
        )
    # Over CSR entries: the first monochromatic one has u < v and is the
    # lexicographically first monochromatic edge.
    src, dst = graph.src_index, graph.indices
    same = colors[src] == colors[dst]
    if same.any():
        entry = int(np.argmax(same))
        u, v = int(src[entry]), int(dst[entry])
        raise InputColoringError(
            f"not a proper coloring: edge ({u}, {v}) is monochromatic "
            f"with color {int(colors[u])}"
        )
