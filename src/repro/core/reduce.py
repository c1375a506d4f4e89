"""Color reductions down to ``Delta + 1`` colors.

Two classical reductions are provided, both used as the "finishing" step after
the mother algorithm has produced an ``O(Delta)`` or ``O(Delta^2)`` coloring:

* :func:`remove_color_class_reduction` — the reduction the paper invokes after
  its ``k = 1`` algorithm ("we can use an additional ``O(Delta)`` rounds in
  each of which we remove a single color class"): in each round the vertices of
  the currently largest color value repick a free color in ``[Delta + 1]``.
  One round per removed color class.  This is the engines' second primitive,
  :meth:`repro.engine.base.Engine.remove_color_class`.

* :func:`kuhn_wattenhofer_reduction` — the classical block-halving reduction
  (Kuhn-Wattenhofer style, see also [BE09]): the color space is partitioned
  into blocks of ``2 (Delta + 1)`` colors, every block is reduced to
  ``Delta + 1`` colors in ``Delta + 1`` rounds *in parallel*, halving the
  number of colors; ``O(Delta * log(m / Delta))`` rounds in total.  It is
  composed from the removal primitive: one removal per phase, on the
  subgraph of edges inside a block.

Both simulate the distributed algorithm directly with arrays: a round consists
of every affected vertex looking at its neighbors' *current* colors (one
message each, clearly CONGEST) and recoloring simultaneously; the returned
``rounds`` is the number of such rounds.  Both resolve ``backend=`` through
:func:`repro.engine.registry.get_engine`.

Each engine's removal runs one of the per-class loops below inside
:func:`run_removal` (copy, range and target checks, result).  The loops give
identical colors and round counts, because the greedy "smallest free color"
choice is deterministic (property-tested in ``tests/test_engine_parity.py``
and ``tests/test_kernel_compaction.py``):

* :func:`removal_loop_reference` — per-vertex Python sets;
* :func:`removal_loop_array` — gathers only the CSR entries incident to the
  round's class (:meth:`repro.congest.graph.Graph.incident_csr_entries`), so
  a round costs ``O(affected degree)`` and a whole reduction ``O(|E| + n log
  n)`` instead of ``O(color classes x |E|)``;
* :func:`removal_loop_jit` — hands the whole reduction to one compiled
  kernel call (the C tier, :mod:`repro.core.kernels_cc`), which
  runs the classes in order and fuses the gather and the occupancy scan
  into one pass per affected vertex.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.congest.graph import Graph
from repro.core.results import ColoringResult
from repro.core.workspace import Workspace
from repro.engine.base import Engine
from repro.engine.registry import get_engine

__all__ = [
    "remove_color_class_reduction",
    "kuhn_wattenhofer_reduction",
    "run_removal",
    "removal_loop_reference",
    "removal_loop_array",
    "removal_loop_jit",
]


def _validated_target(graph: Graph, target_colors: int | None) -> int:
    delta = graph.max_degree
    if target_colors is None:
        target_colors = delta + 1
    if target_colors < delta + 1:
        raise ValueError(
            f"cannot greedily reduce below Delta + 1 = {delta + 1} colors, requested {target_colors}"
        )
    return int(target_colors)


def run_removal(
    graph: Graph,
    colors: np.ndarray,
    target_colors: int | None,
    backend: str,
    loop: Callable[..., int],
    *args,
) -> ColoringResult:
    """The envelope of every engine's color-class removal.

    Copies ``colors`` as int64, rejects a negative color (the array loop
    would index its occupancy row from the end), checks ``target_colors``
    (default ``Delta + 1``), lets ``loop(graph, colors, target, *args)``
    recolor the copy in place and return its round count, and wraps the
    outcome.
    """
    colors = np.asarray(colors, dtype=np.int64).copy()
    if colors.size and int(colors.min()) < 0:
        raise ValueError(f"color-class removal needs non-negative colors, got {int(colors.min())}")
    target = _validated_target(graph, target_colors)
    rounds = loop(graph, colors, target, *args)
    return ColoringResult(
        colors=colors,
        rounds=rounds,
        color_space_size=target,
        metadata={"method": "remove_color_class", "target_colors": target, "backend": backend},
    )


def removal_loop_reference(graph: Graph, colors: np.ndarray, target: int) -> int:
    """Per-vertex Python sets: the highest class repicks until none is left."""
    rounds = 0
    while colors.size and int(colors.max()) >= target:
        vertices = np.nonzero(colors == colors.max())[0]
        forbidden = [{int(colors[u]) for u in graph.neighbors(int(v))} for v in vertices]
        for v, banned in zip(vertices, forbidden):
            c = 0
            while c in banned:
                c += 1
            colors[v] = c
        rounds += 1
    return rounds


def _classes_from_top(colors: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    """The color classes at or above ``target``, highest color first.

    Returns ``(order, starts)``: class ``i`` is ``order[starts[i]:starts[i +
    1]]``, in ascending vertex order, and ``starts[-1] == order.size``.  The
    vertices are bucketed by the key ``top - color``, an LSD radix sort: one
    stable uint16 argsort (which NumPy runs as a radix sort) per 16 bits of
    the span ``top - target``, so one pass below ``2**16``.  Every recolored
    vertex lands *below* the target (a free color exists because degree
    ``<= Delta < target``), so these initial buckets are exactly the
    per-round classes.
    """
    high = np.flatnonzero(colors >= target)
    if high.size == 0:
        return high, np.zeros(1, dtype=np.int64)
    top = int(colors[high].max())
    key = top - colors[high]
    order = high
    for shift in range(0, (top - target).bit_length(), 16):
        perm = np.argsort((key >> shift).astype(np.uint16), kind="stable")
        order, key = order[perm], key[perm]
    boundaries = np.flatnonzero(key[1:] != key[:-1]) + 1
    return order, np.concatenate(([0], boundaries, [order.size]))


def removal_loop_array(graph: Graph, colors: np.ndarray, target: int) -> int:
    """Compacted CSR gather + occupancy scatter, one class per round.

    Per round only the class's incident CSR entries are gathered and their
    neighbors' sub-``target`` colors scattered into a dense
    ``(class size, target)`` occupancy table; the first free column is the
    new color.  Neighbor colors ``>= target`` can never block the scan (the
    reference scan stops at most at index ``Delta``), so dropping them is
    exact.
    """
    order, starts = _classes_from_top(colors, target)
    ws = Workspace()
    for lo, hi in zip(starts[:-1], starts[1:]):
        vertices = order[lo:hi]
        positions, rows = graph.incident_csr_entries(vertices)
        nbr_idx = ws.gather("nbr_idx", graph.indices, positions)
        nbr_colors = ws.gather("nbr_colors", colors, nbr_idx)
        used = ws.zeros("used", vertices.size * target, dtype=bool)
        used = used.reshape(vertices.size, target)
        in_range = nbr_colors < target
        used[rows[in_range], nbr_colors[in_range]] = True
        np.logical_not(used, out=used)
        colors[vertices] = np.argmax(used, axis=1)
    return starts.size - 1


def removal_loop_jit(graph: Graph, colors: np.ndarray, target: int, kernels) -> int:
    """The whole reduction in one fused ``kernels.remove_classes`` call.

    The kernel runs the classes in their fixed order and, within a class,
    walks every vertex's CSR range, marks sub-``target`` neighbor colors in
    its own scratch row and adopts the first free column: the same choice as
    the array loop's ``argmax``.
    """
    order, starts = _classes_from_top(colors, target)
    widest = int(np.diff(starts).max(initial=0))
    used = np.empty(widest * target, dtype=np.uint8)
    kernels.remove_classes(order, starts, graph.indptr, graph.indices, colors, target, used)
    return starts.size - 1


def remove_color_class_reduction(
    graph: Graph,
    colors: np.ndarray,
    target_colors: int | None = None,
    backend: str | Engine = "reference",
) -> ColoringResult:
    """Reduce a proper coloring to ``target_colors`` (default ``Delta + 1``) colors.

    In each round all vertices whose color equals the current maximum color
    value ``c >= target_colors`` simultaneously pick the smallest color in
    ``[target_colors]`` not used by any neighbor.  These vertices form an
    independent set (they share a color of a proper coloring), so simultaneous
    recoloring is safe, and a free color exists because the degree is at most
    ``Delta < target_colors``.

    Rounds: one per color value above ``target_colors`` that actually occurs.
    ``backend`` (a registered name or an engine) picks the engine whose
    :meth:`~repro.engine.base.Engine.remove_color_class` runs; all produce
    identical colors and round counts.
    """
    return get_engine(backend).remove_color_class(graph, colors, target_colors=target_colors)


def kuhn_wattenhofer_reduction(
    graph: Graph,
    colors: np.ndarray,
    m: int,
    target_colors: int | None = None,
    backend: str | Engine = "reference",
) -> ColoringResult:
    """Block-halving reduction from an ``m``-coloring to ``Delta + 1`` colors.

    Each phase partitions the current color space ``[m']`` into blocks of
    ``2 (Delta + 1)`` consecutive colors.  Within every block (in parallel,
    using the block's own lower ``Delta + 1`` colors as the target space) the
    upper colors are removed one value per round, from the highest offset
    down.  A vertex competes only with neighbors in its own block: any other
    neighbor's color differs in the block part.  So a phase is one
    color-class removal of ``colors % block`` on the subgraph of same-block
    edges, run by ``backend``'s engine, after which every block keeps only
    its lower half.  Every offset of every phase is charged a round,
    occupied or not: a phase takes ``Delta + 1`` rounds and at least halves
    the number of colors, so the total is ``O(Delta * log(m / Delta))`` —
    the classical bound the paper's ``O(Delta)``-round algorithms improve
    upon.
    """
    engine = get_engine(backend)
    colors = np.asarray(colors, dtype=np.int64).copy()
    target = _validated_target(graph, target_colors)
    if colors.size and (int(colors.min()) < 0 or int(colors.max()) >= m):
        raise ValueError("input coloring uses colors outside the declared space [m]")
    block = 2 * target
    space = int(m)
    phases = 0
    while space > target:
        phases += 1
        blocks = colors // block
        same_block = graph.spanning_subgraph(blocks[graph.src_index] == blocks[graph.indices])
        offsets = engine.remove_color_class(same_block, colors % block, target_colors=target)
        colors = blocks * target + offsets.colors
        space = -(-space // block) * target
    return ColoringResult(
        colors=colors,
        rounds=phases * target,
        color_space_size=max(space, target),
        metadata={
            "method": "kuhn_wattenhofer",
            "phases": phases,
            "target_colors": target,
            "backend": engine.name,
        },
    )
