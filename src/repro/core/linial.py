"""Linial's ``O(log* n)``-round ``O(Delta^2)``-coloring, realised via the mother algorithm.

Linial's algorithm treats the unique ``O(log n)``-bit IDs as an input coloring
with ``m = poly(n)`` colors and repeatedly applies a one-round color reduction
that maps an ``m``-coloring to an ``O(Delta^2 * polylog m)``-coloring.  After
``O(log* n)`` iterations the number of colors stabilises at ``O(Delta^2)``.

Here each iteration is exactly Corollary 1.2 (1) — the mother algorithm with
``d = 0`` and a single batch — so this module is also the standard preprocessing
step that produces the ``Delta^4`` / ``Delta^2`` input colorings every other
algorithm in the package starts from.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.congest.ids import InputColoringError, assign_unique_ids, validate_proper_coloring
from repro.core.corollaries import linial_color_reduction
from repro.core.results import ColoringResult
from repro.engine.base import Engine
from repro.engine.registry import get_engine

__all__ = ["linial_coloring", "iterated_color_reduction"]


def _default_target(graph: Graph) -> int:
    """The bound of Corollary 1.2 (1), ``256 * Delta^2``."""
    delta = max(1, graph.max_degree)
    return 256 * delta * delta


def iterated_color_reduction(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    target_colors: int | None = None,
    max_iterations: int = 64,
    backend: str | Engine = "reference",
    validate_input: bool = True,
) -> ColoringResult:
    """Iterate the one-round reduction until the color space stops shrinking.

    Parameters
    ----------
    target_colors:
        Stop as soon as the color-space bound is at most this value (default:
        ``256 * Delta^2``, the bound of Corollary 1.2 (1)).
    validate_input:
        Check that ``input_colors`` is a proper ``m``-coloring *once*, here at
        entry.  The interior reduction steps always skip re-validation: every
        step's output is a proper coloring by Theorem 1.1, so validating it
        again inside each iteration is ``O(|E|)`` of pure overhead.

    Returns
    -------
    ColoringResult
        ``rounds`` counts one round per reduction step (the paper's
        ``O(log* n)``); metadata records the sequence of color-space sizes.
    """
    engine = get_engine(backend)
    if target_colors is None:
        target_colors = _default_target(graph)

    colors = np.asarray(input_colors, dtype=np.int64)
    space = int(m)
    if validate_input and space > target_colors:
        # Validate once, up front — but only when a reduction step will
        # actually run (the no-op path never validated before the hoist
        # either: validation used to live inside the first mother call).
        validate_proper_coloring(graph, colors, m)
    history = [space]
    rounds = 0
    result: ColoringResult | None = None

    for _ in range(max_iterations):
        if space <= target_colors:
            break
        step = linial_color_reduction(graph, colors, space, backend=engine, validate_input=False)
        new_space = step.color_space_size
        if new_space >= space:
            # No further progress possible (already at the fixed point of the
            # reduction); stop rather than looping forever.
            break
        rounds += 1
        result = step
        # The next iteration's input coloring is the output color space of this
        # step *as is* (no global relabelling — that would not be a legal
        # distributed step); the encoded colors already lie in
        # [step.color_space_size].
        colors = step.colors
        space = new_space
        history.append(space)

    metadata = {"color_space_history": history, "target_colors": target_colors}
    return ColoringResult(
        colors=colors if result is not None else colors.copy(),
        rounds=rounds,
        color_space_size=space,
        metadata=metadata,
    )


def linial_coloring(
    graph: Graph,
    ids: np.ndarray | None = None,
    id_space: int | None = None,
    seed: int | None = None,
    target_colors: int | None = None,
    backend: str | Engine = "reference",
) -> ColoringResult:
    """Compute an ``O(Delta^2)``-coloring from unique IDs in ``O(log* n)`` rounds.

    Parameters
    ----------
    ids:
        Unique IDs (one per vertex); assigned automatically when omitted
        (identity IDs, or a seeded random injection into ``[n^2]`` when ``seed``
        is given).
    id_space:
        Size of the ID space (``m`` for the first reduction step); defaults to
        ``max(ids) + 1``.
    target_colors:
        Stop once the color space is at most this bound (default ``256 Delta^2``).
    """
    if ids is None:
        # Drawn here, so distinct, in range and one per vertex: nothing to check.
        ids = assign_unique_ids(graph, id_space=id_space, seed=seed)
        ordered = None
    else:
        ids = np.asarray(ids, dtype=np.int64)
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("ids must be unique")
    space = int(id_space) if id_space is not None else (int(ids.max()) + 1 if ids.size else 1)
    if target_colors is None:
        target_colors = _default_target(graph)
    if ordered is not None and space > target_colors:
        # Distinct ids are a proper coloring of any graph, so of the checks of
        # validate_proper_coloring only the shape and the range can fail, and
        # the ends of the sorted ids give the range.
        if ids.shape != (graph.n,):
            raise InputColoringError(
                f"coloring has shape {ids.shape}, expected ({graph.n},)"
            )
        if graph.n and ordered[0] < 0:
            raise InputColoringError("colors must be non-negative")
        if graph.n and ordered[-1] >= space:
            raise InputColoringError(
                f"color {int(ordered[-1])} out of range for declared m={space}"
            )
    return iterated_color_reduction(
        graph, ids, space, target_colors=target_colors,
        backend=backend, validate_input=False,
    )


# --------------------------------------------------------------------------- #
# Registry entry (see repro.api.registry)
# --------------------------------------------------------------------------- #

from repro.api.records import coloring_record  # noqa: E402
from repro.api.registry import register_algorithm  # noqa: E402


@register_algorithm(
    "linial",
    summary="Linial's O(Delta^2)-coloring from unique IDs",
    guarantee="proper; <= 256*Delta^2 colors in O(log* n) rounds",
    source="Linial via iterated Corollary 1.2 (1)",
    requires_input_coloring=False,
)
def _run_linial(w, engine):
    res = linial_coloring(w.graph, seed=w.spec.seed, backend=engine)
    return coloring_record(res, verify_graph=w.graph)
