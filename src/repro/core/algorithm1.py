"""Algorithm 1 / Theorem 1.1 — the mother algorithm, as a per-node CONGEST algorithm.

Every node locally computes its color sequence from its input color (no
communication), then repeats: broadcast the input color (from which neighbors
reconstruct this round's batch of trials), count conflicts for each trial in
the current batch, and permanently adopt the first trial with at most ``d``
conflicts.  A freshly colored node announces its final color in the next round
and halts.

Messages are either ``("TRY", input_color)`` or ``("COLORED", encoded_color)``
— ``O(log m + log Delta)`` bits, i.e. CONGEST-compatible, exactly as argued in
the paper's "CONGEST implementation" paragraph.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.congest.graph import Graph
from repro.congest.ids import validate_proper_coloring
from repro.congest.messages import Broadcast
from repro.congest.node import NodeAlgorithm, NodeContext
from repro.congest.runner import run_algorithm
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.core.sequences import ColorSequence, batch_positions, build_sequence

__all__ = [
    "MotherAlgorithmNode",
    "run_mother_algorithm",
    "derive_orientation",
]

TRY = "TRY"
COLORED = "COLORED"


class MotherAlgorithmNode(NodeAlgorithm):
    """Per-node state machine of Algorithm 1."""

    def __init__(self, ctx: NodeContext, input_color: int, params: MotherParameters):
        super().__init__(ctx)
        self.params = params
        self.input_color = int(input_color)
        self.sequence: ColorSequence = build_sequence(self.input_color, params)
        self.batch_index = 0
        #: neighbors that announced a permanent color -> encoded color
        self.colored_neighbors: dict[int, int] = {}
        self.my_color: int | None = None
        self.my_part: int | None = None
        self._announced = False

    # ------------------------------------------------------------------ #

    def start(self):
        return Broadcast((TRY, self.input_color))

    def _neighbor_batch_value(self, neighbor_color: int, x: int) -> int:
        """Evaluate the neighbor's polynomial at position ``x`` (locally computable)."""
        seq = _neighbor_sequence_cache(self.params, neighbor_color)
        return int(seq[x])

    def receive(self, inbox: dict[int, Any]):
        if self.my_color is not None:
            # The COLORED announcement was sent this round; we are done.
            self.halt()
            return None

        # Split the inbox into this round's active triers and newly colored neighbors.
        active_trials: dict[int, int] = {}
        for sender, payload in inbox.items():
            tag, value = payload
            if tag == TRY:
                active_trials[sender] = int(value)
            elif tag == COLORED:
                self.colored_neighbors[sender] = int(value)
            else:  # pragma: no cover - defensive
                raise ValueError(f"unexpected message tag {tag!r}")

        positions = batch_positions(self.params, self.batch_index)
        if positions.size == 0:
            raise RuntimeError(
                f"node {self.ctx.node} exhausted its color sequence — this contradicts "
                "Theorem 1.1 and indicates invalid parameters or a bug"
            )

        colored_values = list(self.colored_neighbors.values())
        for x in positions:
            x = int(x)
            my_value = int(self.sequence.values[x])
            my_encoded = self.params.encode_color(x, my_value)
            conflicts = 0
            # Active neighbors trying the same tuple this round: within a batch
            # the first coordinates are distinct, so only position x matters.
            for nbr_color in active_trials.values():
                if self._neighbor_batch_value(nbr_color, x) == my_value:
                    conflicts += 1
            # Neighbors already permanently colored with this exact color.
            conflicts += sum(1 for c in colored_values if c == my_encoded)
            if conflicts <= self.params.d:
                self.my_color = my_encoded
                self.my_part = self.batch_index + 1
                return Broadcast((COLORED, self.my_color))

        self.batch_index += 1
        return Broadcast((TRY, self.input_color))

    def output(self) -> dict[str, int]:
        if self.my_color is None:  # pragma: no cover - defensive
            raise RuntimeError(f"node {self.ctx.node} finished without a color")
        return {
            "color": self.my_color,
            "part": int(self.my_part),
            "input_color": self.input_color,
        }


# --------------------------------------------------------------------------- #
# Sequence cache: nodes recompute their neighbors' sequences locally (that is
# exactly what the CONGEST implementation does — the polynomial enumeration is
# global knowledge).  Caching per (params, color) merely avoids recomputing the
# same polynomial evaluation many times inside the simulator process.
# --------------------------------------------------------------------------- #

_SEQ_CACHE: dict[tuple[int, int, int, int], np.ndarray] = {}


def _neighbor_sequence_cache(params: MotherParameters, input_color: int) -> np.ndarray:
    key = (params.q, params.f, params.k, int(input_color))
    if key not in _SEQ_CACHE:
        if len(_SEQ_CACHE) > 200_000:  # keep the cache bounded across many runs
            _SEQ_CACHE.clear()
        _SEQ_CACHE[key] = build_sequence(int(input_color), params).values
    return _SEQ_CACHE[key]


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #


def derive_orientation(
    graph: Graph,
    colors: np.ndarray,
    parts: np.ndarray,
    input_colors: np.ndarray,
) -> np.ndarray:
    """Orientation of monochromatic edges guaranteed by Theorem 1.1 point (1).

    An edge ``{u, v}`` with the same output color is oriented away from the
    vertex that got colored *later* (larger part index); ties within the same
    iteration are broken from the smaller to the larger input color.  The
    out-neighbors of a vertex are therefore a subset of the at most ``d``
    conflicts it tolerated when it adopted its color, giving outdegree ``<= d``.

    Returns a ``(k, 2)`` int64 array whose row ``(u, v)`` means ``u -> v``,
    rows in lexicographic order.  The monochromatic edges are found with
    flat masks over the CSR entries with ``u < v``.
    """
    src, dst = graph.src_index, graph.indices
    mono = src < dst
    mono &= colors[src] == colors[dst]
    u, v = src[mono], dst[mono]
    from_u = (parts[u] > parts[v]) | ((parts[u] == parts[v]) & (input_colors[u] < input_colors[v]))
    tails = np.where(from_u, u, v)
    heads = np.where(from_u, v, u)
    order = np.lexsort((heads, tails))
    return np.stack([tails[order], heads[order]], axis=1)


def run_mother_algorithm(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    d: int = 0,
    k: int = 1,
    params: MotherParameters | None = None,
    validate_input: bool = True,
    model: str = "CONGEST",
    bandwidth_factor: float = 32.0,
    strict_bandwidth: bool = False,
) -> ColoringResult:
    """Run Algorithm 1 on ``graph`` and return the coloring of Theorem 1.1.

    Parameters
    ----------
    graph:
        The network graph.
    input_colors:
        A proper ``m``-coloring of the graph (``input_colors[v] in [m]``).
    m, d, k:
        The parameters of Theorem 1.1 (``m`` input colors, defect tolerance
        ``d``, batch size ``k``).
    params:
        Pre-derived :class:`MotherParameters`; derived from ``(m, Delta, d, k)``
        when omitted.
    validate_input:
        Check that ``input_colors`` is a proper coloring (the theorem requires
        it); disable only in tight benchmark loops.
    model:
        ``"CONGEST"`` (default) or ``"LOCAL"``.
    bandwidth_factor / strict_bandwidth:
        CONGEST bandwidth accounting knobs, passed through to
        :class:`repro.congest.network.SynchronousNetwork`.

    Returns
    -------
    ColoringResult
        ``colors`` are encoded ``(x mod k, p(x))`` pairs; ``parts[v]`` is the
        iteration in which ``v`` adopted its color; ``rounds`` is the number of
        batch-trial iterations (``<= ceil(X/k)``).  The orientation of point
        (1) follows from the colors and parts: :func:`derive_orientation`.
    """
    input_colors = np.asarray(input_colors, dtype=np.int64)
    delta = max(1, graph.max_degree)
    if validate_input:
        validate_proper_coloring(graph, input_colors, m)
    if params is None:
        params = MotherParameters.derive(m=m, delta=delta, d=d, k=k)

    if graph.n == 0:
        return ColoringResult(
            colors=np.empty(0, dtype=np.int64),
            rounds=0,
            color_space_size=params.color_space_size,
            parts=np.empty(0, dtype=np.int64),
            metadata={"params": params.describe()},
        )

    def factory(ctx: NodeContext) -> MotherAlgorithmNode:
        return MotherAlgorithmNode(ctx, int(input_colors[ctx.node]), params)

    run = run_algorithm(
        graph,
        factory,
        globals={"m": params.m, "d": params.d, "k": params.k},
        model=model,
        max_rounds=params.num_batches + 2,
        bandwidth_factor=bandwidth_factor,
        strict_bandwidth=strict_bandwidth,
    )

    colors = np.array([out["color"] for out in run.outputs], dtype=np.int64)
    parts = np.array([out["part"] for out in run.outputs], dtype=np.int64)
    trial_rounds = int(parts.max()) if parts.size else 0

    return ColoringResult(
        colors=colors,
        rounds=trial_rounds,
        color_space_size=params.color_space_size,
        parts=parts,
        metadata={
            "params": params.describe(),
            "simulator_rounds": run.rounds,
            "total_messages": run.total_messages,
            "max_message_bits": run.max_message_bits,
            "round_bound": params.round_bound,
            "model": model,
        },
    )
