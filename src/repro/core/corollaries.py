"""Corollary 1.2 — the most important parameter settings of Theorem 1.1.

Every function below is a thin wrapper that chooses ``(d, k)`` exactly as the
corollary's proof does and delegates to the mother algorithm through the
execution-engine layer (:mod:`repro.engine`): ``backend="reference"`` runs the
per-node CONGEST simulator, ``backend="array"`` the vectorized CSR twin, with
property-tested identical outputs.  The color / round bounds stated in the
corollary (for a ``Delta^4``-input coloring) are exposed by
:mod:`repro.analysis.bounds` and checked by the tests and experiments.

1. ``linial_color_reduction``   — ``d = 0``, one batch:   ``<= 256 Delta^2`` colors in 1 round.
2. ``kdelta_coloring``          — ``d = 0``, batch size ``k``: ``<= 16 Delta k`` colors in ``O(Delta / k)`` rounds.
3. ``delta_squared_coloring``   — ``k = ceil(Delta / 16)``: ``<= Delta^2`` colors in ``O(1)`` rounds.
4. ``outdegree_coloring``       — ``k = 1``, ``d = beta``: ``beta``-outdegree ``O(Delta/beta)``-coloring in ``O(Delta/beta)`` rounds.
5. ``defective_coloring_one_round`` — ``k`` = one batch, defect ``d``: ``d``-defective ``O((Delta/d)^2)``-coloring in 1 round.
6. ``defective_coloring``       — ``k = 1``, defect ``d``, output ``(color, part)``: same color bound in ``O(Delta/d)`` rounds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.congest.graph import Graph
from repro.core.algorithm1 import derive_orientation
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.engine.base import Engine
from repro.engine.registry import get_engine

__all__ = [
    "linial_color_reduction",
    "kdelta_coloring",
    "delta_squared_coloring",
    "outdegree_coloring",
    "defective_coloring_one_round",
    "defective_coloring",
]


def _run(
    graph,
    input_colors,
    m,
    d,
    k,
    backend: str | Engine,
    params=None,
    validate_input=True,
):
    engine = get_engine(backend)
    return engine.run_mother(
        graph,
        input_colors,
        m=m,
        d=d,
        k=k,
        params=params,
        validate_input=validate_input,
    )


def _single_batch_params(m: int, delta: int, d: int) -> MotherParameters:
    """Parameters with ``k`` large enough that the whole sequence is one batch (``k = q``)."""
    probe = MotherParameters.derive(m=m, delta=delta, d=d, k=1)
    return MotherParameters(m=probe.m, delta=probe.delta, d=probe.d, k=probe.q, f=probe.f, q=probe.q)


def linial_color_reduction(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    backend: str | Engine = "reference",
    validate_input: bool = True,
) -> ColoringResult:
    """Corollary 1.2 (1): Linial's one-round color reduction.

    With ``d = 0`` and the batch covering the entire sequence the node tries
    all ``q`` colors of its sequence at once; since at most ``2 f Z < q`` of
    them can be blocked it succeeds immediately.  For ``m = Delta^4`` this is
    a ``<= 256 Delta^2``-coloring in exactly one round.
    """
    delta = max(1, graph.max_degree)
    params = _single_batch_params(m, delta, 0)
    return _run(graph, input_colors, m, 0, params.k, backend, params=params,
                validate_input=validate_input)


def kdelta_coloring(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    k: int,
    backend: str | Engine = "reference",
    validate_input: bool = True,
) -> ColoringResult:
    """Corollary 1.2 (2): ``O(k Delta)`` colors in ``O(Delta / k)`` rounds.

    The smooth trade-off between Linial (``k = X``) and the locally-iterative
    regime (``k = 1``).  For a ``Delta^4``-input coloring the concrete bounds
    are ``16 Delta k`` colors in ``16 Delta / k`` rounds.
    """
    return _run(graph, input_colors, m, 0, k, backend, validate_input=validate_input)


def delta_squared_coloring(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    backend: str | Engine = "reference",
    validate_input: bool = True,
) -> ColoringResult:
    """Corollary 1.2 (3): ``Delta^2`` colors in ``O(1)`` rounds (``k = ceil(Delta/16)``)."""
    delta = max(1, graph.max_degree)
    k = max(1, math.ceil(delta / 16))
    return _run(graph, input_colors, m, 0, k, backend, validate_input=validate_input)


def outdegree_coloring(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    beta: int,
    backend: str | Engine = "reference",
) -> ColoringResult:
    """Corollary 1.2 (4): a ``beta``-outdegree ``O(Delta / beta)``-coloring in ``O(Delta / beta)`` rounds.

    Runs the mother algorithm with ``k = 1`` and defect tolerance ``d = beta``;
    the orientation of Theorem 1.1 point (1) (later round -> earlier round,
    ties by input color) has outdegree at most ``beta``.  It is the one
    result that carries ``orientation``: a ``(k, 2)`` array of ``u -> v``
    rows (see :func:`repro.core.algorithm1.derive_orientation`).  These
    colorings are the "arbdefective" schedules used by every
    sublinear-in-``Delta`` ``(Delta+1)``-coloring algorithm.
    """
    delta = max(1, graph.max_degree)
    if not (1 <= beta <= delta - 1):
        raise ValueError(f"beta must satisfy 1 <= beta <= Delta - 1, got beta={beta}, Delta={delta}")
    result = _run(graph, input_colors, m, beta, 1, backend)
    result.orientation = derive_orientation(
        graph, result.colors, result.parts, np.asarray(input_colors, dtype=np.int64)
    )
    return result


def defective_coloring_one_round(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    d: int,
    backend: str | Engine = "reference",
) -> ColoringResult:
    """Corollary 1.2 (5): a ``d``-defective ``O((Delta/d)^2)``-coloring in one round.

    With a single batch there is only one part ``P_1``, so the partition bound
    of Theorem 1.1 (2) *is* a defect bound: every node tolerated at most ``d``
    same-color neighbors, and nobody colors later.
    """
    delta = max(1, graph.max_degree)
    if not (1 <= d <= delta - 1):
        raise ValueError(f"d must satisfy 1 <= d <= Delta - 1, got d={d}, Delta={delta}")
    params = _single_batch_params(m, delta, d)
    return _run(graph, input_colors, m, d, params.k, backend, params=params)


def defective_coloring(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    d: int,
    backend: str | Engine = "reference",
    validate_input: bool = True,
) -> ColoringResult:
    """Corollary 1.2 (6): a ``d``-defective ``O((Delta/d)^2)``-coloring in ``O(Delta/d)`` rounds.

    Runs the mother algorithm with ``k = 1`` and defect ``d`` and outputs the
    *pair* ``(color, part)``: within one part every color class has degree at
    most ``d`` (Theorem 1.1 point (2)), so the pair coloring is ``d``-defective.
    The pair is encoded as ``color * (R + 1) + part``.
    """
    delta = max(1, graph.max_degree)
    if not (1 <= d <= delta - 1):
        raise ValueError(f"d must satisfy 1 <= d <= Delta - 1, got d={d}, Delta={delta}")
    base = _run(graph, input_colors, m, d, 1, backend, validate_input=validate_input)
    if base.parts is None:  # pragma: no cover - defensive
        raise RuntimeError("mother algorithm did not report parts")
    stride = int(base.parts.max(initial=0)) + 1
    combined = base.colors * stride + base.parts
    return ColoringResult(
        colors=combined,
        rounds=base.rounds,
        color_space_size=base.color_space_size * stride,
        parts=base.parts,
        metadata={
            **base.metadata,
            "pair_encoding_stride": stride,
            "base_color_space": base.color_space_size,
        },
    )


# --------------------------------------------------------------------------- #
# Registry entries — every Corollary 1.2 item self-registers as a named,
# schema'd algorithm with the engine-layer task signature
# ``runner(workload, engine, **params)`` (see repro.api.registry).
# --------------------------------------------------------------------------- #

from repro.api.records import coloring_record  # noqa: E402
from repro.api.registry import ParamSpec, register_algorithm  # noqa: E402


@register_algorithm(
    "linial_reduction",
    summary="Linial's one-round color reduction",
    guarantee="proper; <= 256*Delta^2 colors from a Delta^4-input coloring in exactly 1 round",
    source="Corollary 1.2 (1)",
)
def _run_linial_reduction(w, engine):
    res = linial_color_reduction(w.graph, w.input_colors, w.m, backend=engine)
    return coloring_record(res, verify_graph=w.graph)


@register_algorithm(
    "kdelta",
    summary="the O(k*Delta)-colors / O(Delta/k)-rounds trade-off",
    guarantee="proper; <= 16*Delta*k colors in <= 16*Delta/k rounds",
    source="Corollary 1.2 (2)",
    params=[ParamSpec("k", int, default=1, minimum=1,
                      help="batch size: colors grow ~k, rounds shrink ~1/k")],
)
def _run_kdelta(w, engine, k: int = 1):
    res = kdelta_coloring(w.graph, w.input_colors, w.m, k=k, backend=engine)
    return coloring_record(res, verify_graph=w.graph)


@register_algorithm(
    "delta_squared",
    summary="Delta^2 colors in O(1) rounds (k = ceil(Delta/16))",
    guarantee="proper; <= Delta^2 colors (Delta >= 16) in O(1) rounds",
    source="Corollary 1.2 (3)",
)
def _run_delta_squared(w, engine):
    res = delta_squared_coloring(w.graph, w.input_colors, w.m, backend=engine)
    return coloring_record(res, verify_graph=w.graph)


@register_algorithm(
    "outdegree",
    summary="beta-outdegree O(Delta/beta)-coloring with its orientation",
    guarantee="proper; monochromatic edges orientable with outdegree <= beta "
              "(hard invariant, verified per run)",
    source="Corollary 1.2 (4)",
    params=[ParamSpec("beta", int, default=1, minimum=1,
                      help="outdegree budget of the orientation")],
)
def _run_outdegree(w, engine, beta: int = 1):
    from repro.verify.orientation import assert_outdegree_orientation

    res = outdegree_coloring(w.graph, w.input_colors, w.m, beta=beta, backend=engine)
    assert_outdegree_orientation(w.graph, res.colors, res.orientation, beta)
    record = coloring_record(res)
    record["max outdegree"] = int(np.bincount(res.orientation[:, 0]).max(initial=0))
    # the orientation itself, as a canonically ordered (k, 2) artifact, so
    # external validators (e.g. the corpus sweep) can re-verify the guarantee
    record["_orientation"] = res.orientation
    return record


@register_algorithm(
    "defective_one_round",
    summary="d-defective O((Delta/d)^2)-coloring in one round",
    guarantee="max defect <= d (hard invariant, verified per run); "
              "O((Delta/d)^2) colors in exactly 1 round",
    source="Corollary 1.2 (5)",
    params=[ParamSpec("d", int, default=1, minimum=1, help="defect tolerance")],
)
def _run_defective_one_round(w, engine, d: int = 1):
    res = defective_coloring_one_round(w.graph, w.input_colors, w.m, d=d, backend=engine)
    record = coloring_record(res)
    record["max defect"] = _checked_defect(w.graph, res.colors, d)
    return record


@register_algorithm(
    "defective",
    summary="d-defective O((Delta/d)^2)-coloring via the (color, part) pair",
    guarantee="max defect <= d (hard invariant, verified per run); "
              "O((Delta/d)^2) colors in O(Delta/d) rounds",
    source="Corollary 1.2 (6)",
    params=[ParamSpec("d", int, default=1, minimum=1, help="defect tolerance")],
)
def _run_defective(w, engine, d: int = 1):
    res = defective_coloring(w.graph, w.input_colors, w.m, d=d, backend=engine)
    record = coloring_record(res)
    record["max defect"] = _checked_defect(w.graph, res.colors, d)
    return record


def _checked_defect(graph, colors, d: int) -> int:
    """The measured max defect, asserted against the corollary's bound ``d``."""
    from repro.verify.coloring import max_defect

    defect = int(max_defect(graph, colors))
    if defect > d:
        raise AssertionError(
            f"defective coloring violated its bound: max defect {defect} > d = {d}"
        )
    return defect
