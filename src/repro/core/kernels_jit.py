"""The ``jit`` backend's kernel resolution and mother-algorithm driver.

The two primitives of the engine contract — the mother algorithm's
trial-color conflict counting and color-class removal — run as *per-vertex
fused loops* over the CSR triplet, compiled from the C source of
:mod:`repro.core.kernels_cc` and multi-threaded with OpenMP.  Unlike the
NumPy twin (:mod:`repro.core.vectorized`, :mod:`repro.core.reduce`), which
materialises ``(active_edges x trials)`` intermediates and scatter-adds them
with ``bincount``, a compiled kernel

* evaluates each active vertex's polynomial once per batch at the batch's
  first trial (the constant digit when that trial is 0) and evaluates later
  trials on the fly (exact modular integer arithmetic — bit-identical to the
  lazily evaluated NumPy tables),
* counts conflicts per vertex with an early exit as soon as the count
  exceeds ``d``, and stops scanning trials at the *first* ``d``-proper one
  (the same first-qualifying-trial tie-break the array kernel implements
  with ``argmax``), writing the adopted color and part in place, and
* never allocates: callers pass every output and scratch array.

The mother kernel takes each polynomial from its vertex's input color: the
base-``q`` digits of ``color + q`` are its coefficients, peeled off by
division whenever the kernel evaluates it, so no ``(n, f + 1)`` table is
built (Linial's first step on ``10**6`` vertices would hold 84 MB in int32).
The per-vertex values are int32 (:func:`repro.core.params.check_word_size`
refuses ``q >= 2**31``) and the sums int64.

:func:`get_provider` resolves the C tier once per process.  When no C
compiler builds a working library it returns ``None``, and the ``jit``
backend runs the array backend instead (see :mod:`repro.engine.jit`).  The
array backend and the reference simulator are the kernels' parity oracles.

A third kernel is not an engine primitive: :func:`_kernel_attach` is the
sequential preferential-attachment pass behind
:func:`repro.congest.generators.power_law_cluster`.  The generator runs the
C tier's copy when one resolves and this Python function otherwise, so a
machine without a compiler still builds the graph; both consume the same
pre-drawn random words, so one seed gives one graph either way.  The
function is also the specification the C copy is tested against.

``REPRO_NUM_THREADS`` caps the kernel thread count (at most the machine's
cores); ``REPRO_JIT_DISABLE=cc`` disables the C tier (tests and CI use it to
exercise the fallback path).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.graph import Graph
    from repro.core.kernels_cc import CcKernels
    from repro.core.params import MotherParameters
    from repro.core.results import ColoringResult

__all__ = [
    "get_provider",
    "reset_provider_cache",
    "requested_thread_cap",
    "run_mother_jit",
]


def _kernel_attach(words, ends, fill, start, n, attach, mark):
    """Preferential attachment (Batagelj & Brandes): vertices ``start..n-1``
    each take ``attach`` distinct targets, in one pass over the endpoint pool.

    ``ends`` is the flattened ``(m, 2)`` edge array and is the pool itself:
    its first ``fill`` slots hold the seed edges, and each new vertex ``v``
    writes its edges ``(v, t)`` right after them.  A target is
    ``ends[r % fill]``, an endpoint of an earlier edge (so a vertex is hit in
    proportion to its degree), where ``r`` is the next unused word of
    ``words`` (non-negative); while the pool is empty (``attach == 1``, first
    vertex) it is ``r % v``.  A target ``v`` already took uses up its word and
    is skipped.  ``mark`` is scratch of length ``n``.

    Sequential by nature: every vertex reads the edges of all earlier ones.
    Returns the number of words used, or -1 when they ran out (the caller
    appends more words and runs the kernel again).
    """
    for i in range(n):
        mark[i] = -1
    w = 0
    for v in range(start, n):
        got = 0
        while got < attach:
            if w == words.shape[0]:
                return -1
            r = words[w]
            w += 1
            if fill > 0:
                t = ends[r % fill]
            else:
                t = r % v
            if mark[t] != v:
                mark[t] = v
                ends[fill + 2 * got] = v
                ends[fill + 2 * got + 1] = t
                got += 1
        fill += 2 * attach
    return w


def requested_thread_cap() -> int | None:
    """The ``REPRO_NUM_THREADS`` cap, clamped at the machine's cores;
    ``None`` when unset or invalid.

    OpenMP starts a team of whatever size it is given, so a value above
    :func:`repro.engine.sink.machine_cores` would only oversubscribe the
    cores, or fail at the first parallel region when it is large.
    """
    raw = os.environ.get("REPRO_NUM_THREADS")
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        return None
    from repro.engine.sink import machine_cores

    return max(1, min(cap, machine_cores()))


_PROVIDER: "CcKernels | None" = None
_RESOLVED = False


def get_provider() -> "CcKernels | None":
    """The C tier, resolved once per process; ``None`` when it does not
    build or load, or when ``REPRO_JIT_DISABLE`` names ``cc`` (the ``jit``
    engine then degrades to the array backend)."""
    global _PROVIDER, _RESOLVED
    if not _RESOLVED:
        disabled = {tier.strip() for tier in os.environ.get("REPRO_JIT_DISABLE", "").split(",")}
        if "cc" not in disabled:
            from repro.core.kernels_cc import cc_provider

            _PROVIDER = cc_provider()
        _RESOLVED = True
    return _PROVIDER


def reset_provider_cache() -> None:
    """Forget the resolved provider (tests re-resolve under patched env)."""
    global _PROVIDER, _RESOLVED
    _PROVIDER, _RESOLVED = None, False


# --------------------------------------------------------------------------- #
# The mother-algorithm driver (the removal loop lives in repro.core.reduce
# next to its reference/array twins).
# --------------------------------------------------------------------------- #


def run_mother_jit(
    graph: "Graph",
    input_colors: np.ndarray,
    m: int,
    d: int = 0,
    k: int = 1,
    params: "MotherParameters | None" = None,
    validate_input: bool = True,
    *,
    kernels: "CcKernels",
) -> "ColoringResult":
    """Algorithm 1 on the compiled kernels; same semantics and bit-identical
    outputs as :func:`repro.core.vectorized.run_mother_algorithm_vectorized`.

    The Python driver keeps the exact batch structure of the array twin —
    the active-vertex frontier in ascending order, each vertex adopting its
    first qualifying trial — and delegates each batch to
    ``kernels.mother_first``, which reads each polynomial's coefficients
    from the digits of the vertex's input color and writes the adopted
    colors and parts in place; the adopters then leave the frontier.
    :class:`repro.engine.jit.JitEngine` resolves ``kernels`` and runs the
    array twin when no tier resolves.
    """
    from repro.congest.ids import validate_proper_coloring
    from repro.core.params import MotherParameters, check_word_size
    from repro.core.results import ColoringResult

    input_colors = np.ascontiguousarray(input_colors, dtype=np.int64)
    delta = max(1, graph.max_degree)
    if validate_input:
        validate_proper_coloring(graph, input_colors, m)
    if params is None:
        params = MotherParameters.derive(m=m, delta=delta, d=d, k=k)
    check_word_size(params)

    n = graph.n
    if n == 0:
        return ColoringResult(
            colors=np.empty(0, dtype=np.int64),
            rounds=0,
            color_space_size=params.color_space_size,
            parts=np.empty(0, dtype=np.int64),
            metadata={"params": params.describe(), "implementation": "jit",
                      "kernel": kernels.kind},
        )

    q, k_eff, dd = params.q, params.k, params.d
    vals = np.empty(n, dtype=np.int32)
    indptr, indices = graph.indptr, graph.indices

    colors = -np.ones(n, dtype=np.int64)
    parts = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    act = np.arange(n, dtype=np.int64)
    rounds = 0

    for batch in range(params.num_batches):
        rounds = batch + 1
        lo = batch * k_eff
        hi = min(lo + k_eff, q)
        kernels.mother_first(act, indptr, indices, input_colors, params.f + 1, q,
                             k_eff, dd, active, colors, parts, lo, hi, vals)
        adopted = colors[act] >= 0
        active[act[adopted]] = False
        act = act[~adopted]
        if act.size == 0:
            break

    if act.size:
        raise RuntimeError(
            "some nodes exhausted their color sequences — this contradicts Theorem 1.1 "
            "and indicates invalid parameters or a bug"
        )

    return ColoringResult(
        colors=colors,
        rounds=rounds,
        color_space_size=params.color_space_size,
        parts=parts,
        metadata={
            "params": params.describe(),
            "implementation": "jit",
            "kernel": kernels.kind,
            "round_bound": params.round_bound,
        },
    )
