"""Whole-graph NumPy implementation of Algorithm 1, frontier-compacted.

The message-passing implementation in :mod:`repro.core.algorithm1` is the
faithful model-level artifact; this module is its performance twin.  It runs
the exact same round structure — per batch count conflicts and let every node
adopt the first ``d``-proper trial — but each round operates on *compacted*
arrays covering only the still-active subgraph:

* per batch, only the CSR ranges incident to still-active vertices are
  gathered (:meth:`repro.congest.graph.Graph.incident_csr_entries`); edges
  between two permanently colored endpoints are never touched again, so a
  round costs ``O(active degree)``, not ``O(|E|)``;
* conflict counting is one 2-D scatter-add over the compacted edges
  (``bincount`` on flattened ``(row, trial)`` indices) instead of a Python
  loop over the batch's trial positions with full-size temporaries;
* within a batch the trial axis is processed in chunks sized by the work
  that is left: the first chunk is one trial wide and each later one twice
  as wide as the one before, capped by the batch end and by a budget of
  ``_CHUNK_CELLS`` edge-trial cells.  A neighbor's polynomial agrees with a
  node's on at most ``f`` points, so almost every row adopts at its first
  trial even in Linial's single ``k = q`` batch.  Rows that found their
  first ``d``-proper trial are dropped from the remaining chunks (the
  adopted trial is the *first* qualifying one however the axis is cut, so
  outputs are unchanged);
* polynomial sequences are evaluated *lazily*: instead of the dense ``(n, q)``
  table of :func:`evaluate_all_sequences` (which dominates the runtime once
  the round loop is compacted), each chunk Horner-evaluates exactly the
  vertices it touches — the undone rows' own vertices and the active
  neighbors of their entries — at exactly the chunk's trial positions, and
  a row that finds its trial adopts the value already in that table.
  Modular arithmetic is exact, so the lazily computed values are
  bit-identical to the table's.  The coefficients come from one int64
  ``(n, f + 1)`` table (:func:`sequence_coefficients`), and ``q < 2**31``
  is required (:func:`repro.core.params.check_word_size`), which keeps
  every int64 Horner step ``acc * x + c`` exact;
* recurring per-round temporaries (gathered neighbor colors and activity
  flags, first-slot/value/undone trackers, Horner accumulators) live in a
  :class:`repro.core.workspace.Workspace` arena — named grow-only buffers
  reused across rounds and chunks, so a steady-state round performs no
  scratch allocations proportional to the graph.

The two implementations produce *identical* colors and part indices (this is
property-tested), so benchmarks can use the vectorized twin on graphs where
instantiating ``n`` Python node objects would dominate the runtime.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.congest.ids import validate_proper_coloring
from repro.core.params import MotherParameters, check_word_size
from repro.core.results import ColoringResult
from repro.core.workspace import Workspace

__all__ = ["run_mother_algorithm_vectorized", "evaluate_all_sequences"]

#: Budget (in edge x trial cells) for one conflict-counting chunk.  Bounds the
#: per-chunk temporaries to a few tens of MB regardless of graph size; the
#: chunks of a batch grow 1, 2, 4, ... trials up to it.
_CHUNK_CELLS = 2 * 1024 * 1024


def sequence_coefficients(input_colors: np.ndarray, params: MotherParameters) -> np.ndarray:
    """Polynomial coefficient matrix, shape ``(n, f + 1)``, int64.

    ``coeffs[v, j]`` is the ``j``-th base-``q`` digit of ``input color + q``;
    the offset skips the constant polynomials (see :mod:`repro.core.sequences`).
    The array backend reads this table; the jit mother kernel of
    :mod:`repro.core.kernels_jit` peels the same digits off each color
    whenever it evaluates a polynomial, and builds no table.
    """
    colors = np.asarray(input_colors, dtype=np.int64)
    q = params.q
    coeffs = np.empty((colors.shape[0], params.f + 1), dtype=np.int64)
    rest = colors + q
    for j in range(params.f + 1):
        np.divmod(rest, q, out=(rest, coeffs[:, j]))
    return coeffs


def evaluate_all_sequences(input_colors: np.ndarray, params: MotherParameters) -> np.ndarray:
    """Evaluate ``p_{c(v)}(x)`` for every vertex ``v`` and every ``x`` in ``F_q``.

    Returns an ``(n, q)`` array: the full trial table, via vectorized Horner.
    The compacted kernel no longer materialises this — it evaluates lazily per
    chunk — but the table remains the clearest specification of the trial
    values (and the two agree exactly; modular arithmetic has no rounding).
    """
    coeffs = sequence_coefficients(input_colors, params)
    q, f = params.q, params.f
    xs = np.arange(q, dtype=np.int64)
    values = np.zeros((coeffs.shape[0], q), dtype=np.int64)
    for j in range(f, -1, -1):
        values = (values * xs[None, :] + coeffs[:, j][:, None]) % q
    return values


def run_mother_algorithm_vectorized(
    graph: Graph,
    input_colors: np.ndarray,
    m: int,
    d: int = 0,
    k: int = 1,
    params: MotherParameters | None = None,
    validate_input: bool = True,
    workspace: Workspace | None = None,
) -> ColoringResult:
    """Vectorized Algorithm 1; same semantics and outputs as
    :func:`repro.core.algorithm1.run_mother_algorithm`.

    ``workspace`` optionally supplies the scratch-buffer arena; pass one to
    reuse buffers across several calls (e.g. the stages of a pipeline), or
    leave ``None`` for a private per-call arena.  Buffer reuse changes the
    allocation pattern only — outputs are bit-identical either way.
    """
    input_colors = np.asarray(input_colors, dtype=np.int64)
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
            metadata={"params": params.describe(), "implementation": "vectorized"},
        )

    q, k_eff, dd = params.q, params.k, params.d
    f = params.f
    coeffs = sequence_coefficients(input_colors, params)
    ws = workspace if workspace is not None else Workspace()

    def eval_grid(verts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """``p_{c(v)}(x)`` for every ``v`` in ``verts`` and ``x`` in ``xs``.

        Horner in place on a reused workspace accumulator — identical modular
        arithmetic, zero per-chunk allocation of the accumulator.
        """
        acc = ws.zeros("eval_grid", verts.size * xs.size).reshape(verts.size, xs.size)
        for j in range(f, -1, -1):
            np.multiply(acc, xs[None, :], out=acc)
            np.add(acc, coeffs[verts, j][:, None], out=acc)
            np.mod(acc, q, out=acc)
        return acc

    indices = graph.indices

    colors = -np.ones(n, dtype=np.int64)
    parts = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    # vertex -> row of the chunk's trial table; never reset (see the chunk loop)
    row_of = ws.take("row_of", n)
    rounds = 0

    # Frontier compaction state: ``act`` are the still-active vertices and
    # ``rows``/``e_dst`` their incident CSR entries (entry i belongs to vertex
    # act[rows[i]] and points at neighbor e_dst[i]).  Edges between two
    # permanently colored endpoints never appear here.  Rebuilt only when the
    # active set shrank (someone adopted a color).
    act = rows = e_dst = None
    refresh = True

    for batch in range(params.num_batches):
        if refresh:
            act = np.nonzero(active)[0]
            if act.size == 0:
                break
            positions, rows = graph.incident_csr_entries(act)
            e_dst = ws.gather("e_dst", indices, positions)
            refresh = False
        rounds = batch + 1
        lo = batch * k_eff
        hi = min(lo + k_eff, q)
        num_active = act.size

        # first[r] = first trial position in [lo, hi) with <= d conflicts for
        # act[r], or -1, and value[r] its polynomial value.  The trial axis
        # is chunked: one trial first (almost every row adopts there), then
        # twice the previous width, capped by the batch end and by
        # ~_CHUNK_CELLS edge-trial cells; rows that found their slot are
        # dropped from later chunks (their first slot is already decided).
        # All five per-batch arrays live in the workspace arena.
        dst_active = ws.gather("dst_active", active, e_dst)
        dst_colors = ws.gather("dst_colors", colors, e_dst)
        first = ws.full("first", num_active, -1)
        value = ws.take("value", num_active)
        undone = ws.full("undone", num_active, True, dtype=bool)
        r_sub, d_sub, a_sub, c_sub = rows, e_dst, dst_active, dst_colors
        cstart, w = lo, 1
        while cstart < hi:
            w = max(1, min(w, hi - cstart, _CHUNK_CELLS // max(1, r_sub.size)))
            xs = np.arange(cstart, cstart + w, dtype=np.int64)
            # Lazily evaluate exactly the vertices this chunk touches — the
            # undone rows' own vertices (rows without entries included: they
            # adopt from this table too) and the remaining entries' *active*
            # neighbors (colored neighbors are compared by final color, no
            # values needed) — at exactly the chunk's trial positions.
            # Dedupe them without a sort: every vertex scatters its slot into
            # row_of, and the slots that read themselves back are one per
            # distinct vertex.  The temporaries are freed before the
            # conflict table is built, so they do not raise the peak memory.
            touched = np.concatenate([act[undone], d_sub[a_sub]])
            slots = np.arange(touched.size)
            row_of[touched] = slots
            need = touched[row_of[touched] == slots]
            del touched, slots
            row_of[need] = np.arange(need.size)
            table = eval_grid(need, xs)
            src_vals = table[row_of[act[r_sub]]]
            nbr_pos = row_of[d_sub]
            if need.size:
                np.clip(nbr_pos, 0, need.size - 1, out=nbr_pos)
            # A hit is an active neighbor trying the same value, or a colored
            # neighbor whose final color equals the trial color
            # (x % k) * q + value  <=>  final - (x % k) * q == value.
            # (For colored neighbors nbr_pos is a stale row_of entry clipped
            # into range; np.where discards that branch.)
            hits = np.where(
                a_sub[:, None],
                table[nbr_pos] == src_vals,
                (c_sub[:, None] - ((xs % k_eff) * q)[None, :]) == src_vals,
            )
            # 2-D scatter-add over the compacted edges: conflict counts per
            # (active row, trial position), via bincount on flattened indices.
            er, el = np.nonzero(hits)
            counts = np.bincount(
                r_sub[er] * w + el, minlength=num_active * w
            ).reshape(num_active, w)
            ok = counts <= dd
            ok[~undone] = False
            found = np.nonzero(ok.any(axis=1))[0]
            col = np.argmax(ok[found], axis=1)
            first[found] = cstart + col
            value[found] = table[row_of[act[found]], col]
            undone[found] = False
            cstart += w
            if cstart >= hi or not undone.any():
                break
            w *= 2
            keep = undone[r_sub]
            r_sub, d_sub = r_sub[keep], d_sub[keep]
            a_sub, c_sub = a_sub[keep], c_sub[keep]

        adopters = first >= 0
        if np.any(adopters):
            verts = act[adopters]
            colors[verts] = (first[adopters] % k_eff) * q + value[adopters]
            parts[verts] = batch + 1
            active[verts] = False
            refresh = True

    if active.any():
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
            "implementation": "vectorized",
            "round_bound": params.round_bound,
        },
    )
