"""Graph families used by the tests, examples and benchmarks.

Every generator returns a :class:`repro.congest.graph.Graph`.  All randomized
generators take an explicit ``seed`` so experiments are reproducible.  The
families cover the graphs distributed-coloring papers typically argue about:
rings and paths (Linial's lower bound), bounded-degree random graphs
(random regular, Erdos-Renyi), grids/tori, trees, complete, crown and complete
bipartite graphs (worst cases for greedy arguments) and power-law-ish graphs
(skewed degrees).

Every family is *array-native*: generators assemble an ``(m, 2)`` edge array
with ``arange`` arithmetic (deterministic families) or per-round vectorized
draws (randomized families) and hand it to :meth:`Graph.from_edge_array`, the
fully vectorized CSR constructor — no generator appends edges one Python
tuple at a time.  Deterministic families and the block-drawing random
families build million-vertex instances in fractions of a second.  The
attachment process of ``power_law_cluster`` is inherently sequential, so it
runs as one pass of the attachment kernel (:mod:`repro.core.kernels_jit`):
the jit backend's C tier where it resolves, the kernel's Python function
otherwise.

Randomized streams: ``gnp``, ``random_bipartite`` and ``random_tree`` consume
their :func:`canonical_rng` stream in exactly the same order as the historical
per-edge loops (``gnp`` and ``random_bipartite`` in bounded blocks), so equal
seeds still produce *identical* graphs.  ``random_regular`` (round-based stub
pairing) consumes its stream in a new, still seed-deterministic order.
``power_law_cluster`` pre-draws raw 64-bit words from its stream
(``bit_generator.random_raw``) and the kernel uses them up one per draw in
vertex order, so the C and the Python kernel build the same graph from
one seed.  The generator tests pin both new streams by checksum.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph, GraphError

__all__ = [
    "canonical_rng",
    "empty_graph",
    "path",
    "ring",
    "complete_graph",
    "complete_bipartite",
    "crown",
    "star",
    "grid",
    "torus",
    "binary_tree",
    "random_tree",
    "caterpillar",
    "gnp",
    "random_regular",
    "random_bipartite",
    "power_law_cluster",
    "disjoint_union",
    "FAMILIES",
    "by_name",
]


def canonical_rng(seed: int | None) -> np.random.Generator:
    """A :class:`numpy.random.Generator` whose stream depends only on ``seed``.

    Every randomized generator in this module draws from this helper so that
    equal seeds produce *identical* graphs everywhere — across calls, across
    interpreter restarts, and across worker processes of a parallel sweep
    (the per-worker workload caches of ``repro.engine`` rebuild graphs
    independently and rely on this).  ``None`` is normalized to ``0`` instead
    of NumPy's OS-entropy default, and NumPy integer scalars are accepted,
    because either would otherwise silently break cross-process determinism.
    """
    if seed is None:
        seed = 0
    return np.random.default_rng(int(seed))


def empty_graph(n: int) -> Graph:
    """Graph with ``n`` vertices and no edges."""
    return Graph.from_edge_array(n, np.empty((0, 2), dtype=np.int64))


def path(n: int) -> Graph:
    """Path on ``n`` vertices."""
    i = np.arange(max(n - 1, 0), dtype=np.int64)
    return Graph.from_edge_array(n, np.column_stack([i, i + 1]))


def ring(n: int) -> Graph:
    """Cycle on ``n >= 3`` vertices (the classic Linial lower-bound family)."""
    if n < 3:
        raise GraphError("a ring needs at least 3 vertices")
    i = np.arange(n, dtype=np.int64)
    return Graph.from_edge_array(n, np.column_stack([i, (i + 1) % n]))


def complete_graph(n: int) -> Graph:
    """Complete graph ``K_n``."""
    iu, ju = np.triu_indices(max(n, 0), k=1)
    return Graph.from_edge_array(n, np.column_stack([iu, ju]).astype(np.int64))


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph ``K_{a,b}`` with sides ``0..a-1`` and ``a..a+b-1``."""
    left = np.repeat(np.arange(a, dtype=np.int64), b)
    right = a + np.tile(np.arange(b, dtype=np.int64), a)
    return Graph.from_edge_array(a + b, np.column_stack([left, right]))


def crown(n: int) -> Graph:
    """Crown graph ``S_n^0``: ``K_{n,n}`` minus a perfect matching.

    Sides ``0..n-1`` and ``n..2n-1``; vertex ``i`` is adjacent to every
    opposite-side vertex except ``n + i``.  An ``(n-1)``-regular bipartite
    family, a classic worst case for greedy arguments.
    """
    if n < 2:
        raise GraphError("a crown graph needs at least 2 vertices per side")
    left = np.repeat(np.arange(n, dtype=np.int64), n)
    right = n + np.tile(np.arange(n, dtype=np.int64), n)
    keep = left != right - n
    return Graph.from_edge_array(2 * n, np.column_stack([left[keep], right[keep]]))


def star(n: int) -> Graph:
    """Star with one center (vertex 0) and ``n - 1`` leaves."""
    leaves = np.arange(1, max(n, 1), dtype=np.int64)
    return Graph.from_edge_array(n, np.column_stack([np.zeros_like(leaves), leaves]))


def grid(rows: int, cols: int) -> Graph:
    """2D grid graph (max degree 4)."""
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz = np.column_stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()])
    vert = np.column_stack([idx[:-1, :].ravel(), idx[1:, :].ravel()])
    return Graph.from_edge_array(rows * cols, np.concatenate([horiz, vert]))


def torus(rows: int, cols: int) -> Graph:
    """2D torus (grid with wraparound, 4-regular when rows, cols >= 3)."""
    if rows < 3 or cols < 3:
        raise GraphError("torus needs rows >= 3 and cols >= 3")
    idx = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.roll(idx, -1, axis=1)
    down = np.roll(idx, -1, axis=0)
    edges = np.concatenate([
        np.column_stack([idx.ravel(), right.ravel()]),
        np.column_stack([idx.ravel(), down.ravel()]),
    ])
    return Graph.from_edge_array(rows * cols, edges)


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth (root has depth 0)."""
    n = 2 ** (depth + 1) - 1
    v = np.arange(1, n, dtype=np.int64)
    return Graph.from_edge_array(n, np.column_stack([v, (v - 1) // 2]))


def random_tree(n: int, seed: int = 0) -> Graph:
    """Uniform random recursive tree: vertex ``i`` attaches to a random earlier vertex.

    One vectorized bounded-integer draw per vertex (array ``high``), consuming
    the seed's stream in the same order as the historical per-vertex loop —
    equal seeds produce the same tree as ever.
    """
    rng = canonical_rng(seed)
    if n < 2:
        return empty_graph(n)
    children = np.arange(1, n, dtype=np.int64)
    parents = rng.integers(0, children)
    return Graph.from_edge_array(n, np.column_stack([children, parents]))


def caterpillar(spine: int, legs: int) -> Graph:
    """Caterpillar: a path of length ``spine`` with ``legs`` pendant leaves per spine vertex."""
    s = np.arange(max(spine - 1, 0), dtype=np.int64)
    spine_edges = np.column_stack([s, s + 1])
    sources = np.repeat(np.arange(spine, dtype=np.int64), legs)
    leaves = spine + np.arange(spine * legs, dtype=np.int64)
    leg_edges = np.column_stack([sources, leaves])
    n = spine + spine * legs
    return Graph.from_edge_array(n, np.concatenate([spine_edges, leg_edges]))


#: Vertex pairs per uniform draw of :func:`gnp` (bounds its working memory).
_GNP_BLOCK_PAIRS = 1 << 22


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi ``G(n, p)`` random graph.

    One uniform draw per vertex pair ``i < j`` in row-major order, taken in
    blocks of :data:`_GNP_BLOCK_PAIRS` pairs: consecutive draws continue the
    stream, so the graph is the one a single draw over all pairs gives, while
    the working memory stays bounded (the edges themselves are ``O(m)``).
    """
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = canonical_rng(seed)
    if n < 2:
        return empty_graph(n)
    rows = np.arange(n, dtype=np.int64)
    row_start = rows * (n - 1) - rows * (rows - 1) // 2  # first pair of row i
    pairs = n * (n - 1) // 2
    parts = []
    for lo in range(0, pairs, _GNP_BLOCK_PAIRS):
        hits = lo + np.flatnonzero(rng.random(min(_GNP_BLOCK_PAIRS, pairs - lo)) < p)
        i = np.searchsorted(row_start, hits, side="right") - 1
        parts.append(np.column_stack([i, hits - row_start[i] + i + 1]))
    return Graph.from_edge_array(n, np.concatenate(parts))


def random_regular(n: int, degree: int, seed: int = 0, max_restarts: int = 500) -> Graph:
    """Random ``degree``-regular simple graph (pairing model, vectorized rounds).

    Requires ``n * degree`` even and ``degree < n``.  Each round permutes the
    remaining stubs and pairs them off two at a time *in one array operation*;
    pairs that would create a self-loop or a duplicate edge (within the round
    or against already-accepted edges) are rejected and their stubs re-enter
    the next round (Steger-Wormald style).  If a round makes no progress the
    construction restarts with fresh randomness.  For ``degree`` well below
    ``n`` almost every pair is accepted in the first round, so the whole build
    is a handful of ``O(n * degree)`` array passes.
    """
    if degree >= n:
        raise GraphError("degree must be smaller than n")
    if (n * degree) % 2 != 0:
        raise GraphError("n * degree must be even")
    if degree == 0:
        return empty_graph(n)

    rng = canonical_rng(seed)

    for _ in range(max_restarts):
        stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
        accepted = np.empty(0, dtype=np.int64)  # canonical keys lo * n + hi
        stuck = False
        while stubs.size:
            stubs = rng.permutation(stubs)
            u, v = stubs[0::2], stubs[1::2]
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            key = lo * np.int64(n) + hi
            # Reject self loops, duplicates against accepted edges (binary
            # search into the sorted ``accepted``), and all but the first
            # occurrence of a key repeated within this round (stable argsort:
            # equal keys keep pairing order, so "first" matches a sequential
            # scan of the round's pairs).
            ok = lo != hi
            if accepted.size:
                pos = np.minimum(np.searchsorted(accepted, key), accepted.size - 1)
                ok &= accepted[pos] != key
            order = np.argsort(key, kind="stable")
            sorted_key = key[order]
            dup_sorted = np.zeros(key.size, dtype=bool)
            dup_sorted[1:] = sorted_key[1:] == sorted_key[:-1]
            dup = np.empty(key.size, dtype=bool)
            dup[order] = dup_sorted
            ok &= ~dup
            if not ok.any():
                stuck = True
                break
            accepted = np.concatenate([accepted, key[ok]])
            accepted.sort()
            rejected = ~ok
            stubs = np.concatenate([u[rejected], v[rejected]])
        if not stuck:
            edges = np.column_stack([accepted // n, accepted % n])
            return Graph.from_edge_array(n, edges)

    raise GraphError(
        f"failed to sample a {degree}-regular graph on {n} vertices after {max_restarts} restarts"
    )


def random_bipartite(a: int, b: int, p: float, seed: int = 0) -> Graph:
    """Random bipartite graph with sides of size ``a`` and ``b`` and edge probability ``p``.

    Row-blocked uniform draws with a ``nonzero`` / ``column_stack`` build per
    block instead of a per-edge append loop.  Row-major blocks consume the
    stream in exactly the historical per-row order, so equal seeds produce
    the same graph as ever; blocking (rather than one ``(a, b)`` array) keeps
    peak memory bounded when ``a * b`` is huge but the graph itself is sparse.
    """
    rng = canonical_rng(seed)
    rows_per_block = max(1, (1 << 24) // max(b, 1))
    parts = []
    for start in range(0, a, rows_per_block):
        mask = rng.random((min(rows_per_block, a - start), b)) < p
        i, j = np.nonzero(mask)
        parts.append(np.column_stack([start + i.astype(np.int64),
                                      a + j.astype(np.int64)]))
    edges = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
    return Graph.from_edge_array(a + b, edges)


def power_law_cluster(n: int, attach: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph (Barabasi-Albert style) with ``attach`` edges per new vertex.

    Produces a skewed degree distribution; useful as a stress test for the
    coloring algorithms because a handful of vertices have degree close to
    ``Delta`` while most are low degree.

    Starts from ``K_attach``; each later vertex takes ``attach`` distinct
    targets, each an endpoint of a uniformly drawn earlier edge, which is
    exactly degree-proportional sampling (Batagelj & Brandes, "Efficient
    generation of large random networks", Phys. Rev. E 71, 036113, 2005).
    The pass is sequential, so it runs as the attachment kernel (the jit
    backend's C tier where it resolves, else its Python function) on words
    pre-drawn from the seed's stream; both consume the same words, so one
    seed gives one graph either way.
    """
    if attach < 1:
        raise GraphError("attach must be >= 1")
    if n <= attach:
        return complete_graph(n)
    from repro.core.kernels_jit import _kernel_attach, get_provider

    kernels = get_provider()
    attach_pass = kernels.attach if kernels is not None else _kernel_attach
    clique = complete_graph(attach).edge_array()
    edges = np.empty((clique.shape[0] + (n - attach) * attach, 2), dtype=np.int64)
    edges[: clique.shape[0]] = clique
    bits = canonical_rng(seed).bit_generator
    draws = (n - attach) * attach
    words = _words(bits, draws + draws // 8 + 64)  # slack for repeated targets
    mark = np.empty(n, dtype=np.int64)
    while attach_pass(words, edges.reshape(-1), clique.size, attach, n,
                      attach, mark) < 0:
        words = np.concatenate([words, _words(bits, words.size)])
    return Graph.from_edge_array(n, edges)


def _words(bits: np.random.BitGenerator, count: int) -> np.ndarray:
    """The next ``count`` raw 64-bit outputs of ``bits``, as non-negative int64
    (top 63 bits).  Prefix-consistent: two calls give what one call would."""
    return (bits.random_raw(count) >> np.uint64(1)).view(np.int64)


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union of graphs (vertex ids shifted)."""
    offset = 0
    parts = []
    for g in graphs:
        parts.append(g.edge_array() + offset)
        offset += g.n
    if parts:
        edges = np.concatenate(parts)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    return Graph.from_edge_array(offset, edges)


#: Named standard families used by the experiment sweeps, each a callable
#: ``family(n, delta, seed) -> Graph`` producing a graph with ~n vertices and
#: maximum degree close to ``delta``.
FAMILIES = {
    "ring": lambda n, delta, seed: ring(max(n, 3)),
    "random_regular": lambda n, delta, seed: random_regular(
        n + ((n * delta) % 2), delta, seed=seed
    ),
    "gnp": lambda n, delta, seed: gnp(n, min(1.0, delta / max(n - 1, 1)), seed=seed),
    "grid": lambda n, delta, seed: grid(max(2, int(np.sqrt(n))), max(2, int(np.sqrt(n)))),
    "tree": lambda n, delta, seed: random_tree(n, seed=seed),
    "power_law": lambda n, delta, seed: power_law_cluster(n, max(1, delta // 4), seed=seed),
}


def by_name(name: str, n: int, delta: int, seed: int = 0) -> Graph:
    """Instantiate one of the named :data:`FAMILIES`."""
    if name not in FAMILIES:
        raise GraphError(f"unknown graph family {name!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[name](n, delta, seed)
