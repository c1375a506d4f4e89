"""Static undirected graphs in compressed-sparse-row (CSR) form.

The simulator and all algorithms operate on :class:`Graph`, a lightweight
immutable adjacency structure backed by two NumPy arrays (``indptr`` and
``indices``), the same layout used by ``scipy.sparse.csr_matrix``.  The CSR
layout makes the vectorized twin of the mother algorithm
(:mod:`repro.core.vectorized`) a collection of flat array operations and keeps
per-node neighbor access an ``O(degree)`` slice.

Construction is array-native: :meth:`Graph.from_edge_array` is the canonical
constructor (one sort + ``bincount``, no Python edge loop), and
:meth:`Graph.to_shared` / :meth:`Graph.from_shared` publish the frozen CSR
triplet (``indptr``, ``indices``, ``src_index``) through
:mod:`multiprocessing.shared_memory` so worker processes of a parallel sweep
map the *same* physical pages read-only instead of regenerating or unpickling
private copies (see :mod:`repro.congest.shared`).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.congest.shared import SharedGraphHandle

__all__ = ["Graph", "GraphError", "GraphFormatError", "GraphPerformanceWarning"]


class GraphError(ValueError):
    """Raised for malformed graph inputs (self loops, out-of-range vertices, ...)."""


class GraphFormatError(GraphError):
    """A malformed edge in graph input data, pinned to the offending entry.

    Raised by :meth:`Graph.from_edge_array` (and the corpus ingestion layer,
    :mod:`repro.corpus`) instead of a bare :class:`GraphError` or an opaque
    NumPy error when the *data* is dirty — a self loop, an out-of-range
    endpoint, an unparseable token.  The structured attributes let callers
    report exactly where the input went wrong:

    ``edge``
        The offending ``(u, v)`` pair, when known.
    ``index``
        Row index of the offending edge within the edge array, when known.
    ``line``
        1-based source line number in the file being ingested (set by the
        edge-list parser, which tracks line provenance through filtering).
    """

    def __init__(
        self,
        message: str,
        *,
        edge: tuple[int, int] | None = None,
        index: int | None = None,
        line: int | None = None,
    ):
        super().__init__(message)
        self.edge = edge
        self.index = index
        self.line = line


class GraphPerformanceWarning(UserWarning):
    """A graph was built along a slow path a vectorized constructor exists for."""


#: Edge count above which feeding ``Graph(n, edges)`` a Python sequence of
#: tuples (rather than an ``(m, 2)`` array) emits a one-time
#: :class:`GraphPerformanceWarning` pointing at :meth:`Graph.from_edge_array`.
PYTHON_EDGE_LIST_WARN_THRESHOLD = 1 << 16

_warned_python_edge_list = False


def _csr_from_edge_array(n: int, edges: np.ndarray):
    """Vectorized CSR build: validate, sort both orientations once, dedup.

    Returns ``(indptr, indices, degrees, num_edges)`` for a simple undirected
    graph.  Pure NumPy — no Python loop over edges — so construction cost is
    one sort of ``2m`` keys; at ``n = 10^6`` this is the difference between
    milliseconds and minutes.
    """
    raw = np.asarray(edges)
    if raw.dtype.kind == "f":
        # A float edge array is tolerated only when every value is integral;
        # silently truncating 2.7 -> 2 would mis-wire real-world inputs.
        bad_vals = ~np.isfinite(raw) | (raw != np.trunc(raw))
        if raw.size and bad_vals.any():
            flat = int(np.argmax(bad_vals))
            i = flat // 2 if raw.ndim == 2 else flat
            raise GraphFormatError(
                f"edge array has non-integral endpoint {raw.ravel()[flat]!r} "
                f"(edge {i})", index=i,
            )
    elif raw.dtype.kind not in "iub":
        raise GraphFormatError(
            f"edge array must contain integers, got dtype {raw.dtype!s}"
        )
    edges = raw.astype(np.int64, copy=False)
    if edges.size == 0:
        dst = np.empty(0, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
    else:
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError("edge array must have shape (m, 2)")
        u, v = edges[:, 0], edges[:, 1]
        loops = u == v
        if loops.any():
            i = int(np.argmax(loops))
            raise GraphFormatError(
                f"self loop on vertex {int(u[i])} is not allowed (edge {i} of {u.size})",
                edge=(int(u[i]), int(v[i])), index=i,
            )
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphFormatError(
                f"edge ({int(u[i])}, {int(v[i])}) out of range for n={n} "
                f"(edge {i} of {u.size})",
                edge=(int(u[i]), int(v[i])), index=i,
            )
        # Both orientations of every edge as one int64 key (src << 32) | dst
        # (n < 2^31 keeps it positive; larger graphs could not hold their
        # CSR arrays in memory anyway).  One sort orders the CSR entries by
        # (source, neighbor), and a duplicate edge, in either orientation,
        # leaves adjacent equal keys.
        m = u.size
        key = np.empty(2 * m, dtype=np.int64)
        np.left_shift(u, 32, out=key[:m])
        np.left_shift(v, 32, out=key[m:])
        key[:m] |= v
        key[m:] |= u
        key.sort()
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        if not keep.all():
            key = key[keep]
        dst = key & 0xFFFFFFFF
        counts = np.bincount(np.right_shift(key, 32, out=key), minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst, counts.astype(np.int64, copy=False), dst.size // 2


class Graph:
    """An undirected simple graph on vertices ``0 .. n-1`` in CSR form.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of ``(u, v)`` pairs with ``u != v``.  Duplicate edges (in
        either orientation) are collapsed; self loops raise :class:`GraphError`.

    Notes
    -----
    The graph is immutable: the CSR arrays are created once and marked
    read-only.  All algorithm state lives outside the graph.
    """

    __slots__ = (
        "_n", "_indptr", "_indices", "_degrees", "_num_edges", "_src_index", "_shared",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError(f"number of vertices must be non-negative, got {n}")
        self._n = int(n)

        if isinstance(edges, np.ndarray):
            arr = edges
        else:
            pairs = [(int(u), int(v)) for u, v in edges]
            if len(pairs) > PYTHON_EDGE_LIST_WARN_THRESHOLD:
                global _warned_python_edge_list
                if not _warned_python_edge_list:
                    _warned_python_edge_list = True
                    warnings.warn(
                        f"Graph(n, edges) was fed a Python sequence of {len(pairs)} "
                        "edge tuples; build an (m, 2) NumPy array and use "
                        "Graph.from_edge_array for large graphs (the tuple-list "
                        "path re-walks every edge in the interpreter)",
                        GraphPerformanceWarning,
                        stacklevel=2,
                    )
            arr = (
                np.array(pairs, dtype=np.int64)
                if pairs
                else np.empty((0, 2), dtype=np.int64)
            )
        indptr, indices, degrees, num_edges = _csr_from_edge_array(self._n, arr)
        self._indptr = indptr
        self._indices = indices
        self._degrees = degrees
        self._num_edges = num_edges
        self._src_index = None
        self._shared = None
        for a in (self._indptr, self._indices, self._degrees):
            a.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edge_array(cls, n: int, edges: np.ndarray) -> "Graph":
        """Build a graph from an ``(m, 2)`` integer array of edges.

        The canonical constructor: a fully vectorized CSR build (one sort of
        both orientations of every edge as ``(src << 32) | dst`` keys, adjacent
        duplicates dropped, ``bincount`` degrees) that never walks edges in
        the interpreter.  Semantics match ``Graph(n, edges)`` exactly —
        duplicate edges (in either orientation) collapse, self loops and
        out-of-range endpoints raise :class:`GraphFormatError` naming the
        offending edge (a :class:`GraphError` subclass), as do non-integer
        edge arrays — ingestion inputs fail loudly, never silently truncate.
        """
        try:
            arr = np.asarray(edges)
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"edge array is not array-like: {exc}") from None
        return cls(n, arr)

    @classmethod
    def from_csr_arrays(
        cls, indptr: np.ndarray, indices: np.ndarray, copy: bool = True
    ) -> "Graph":
        """Trusted fast path: build a graph directly from CSR arrays.

        ``indptr`` / ``indices`` must already describe a *valid* simple
        undirected graph: every edge present in both directions, neighbor
        lists sorted, no self loops.  Only cheap shape checks are performed —
        this constructor exists so array-backend code (e.g. the vectorized
        :meth:`induced_subgraph`) can skip the ``O(E)`` Python dedup loop of
        the public constructor.

        With ``copy=True`` (the default) the graph freezes private copies, so
        the caller's buffers stay writable.  Pass ``copy=False`` only when
        handing over freshly built arrays nobody else holds — they are frozen
        in place.
        """
        def owned(a):
            arr = np.ascontiguousarray(a, dtype=np.int64)
            # Never freeze a buffer the caller still holds a writable handle
            # to; take a private copy instead.
            if copy and arr is a and arr.flags.writeable:
                arr = arr.copy()
            return arr

        indptr = owned(indptr)
        indices = owned(indices)
        if indptr.ndim != 1 or indptr.size == 0 or indices.ndim != 1:
            raise GraphError("malformed CSR arrays")
        if int(indptr[0]) != 0 or int(indptr[-1]) != indices.size:
            raise GraphError("indptr does not span the indices array")
        g = cls.__new__(cls)
        g._n = indptr.size - 1
        g._indptr = indptr
        g._indices = indices
        g._degrees = np.diff(indptr)
        g._num_edges = indices.size // 2
        g._src_index = None
        g._shared = None
        for a in (g._indptr, g._indices, g._degrees):
            a.setflags(write=False)
        return g

    # ------------------------------------------------------------------ #
    # Shared-memory plane
    # ------------------------------------------------------------------ #

    def to_shared(self) -> "SharedGraphHandle":
        """Publish the CSR triplet in a shared-memory segment; return its handle.

        The returned :class:`repro.congest.shared.SharedGraphHandle` is
        picklable and cheap to ship to worker processes, which attach with
        :meth:`from_shared` and get zero-copy read-only views of the *same*
        physical pages — no per-worker regeneration, no ``W x`` memory.

        The segment is refcounted: the handle holds one reference and every
        attached graph holds another; ``handle.close()`` (or using the handle
        as a context manager) drops the publisher's reference and unlinks the
        segment once the last local reference is gone.  Undropped references
        are reclaimed by an ``atexit`` hook.  Publishing an already-attached
        graph returns a handle on the existing segment instead of copying.
        """
        from repro.congest import shared

        if self._shared is not None:
            return shared.reshare(self._shared.name, self._n, self._indices.size)
        # Materialise src_index up front: attachers get it for free and the
        # hot kernels never rebuild it per worker.
        return shared.publish(self._indptr, self._indices, self.src_index)

    @classmethod
    def from_shared(cls, handle: "SharedGraphHandle") -> "Graph":
        """Attach to a published graph: zero-copy read-only CSR views.

        The attached graph keeps the segment mapped for its lifetime (a
        refcounted lease released on garbage collection); nothing is copied
        and the arrays are read-only, so any number of processes can share one
        physical graph.
        """
        from repro.congest import shared

        indptr, indices, src_index, lease = shared.attach(handle)
        g = cls.__new__(cls)
        g._n = indptr.size - 1
        g._indptr = indptr
        g._indices = indices
        g._degrees = np.diff(indptr)
        g._degrees.setflags(write=False)
        g._num_edges = indices.size // 2
        g._src_index = src_index
        g._shared = lease
        return g

    @property
    def shared_name(self) -> str | None:
        """Name of the shared-memory segment backing this graph (None if private)."""
        return None if self._shared is None else self._shared.name

    @classmethod
    def from_adjacency(cls, adjacency: Sequence[Sequence[int]]) -> "Graph":
        """Build a graph from an adjacency-list representation."""
        n = len(adjacency)
        edges = []
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                edges.append((u, int(v)))
        return cls(n, edges)

    @classmethod
    def from_networkx(cls, nxgraph) -> "Graph":
        """Build a graph from a ``networkx`` graph with integer-convertible nodes.

        Node labels are relabelled to ``0..n-1`` in sorted order.
        """
        nodes = sorted(nxgraph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nxgraph.edges() if u != v]
        return cls(len(nodes), edges)

    def to_networkx(self):
        """Return a ``networkx.Graph`` copy (requires networkx)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n))
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer, shape ``(n + 1,)``."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (flattened neighbor lists), shape ``(2 * num_edges,)``."""
        return self._indices

    @property
    def degrees(self) -> np.ndarray:
        """Vertex degrees, shape ``(n,)``."""
        return self._degrees

    @property
    def src_index(self) -> np.ndarray:
        """Source vertex of every CSR entry, shape ``(2 * num_edges,)``.

        Equal to ``np.repeat(np.arange(n), degrees)`` — the edge-source array
        every flat array kernel scatters per-entry values back to vertices
        with.  Built lazily on first access and cached read-only, so hot
        kernels (the vectorized mother algorithm, the array reductions,
        orientation derivation, coloring validation) share one copy instead
        of rebuilding an ``O(E)`` array per call.
        """
        if self._src_index is None:
            src = np.repeat(np.arange(self._n, dtype=np.int64), self._degrees)
            src.setflags(write=False)
            self._src_index = src
        return self._src_index

    @property
    def max_degree(self) -> int:
        """Maximum degree ``Delta`` of the graph (0 for an empty graph)."""
        if self._n == 0 or self._degrees.size == 0:
            return 0
        return int(self._degrees.max())

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted array of neighbors of ``v`` (a read-only view)."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether ``{u, v}`` is an edge."""
        if u == v:
            return False
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return pos < nbrs.size and nbrs[pos] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def edge_array(self) -> np.ndarray:
        """Return all edges as an ``(num_edges, 2)`` array with ``u < v`` per row."""
        if self._num_edges == 0:
            return np.empty((0, 2), dtype=np.int64)
        src = self.src_index
        mask = src < self._indices
        return np.stack([src[mask], self._indices[mask]], axis=1)

    def incident_csr_entries(self, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather the CSR entry positions incident to ``vertices`` (frontier compaction).

        Returns ``(positions, rows)``: ``positions`` indexes into
        :attr:`indices` (so ``indices[positions]`` are the neighbors), and
        ``rows[i]`` is the index *within* ``vertices`` that entry ``i``
        belongs to.  Entries of one vertex stay contiguous and in sorted
        neighbor order.  Cost is ``O(sum of degrees(vertices))`` — this is the
        primitive that lets per-round kernels touch only the active
        subgraph's adjacency instead of all ``2|E|`` entries.
        """
        verts = np.asarray(vertices, dtype=np.int64)
        deg = self._degrees[verts]
        total = int(deg.sum())
        rows = np.repeat(np.arange(verts.size, dtype=np.int64), deg)
        starts = np.zeros(verts.size, dtype=np.int64)
        np.cumsum(deg[:-1], out=starts[1:])
        positions = np.arange(total, dtype=np.int64) + np.repeat(self._indptr[verts] - starts, deg)
        return positions, rows

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns
        -------
        (subgraph, mapping):
            ``subgraph`` is a :class:`Graph` on ``len(vertices)`` relabelled
            vertices and ``mapping`` maps subgraph vertex ``i`` back to the
            original vertex id ``mapping[i]``.
        """
        verts = np.unique(np.array(list(vertices), dtype=np.int64))
        if verts.size and (verts[0] < 0 or verts[-1] >= self._n):
            raise GraphError("subgraph vertices out of range")
        if verts.size == 0:
            return Graph(0), verts
        # Fully vectorized: keep the CSR entries whose both endpoints are in
        # the vertex set and relabel.  ``position`` is monotone over the sorted
        # ``verts``, so each surviving row keeps its sorted neighbor order and
        # the filtered arrays are already a valid CSR of the subgraph.
        keep = np.zeros(self._n, dtype=bool)
        keep[verts] = True
        position = -np.ones(self._n, dtype=np.int64)
        position[verts] = np.arange(verts.size)
        src = self.src_index
        sel = keep[src] & keep[self._indices]
        sub_src = position[src[sel]]
        sub_dst = position[self._indices[sel]]
        counts = np.bincount(sub_src, minlength=verts.size)
        indptr = np.zeros(verts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return Graph.from_csr_arrays(indptr, sub_dst, copy=False), verts

    def spanning_subgraph(self, keep: np.ndarray) -> "Graph":
        """The subgraph on all ``n`` vertices with the CSR entries ``keep`` marks.

        ``keep`` is a boolean mask over :attr:`indices` that must be
        symmetric (an entry and its reverse agree), as every predicate of
        both endpoints is — e.g. "both endpoints share a color".  Rows keep
        their sorted neighbor order, so the kept entries are already a valid
        CSR.
        """
        counts = np.bincount(self.src_index[keep], minlength=self._n)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return Graph.from_csr_arrays(indptr, self._indices[keep], copy=False)

    def power_graph(self, power: int) -> "Graph":
        """Return ``G^power``: vertices at distance ``<= power`` become adjacent.

        Used for ``(alpha, r)``-ruling sets, where independence is required in
        ``G^(alpha-1)``.  Implemented by breadth-first search from every vertex,
        which is fine for the moderate graph sizes used in the experiments.
        """
        if power < 1:
            raise GraphError("power must be >= 1")
        if power == 1:
            return self
        edges = []
        for source in range(self._n):
            dist = self.bfs_distances(source, cutoff=power)
            close = np.nonzero((dist > 0) & (dist <= power))[0]
            for v in close:
                if source < v:
                    edges.append((source, int(v)))
        return Graph(self._n, edges)

    def bfs_distances(self, source: int, cutoff: int | None = None) -> np.ndarray:
        """Breadth-first-search distances from ``source``.

        Unreachable vertices get distance ``-1``.  If ``cutoff`` is given, the
        search stops after ``cutoff`` levels (farther vertices report ``-1``).
        """
        dist = -np.ones(self._n, dtype=np.int64)
        dist[source] = 0
        frontier = [source]
        level = 0
        while frontier and (cutoff is None or level < cutoff):
            level += 1
            nxt = []
            for u in frontier:
                for v in self.neighbors(u):
                    if dist[v] < 0:
                        dist[v] = level
                        nxt.append(int(v))
            frontier = nxt
        return dist

    def connected_components(self) -> list[np.ndarray]:
        """Return the connected components as arrays of vertex ids."""
        seen = np.zeros(self._n, dtype=bool)
        components = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.neighbors(u):
                    if not seen[v]:
                        seen[v] = True
                        stack.append(int(v))
            components.append(np.array(sorted(comp), dtype=np.int64))
        return components

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, edges={self._num_edges}, max_degree={self.max_degree})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self._n, self._num_edges, self._indices.tobytes()))
