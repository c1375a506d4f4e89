"""Unit tests for the CSR graph substrate."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import generators
from repro.congest import graph as graph_module
from repro.congest.graph import Graph, GraphError, GraphFormatError, GraphPerformanceWarning


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.n == 0
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g.num_edges == 1
        assert g.degree(0) == 1
        assert g.degree(1) == 1
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(3, [(-1, 0)])

    def test_negative_n_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_from_edge_array(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        g = Graph.from_edge_array(4, edges)
        assert g.num_edges == 3
        assert g.max_degree == 2

    def test_from_edge_array_bad_shape(self):
        with pytest.raises(GraphError):
            Graph.from_edge_array(3, np.array([[0, 1, 2]]))

    def test_from_adjacency(self):
        g = Graph.from_adjacency([[1, 2], [0], [0]])
        assert g.num_edges == 2
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_from_edge_array_matches_tuple_constructor(self):
        rng = np.random.default_rng(7)
        edges = rng.integers(0, 50, size=(400, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        assert Graph.from_edge_array(50, edges) == Graph(50, map(tuple, edges.tolist()))

    def test_from_edge_array_validates_vectorized(self):
        with pytest.raises(GraphError, match="self loop on vertex 2"):
            Graph.from_edge_array(5, np.array([[0, 1], [2, 2]]))
        with pytest.raises(GraphError, match=r"edge \(0, 7\) out of range"):
            Graph.from_edge_array(5, np.array([[0, 7]]))
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_edge_array(5, np.array([[-2, 1]]))

    def test_from_edge_array_collapses_both_orientations(self):
        g = Graph.from_edge_array(4, np.array([[0, 1], [1, 0], [3, 1], [1, 3], [1, 3]]))
        assert g.num_edges == 2

    def test_large_python_edge_list_warns_once(self, monkeypatch):
        monkeypatch.setattr(graph_module, "PYTHON_EDGE_LIST_WARN_THRESHOLD", 10)
        monkeypatch.setattr(graph_module, "_warned_python_edge_list", False)
        edges = [(i, i + 1) for i in range(20)]
        with pytest.warns(GraphPerformanceWarning, match="from_edge_array"):
            Graph(21, edges)
        with warnings.catch_warnings():  # one-time: the second build is silent
            warnings.simplefilter("error")
            Graph(21, edges)

    def test_edge_array_input_never_warns(self, monkeypatch):
        monkeypatch.setattr(graph_module, "PYTHON_EDGE_LIST_WARN_THRESHOLD", 10)
        monkeypatch.setattr(graph_module, "_warned_python_edge_list", False)
        i = np.arange(20, dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Graph.from_edge_array(21, np.column_stack([i, i + 1]))

    def test_networkx_round_trip(self):
        nx = pytest.importorskip("networkx")
        original = generators.grid(3, 4)
        back = Graph.from_networkx(original.to_networkx())
        assert back == original


#: Edge arrays with duplicates in both orientations and isolated vertices:
#: ``(n, pairs)`` with every endpoint below ``n``.
_edge_lists = st.integers(min_value=2, max_value=24).flatmap(lambda n: st.tuples(
    st.integers(min_value=n, max_value=n + 3),  # the top vertices stay isolated
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
             .filter(lambda e: e[0] != e[1]), max_size=60),
))
_edge_dtypes = st.sampled_from([np.int64, np.int32, np.uint16, np.float64])


def _reference_neighbors(n, pairs):
    neighbors = [set() for _ in range(n)]
    for u, v in pairs:
        neighbors[u].add(v)
        neighbors[v].add(u)
    return [sorted(s) for s in neighbors]


class TestEdgeArrayReference:
    """``Graph.from_edge_array`` against per-vertex neighbor sets."""

    @settings(max_examples=80, deadline=None)
    @given(graph=_edge_lists, dtype=_edge_dtypes, data=st.data())
    def test_matches_set_reference(self, graph, dtype, data):
        n, pairs = graph
        again = data.draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
        pairs = pairs + again + [(v, u) for u, v in again]
        pairs = data.draw(st.permutations(pairs))
        g = Graph.from_edge_array(n, np.array(pairs, dtype=dtype).reshape(-1, 2))
        want = _reference_neighbors(n, pairs)
        assert [g.neighbors(v).tolist() for v in range(n)] == want
        assert g.degrees.tolist() == [len(nbrs) for nbrs in want]
        assert g.num_edges == sum(map(len, want)) // 2
        assert g.indptr.dtype == g.indices.dtype == g.degrees.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(graph=_edge_lists, dtype=_edge_dtypes, data=st.data())
    def test_errors_name_the_first_bad_edge(self, graph, dtype, data):
        n, pairs = graph
        where = data.draw(st.integers(0, len(pairs)))
        kind = data.draw(st.sampled_from(["loop", "range"]))
        if kind == "loop":
            w = data.draw(st.integers(0, n - 1))
            bad, match = (w, w), f"self loop on vertex {w} .*edge {where} of"
        else:
            bad = data.draw(st.sampled_from([(n, 0), (1, n + 5), (0, 2 ** 15)]))
            match = rf"edge \({bad[0]}, {bad[1]}\) out of range .*edge {where} of"
        edges = np.array(pairs[:where] + [bad] + pairs[where:], dtype=dtype).reshape(-1, 2)
        with pytest.raises(GraphFormatError, match=match) as info:
            Graph.from_edge_array(n, edges)
        assert info.value.index == where and info.value.edge == bad


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph(5, [(0, 4), (0, 2), (0, 1)])
        assert g.neighbors(0).tolist() == [1, 2, 4]

    def test_degrees_and_max_degree(self):
        g = generators.star(7)
        assert g.degree(0) == 6
        assert g.max_degree == 6
        assert g.degrees.sum() == 2 * g.num_edges

    def test_has_edge_false_cases(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_edges_iteration_matches_edge_array(self):
        g = generators.gnp(25, 0.2, seed=1)
        from_iter = sorted(g.edges())
        from_array = sorted(map(tuple, g.edge_array().tolist()))
        assert from_iter == from_array

    def test_indptr_consistency(self):
        g = generators.random_regular(30, 4, seed=0)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.indices.size
        assert np.all(np.diff(g.indptr) == g.degrees)

    def test_arrays_read_only(self):
        g = generators.ring(5)
        with pytest.raises(ValueError):
            g.indices[0] = 99


class TestDerivedGraphs:
    def test_induced_subgraph(self):
        g = generators.complete_graph(6)
        sub, mapping = g.induced_subgraph([1, 3, 5])
        assert sub.n == 3
        assert sub.num_edges == 3
        assert mapping.tolist() == [1, 3, 5]

    def test_induced_subgraph_no_edges(self):
        g = generators.ring(8)
        sub, _ = g.induced_subgraph([0, 2, 4, 6])
        assert sub.num_edges == 0

    def test_induced_subgraph_out_of_range(self):
        g = generators.ring(5)
        with pytest.raises(GraphError):
            g.induced_subgraph([0, 99])

    def test_spanning_subgraph_keeps_the_masked_edges(self):
        g = generators.gnp(40, 0.2, seed=7)
        side = np.arange(g.n) % 3
        keep = side[g.src_index] == side[g.indices]
        sub = g.spanning_subgraph(keep)
        edges = g.edge_array()
        want = Graph.from_edge_array(g.n, edges[side[edges[:, 0]] == side[edges[:, 1]]])
        assert sub == want
        assert sub.n == g.n and 0 < sub.num_edges < g.num_edges

    def test_spanning_subgraph_extremes(self):
        g = generators.ring(6)
        assert g.spanning_subgraph(np.ones(g.indices.size, dtype=bool)) == g
        empty = g.spanning_subgraph(np.zeros(g.indices.size, dtype=bool))
        assert empty.n == 6 and empty.num_edges == 0
        assert Graph(0).spanning_subgraph(np.zeros(0, dtype=bool)).n == 0

    def test_power_graph_of_path(self):
        g = generators.path(5)
        g2 = g.power_graph(2)
        assert g2.has_edge(0, 2)
        assert g2.has_edge(0, 1)
        assert not g2.has_edge(0, 3)

    def test_power_graph_identity(self):
        g = generators.ring(7)
        assert g.power_graph(1) is g

    def test_power_graph_invalid(self):
        with pytest.raises(GraphError):
            generators.ring(5).power_graph(0)

    def test_bfs_distances(self):
        g = generators.path(6)
        dist = g.bfs_distances(0)
        assert dist.tolist() == [0, 1, 2, 3, 4, 5]

    def test_bfs_cutoff(self):
        g = generators.path(6)
        dist = g.bfs_distances(0, cutoff=2)
        assert dist.tolist() == [0, 1, 2, -1, -1, -1]

    def test_bfs_unreachable(self):
        g = Graph(4, [(0, 1)])
        dist = g.bfs_distances(0)
        assert dist[2] == -1 and dist[3] == -1

    def test_connected_components(self):
        g = generators.disjoint_union(generators.ring(4), generators.path(3))
        comps = g.connected_components()
        assert sorted(len(c) for c in comps) == [3, 4]

    def test_equality_and_hash(self):
        a = generators.ring(6)
        b = generators.ring(6)
        c = generators.path(6)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
