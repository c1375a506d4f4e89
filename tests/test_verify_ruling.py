"""Tests for ruling-set verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import generators
from repro.congest.graph import Graph
from repro.verify.coloring import VerificationError
from repro.verify.ruling import assert_ruling_set, domination_radius, is_independent_set


def loop_is_independent_set(graph, vertices):
    """The per-vertex neighbor loop the vectorized check replaced."""
    chosen = set(int(v) for v in vertices)
    for v in chosen:
        for u in graph.neighbors(v):
            if int(u) in chosen:
                return False
    return True


def loop_domination_radius(graph, vertices):
    """The per-vertex multi-source BFS the frontier BFS replaced."""
    chosen = sorted(set(int(v) for v in vertices))
    if graph.n == 0:
        return 0
    if not chosen:
        return -1
    dist = -np.ones(graph.n, dtype=np.int64)
    frontier = list(chosen)
    for v in frontier:
        dist[v] = 0
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u):
                if dist[w] < 0:
                    dist[w] = level
                    nxt.append(int(w))
        frontier = nxt
    if np.any(dist < 0):
        return -1
    return int(dist.max())


class TestAgainstLoops:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_match_bfs_loops(self, n, p, seed, data):
        # sparse gnp graphs are often disconnected, so -1 radii are covered
        graph = generators.gnp(n, p, seed=seed) if n else Graph(0)
        vertices = data.draw(st.lists(st.integers(0, max(0, n - 1)), max_size=n))
        assert is_independent_set(graph, vertices) == loop_is_independent_set(graph, vertices)
        assert domination_radius(graph, vertices) == loop_domination_radius(graph, vertices)

    @pytest.mark.parametrize("graph,vertices", [
        (Graph(5, [(0, 1), (2, 3)]), [0]),          # disconnected: -1
        (Graph(5, [(0, 1), (2, 3)]), [0, 2, 4]),
        (generators.ring(7), []),                   # empty set
        (Graph(0), []),                             # n = 0
        (generators.path(6), [1, 2, 5]),            # not independent
        (generators.star(6), np.array([0, 0, 3])),  # repeats, numpy input
    ])
    def test_edge_cases(self, graph, vertices):
        assert is_independent_set(graph, vertices) == loop_is_independent_set(graph, vertices)
        assert domination_radius(graph, vertices) == loop_domination_radius(graph, vertices)


class TestIndependence:
    def test_independent(self):
        g = generators.ring(6)
        assert is_independent_set(g, [0, 2, 4])

    def test_not_independent(self):
        g = generators.ring(6)
        assert not is_independent_set(g, [0, 1])

    def test_empty_set_independent(self):
        assert is_independent_set(generators.ring(5), [])


class TestDomination:
    def test_radius_zero(self):
        g = generators.ring(4)
        assert domination_radius(g, range(4)) == 0

    def test_radius_of_single_center(self):
        g = generators.star(6)
        assert domination_radius(g, [0]) == 1
        assert domination_radius(g, [1]) == 2

    def test_path_endpoints(self):
        g = generators.path(7)
        assert domination_radius(g, [0]) == 6
        assert domination_radius(g, [3]) == 3

    def test_empty_set(self):
        assert domination_radius(generators.ring(5), []) == -1

    def test_disconnected_unreachable(self):
        g = Graph(4, [(0, 1)])
        assert domination_radius(g, [0]) == -1

    def test_empty_graph(self):
        assert domination_radius(generators.empty_graph(0), []) == 0


class TestAssertRulingSet:
    def test_valid_two_one_ruling_set(self):
        g = generators.ring(6)
        assert_ruling_set(g, [0, 3], r=2)

    def test_not_independent_rejected(self):
        g = generators.ring(6)
        with pytest.raises(VerificationError, match="independent"):
            assert_ruling_set(g, [0, 1], r=2)

    def test_domination_violated(self):
        g = generators.path(8)
        with pytest.raises(VerificationError, match="dominate"):
            assert_ruling_set(g, [0], r=3)

    def test_alpha_three_requires_distance_two(self):
        g = generators.path(5)
        # vertices 0 and 2 are at distance 2: independent in G but not in G^2.
        with pytest.raises(VerificationError, match="independent"):
            assert_ruling_set(g, [0, 2], r=4, alpha=3)
        assert_ruling_set(g, [0, 3], r=4, alpha=3)

    def test_out_of_range_vertex(self):
        g = generators.ring(4)
        with pytest.raises(VerificationError, match="out of range"):
            assert_ruling_set(g, [7], r=1)
