"""Tests for orientation and partition verification (Theorem 1.1 points (1) and (2))."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import generators
from repro.congest.graph import Graph
from repro.congest.ids import InputColoringError, validate_proper_coloring
from repro.core.algorithm1 import derive_orientation
from repro.verify.coloring import (
    VerificationError,
    assert_proper_coloring,
    defect_vector,
    is_proper_coloring,
    max_defect,
)
from repro.verify.orientation import (
    assert_outdegree_orientation,
    monochromatic_edges,
    orientation_outdegrees,
)
from repro.verify.partition import assert_partition_degree_bound, partition_classes


class TestMonochromaticEdges:
    def test_none_for_proper_coloring(self):
        g = generators.ring(6)
        assert monochromatic_edges(g, np.array([0, 1, 0, 1, 0, 1])).size == 0

    def test_detects_monochromatic(self):
        g = generators.path(3)
        edges = monochromatic_edges(g, np.array([5, 5, 1]))
        assert edges.tolist() == [[0, 1]]


class TestOrientation:
    def test_outdegrees(self):
        g = generators.path(3)
        out = orientation_outdegrees(g, np.array([[0, 1], [2, 1]]))
        assert out.tolist() == [1, 0, 1]

    def test_non_edge_rejected(self):
        # (0, 5) has the key 0 * 3 + 5 of the edge (1, 2): vertex ids out of
        # range must be rejected before the key lookup.
        g = generators.path(3)
        for row in [(0, 2), (0, 5), (-1, 1), (1, 3)]:
            with pytest.raises(VerificationError, match="non-edge"):
                orientation_outdegrees(g, np.array([row]))

    def test_valid_orientation_accepted(self):
        g = generators.path(3)
        colors = np.array([4, 4, 4])
        assert_outdegree_orientation(g, colors, np.array([[0, 1], [1, 2]]), beta=1)

    def test_outdegree_bound_violation(self):
        g = generators.path(3)
        colors = np.array([4, 4, 4])
        with pytest.raises(VerificationError, match="outdegree"):
            assert_outdegree_orientation(g, colors, np.array([[1, 0], [1, 2]]), beta=1)

    def test_missing_monochromatic_edge(self):
        g = generators.path(3)
        colors = np.array([4, 4, 4])
        with pytest.raises(VerificationError, match="not oriented"):
            assert_outdegree_orientation(g, colors, np.array([[0, 1]]), beta=2)

    def test_doubly_oriented_edge(self):
        g = generators.path(2)
        colors = np.array([1, 1])
        with pytest.raises(VerificationError, match="twice"):
            assert_outdegree_orientation(g, colors, np.array([[0, 1], [1, 0]]), beta=2)

    def test_non_monochromatic_edge_in_orientation(self):
        g = generators.path(2)
        colors = np.array([1, 2])
        with pytest.raises(VerificationError, match="different colors"):
            assert_outdegree_orientation(g, colors, np.array([[0, 1]]), beta=2)


class TestPartition:
    def test_partition_classes(self):
        parts = np.array([1, 1, 2, 3])
        classes = partition_classes(parts)
        assert classes[1].tolist() == [0, 1]
        assert classes[3].tolist() == [3]

    def test_partition_degree_bound_ok(self):
        g = generators.complete_graph(4)
        colors = np.zeros(4)
        parts = np.array([1, 2, 3, 4])
        assert_partition_degree_bound(g, colors, parts, d=0)

    def test_partition_degree_bound_violated(self):
        g = generators.complete_graph(4)
        colors = np.zeros(4)
        parts = np.ones(4)
        with pytest.raises(VerificationError, match="same-color same-part"):
            assert_partition_degree_bound(g, colors, parts, d=2)

    def test_partition_max_parts(self):
        g = generators.path(4)
        colors = np.arange(4)
        parts = np.array([1, 2, 3, 4])
        with pytest.raises(VerificationError, match="parts"):
            assert_partition_degree_bound(g, colors, parts, d=0, max_parts=3)

    def test_partition_wrong_shape(self):
        g = generators.path(4)
        with pytest.raises(VerificationError):
            assert_partition_degree_bound(g, np.arange(4), np.array([1, 2]), d=0)

    def test_different_color_same_part_is_fine(self):
        g = generators.complete_graph(5)
        colors = np.arange(5)
        parts = np.ones(5)
        assert_partition_degree_bound(g, colors, parts, d=0)


class TestCsrEntryCountsMatchBruteForce:
    """The verifiers work over CSR entries (each edge once per endpoint);
    a per-vertex walk over the neighbour lists must give the same answers."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=30),
        p=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
        num_colors=st.integers(min_value=1, max_value=4),
        num_parts=st.integers(min_value=1, max_value=3),
    )
    def test_counts(self, n, p, seed, num_colors, num_parts):
        g = generators.gnp(n, p, seed=seed)
        rng = np.random.default_rng(seed)
        colors = rng.integers(0, num_colors, size=n)
        parts = rng.integers(1, num_parts + 1, size=n)

        defect = [sum(colors[u] == colors[v] for u in g.neighbors(v)) for v in range(n)]
        within = [
            sum(colors[u] == colors[v] and parts[u] == parts[v] for u in g.neighbors(v))
            for v in range(n)
        ]
        mono = [(u, int(v)) for u in range(n) for v in g.neighbors(u)
                if u < v and colors[u] == colors[v]]

        assert defect_vector(g, colors).tolist() == defect
        assert max_defect(g, colors) == max(defect, default=0)
        assert [tuple(e) for e in monochromatic_edges(g, colors).tolist()] == mono
        # Proper-coloring checks name the lexicographically first one.
        assert is_proper_coloring(g, colors) == (not mono)
        if mono:
            first = rf"edge \({mono[0][0]}, {mono[0][1]}\) is monochromatic"
            with pytest.raises(VerificationError, match=first):
                assert_proper_coloring(g, colors)
            with pytest.raises(InputColoringError, match=first):
                validate_proper_coloring(g, colors)
        worst = max(within, default=0)
        assert_partition_degree_bound(g, colors, parts, d=worst)
        if worst > 0:
            with pytest.raises(VerificationError, match=f"vertex {within.index(worst)} "):
                assert_partition_degree_bound(g, colors, parts, d=worst - 1)

        # The derived orientation covers exactly the monochromatic edges, and
        # the array verifier accepts it at its own maximum outdegree only.
        orientation = derive_orientation(g, colors, parts, np.arange(n))
        assert sorted(tuple(sorted(e)) for e in orientation.tolist()) == mono
        out = orientation_outdegrees(g, orientation)
        assert out.tolist() == [sum(1 for t, _ in orientation.tolist() if t == v)
                                for v in range(n)]
        beta = int(out.max(initial=0))
        assert_outdegree_orientation(g, colors, orientation, beta)
        if beta > 0:
            with pytest.raises(VerificationError, match="outdegree"):
                assert_outdegree_orientation(g, colors, orientation, beta - 1)
        if mono:
            with pytest.raises(VerificationError, match="is not oriented"):
                assert_outdegree_orientation(g, colors, orientation[1:], beta)
