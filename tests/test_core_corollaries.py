"""Tests for the Corollary 1.2 parameter settings."""

import numpy as np
import pytest

from helpers import make_input_coloring
from repro.analysis import bounds
from repro.congest import generators
from repro.core import corollaries
from repro.verify.coloring import assert_defective_coloring, assert_proper_coloring, max_defect
from repro.verify.orientation import assert_outdegree_orientation


@pytest.fixture(scope="module")
def workload():
    graph = generators.random_regular(80, 8, seed=13)
    colors, m = make_input_coloring(graph, seed=13)
    return graph, colors, m


class TestLinialOneRound:
    def test_one_round_and_color_bound(self, workload):
        graph, colors, m = workload
        res = corollaries.linial_color_reduction(graph, colors, m)
        assert res.rounds == 1
        assert_proper_coloring(graph, res.colors)
        assert res.color_space_size <= bounds.corollary12_1_colors(graph.max_degree)

    def test_vectorized_agrees(self, workload):
        graph, colors, m = workload
        a = corollaries.linial_color_reduction(graph, colors, m)
        b = corollaries.linial_color_reduction(graph, colors, m, backend="array")
        assert np.array_equal(a.colors, b.colors)


class TestKDeltaColoring:
    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_color_and_round_bounds(self, workload, k):
        graph, colors, m = workload
        delta = graph.max_degree
        res = corollaries.kdelta_coloring(graph, colors, m, k=k)
        assert_proper_coloring(graph, res.colors)
        assert res.color_space_size <= bounds.corollary12_2_colors(delta, k)
        assert res.rounds <= bounds.corollary12_2_rounds(delta, k)

    def test_rounds_monotone_in_k(self, workload):
        graph, colors, m = workload
        rounds = [corollaries.kdelta_coloring(graph, colors, m, k=k, backend="array").rounds
                  for k in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))


class TestDeltaSquared:
    def test_constant_rounds(self, workload):
        graph, colors, m = workload
        res = corollaries.delta_squared_coloring(graph, colors, m)
        assert res.rounds <= 256
        assert_proper_coloring(graph, res.colors)


class TestOutdegreeColoring:
    @pytest.mark.parametrize("beta", [1, 2, 4])
    def test_orientation_bound(self, workload, beta):
        graph, colors, m = workload
        res = corollaries.outdegree_coloring(graph, colors, m, beta=beta)
        assert_outdegree_orientation(graph, res.colors, res.orientation, beta)
        # a (k, 2) int64 array, rows in lexicographic order
        assert res.orientation.dtype == np.int64 and res.orientation.shape[1] == 2
        assert res.orientation.tolist() == sorted(res.orientation.tolist())
        assert res.rounds <= bounds.corollary12_4_rounds(graph.max_degree, beta) + 1

    def test_invalid_beta(self, workload):
        graph, colors, m = workload
        with pytest.raises(ValueError):
            corollaries.outdegree_coloring(graph, colors, m, beta=0)
        with pytest.raises(ValueError):
            corollaries.outdegree_coloring(graph, colors, m, beta=graph.max_degree)


class TestDefectiveColorings:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_one_round_defect_bound(self, workload, d):
        graph, colors, m = workload
        res = corollaries.defective_coloring_one_round(graph, colors, m, d=d)
        assert res.rounds == 1
        assert_defective_coloring(graph, res.colors, d=d)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_multi_round_defect_bound(self, workload, d):
        graph, colors, m = workload
        res = corollaries.defective_coloring(graph, colors, m, d=d)
        assert_defective_coloring(graph, res.colors, d=d)
        assert res.rounds <= bounds.corollary12_6_rounds(graph.max_degree, d) + 1

    def test_pair_encoding_roundtrip(self, workload):
        graph, colors, m = workload
        res = corollaries.defective_coloring(graph, colors, m, d=2)
        stride = res.metadata["pair_encoding_stride"]
        base_colors = res.colors // stride
        parts = res.colors % stride
        assert np.array_equal(parts, res.parts)
        assert base_colors.max() < res.metadata["base_color_space"]

    def test_invalid_d(self, workload):
        graph, colors, m = workload
        with pytest.raises(ValueError):
            corollaries.defective_coloring(graph, colors, m, d=0)
        with pytest.raises(ValueError):
            corollaries.defective_coloring_one_round(graph, colors, m, d=graph.max_degree)

    def test_defect_can_exceed_zero_but_never_d(self):
        # A clique forces actual defects: with d = 2 some vertices must share
        # colors, but never more than 2 same-colored neighbors.
        g = generators.complete_graph(8)
        colors, m = make_input_coloring(g, seed=3)
        res = corollaries.defective_coloring_one_round(g, colors, m, d=2)
        assert 0 <= max_defect(g, res.colors) <= 2


class TestRegisteredRunnerGuarantees:
    def test_defect_bound_is_enforced_not_just_recorded(self):
        # the registered runners' guarantee strings promise a *hard* invariant;
        # a violating coloring must raise, not ship as a record.
        from repro.core.corollaries import _checked_defect

        ring = generators.ring(6)
        monochrome = np.zeros(ring.n, dtype=np.int64)  # defect 2 on a ring
        with pytest.raises(AssertionError, match="max defect"):
            _checked_defect(ring, monochrome, 1)
        assert _checked_defect(ring, monochrome, 2) == 2
