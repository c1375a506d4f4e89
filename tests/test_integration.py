"""Integration and cross-module property tests.

These tests run whole pipelines across the graph zoo and assert the structural
guarantees of Theorem 1.1 / Corollary 1.2 end to end, plus hypothesis-driven
invariant checks on random graphs and parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.core import corollaries, pipelines
from repro.core.algorithm1 import derive_orientation, run_mother_algorithm
from repro.core.one_round import max_reducible_colors, one_round_color_reduction, required_input_colors
from repro.core.params import MotherParameters
from repro.verify.coloring import (
    assert_defective_coloring,
    assert_proper_coloring,
)
from repro.verify.orientation import assert_outdegree_orientation
from repro.verify.partition import assert_partition_degree_bound


class TestZooPipelines:
    def test_delta_plus_one_on_zoo(self, small_graph_zoo):
        for graph in small_graph_zoo:
            if graph.max_degree == 0:
                continue
            res = pipelines.delta_plus_one_coloring(graph, seed=1)
            assert_proper_coloring(graph, res.colors, max_colors=graph.max_degree + 1)

    def test_mother_algorithm_on_zoo(self, small_graph_zoo):
        for graph in small_graph_zoo:
            if graph.max_degree == 0:
                continue
            colors, m = make_input_coloring(graph, seed=2)
            for k in (1, 3):
                res = run_mother_algorithm(graph, colors, m, d=0, k=k)
                assert_proper_coloring(graph, res.colors)

    def test_full_theorem11_contract_on_zoo(self, small_graph_zoo):
        for graph in small_graph_zoo:
            if graph.max_degree < 3:
                continue
            d = max(1, graph.max_degree // 4)
            colors, m = make_input_coloring(graph, seed=3)
            res = run_mother_algorithm(graph, colors, m, d=d, k=2)
            params = MotherParameters.derive(m=m, delta=graph.max_degree, d=d, k=2)
            # all three guarantees of Theorem 1.1 at once
            assert res.rounds <= params.round_bound
            assert res.colors.max() < params.color_space_size
            orientation = derive_orientation(graph, res.colors, res.parts, colors)
            assert_outdegree_orientation(graph, res.colors, orientation, d)
            assert_partition_degree_bound(graph, res.colors, res.parts, d,
                                          max_parts=res.rounds)


class TestChainedAlgorithms:
    def test_linial_output_feeds_corollaries(self):
        from repro.core.linial import linial_coloring

        graph = generators.random_regular(120, 8, seed=4)
        lin = linial_coloring(graph, seed=4)
        # use Linial's output coloring as the input coloring of the corollaries
        res = corollaries.kdelta_coloring(graph, lin.colors, lin.color_space_size, k=2)
        assert_proper_coloring(graph, res.colors)

        defective = corollaries.defective_coloring_one_round(
            graph, lin.colors, lin.color_space_size, d=2
        )
        assert_defective_coloring(graph, defective.colors, d=2)

    def test_theorem13_feeds_ruling_set(self):
        from repro.core.ruling_sets import ruling_set_from_coloring
        from repro.verify.ruling import assert_ruling_set

        graph = generators.random_regular(100, 8, seed=5)
        colors, m = make_input_coloring(graph, seed=5)
        col = pipelines.theorem13_coloring(graph, colors, m, epsilon=0.5, backend="array")
        rs = ruling_set_from_coloring(graph, col.colors, col.color_space_size, base=4)
        assert_ruling_set(graph, rs.vertices, r=rs.r)

    def test_one_round_then_mother(self):
        # chain Theorem 1.6's reduction with the mother algorithm
        delta = 8
        k = min(delta - 1, (delta + 3) // 2)
        m = required_input_colors(delta, k)
        graph = generators.random_regular(80, delta, seed=6)
        from repro.congest.ids import random_proper_coloring

        colors, m = random_proper_coloring(graph, num_colors=m, seed=6)
        reduced = one_round_color_reduction(graph, colors, m, k=k, delta=delta)
        res = run_mother_algorithm(graph, reduced.colors, reduced.color_space_size, d=0, k=1)
        assert_proper_coloring(graph, res.colors)


class TestHypothesisInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=6, max_value=50),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=5000),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_proper_coloring_invariant(self, n, p, seed, k):
        graph = generators.gnp(n, p, seed=seed)
        if graph.max_degree < 1:
            return
        colors, m = make_input_coloring(graph, seed=seed)
        res = run_mother_algorithm(graph, colors, m, d=0, k=k)
        assert_proper_coloring(graph, res.colors)
        params = MotherParameters.derive(m=m, delta=graph.max_degree, d=0, k=k)
        assert res.rounds <= params.num_batches

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=40),
        p=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=5000),
        d_frac=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_defective_and_orientation_invariants(self, n, p, seed, d_frac):
        graph = generators.gnp(n, p, seed=seed)
        if graph.max_degree < 2:
            return
        d = max(1, int(d_frac * (graph.max_degree - 1)))
        colors, m = make_input_coloring(graph, seed=seed)

        one_round = corollaries.defective_coloring_one_round(graph, colors, m, d=d)
        assert_defective_coloring(graph, one_round.colors, d=d)

        multi = corollaries.defective_coloring(graph, colors, m, d=d)
        assert_defective_coloring(graph, multi.colors, d=d)

        out = corollaries.outdegree_coloring(graph, colors, m, beta=d)
        assert_outdegree_orientation(graph, out.colors, out.orientation, d)

    @settings(max_examples=15, deadline=None)
    @given(
        delta=st.integers(min_value=3, max_value=9),
        seed=st.integers(min_value=0, max_value=2000),
    )
    def test_one_round_reduction_invariant(self, delta, seed):
        from repro.congest.ids import random_proper_coloring

        n = 30 + (30 * delta) % 2
        graph = generators.random_regular(n, delta, seed=seed)
        k = max_reducible_colors(required_input_colors(delta, 2), delta)
        m = required_input_colors(delta, k)
        colors, m = random_proper_coloring(graph, num_colors=m, seed=seed)
        res = one_round_color_reduction(graph, colors, m, k=k, delta=delta)
        assert res.rounds == 1
        assert_proper_coloring(graph, res.colors, max_colors=m - k)
