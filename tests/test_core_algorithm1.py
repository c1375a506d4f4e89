"""Tests of Algorithm 1 / Theorem 1.1 on the message-passing simulator."""

import numpy as np
import pytest

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.core.algorithm1 import derive_orientation, run_mother_algorithm
from repro.core.params import MotherParameters
from repro.verify.coloring import assert_proper_coloring, assert_defective_coloring
from repro.verify.orientation import assert_outdegree_orientation
from repro.verify.partition import assert_partition_degree_bound


def run_on(graph, d=0, k=1, seed=0, **kwargs):
    colors, m = make_input_coloring(graph, seed=seed)
    return run_mother_algorithm(graph, colors, m, d=d, k=k, **kwargs), colors, m


class TestProperColoring:
    @pytest.mark.parametrize("k", [1, 2, 5, 50])
    def test_proper_coloring_on_petersen(self, petersen, k):
        result, _, _ = run_on(petersen, d=0, k=k)
        assert_proper_coloring(petersen, result.colors, max_colors=result.color_space_size)

    def test_ring(self, ring12):
        result, _, _ = run_on(ring12, d=0, k=2)
        assert_proper_coloring(ring12, result.colors)

    def test_complete_graph(self):
        g = generators.complete_graph(9)
        result, _, _ = run_on(g, d=0, k=1)
        assert_proper_coloring(g, result.colors)
        # a clique needs at least n distinct colors
        assert result.num_colors == 9

    def test_random_regular(self, random_regular8):
        result, _, _ = run_on(random_regular8, d=0, k=4)
        assert_proper_coloring(random_regular8, result.colors)

    def test_empty_graph(self):
        g = generators.empty_graph(0)
        colors, m = np.empty(0, dtype=np.int64), 16
        result = run_mother_algorithm(g, colors, m, d=0, k=1)
        assert result.colors.size == 0
        assert result.rounds == 0

    def test_edgeless_graph(self):
        g = generators.empty_graph(5)
        colors = np.arange(5)
        result = run_mother_algorithm(g, colors, m=16, d=0, k=1)
        assert result.rounds <= 1
        assert result.colors.size == 5


class TestTheorem11Guarantees:
    def test_round_bound(self, random_regular8):
        for k in (1, 3, 9):
            result, _, m = run_on(random_regular8, d=0, k=k)
            params = MotherParameters.derive(m=m, delta=random_regular8.max_degree, d=0, k=k)
            assert result.rounds <= params.num_batches <= params.round_bound

    def test_color_space_bound(self, random_regular8):
        result, _, m = run_on(random_regular8, d=0, k=7)
        assert result.colors.max() < result.color_space_size

    def test_parts_within_round_count(self, random_regular8):
        result, _, _ = run_on(random_regular8, d=2, k=2)
        assert result.parts.min() >= 1
        assert result.parts.max() == result.rounds

    def test_orientation_outdegree_at_most_d(self, random_regular8):
        for d in (1, 3, 5):
            result, colors, _ = run_on(random_regular8, d=d, k=1)
            assert result.orientation is None  # only outdegree_coloring sets it
            orientation = derive_orientation(random_regular8, result.colors, result.parts, colors)
            assert_outdegree_orientation(random_regular8, result.colors, orientation, d)

    def test_partition_degree_at_most_d(self, random_regular8):
        for d in (1, 3):
            result, _, _ = run_on(random_regular8, d=d, k=2)
            assert_partition_degree_bound(
                random_regular8, result.colors, result.parts, d, max_parts=result.rounds
            )

    def test_single_batch_is_one_round_and_defective(self):
        g = generators.random_regular(40, 6, seed=1)
        colors, m = make_input_coloring(g, seed=1)
        params = MotherParameters.derive(m=m, delta=6, d=2, k=1)
        big_k = MotherParameters(m=params.m, delta=params.delta, d=params.d, k=params.q,
                                 f=params.f, q=params.q)
        result = run_mother_algorithm(g, colors, m, d=2, k=big_k.k, params=big_k)
        assert result.rounds == 1
        # one part only => the partition bound is a plain defect bound
        assert_defective_coloring(g, result.colors, d=2)

    def test_d_zero_ignores_orientation(self, petersen):
        result, colors, _ = run_on(petersen, d=0, k=1)
        orientation = derive_orientation(petersen, result.colors, result.parts, colors)
        assert orientation.shape == (0, 2) and orientation.dtype == np.int64


class TestCongestBehaviour:
    def test_messages_fit_congest_budget(self, random_regular8):
        colors, m = make_input_coloring(random_regular8, seed=2)
        result = run_mother_algorithm(random_regular8, colors, m, d=0, k=2)
        # TRY carries the input color (< m = Delta^4), COLORED carries an output
        # color (< 256 Delta^2): both are O(log Delta) = O(log n)-bit messages.
        assert result.metadata["max_message_bits"] <= 8 * 8 + int(np.log2(m)) + 8

    def test_simulator_rounds_at_most_one_extra(self, random_regular8):
        result, _, _ = run_on(random_regular8, d=0, k=2)
        assert result.rounds <= result.metadata["simulator_rounds"] <= result.rounds + 1

    def test_local_model_also_works(self, petersen):
        colors, m = make_input_coloring(petersen, seed=3)
        result = run_mother_algorithm(petersen, colors, m, d=0, k=1, model="LOCAL")
        assert_proper_coloring(petersen, result.colors)


class TestInputValidation:
    def test_rejects_improper_input_coloring(self, ring12):
        bad = np.zeros(ring12.n, dtype=np.int64)
        with pytest.raises(Exception):
            run_mother_algorithm(ring12, bad, m=16, d=0, k=1)

    def test_rejects_out_of_range_input_colors(self, ring12):
        colors = np.arange(ring12.n)
        with pytest.raises(Exception):
            run_mother_algorithm(ring12, colors, m=4, d=0, k=1)

    def test_validate_can_be_disabled(self, ring12):
        colors = np.arange(ring12.n) % 3
        # alternating 0,1,2 on a ring of length 12 is proper; skipping
        # validation must still produce a proper output
        result = run_mother_algorithm(ring12, colors, m=16, d=0, k=1, validate_input=False)
        assert_proper_coloring(ring12, result.colors)


class TestOrientationDerivation:
    def test_orientation_edges_follow_parts_and_input_colors(self):
        g = generators.path(3)
        colors = np.array([7, 7, 9])
        parts = np.array([2, 1, 1])
        input_colors = np.array([0, 1, 2])
        orientation = derive_orientation(g, colors, parts, input_colors)
        assert orientation.tolist() == [[0, 1]]

    def test_same_part_ties_broken_by_input_color(self):
        g = generators.path(2)
        orientation = derive_orientation(
            g, np.array([5, 5]), np.array([1, 1]), np.array([3, 8])
        )
        assert orientation.tolist() == [[0, 1]]

    def test_non_monochromatic_edges_not_oriented(self):
        g = generators.path(2)
        orientation = derive_orientation(
            g, np.array([5, 6]), np.array([1, 1]), np.array([3, 8])
        )
        assert orientation.shape == (0, 2)
