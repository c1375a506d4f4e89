"""The vectorized twin must agree bit-for-bit with the message-passing implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.core.algorithm1 import derive_orientation, run_mother_algorithm
from repro.core.params import MotherParameters
from repro.core.vectorized import evaluate_all_sequences, run_mother_algorithm_vectorized
from repro.core.sequences import build_sequence
from repro.verify.coloring import assert_proper_coloring
from repro.verify.orientation import assert_outdegree_orientation


class TestSequenceEvaluation:
    def test_matches_scalar_sequences(self):
        params = MotherParameters.derive(m=8 ** 4, delta=8, d=0, k=2)
        colors = np.array([0, 17, 4095, 255])
        table = evaluate_all_sequences(colors, params)
        for row, c in enumerate(colors):
            assert np.array_equal(table[row], build_sequence(int(c), params).values)


class TestEquivalence:
    @pytest.mark.parametrize("d,k", [(0, 1), (0, 3), (0, 64), (2, 1), (2, 4), (5, 2)])
    def test_matches_message_passing(self, random_regular8, d, k):
        colors, m = make_input_coloring(random_regular8, seed=11)
        a = run_mother_algorithm(random_regular8, colors, m, d=d, k=k)
        b = run_mother_algorithm_vectorized(random_regular8, colors, m, d=d, k=k)
        assert np.array_equal(a.colors, b.colors)
        assert np.array_equal(a.parts, b.parts)
        assert a.rounds == b.rounds

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=40),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
        k=st.integers(min_value=1, max_value=8),
        d_frac=st.floats(min_value=0.0, max_value=0.8),
    )
    def test_property_equivalence_random_graphs(self, n, p, seed, k, d_frac):
        graph = generators.gnp(n, p, seed=seed)
        if graph.max_degree < 1:
            return
        d = int(d_frac * (graph.max_degree - 1))
        colors, m = make_input_coloring(graph, seed=seed)
        a = run_mother_algorithm(graph, colors, m, d=d, k=k)
        b = run_mother_algorithm_vectorized(graph, colors, m, d=d, k=k)
        assert np.array_equal(a.colors, b.colors)
        assert np.array_equal(a.parts, b.parts)
        assert a.rounds == b.rounds

    def test_vectorized_orientation_available_on_request(self, petersen):
        # The orientation is derived from a result's colors and parts, on
        # request; the vectorized result gives the reference's orientation.
        colors, m = make_input_coloring(petersen, seed=1)
        res = run_mother_algorithm_vectorized(petersen, colors, m, d=1, k=1)
        ref = run_mother_algorithm(petersen, colors, m, d=1, k=1)
        assert res.orientation is None
        orientation = derive_orientation(petersen, res.colors, res.parts, colors)
        assert np.array_equal(
            orientation, derive_orientation(petersen, ref.colors, ref.parts, colors)
        )
        assert_outdegree_orientation(petersen, res.colors, orientation, 1)

    def test_vectorized_empty_graph(self):
        g = generators.empty_graph(0)
        res = run_mother_algorithm_vectorized(g, np.empty(0, dtype=np.int64), m=16)
        assert res.colors.size == 0

    def test_vectorized_larger_graph_proper(self):
        g = generators.random_regular(400, 10, seed=5)
        colors, m = make_input_coloring(g, seed=5)
        res = run_mother_algorithm_vectorized(g, colors, m, d=0, k=2)
        assert_proper_coloring(g, res.colors, max_colors=res.color_space_size)
