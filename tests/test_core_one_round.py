"""Tests for Theorem 1.6: the one-round reduction and its tightness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import generators
from repro.congest.ids import random_proper_coloring, distinct_input_coloring
from repro.core.one_round import (
    max_reducible_colors,
    one_round_color_reduction,
    one_round_reduction_exists,
    required_input_colors,
)
from repro.verify.coloring import assert_proper_coloring


class TestClosedForm:
    def test_examples_from_the_paper(self):
        # "to reduce 1 color one needs at least Delta + 2 input colors, to
        #  reduce 2 colors one needs 2 Delta + 2, to reduce 3 colors 3 Delta,
        #  to reduce 4 colors 4 Delta - 4, 5 colors 5 Delta - 10, 6 colors 6 Delta - 18"
        delta = 20
        assert required_input_colors(delta, 1) == delta + 2
        assert required_input_colors(delta, 2) == 2 * delta + 2
        assert required_input_colors(delta, 3) == 3 * delta
        assert required_input_colors(delta, 4) == 4 * delta - 4
        assert required_input_colors(delta, 5) == 5 * delta - 10
        assert required_input_colors(delta, 6) == 6 * delta - 18

    def test_max_reducible_monotone_in_m(self):
        delta = 10
        values = [max_reducible_colors(m, delta) for m in range(delta + 1, 4 * delta)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_max_reducible_zero_below_threshold(self):
        assert max_reducible_colors(5, 4) == 0
        assert max_reducible_colors(6, 4) == 1

    def test_max_reducible_respects_upper_limit(self):
        delta = 6
        k = max_reducible_colors(10 ** 6, delta)
        assert k <= min(delta - 1, (delta + 3) // 2)


class TestLemma41Algorithm:
    @pytest.mark.parametrize("delta,k", [(4, 1), (4, 3), (6, 2), (6, 4), (8, 5), (10, 3),
                                         (16, 9), (32, 17)])
    def test_exact_reduction_on_random_graphs(self, delta, k):
        m = required_input_colors(delta, k)
        g = generators.random_regular(80 + (80 * delta) % 2, delta, seed=delta * 10 + k)
        colors, m = random_proper_coloring(g, num_colors=m, seed=k)
        res = one_round_color_reduction(g, colors, m, k=k, delta=delta)
        assert res.rounds == 1
        assert_proper_coloring(g, res.colors, max_colors=m - k)
        assert res.colors.max() < m - k

    def test_reduction_on_clique(self):
        # Worst case: every color class has size 1 and every node sees all others.
        delta = 7
        g = generators.complete_graph(delta + 1)
        k = min(delta - 1, (delta + 3) // 2)
        m = required_input_colors(delta, k)
        colors = distinct_input_coloring(g, m, seed=1)
        res = one_round_color_reduction(g, colors, m, k=k, delta=delta)
        assert_proper_coloring(g, res.colors, max_colors=m - k)

    def test_extra_input_colors_left_untouched(self):
        delta, k = 5, 2
        m_needed = required_input_colors(delta, k)
        m = m_needed + 7
        g = generators.random_regular(60, delta, seed=3)
        colors, m = random_proper_coloring(g, num_colors=m, seed=3)
        res = one_round_color_reduction(g, colors, m, k=k, delta=delta)
        assert_proper_coloring(g, res.colors, max_colors=m - k)
        assert res.color_space_size == m - k

    def test_insufficient_colors_rejected(self):
        g = generators.ring(10)
        colors = np.arange(10) % 3
        with pytest.raises(ValueError):
            one_round_color_reduction(g, colors, m=3, k=1, delta=2)

    def test_k_out_of_theorem_range_rejected(self):
        g = generators.random_regular(20, 4, seed=1)
        colors, m = random_proper_coloring(g, num_colors=100, seed=1)
        with pytest.raises(ValueError):
            one_round_color_reduction(g, colors, m, k=4, delta=4)

    def test_default_k_is_maximal(self):
        delta = 8
        m = required_input_colors(delta, 3) + 1
        g = generators.random_regular(40, delta, seed=2)
        colors, m = random_proper_coloring(g, num_colors=m, seed=2)
        res = one_round_color_reduction(g, colors, m, delta=delta)
        assert res.metadata["k"] == max_reducible_colors(m, delta)

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.integers(min_value=3, max_value=10),
        k_frac=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_property_reduction_always_proper(self, delta, k_frac, seed):
        upper = min(delta - 1, (delta + 3) // 2)
        k = max(1, int(round(1 + k_frac * (upper - 1))))
        m = required_input_colors(delta, k)
        n = 40 + (40 * delta) % 2
        g = generators.random_regular(n, delta, seed=seed)
        colors, m = random_proper_coloring(g, num_colors=m, seed=seed)
        res = one_round_color_reduction(g, colors, m, k=k, delta=delta)
        assert_proper_coloring(g, res.colors, max_colors=m - k)


class TestLemma43Impossibility:
    def test_positive_side_trivial(self):
        # With enough output colors an algorithm always exists (identity).
        assert one_round_reduction_exists(m=5, delta=2, output_colors=5)

    def test_delta2_tight(self):
        delta = 2
        # removing 1 color needs Delta + 2 = 4 input colors ...
        assert one_round_reduction_exists(m=4, delta=delta, output_colors=3)
        # ... and with only 3 input colors no algorithm reaches 2 output colors.
        assert not one_round_reduction_exists(m=3, delta=delta, output_colors=2)

    def test_delta3_tight(self):
        delta = 3
        assert one_round_reduction_exists(m=5, delta=delta, output_colors=4)
        assert not one_round_reduction_exists(m=4, delta=delta, output_colors=3)

    @pytest.mark.slow
    def test_delta4_tight(self):
        delta = 4
        assert one_round_reduction_exists(m=6, delta=delta, output_colors=5)
        assert not one_round_reduction_exists(m=5, delta=delta, output_colors=4)
