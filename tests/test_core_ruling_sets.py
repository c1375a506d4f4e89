"""Tests for ruling sets (Lemma 3.2, Theorem 1.5, SEW13 baseline, MIS)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.ids import greedy_coloring
from repro.core import ruling_sets
from repro.verify.ruling import assert_ruling_set, domination_radius, is_independent_set


def loop_ruling_set_vertices(graph, colors, num_colors, base):
    """Lemma 3.2 with the per-vertex neighbor loop the gather + bincount
    replaced; returns the ruling set and the round count."""
    t = max(1, math.ceil(math.log(max(num_colors, 2)) / math.log(base)))
    candidates = np.ones(graph.n, dtype=bool)
    rounds = 0
    for phase in range(t):
        digit = (colors // (base ** phase)) % base
        survivors = np.zeros(graph.n, dtype=bool)
        for b in range(base):
            rounds += 1
            group = np.nonzero(candidates & (digit == b))[0]
            blocked = np.zeros(graph.n, dtype=bool)
            for v in group:
                for u in graph.neighbors(int(v)):
                    if survivors[u]:
                        blocked[v] = True
                        break
            survivors[group[~blocked[group]]] = True
        candidates = survivors
    return np.nonzero(candidates)[0], rounds


def loop_mis_vertices(graph, colors, num_colors):
    """The greedy MIS along the color order with per-vertex neighbor loops:
    the implementation Lemma 3.2's one-phase case replaced."""
    in_set = np.zeros(graph.n, dtype=bool)
    dominated = np.zeros(graph.n, dtype=bool)
    for c in range(num_colors):
        group = np.nonzero((colors == c) & ~dominated & ~in_set)[0]
        for v in group:
            if not any(in_set[u] for u in graph.neighbors(int(v))):
                in_set[v] = True
        for v in np.nonzero(in_set)[0]:
            dominated[v] = True
            for u in graph.neighbors(int(v)):
                dominated[u] = True
    return np.nonzero(in_set)[0]


class TestRulingSetFromColoring:
    def test_basic_properties(self):
        g = generators.random_regular(80, 6, seed=1)
        colors = greedy_coloring(g)
        num_colors = int(colors.max()) + 1
        res = ruling_sets.ruling_set_from_coloring(g, colors, num_colors, base=2)
        assert_ruling_set(g, res.vertices, r=res.r)
        assert res.size >= 1

    def test_round_count_is_base_times_phases(self):
        g = generators.random_regular(60, 4, seed=2)
        colors = greedy_coloring(g)
        num_colors = int(colors.max()) + 1
        for base in (2, 3, 5):
            res = ruling_sets.ruling_set_from_coloring(g, colors, num_colors, base=base)
            assert res.rounds == base * res.metadata["phases"]

    def test_larger_base_fewer_phases(self):
        g = generators.random_regular(100, 8, seed=3)
        colors, m = make_input_coloring(g, m=g.n, seed=3)
        small = ruling_sets.ruling_set_from_coloring(g, colors, m, base=2)
        large = ruling_sets.ruling_set_from_coloring(g, colors, m, base=16)
        assert large.r < small.r
        assert_ruling_set(g, small.vertices, r=small.r)
        assert_ruling_set(g, large.vertices, r=large.r)

    def test_invalid_base(self):
        g = generators.ring(6)
        with pytest.raises(ValueError):
            ruling_sets.ruling_set_from_coloring(g, np.zeros(6, dtype=int), 1, base=1)

    def test_colors_out_of_range(self):
        g = generators.ring(6)
        with pytest.raises(ValueError):
            ruling_sets.ruling_set_from_coloring(g, np.arange(6), 3, base=2)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=60),
        p=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=1000),
        base=st.integers(min_value=2, max_value=6),
    )
    def test_property_ruling_set(self, n, p, seed, base):
        g = generators.gnp(n, p, seed=seed)
        colors = greedy_coloring(g)
        num_colors = int(colors.max()) + 1 if g.n else 1
        res = ruling_sets.ruling_set_from_coloring(g, colors, num_colors, base=base)
        assert is_independent_set(g, res.vertices)
        if g.n:
            radius = domination_radius(g, res.vertices)
            assert 0 <= radius <= res.r

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        p=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=1000),
        base=st.integers(min_value=2, max_value=6),
        spread=st.integers(min_value=1, max_value=5),
    )
    def test_matches_neighbor_loop(self, n, p, seed, base, spread):
        g = generators.gnp(n, p, seed=seed)
        colors = greedy_coloring(g) * spread  # sparse color values: more phases
        num_colors = int(colors.max()) + 1
        res = ruling_sets.ruling_set_from_coloring(g, colors, num_colors, base=base)
        vertices, rounds = loop_ruling_set_vertices(g, colors, num_colors, base)
        assert np.array_equal(res.vertices, vertices)
        assert res.rounds == rounds


class TestMisFromColoring:
    def test_maximal_independent_set(self):
        g = generators.random_regular(70, 6, seed=4)
        colors = greedy_coloring(g)
        res = ruling_sets.mis_from_coloring(g, colors, int(colors.max()) + 1)
        assert is_independent_set(g, res.vertices)
        assert domination_radius(g, res.vertices) <= 1
        assert res.r == 1

    def test_complete_graph_single_vertex(self):
        g = generators.complete_graph(7)
        colors = greedy_coloring(g)
        res = ruling_sets.mis_from_coloring(g, colors, 7)
        assert res.size == 1

    def test_colors_out_of_range(self):
        # A color >= num_colors used to be skipped, leaving its vertex
        # undominated: the returned set was not maximal.
        g = generators.ring(6)
        with pytest.raises(ValueError, match="num_colors"):
            ruling_sets.mis_from_coloring(g, np.array([0, 1, 0, 1, 0, 2]), 2)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        p=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=1000),
        spread=st.integers(min_value=1, max_value=4),
        extra=st.integers(min_value=0, max_value=3),
    )
    def test_matches_color_order_loop(self, n, p, seed, spread, extra):
        g = generators.gnp(n, p, seed=seed)
        colors = greedy_coloring(g) * spread  # sparse classes, some empty
        num_colors = (int(colors.max()) + 1 if g.n else 0) + extra
        res = ruling_sets.mis_from_coloring(g, colors, num_colors)
        assert np.array_equal(res.vertices, loop_mis_vertices(g, colors, num_colors))
        assert res.rounds == num_colors and res.r == 1
        if g.n:
            assert is_independent_set(g, res.vertices)
            assert domination_radius(g, res.vertices) <= 1


class TestTheorem15AndBaseline:
    @pytest.mark.parametrize("r", [2, 3])
    def test_theorem15_valid(self, r):
        g = generators.random_regular(80, 8, seed=5)
        colors, m = make_input_coloring(g, seed=5)
        res = ruling_sets.ruling_set_theorem15(g, colors, m, r=r)
        assert_ruling_set(g, res.vertices, r=max(r, res.r))

    def test_theorem15_requires_r_at_least_two(self):
        g = generators.ring(8)
        colors, m = make_input_coloring(g, seed=1)
        with pytest.raises(ValueError):
            ruling_sets.ruling_set_theorem15(g, colors, m, r=1)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sew13_baseline_valid(self, r):
        g = generators.random_regular(80, 8, seed=6)
        colors, m = make_input_coloring(g, seed=6)
        res = ruling_sets.ruling_set_sew13_baseline(g, colors, m, r=r)
        assert_ruling_set(g, res.vertices, r=max(r, res.r))

    def test_theorem15_beats_baseline_ruling_phase(self):
        # The point of Theorem 1.5: fewer colors entering Lemma 3.2 means a
        # smaller base B and hence fewer ruling-phase rounds for the same r.
        g = generators.random_regular(120, 16, seed=7)
        colors, m = make_input_coloring(g, seed=7)
        ours = ruling_sets.ruling_set_theorem15(g, colors, m, r=2, backend="array")
        base = ruling_sets.ruling_set_sew13_baseline(g, colors, m, r=2, backend="array")
        assert ours.metadata["ruling_rounds"] < base.metadata["ruling_rounds"]
