"""Tests for the reductions to Delta + 1 colors.

Kuhn-Wattenhofer halving is composed from the engines' color-class removal;
:func:`kw_oracle` is the per-round loop it replaced, kept here to pin the
composition on every backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.congest.ids import random_proper_coloring
from repro.core.corollaries import kdelta_coloring
from repro.core.kernels_jit import get_provider
from repro.core.reduce import (
    _classes_from_top,
    kuhn_wattenhofer_reduction,
    remove_color_class_reduction,
    removal_loop_array,
    removal_loop_jit,
    run_removal,
)
from repro.verify.coloring import assert_proper_coloring

BACKENDS = ("reference", "array", "jit")


def kw_oracle(graph: Graph, colors: np.ndarray, m: int, target: int):
    """Block halving, one offset per round: ``(colors, rounds, phases, space)``.

    In every block the vertices at one offset above ``target`` repick the
    smallest lower slot no neighbor of the same block holds; every offset of
    every phase is a round, occupied or not.
    """
    colors = np.asarray(colors, dtype=np.int64).copy()
    block = 2 * target
    space, rounds, phases = m, 0, 0
    while space > target:
        phases += 1
        for offset in range(block - 1, target - 1, -1):
            rounds += 1
            affected = np.nonzero(colors % block == offset)[0]
            banned = [{int(colors[u]) for u in graph.neighbors(int(v))} for v in affected]
            for v, nbr_colors in zip(affected, banned):
                base = (int(colors[v]) // block) * block
                slots = {b - base for b in nbr_colors if base <= b < base + target}
                free = 0
                while free in slots:
                    free += 1
                colors[v] = base + free
        colors = (colors // block) * target + colors % block
        space = -(-space // block) * target
    return colors, rounds, phases, max(space, target)


def random_graph(family: str, n: int, degree: int, seed: int) -> Graph:
    if n < 3:
        return Graph(n)
    if family == "gnp":
        return generators.gnp(n, min(1.0, degree / n), seed=seed)
    if family == "tree":
        return generators.random_tree(n, seed=seed)
    degree = min(degree, n - 1)
    return generators.random_regular(n + (n * degree) % 2, degree, seed=seed)


def spread_coloring(graph: Graph, m: int, seed: int) -> np.ndarray:
    """A proper coloring whose classes land on distinct random colors of ``[m]``."""
    colors, used = random_proper_coloring(graph, seed=seed)
    rng = np.random.default_rng(seed)
    return rng.permutation(max(m, used))[:used][colors]


def assert_matches_oracle(graph: Graph, colors: np.ndarray, m: int, target: int):
    want_colors, want_rounds, want_phases, want_space = kw_oracle(graph, colors, m, target)
    for backend in BACKENDS:
        got = kuhn_wattenhofer_reduction(graph, colors, m, target_colors=target, backend=backend)
        assert np.array_equal(got.colors, want_colors), backend
        assert got.rounds == want_rounds, backend
        assert got.metadata["phases"] == want_phases, backend
        assert got.color_space_size == want_space, backend
    if graph.n:
        assert_proper_coloring(graph, want_colors, max_colors=target)


@pytest.fixture(scope="module")
def colored_graph():
    graph = generators.random_regular(90, 6, seed=21)
    colors, m = make_input_coloring(graph, seed=21)
    start = kdelta_coloring(graph, colors, m, k=1, backend="array")
    return graph, start


class TestRemoveColorClass:
    def test_reduces_to_delta_plus_one(self, colored_graph):
        graph, start = colored_graph
        res = remove_color_class_reduction(graph, start.colors)
        assert_proper_coloring(graph, res.colors, max_colors=graph.max_degree + 1)
        assert res.colors.max() <= graph.max_degree

    def test_round_count_matches_removed_classes(self, colored_graph):
        graph, start = colored_graph
        above = np.unique(start.colors[start.colors >= graph.max_degree + 1]).size
        res = remove_color_class_reduction(graph, start.colors)
        # one round per color value >= Delta+1 present at the start, possibly a
        # few more if recoloring re-populates a previously cleared value
        assert res.rounds >= above

    def test_custom_target(self, colored_graph):
        graph, start = colored_graph
        target = graph.max_degree + 5
        res = remove_color_class_reduction(graph, start.colors, target_colors=target)
        assert res.colors.max() < target
        assert_proper_coloring(graph, res.colors)

    def test_target_below_delta_plus_one_rejected(self, colored_graph):
        graph, start = colored_graph
        with pytest.raises(ValueError):
            remove_color_class_reduction(graph, start.colors, target_colors=graph.max_degree)

    def test_noop_when_already_small(self):
        g = generators.ring(8)
        colors = np.array([0, 1, 2] * 2 + [0, 1])
        res = remove_color_class_reduction(g, colors)
        assert res.rounds == 0
        assert np.array_equal(res.colors, colors)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_color_rejected(self, backend):
        # The array loop's occupancy row would read -3 from its end: on the
        # path 0-1-2 it gave the middle vertex color 2, the other backends 0.
        with pytest.raises(ValueError, match="non-negative"):
            remove_color_class_reduction(generators.path(3), np.array([-3, 5, 1]),
                                         backend=backend)


def classes_oracle(colors: np.ndarray, target: int):
    """The class buckets by one stable argsort of ``-color``."""
    high = np.flatnonzero(colors >= target)
    order = high[np.argsort(-colors[high], kind="stable")]
    if order.size == 0:
        return order, np.zeros(1, dtype=np.int64)
    boundaries = np.flatnonzero(np.diff(colors[order])) + 1
    return order, np.concatenate(([0], boundaries, [order.size])).astype(np.int64)


class TestClassesFromTop:
    """The radix buckets of the removal loops against a stable argsort."""

    def assert_matches_oracle(self, colors, target):
        order, starts = _classes_from_top(np.asarray(colors, dtype=np.int64), target)
        want_order, want_starts = classes_oracle(np.asarray(colors, dtype=np.int64), target)
        assert np.array_equal(order, want_order)
        assert np.array_equal(starts, want_starts)
        return starts

    def test_empty_and_all_below(self):
        assert self.assert_matches_oracle(np.empty(0, dtype=np.int64), 3).tolist() == [0]
        assert self.assert_matches_oracle([0, 2, 1, 2], 3).tolist() == [0]
        assert self.assert_matches_oracle([3, 0, 3], 3).tolist() == [0, 2]

    @pytest.mark.parametrize("span", [2 ** 16 - 1, 2 ** 16, 2 ** 40 + 3])
    def test_one_and_more_radix_passes(self, span):
        # (top - target).bit_length(): 16 bits take one pass, 17 two.
        rng = np.random.default_rng(span % 97)
        target = 7
        colors = target + rng.integers(0, span + 1, size=3000)
        colors[:300] = rng.integers(0, target, size=300)  # below the target
        colors[300:1300] = target + rng.integers(0, 40, size=1000) * (span // 40)  # big classes
        colors[1300] = target + span
        starts = self.assert_matches_oracle(rng.permutation(colors), target)
        assert np.diff(starts).max() > 1

    @settings(max_examples=50, deadline=None)
    @given(colors=st.lists(st.integers(0, 2 ** 20), max_size=80),
           target=st.integers(0, 2 ** 20))
    def test_property(self, colors, target):
        self.assert_matches_oracle(colors, target)


class TestKuhnWattenhofer:
    def test_reduces_to_delta_plus_one(self, colored_graph):
        graph, start = colored_graph
        res = kuhn_wattenhofer_reduction(graph, start.colors, start.color_space_size)
        assert_proper_coloring(graph, res.colors, max_colors=graph.max_degree + 1)
        assert res.colors.max() <= graph.max_degree

    def test_round_bound_delta_log(self, colored_graph):
        graph, start = colored_graph
        delta = graph.max_degree
        res = kuhn_wattenhofer_reduction(graph, start.colors, start.color_space_size)
        phases = res.metadata["phases"]
        assert res.rounds <= phases * (delta + 1)
        assert phases <= int(np.ceil(np.log2(max(2, start.color_space_size / (delta + 1))))) + 1

    def test_from_large_color_space(self):
        graph = generators.random_regular(60, 4, seed=5)
        colors = np.random.default_rng(5).permutation(60).astype(np.int64) * 3
        res = kuhn_wattenhofer_reduction(graph, colors, m=200)
        assert_proper_coloring(graph, res.colors, max_colors=graph.max_degree + 1)

    def test_rejects_colors_outside_space(self):
        g = generators.ring(6)
        with pytest.raises(ValueError):
            kuhn_wattenhofer_reduction(g, np.array([0, 1, 2, 3, 4, 10]), m=6)
        with pytest.raises(ValueError, match=r"\[m\]"):
            kuhn_wattenhofer_reduction(g, np.array([0, 1, 2, 3, 4, -1]), m=6)

    def test_rejects_small_target(self):
        g = generators.complete_graph(4)
        with pytest.raises(ValueError):
            kuhn_wattenhofer_reduction(g, np.arange(4), m=4, target_colors=2)

    def test_noop_when_space_already_small(self):
        g = generators.ring(9)
        colors = np.arange(9) % 3
        res = kuhn_wattenhofer_reduction(g, colors, m=3)
        assert res.rounds == 0
        assert np.array_equal(res.colors, colors)
        for target in (3, 4):  # m <= target: zero phases on every backend
            assert_matches_oracle(g, colors, 3, target)


class TestKuhnWattenhoferOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["gnp", "tree", "random_regular"]),
        n=st.integers(min_value=0, max_value=60),
        degree=st.integers(min_value=1, max_value=8),
        extra=st.integers(min_value=0, max_value=3),
        spread=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_every_backend_matches_the_oracle(self, family, n, degree, extra, spread, seed):
        graph = random_graph(family, n, degree, seed)
        target = graph.max_degree + 1 + extra
        m = max(1, spread * (graph.max_degree + 1))
        colors = spread_coloring(graph, m, seed)
        assert_matches_oracle(graph, colors, max(m, int(colors.max(initial=0)) + 1), target)

    def test_isolated_vertices(self):
        graph = Graph(9, [(0, 1), (1, 2), (5, 6)])
        colors = np.array([40, 3, 17, 38, 22, 9, 30, 0, 41])
        assert_matches_oracle(graph, colors, 42, graph.max_degree + 1)

    def test_partial_last_block(self):
        # m is 2.5 blocks and the second phase's space 1.5 blocks, so the last
        # block of both phases holds only half its offsets.
        graph = generators.random_regular(40, 3, seed=2)
        target = graph.max_degree + 1
        colors = spread_coloring(graph, 5 * target, seed=2)
        assert_matches_oracle(graph, colors, 5 * target, target)

    def test_target_above_delta_plus_one(self):
        graph = generators.gnp(50, 0.1, seed=4)
        target = graph.max_degree + 4
        colors = spread_coloring(graph, 30 * target, seed=4)
        assert_matches_oracle(graph, colors, 30 * target, target)

    def test_empty_graph_charges_every_round(self):
        assert_matches_oracle(Graph(0), np.empty(0, dtype=np.int64), 64, 4)
        res = kuhn_wattenhofer_reduction(Graph(0), np.empty(0, dtype=np.int64), 64, target_colors=4)
        assert (res.metadata["phases"], res.rounds) == (4, 16)  # 64 -> 32 -> 16 -> 8 -> 4

    def test_removal_kernel_on_a_same_block_subgraph(self):
        # One phase of the composition: the jit loop on the C kernel against
        # the array loop, on the subgraph of edges inside a block.
        kernels = get_provider()
        if kernels is None:
            pytest.skip("no compiled kernel tier on this machine")
        graph = generators.random_regular(80, 6, seed=3)
        target = graph.max_degree + 1
        block = 2 * target
        colors = spread_coloring(graph, 5 * block, seed=3)
        blocks = colors // block
        same_block = graph.spanning_subgraph(blocks[graph.src_index] == blocks[graph.indices])
        assert 0 < same_block.num_edges < graph.num_edges
        want = run_removal(same_block, colors % block, target, "array", removal_loop_array)
        got = run_removal(same_block, colors % block, target, "jit", removal_loop_jit, kernels)
        assert want.rounds > 1  # several classes, in one kernel call
        assert np.array_equal(got.colors, want.colors) and got.rounds == want.rounds
