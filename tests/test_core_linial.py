"""Tests for Linial's iterated color reduction from unique IDs."""

import numpy as np
import pytest

from repro.congest import generators
from repro.congest.ids import InputColoringError, assign_unique_ids
from repro.core.linial import iterated_color_reduction, linial_coloring
from repro.verify.coloring import assert_proper_coloring


class TestLinialColoring:
    def test_reaches_delta_squared_regime(self):
        g = generators.random_regular(200, 6, seed=3)
        res = linial_coloring(g, seed=3, id_space=10 ** 9)
        assert_proper_coloring(g, res.colors)
        assert res.color_space_size <= 256 * g.max_degree ** 2

    def test_round_count_is_log_star_like(self):
        # From an id space of 10^9 the reduction stabilises within a handful of
        # iterations (log* behaviour), not dozens.
        g = generators.random_regular(100, 6, seed=1)
        res = linial_coloring(g, seed=1, id_space=10 ** 9)
        assert 1 <= res.rounds <= 6

    def test_identity_ids_default(self):
        g = generators.ring(64)
        res = linial_coloring(g)
        assert_proper_coloring(g, res.colors)
        assert res.color_space_size <= 256 * g.max_degree ** 2

    def test_history_is_decreasing(self):
        g = generators.random_regular(150, 8, seed=2)
        res = linial_coloring(g, seed=2, id_space=10 ** 12)
        history = res.metadata["color_space_history"]
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_duplicate_ids_rejected(self):
        g = generators.ring(5)
        with pytest.raises(ValueError):
            linial_coloring(g, ids=np.array([1, 1, 2, 3, 4]))

    @pytest.mark.parametrize("ids", [
        [40, 7, 19, 7, 3, 28],     # one duplicated pair, mid-range
        [3, 40, 19, 3, 11, 28],    # duplicates at the smallest value
        [40, 7, 19, 12, 40, 28],   # duplicates at the largest value
        [0, 0, 0, 0, 0, 0],
    ])
    def test_duplicate_ids_named(self, ids):
        # The check sorts: equal neighbours anywhere in the sorted order trip
        # it, including at both ends.
        g = generators.path(6)
        with pytest.raises(ValueError, match="ids must be unique"):
            linial_coloring(g, ids=np.array(ids))

    @pytest.mark.parametrize("ids, id_space, message", [
        ([-3, 2000, 5, 7, 9, 11], None, "colors must be non-negative"),
        ([1, 2000, 5, 7, 9, 11], 1500, "color 2000 out of range for declared m=1500"),
        ([1, 2000, 5, 7, 9, 11, 13], None, r"coloring has shape \(7,\), expected \(6,\)"),
    ])
    def test_bad_ids_named_without_an_edge_scan(self, monkeypatch, ids, id_space, message):
        # Distinct ids are a proper coloring of any graph, so the entry check
        # reads their sort instead of scanning the edges.  Its errors keep
        # their types, messages and order (duplicates first), and it runs
        # only when a reduction step will: path(6) stops at 256 * 2**2 colors.
        import repro.core.linial as linial_module

        scans = []
        monkeypatch.setattr(linial_module, "validate_proper_coloring",
                            lambda *args, **kwargs: scans.append(args))
        g = generators.path(6)
        ids = np.array(ids)
        with pytest.raises(InputColoringError, match=message):
            linial_coloring(g, ids=ids, id_space=id_space)
        duplicated = ids.copy()
        duplicated[2] = duplicated[0]
        with pytest.raises(ValueError, match="ids must be unique"):
            linial_coloring(g, ids=duplicated, id_space=id_space)
        res = linial_coloring(g, ids=ids, id_space=id_space, target_colors=10**4)
        assert res.rounds == 0 and res.colors.tolist() == ids.tolist()
        assert scans == []

    @pytest.mark.parametrize("build", [
        lambda: generators.random_regular(200, 6, seed=3),
        lambda: generators.grid(12, 9),
        lambda: generators.power_law_cluster(150, 3, seed=1),
        lambda: generators.empty_graph(1),
    ], ids=["random_regular", "grid", "power_law", "single_vertex"])
    @pytest.mark.parametrize("seed, id_space", [(None, None), (None, 10**6), (0, None),
                                                (5, None), (7, 10**9)])
    def test_drawn_ids_skip_the_checks_not_the_result(self, build, seed, id_space):
        # Ids the function draws itself are not sorted or range-checked; the
        # run must equal one handed the same draw from outside.
        graph = build()
        res = linial_coloring(graph, seed=seed, id_space=id_space)
        want = linial_coloring(graph, ids=assign_unique_ids(graph, id_space=id_space, seed=seed),
                               id_space=id_space)
        assert np.array_equal(res.colors, want.colors)
        assert (res.rounds, res.color_space_size) == (want.rounds, want.color_space_size)
        assert res.metadata == want.metadata

    @pytest.mark.parametrize("n", [0, 1])
    def test_trivial_id_arrays_accepted(self, n):
        g = generators.empty_graph(n)
        res = linial_coloring(g, ids=np.arange(5, 5 + n))
        assert res.colors.tolist() == list(range(5, 5 + n))

    def test_custom_target(self):
        g = generators.random_regular(100, 4, seed=4)
        res = linial_coloring(g, seed=4, target_colors=10_000)
        assert res.color_space_size <= 10_000


class TestIteratedReduction:
    def test_already_small_input_is_unchanged(self):
        g = generators.ring(10)
        colors = np.arange(10) % 3
        res = iterated_color_reduction(g, colors, m=3)
        assert res.rounds == 0
        assert np.array_equal(res.colors, colors)

    def test_single_step_from_moderate_space(self):
        g = generators.random_regular(60, 4, seed=6)
        colors = np.random.default_rng(6).permutation(60).astype(np.int64)
        res = iterated_color_reduction(g, colors, m=60, target_colors=50)
        assert_proper_coloring(g, res.colors)
        assert res.color_space_size < 60 or res.rounds == 0

    def test_vectorized_path(self):
        g = generators.random_regular(100, 6, seed=9)
        a = linial_coloring(g, seed=9, id_space=10 ** 6)
        b = linial_coloring(g, seed=9, id_space=10 ** 6, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
