"""Tests for the coloring verification helpers."""

import numpy as np
import pytest

from repro.congest import generators
from repro.core import results
from repro.core.results import BINCOUNT_SPAN, count_distinct
from repro.verify.coloring import (
    VerificationError,
    assert_defective_coloring,
    assert_proper_coloring,
    color_classes,
    count_colors,
    defect_vector,
    is_proper_coloring,
    max_defect,
)


class TestProperColoring:
    def test_proper_on_ring(self):
        g = generators.ring(6)
        assert is_proper_coloring(g, np.array([0, 1, 0, 1, 0, 1]))

    def test_improper_detected(self):
        g = generators.ring(5)
        assert not is_proper_coloring(g, np.array([0, 1, 0, 1, 0]))

    def test_assert_proper_raises_with_edge_info(self):
        g = generators.path(3)
        with pytest.raises(VerificationError, match="monochromatic"):
            assert_proper_coloring(g, np.array([7, 7, 1]))

    def test_assert_proper_max_colors(self):
        g = generators.path(4)
        with pytest.raises(VerificationError, match="colors"):
            assert_proper_coloring(g, np.array([0, 1, 2, 3]), max_colors=2)

    def test_wrong_shape(self):
        g = generators.path(3)
        with pytest.raises(VerificationError):
            is_proper_coloring(g, np.array([0, 1]))

    def test_empty_graph(self):
        g = generators.empty_graph(4)
        assert is_proper_coloring(g, np.zeros(4))


class TestCountingAndClasses:
    def test_count_colors(self):
        g = generators.path(5)
        assert count_colors(g, np.array([3, 5, 3, 5, 9])) == 3

    def test_count_colors_object_dtype(self):
        g = generators.path(3)
        colors = np.empty(3, dtype=object)
        colors[:] = [(0, 1), (1, 0), (0, 1)]
        assert count_colors(g, colors) == 2

    def test_color_classes_partition(self):
        g = generators.ring(6)
        colors = np.array([0, 1, 0, 1, 0, 1])
        classes = color_classes(g, colors)
        assert sorted(classes) == [0, 1]
        assert classes[0].tolist() == [0, 2, 4]

    def test_count_colors_empty(self):
        g = generators.empty_graph(0)
        assert count_colors(g, np.array([])) == 0


class TestCountDistinct:
    """``count_distinct`` equals ``np.unique(...).size`` on both of its paths."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.uint64])
    def test_both_sides_of_the_bincount_bound(self, dtype):
        rng = np.random.default_rng(5)
        for top in (BINCOUNT_SPAN * 50 - 1, BINCOUNT_SPAN * 50):  # bincount, then unique
            values = rng.integers(0, top + 1, size=50).astype(dtype)
            values[0] = top
            assert count_distinct(values) == np.unique(values).size

    def test_empty_negative_and_float(self):
        assert count_distinct(np.array([], dtype=np.int64)) == 0
        assert count_distinct(np.array([3, -1, 3, 0])) == np.unique([3, -1, 3, 0]).size == 3
        assert count_distinct(np.array([0.5, 0.5, 2.0])) == 2

    def test_id_sized_values_never_size_a_count_array(self, monkeypatch):
        def no_bincount(*args, **kwargs):
            raise AssertionError("bincount over an id-sized span")

        monkeypatch.setattr(results.np, "bincount", no_bincount)
        assert count_distinct(np.array([10 ** 12, 5, 10 ** 12])) == 2

    def test_callers_share_it(self):
        from repro.core.results import ColoringResult
        from repro.verify.partition import assert_partition_degree_bound

        g = generators.path(5)
        colors = np.array([3, 5, 3, 5, 9])
        assert count_colors(g, colors) == ColoringResult(colors, 0, 10).num_colors == 3
        with pytest.raises(VerificationError, match="uses 3 parts"):
            assert_partition_degree_bound(g, colors, np.array([1, 2, 3, 1, 2]), 0, max_parts=2)


class TestDefects:
    def test_defect_vector_proper(self):
        g = generators.ring(6)
        assert defect_vector(g, np.array([0, 1, 0, 1, 0, 1])).max() == 0

    def test_defect_vector_counts_monochromatic_neighbors(self):
        g = generators.star(5)
        colors = np.array([0, 0, 0, 1, 1])
        vec = defect_vector(g, colors)
        assert vec[0] == 2
        assert vec[1] == 1 and vec[2] == 1
        assert vec[3] == 0

    def test_max_defect(self):
        g = generators.complete_graph(4)
        assert max_defect(g, np.zeros(4)) == 3

    def test_assert_defective_passes(self):
        g = generators.complete_graph(4)
        assert_defective_coloring(g, np.zeros(4), d=3)

    def test_assert_defective_fails(self):
        g = generators.complete_graph(4)
        with pytest.raises(VerificationError, match="defect"):
            assert_defective_coloring(g, np.zeros(4), d=2)

    def test_assert_defective_color_budget(self):
        g = generators.path(4)
        with pytest.raises(VerificationError):
            assert_defective_coloring(g, np.array([0, 1, 2, 3]), d=1, max_colors=3)
