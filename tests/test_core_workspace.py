"""Tests for the Workspace scratch-buffer arena and its use by the kernels."""

import numpy as np
import pytest

from repro.congest import generators
from repro.congest.ids import delta4_input_coloring
from repro.core.vectorized import run_mother_algorithm_vectorized
from repro.core.workspace import Workspace


class TestWorkspace:
    def test_take_reuses_storage(self):
        ws = Workspace()
        a = ws.take("buf", 10)
        a[:] = 7
        b = ws.take("buf", 6)
        assert b.base is a.base or b.base is not None
        assert np.array_equal(b, np.full(6, 7))  # same storage, stale contents

    def test_grow_only_doubling(self):
        ws = Workspace()
        ws.take("buf", 4)
        small_nbytes = ws.nbytes()
        ws.take("buf", 5)  # must grow (to at least 2x the old capacity)
        assert ws.nbytes() >= 2 * small_nbytes
        grown = ws.nbytes()
        ws.take("buf", 3)  # shrinking requests never reallocate
        assert ws.nbytes() == grown

    def test_dtype_switch_reallocates(self):
        ws = Workspace()
        a = ws.take("buf", 8, np.int64)
        b = ws.take("buf", 8, bool)
        assert b.dtype == np.bool_
        assert a.dtype == np.int64

    def test_zeros_and_full(self):
        ws = Workspace()
        ws.take("z", 5)[:] = 9
        assert np.array_equal(ws.zeros("z", 5), np.zeros(5, dtype=np.int64))
        assert np.array_equal(ws.full("z", 4, -1), np.full(4, -1, dtype=np.int64))

    def test_gather(self):
        ws = Workspace()
        src = np.array([10, 20, 30, 40])
        idx = np.array([3, 0, 3])
        assert np.array_equal(ws.gather("g", src, idx), np.array([40, 10, 40]))
        # reuse with a shorter index: same buffer, right length
        assert np.array_equal(ws.gather("g", src, idx[:1]), np.array([40]))


class TestCrossCallReuse:
    """The documented ``workspace=`` reuse mode must be bit-identical."""

    def test_shared_workspace_across_calls_is_bit_identical(self):
        ws = Workspace()
        for seed in (0, 1, 2):
            graph = generators.random_regular(80, 6, seed=seed)
            colors, m = delta4_input_coloring(graph, seed=seed)
            fresh = run_mother_algorithm_vectorized(graph, colors, m)
            reused = run_mother_algorithm_vectorized(graph, colors, m, workspace=ws)
            assert np.array_equal(reused.colors, fresh.colors)
            assert np.array_equal(reused.parts, fresh.parts)
            assert reused.rounds == fresh.rounds

    def test_shared_workspace_across_differing_graph_sizes(self):
        ws = Workspace()
        results = []
        for n in (120, 30, 90):  # shrink then grow: exercises stale contents
            graph = generators.gnp(n, 0.1, seed=n)
            colors, m = delta4_input_coloring(graph, seed=1)
            reused = run_mother_algorithm_vectorized(graph, colors, m, workspace=ws)
            fresh = run_mother_algorithm_vectorized(graph, colors, m)
            assert np.array_equal(reused.colors, fresh.colors)
            results.append(reused)
        assert all(r.colors.size for r in results)

    @pytest.mark.parametrize("d,k", [(0, 1), (2, 1), (0, 4)])
    def test_stale_row_map_entries_are_harmless(self, d, k):
        # The chunk dedupe never resets its vertex -> row map: a larger graph
        # run first, or plain garbage, leaves entries the smaller graph's
        # colored neighbors read back.  Outputs must not depend on them.
        large = generators.gnp(400, 0.05, seed=3)
        small = generators.gnp(60, 0.2, seed=4)
        ws = Workspace()
        for graph in (large, small):
            colors, m = delta4_input_coloring(graph, seed=2)
            fresh = run_mother_algorithm_vectorized(graph, colors, m, d=d, k=k)
            reused = run_mother_algorithm_vectorized(graph, colors, m, d=d, k=k, workspace=ws)
            assert np.array_equal(reused.colors, fresh.colors)
            assert np.array_equal(reused.parts, fresh.parts)
            assert reused.rounds == fresh.rounds
        garbage = np.random.default_rng(5).integers(-2**62, 2**62, size=small.n)
        ws.take("row_of", small.n)[:] = garbage
        colors, m = delta4_input_coloring(small, seed=2)
        reused = run_mother_algorithm_vectorized(small, colors, m, d=d, k=k, workspace=ws)
        fresh = run_mother_algorithm_vectorized(small, colors, m, d=d, k=k)
        assert np.array_equal(reused.colors, fresh.colors)
        assert np.array_equal(reused.parts, fresh.parts)
