"""Tests for the zero-copy shared-memory graph plane.

Covers the satellite checklist of the scale work: attach/detach parity
(serial == shm-parallel records on both backends), cleanup on worker
exception, no leaked ``/dev/shm`` segments after a sweep, and both ``spawn``
and ``fork`` start methods.
"""

import gc
import os
import pickle

import numpy as np
import pytest

from helpers import failing_task, shared_graph_probe_task
from repro.congest import generators, shared
from repro.congest.graph import Graph
from repro.engine import BatchRunner, GraphSpec

SHM_DIR = "/dev/shm"


def repro_segments() -> set[str]:
    """The segments this process published that are still in ``/dev/shm``.

    A segment's name carries the pid of the process that created it, and
    only the sweep's parent publishes, so another suite or sweep on the same
    machine never shows up here.
    """
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-Linux
        return set()
    prefix = f"repro-g-{os.getpid():x}-"
    return {name for name in os.listdir(SHM_DIR) if name.startswith(prefix)}


def stripped(result):
    return [{k: v for k, v in rec.items() if k != "seconds"} for rec in result]


class TestRoundtrip:
    def test_attach_is_zero_copy_and_identical(self):
        g = generators.gnp(300, 0.05, seed=3)
        with g.to_shared() as handle:
            a = Graph.from_shared(handle)
            assert a == g
            assert np.array_equal(a.degrees, g.degrees)
            assert np.array_equal(a.src_index, g.src_index)
            # zero-copy: the views live inside the shared buffer, not in
            # freshly allocated arrays
            assert a.indices.base is not None
            assert not a.indices.flags.owndata
            assert a.shared_name == handle.name
            assert g.shared_name is None  # the publisher keeps its private arrays

    def test_views_are_read_only(self):
        g = generators.ring(16)
        with g.to_shared() as handle:
            a = Graph.from_shared(handle)
            for arr in (a.indptr, a.indices, a.src_index, a.degrees):
                with pytest.raises(ValueError):
                    arr[0] = 99

    def test_empty_and_edgeless_graphs_roundtrip(self):
        for g in (Graph(0), generators.empty_graph(5)):
            with g.to_shared() as handle:
                a = Graph.from_shared(handle)
                assert a == g
                assert a.num_edges == 0

    def test_handle_is_picklable_and_small(self):
        g = generators.ring(64)
        with g.to_shared() as handle:
            blob = pickle.dumps(handle)
            assert len(blob) < 256  # a descriptor, not the graph
            clone = pickle.loads(blob)
            assert (clone.name, clone.n, clone.num_entries) == (
                handle.name, handle.n, handle.num_entries
            )
            a = Graph.from_shared(clone)
            assert a == g

    def test_algorithms_run_on_attached_graph(self):
        from repro.core import pipelines

        g = generators.random_regular(60, 4, seed=2)
        with g.to_shared() as handle:
            a = Graph.from_shared(handle)
            mine = pipelines.delta_plus_one_coloring(a, seed=2, backend="array")
            orig = pipelines.delta_plus_one_coloring(g, seed=2, backend="array")
            assert np.array_equal(mine.colors, orig.colors)
            assert mine.rounds == orig.rounds


class TestLifecycle:
    def test_unlink_waits_for_last_reference(self):
        g = generators.ring(32)
        handle = g.to_shared()
        name = handle.name
        assert name in repro_segments()
        a = Graph.from_shared(handle)
        b = Graph.from_shared(handle)
        handle.close()
        # attachments still hold references: mapped and readable
        assert a.has_edge(0, 1) and b.has_edge(0, 1)
        del a
        gc.collect()
        assert b.has_edge(0, 1)
        del b
        gc.collect()
        assert name not in repro_segments()
        assert name not in shared.open_segments()

    def test_handle_close_is_idempotent(self):
        handle = generators.ring(8).to_shared()
        handle.close()
        handle.close()
        assert handle.name not in repro_segments()

    def test_context_manager_unlinks(self):
        with generators.ring(8).to_shared() as handle:
            name = handle.name
            assert name in repro_segments()
        assert name not in repro_segments()

    def test_reshare_from_attached_graph(self):
        g = generators.ring(12)
        h1 = g.to_shared()
        a = Graph.from_shared(h1)
        h2 = a.to_shared()  # republish = same segment, new reference
        assert h2.name == h1.name
        assert (h2.n, h2.num_entries) == (a.n, a.indices.size)
        h1.close()
        h2.close()
        assert h1.name in repro_segments()  # `a` still holds a reference
        del a
        gc.collect()
        assert h1.name not in repro_segments()

    def test_unpickled_handle_owns_no_reference(self):
        g = generators.ring(12)
        handle = g.to_shared()
        clone = pickle.loads(pickle.dumps(handle))
        clone.close()  # a no-op: the clone never held a local reference
        assert handle.name in repro_segments()
        handle.close()
        assert handle.name not in repro_segments()

    def test_cleanup_all_reclaims_everything(self):
        handles = [generators.ring(8 + i).to_shared() for i in range(3)]
        assert all(h.name in repro_segments() for h in handles)
        shared.cleanup_all()
        assert not any(h.name in repro_segments() for h in handles)
        for h in handles:
            h.close()  # releasing after cleanup must not raise


class TestParallelSweeps:
    CELLS = BatchRunner.grid(("random_regular", "gnp"), 50, 4, seeds=(0, 1))

    @pytest.mark.parametrize("backend", ["array", "reference"])
    def test_serial_matches_shm_parallel_on_backend(self, backend):
        serial = BatchRunner(backend=backend).run("kdelta", self.CELLS)
        parallel = BatchRunner(backend=backend, workers=2).run("kdelta", self.CELLS)
        assert stripped(parallel) == stripped(serial)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_attach_the_parents_segment(self, start_method):
        result = BatchRunner(
            backend="array", workers=2, start_method=start_method
        ).run(shared_graph_probe_task, self.CELLS)
        segments = [rec["segment"] for rec in result]
        # every worker ran on a shared segment, never on a private copy ...
        assert all(seg.startswith("repro-g-") for seg in segments)
        # ... and all workers of one spec used the SAME segment (one physical
        # graph per spec, not W copies)
        by_spec = {}
        for spec, rec in zip(self.CELLS, result):
            by_spec.setdefault(spec, set()).add(rec["segment"])
        assert all(len(names) == 1 for names in by_spec.values())
        # distinct specs got distinct segments
        assert len({min(v) for v in by_spec.values()}) == len(by_spec)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_no_leaked_segments_after_sweep(self, start_method):
        before = repro_segments()
        BatchRunner(backend="array", workers=2, start_method=start_method).run(
            "kdelta", self.CELLS
        )
        gc.collect()
        assert repro_segments() == before
        assert shared.open_segments() == []

    def test_cleanup_on_worker_exception(self):
        before = repro_segments()
        runner = BatchRunner(backend="array", workers=2)
        with pytest.raises(RuntimeError, match="deliberate failure"):
            runner.run(failing_task, self.CELLS)
        gc.collect()
        assert repro_segments() == before
        assert shared.open_segments() == []

    def test_parent_does_not_cache_private_copies(self):
        runner = BatchRunner(backend="array", workers=2)
        runner.run("kdelta", self.CELLS)
        # the parent published and released; it holds no graphs or workloads
        assert runner._graphs == {}
        assert runner._workloads == {}

    def test_serial_sweep_unaffected(self):
        before = repro_segments()
        runner = BatchRunner(backend="array")
        result = runner.run("kdelta", self.CELLS)
        assert len(result) == len(self.CELLS)
        assert repro_segments() == before
