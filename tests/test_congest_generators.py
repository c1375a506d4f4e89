"""Unit tests for the graph family generators."""

import numpy as np
import pytest

from repro.congest import generators
from repro.congest.graph import GraphError


class TestDeterministicFamilies:
    def test_path(self):
        g = generators.path(6)
        assert g.num_edges == 5
        assert g.max_degree == 2

    def test_ring(self):
        g = generators.ring(7)
        assert g.num_edges == 7
        assert set(g.degrees.tolist()) == {2}

    def test_ring_too_small(self):
        with pytest.raises(GraphError):
            generators.ring(2)

    def test_complete(self):
        g = generators.complete_graph(6)
        assert g.num_edges == 15
        assert g.max_degree == 5

    def test_complete_bipartite(self):
        g = generators.complete_bipartite(3, 4)
        assert g.num_edges == 12
        assert g.max_degree == 4

    def test_star(self):
        g = generators.star(10)
        assert g.degree(0) == 9
        assert all(g.degree(v) == 1 for v in range(1, 10))

    def test_grid(self):
        g = generators.grid(3, 4)
        assert g.n == 12
        assert g.max_degree == 4
        assert g.num_edges == 3 * 3 + 2 * 4

    def test_torus_regular(self):
        g = generators.torus(4, 5)
        assert set(g.degrees.tolist()) == {4}

    def test_torus_too_small(self):
        with pytest.raises(GraphError):
            generators.torus(2, 5)

    def test_binary_tree(self):
        g = generators.binary_tree(3)
        assert g.n == 15
        assert g.num_edges == 14
        assert g.max_degree == 3

    def test_caterpillar(self):
        g = generators.caterpillar(4, 2)
        assert g.n == 4 + 8
        assert g.num_edges == 3 + 8

    def test_crown(self):
        g = generators.crown(4)
        assert g.n == 8
        assert g.num_edges == 4 * 3
        assert set(g.degrees.tolist()) == {3}  # (n-1)-regular
        for i in range(4):
            assert not g.has_edge(i, 4 + i)  # the removed perfect matching
            for j in range(4):
                if i != j:
                    assert g.has_edge(i, 4 + j)

    def test_crown_too_small(self):
        with pytest.raises(GraphError):
            generators.crown(1)

    def test_empty(self):
        g = generators.empty_graph(5)
        assert g.num_edges == 0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_instances(self, n):
        assert generators.path(n).num_edges == max(n - 1, 0)
        assert generators.star(max(n, 1)).num_edges == max(n - 1, 0)
        assert generators.complete_graph(n).num_edges == n * (n - 1) // 2


class TestRandomFamilies:
    def test_gnp_reproducible(self):
        a = generators.gnp(40, 0.1, seed=5)
        b = generators.gnp(40, 0.1, seed=5)
        assert a == b

    def test_gnp_different_seeds_differ(self):
        a = generators.gnp(40, 0.2, seed=1)
        b = generators.gnp(40, 0.2, seed=2)
        assert a != b

    def test_gnp_extreme_probabilities(self):
        assert generators.gnp(10, 0.0, seed=0).num_edges == 0
        assert generators.gnp(10, 1.0, seed=0).num_edges == 45

    def test_gnp_invalid_probability(self):
        with pytest.raises(GraphError):
            generators.gnp(10, 1.5)

    def test_random_regular_is_regular(self):
        g = generators.random_regular(50, 6, seed=3)
        assert set(g.degrees.tolist()) == {6}

    def test_random_regular_reproducible(self):
        assert generators.random_regular(30, 4, seed=9) == generators.random_regular(30, 4, seed=9)

    def test_random_regular_parity_check(self):
        with pytest.raises(GraphError):
            generators.random_regular(9, 3)

    def test_random_regular_degree_too_large(self):
        with pytest.raises(GraphError):
            generators.random_regular(5, 5)

    def test_random_regular_degree_zero(self):
        assert generators.random_regular(8, 0).num_edges == 0

    def test_random_tree_is_tree(self):
        g = generators.random_tree(30, seed=2)
        assert g.num_edges == 29
        assert len(g.connected_components()) == 1

    def test_random_bipartite_sides(self):
        g = generators.random_bipartite(10, 12, 0.3, seed=4)
        for u, v in g.edges():
            assert (u < 10) != (v < 10)

    def test_power_law_cluster(self):
        g = generators.power_law_cluster(60, 3, seed=1)
        assert g.n == 60
        assert len(g.connected_components()) == 1
        # skewed degrees: max degree well above the attachment parameter
        assert g.max_degree >= 6

    def test_power_law_invalid(self):
        with pytest.raises(GraphError):
            generators.power_law_cluster(10, 0)

    def test_power_law_attach_one(self):
        # attach=1 starts from an edgeless K_1 "clique", exercising the
        # uniform first-draw fallback; the result must still be a single tree.
        g = generators.power_law_cluster(40, 1, seed=3)
        assert g.n == 40
        assert g.num_edges == 39
        assert len(g.connected_components()) == 1
        assert generators.power_law_cluster(40, 1, seed=3) == g

    def test_disjoint_union(self):
        g = generators.disjoint_union(generators.ring(4), generators.ring(5))
        assert g.n == 9
        assert g.num_edges == 9


class TestNamedFamilies:
    @pytest.mark.parametrize("name", sorted(generators.FAMILIES))
    def test_by_name_produces_graph(self, name):
        g = generators.by_name(name, 60, 6, seed=1)
        assert g.n >= 3
        assert g.max_degree >= 1

    def test_by_name_unknown(self):
        with pytest.raises(GraphError):
            generators.by_name("hypercube", 10, 3)


class TestSeedDeterminism:
    """Equal seeds must give *identical* graphs — in-process and across processes.

    The parallel BatchRunner rebuilds every workload inside its worker
    processes and relies on this (see ``repro.engine.parallel``): a graph that
    depended on interpreter state would silently break the serial/parallel
    byte-identity guarantee and the parity oracle.
    """

    @staticmethod
    def _fingerprint(name, n=60, delta=4, seed=11):
        from helpers import graph_fingerprint

        return graph_fingerprint(name, n, delta, seed)

    @pytest.mark.parametrize("name", sorted(generators.FAMILIES))
    def test_equal_seeds_identical_in_process(self, name):
        assert self._fingerprint(name) == self._fingerprint(name)

    def test_equal_seeds_identical_across_spawned_processes(self):
        # ``spawn`` starts pristine interpreters — the strictest determinism
        # check available (fork would inherit the parent's state).
        import multiprocessing

        from helpers import graph_fingerprint

        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(2) as pool:
            for name in sorted(generators.FAMILIES):
                args = (name, 60, 4, 11)
                child_a = pool.apply(graph_fingerprint, args)
                child_b = pool.apply(graph_fingerprint, args)
                assert child_a == child_b == graph_fingerprint(*args), name

    @pytest.mark.parametrize("name", ["random_regular", "gnp", "tree", "power_law"])
    def test_different_seeds_differ(self, name):
        assert self._fingerprint(name, seed=1) != self._fingerprint(name, seed=2)

    def test_seed_none_means_zero_not_entropy(self):
        # ``None`` must not fall through to NumPy's OS-entropy seeding: that
        # would make "same seed" runs differ across worker processes.
        a = generators.random_tree(40, seed=None)
        b = generators.random_tree(40, seed=0)
        assert np.array_equal(a.indices, b.indices)
        c = generators.random_regular(40, 4, seed=None)
        d = generators.random_regular(40, 4, seed=0)
        assert np.array_equal(c.indices, d.indices)

    def test_numpy_integer_seeds_accepted(self):
        a = generators.random_regular(40, 4, seed=np.int64(9))
        b = generators.random_regular(40, 4, seed=9)
        assert np.array_equal(a.indices, b.indices)

    def test_canonical_rng_stream_depends_only_on_seed(self):
        x = generators.canonical_rng(np.int32(5)).integers(0, 1 << 30, size=8)
        y = generators.canonical_rng(5).integers(0, 1 << 30, size=8)
        assert np.array_equal(x, y)


class TestArrayNativeStreams:
    """The array-native generators and their canonical_rng streams.

    ``gnp``, ``random_bipartite`` and ``random_tree`` consume the stream in
    the same order as the historical per-edge Python loops, so they must equal
    a verbatim replica of the old draw pattern.  ``random_regular`` draws in a
    new (vectorized, still seed-deterministic) order and ``power_law_cluster``
    from pre-drawn raw words; both streams are pinned by checksum here, and
    ``random_regular``'s also by the golden record suite.
    """

    @pytest.mark.parametrize("block", [1, 7, 50, 1 << 22])
    @pytest.mark.parametrize("n,p,seed", [(2, 0.5, 0), (3, 1.0, 1), (10, 0.0, 2),
                                          (50, 0.1, 3), (333, 0.02, 7)])
    def test_gnp_blocks_match_triangle_mask(self, monkeypatch, block, n, p, seed):
        # The historical build: one draw over the whole triu_indices mask.
        rng = generators.canonical_rng(seed)
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < p
        from repro.congest.graph import Graph

        legacy = Graph.from_edge_array(n, np.stack([iu[mask], ju[mask]], axis=1))
        monkeypatch.setattr(generators, "_GNP_BLOCK_PAIRS", block)
        assert generators.gnp(n, p, seed=seed) == legacy

    def test_random_bipartite_stream_matches_legacy_loop(self):
        a, b, p, seed = 13, 9, 0.3, 4
        rng = generators.canonical_rng(seed)
        edges = []
        for i in range(a):  # the historical quadratic append loop, verbatim
            mask = rng.random(b) < p
            for j in np.nonzero(mask)[0]:
                edges.append((i, a + int(j)))
        from repro.congest.graph import Graph

        legacy = Graph(a + b, edges)
        assert generators.random_bipartite(a, b, p, seed=seed) == legacy

    def test_random_tree_stream_matches_legacy_loop(self):
        n, seed = 200, 11
        rng = generators.canonical_rng(seed)
        edges = [(i, int(rng.integers(0, i))) for i in range(1, n)]
        from repro.congest.graph import Graph

        assert generators.random_tree(n, seed=seed) == Graph(n, edges)

    def test_random_bipartite_vectorized_build_is_not_quadratic_shaped(self):
        # sanity on the single nonzero/column_stack build: side sizes where
        # the old per-row loop produced empty rows
        g = generators.random_bipartite(50, 3, 0.9, seed=0)
        assert g.n == 53
        assert all((u < 50) != (v < 50) for u, v in g.edges())

    @pytest.mark.parametrize(
        "name,build,checksum",
        [
            # Pinned streams of the vectorized generators.  A change in either
            # checksum means the seed->graph mapping changed: regenerate the
            # goldens (scripts/generate_golden_records.py) and say so loudly
            # in the commit message.
            ("random_regular", lambda: generators.random_regular(64, 4, seed=5), 2227000247),
            ("power_law", lambda: generators.power_law_cluster(64, 3, seed=5), 484976109),
        ],
    )
    def test_new_streams_pinned(self, name, build, checksum):
        import zlib

        g = build()
        digest = zlib.crc32(g.indptr.tobytes() + g.indices.tobytes())
        assert digest == checksum, (
            f"{name} seed->graph stream changed (crc32 {digest} != pinned {checksum})"
        )


class TestAttachKernel:
    """``power_law_cluster``'s attachment kernel, in Python and in C.

    The Python function is the specification and the floor; the C tier must
    write the same edges from the same words, and run out of words at the
    same point.
    """

    @staticmethod
    def compiled():
        from repro.core.kernels_jit import get_provider

        provider = get_provider()
        if provider is None:
            pytest.skip("no compiled kernel tier on this machine")
        return provider.attach

    @staticmethod
    def run(attach_pass, n, attach, words):
        clique = generators.complete_graph(attach).edge_array()
        edges = np.full((clique.shape[0] + (n - attach) * attach, 2), -7, dtype=np.int64)
        edges[: clique.shape[0]] = clique
        mark = np.empty(n, dtype=np.int64)
        used = attach_pass(words, edges.reshape(-1), clique.size, attach, n, attach, mark)
        return used, edges

    @staticmethod
    def words(seed, count):
        return generators._words(generators.canonical_rng(seed).bit_generator, count)

    @pytest.mark.parametrize("attach", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("size", ["smallest", 500])
    def test_tiers_write_the_same_edges(self, attach, size):
        from repro.core.kernels_jit import _kernel_attach

        n = attach + 1 if size == "smallest" else size
        words = self.words(attach, 4 * n * attach + 64)
        used, edges = self.run(_kernel_attach, n, attach, words)
        assert used >= (n - attach) * attach
        want = self.run(self.compiled(), n, attach, words)
        assert want[0] == used
        assert np.array_equal(want[1], edges)
        # Each new vertex takes `attach` distinct earlier targets.
        rows = edges[attach * (attach - 1) // 2:].reshape(n - attach, attach, 2)
        new = np.repeat(np.arange(attach, n), attach).reshape(n - attach, attach)
        assert np.array_equal(rows[:, :, 0], new)
        assert (rows[:, :, 1] < new).all()
        ordered = np.sort(rows[:, :, 1], axis=1)
        assert (ordered[:, 1:] != ordered[:, :-1]).all()

    @pytest.mark.parametrize("attach", [1, 3, 8])
    def test_words_run_out_at_the_same_point(self, attach):
        from repro.core.kernels_jit import _kernel_attach

        n = 60
        words = self.words(attach + 10, 4 * n * attach + 64)
        used, _ = self.run(_kernel_attach, n, attach, words)
        for cut in (0, used // 2, used - 1):
            spec = self.run(_kernel_attach, n, attach, words[:cut])
            compiled = self.run(self.compiled(), n, attach, words[:cut])
            assert spec[0] == compiled[0] == -1
            assert np.array_equal(compiled[1], spec[1])
        assert self.run(self.compiled(), n, attach, words[:used])[0] == used

    def test_c_tier_rejects_short_buffers(self):
        from repro.core.kernels_cc import cc_provider

        kernels = cc_provider()
        if kernels is None:
            pytest.skip("no C compiler on this machine")
        words = self.words(0, 64)
        ends = np.zeros(2 * (3 + 4 * 3), dtype=np.int64)
        with pytest.raises((TypeError, ValueError)):
            kernels.attach(words, ends[:-1], 6, 3, 7, 3, np.empty(7, dtype=np.int64))
        with pytest.raises((TypeError, ValueError)):
            kernels.attach(words, ends, 6, 3, 7, 3, np.empty(6, dtype=np.int64))
        with pytest.raises((TypeError, ValueError)):
            kernels.attach(words.astype(np.int32), ends, 6, 3, 7, 3,
                           np.empty(7, dtype=np.int64))

    def test_python_floor_builds_the_compiled_graph(self, monkeypatch):
        from repro.core.kernels_jit import get_provider, reset_provider_cache

        self.compiled()
        sizes = ((300, 3), (80, 1))
        want = [generators.power_law_cluster(n, a, seed=4) for n, a in sizes]
        monkeypatch.setenv("REPRO_JIT_DISABLE", "cc")
        reset_provider_cache()
        try:
            assert get_provider() is None
            got = [generators.power_law_cluster(n, a, seed=4) for n, a in sizes]
        finally:
            monkeypatch.undo()
            reset_provider_cache()
        assert got == want

    def test_more_words_are_drawn_when_the_first_batch_runs_out(self):
        # n = attach + 1: the one new vertex collects all of K_attach, about
        # attach * H(attach) draws, far beyond the first batch of
        # attach + attach // 8 + 64 words.
        attach = 120
        g = generators.power_law_cluster(attach + 1, attach, seed=2)
        assert g == generators.complete_graph(attach + 1)
