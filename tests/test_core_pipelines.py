"""Tests for the end-to-end pipelines (Delta+1, Theorem 1.3, Corollary 1.4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.core import pipelines
from repro.core.results import ColoringResult
from repro.engine import get_engine
from repro.verify.coloring import assert_proper_coloring, color_classes


def per_class_theorem13(graph, input_colors, m, epsilon, backend):
    """Theorem 1.3 with one induced subgraph and one ``o_delta_coloring`` call
    per psi-class: the loop the fused pipeline replaced, kept as its reference."""
    engine = get_engine(backend)
    delta = max(1, graph.max_degree)
    d = max(1, min(delta - 1, int(round(delta ** (1.0 - epsilon)))))
    if delta <= 2 or d >= delta:
        base = pipelines.o_delta_coloring(graph, input_colors, m, backend=engine,
                                          validate_input=False)
        base.metadata["theorem13_degenerate"] = True
        return base
    psi = pipelines.defective_coloring(graph, input_colors, m, d=d, backend=engine,
                                       validate_input=False)
    classes = color_classes(graph, psi.colors)
    final = np.zeros(graph.n, dtype=np.int64)
    per_class_rounds = per_class_space = 0
    class_results = []
    for class_index, (_psi_color, vertices) in enumerate(sorted(classes.items())):
        subgraph, mapping = graph.induced_subgraph(vertices)
        sub = pipelines.o_delta_coloring(subgraph, input_colors[mapping], m,
                                         backend=engine, validate_input=False)
        class_results.append((class_index, mapping, sub))
        per_class_rounds = max(per_class_rounds, sub.rounds)
        per_class_space = max(per_class_space, sub.color_space_size)
    for class_index, mapping, sub in class_results:
        final[mapping] = class_index * per_class_space + sub.colors
    return ColoringResult(
        colors=final,
        rounds=psi.rounds + per_class_rounds,
        color_space_size=len(classes) * per_class_space,
        metadata={
            "method": "theorem13",
            "backend": engine.name,
            "epsilon": epsilon,
            "defect_d": d,
            "defective_rounds": psi.rounds,
            "defective_color_space": psi.color_space_size,
            "per_class_rounds": per_class_rounds,
            "per_class_color_space": per_class_space,
            "paper_round_bound": "O(Delta^{1/2 - eps/2}) + log* n (with the Theorem 3.1 black box)",
        },
    )


def assert_same_theorem13(got, want):
    assert np.array_equal(got.colors, want.colors)
    assert got.colors.dtype == want.colors.dtype
    assert got.rounds == want.rounds
    assert got.color_space_size == want.color_space_size
    assert got.metadata == want.metadata


def fixed_psi(monkeypatch, psi_colors):
    """Make the pipeline's defective step return ``psi_colors``."""
    psi_colors = np.asarray(psi_colors, dtype=np.int64)

    def defective(graph, input_colors, m, d, backend, validate_input):
        return ColoringResult(colors=psi_colors.copy(), rounds=3,
                              color_space_size=int(psi_colors.max()) + 1)

    monkeypatch.setattr(pipelines, "defective_coloring", defective)


class TestDeltaPlusOnePipeline:
    @pytest.mark.parametrize("family,kwargs", [
        ("random_regular", dict(n=100, degree=8, seed=1)),
        ("gnp", dict(n=120, p=0.06, seed=2)),
        ("random_regular", dict(n=100, degree=16, seed=1)),
    ])
    def test_delta_plus_one(self, family, kwargs):
        graph = getattr(generators, family)(**kwargs)
        res = pipelines.delta_plus_one_coloring(graph, seed=1)
        assert_proper_coloring(graph, res.colors, max_colors=graph.max_degree + 1)
        assert res.colors.max() <= graph.max_degree

    def test_round_breakdown_sums(self):
        graph = generators.random_regular(80, 6, seed=4)
        res = pipelines.delta_plus_one_coloring(graph, seed=4)
        md = res.metadata
        assert md["linial_rounds"] + md["mother_rounds"] + md["reduction_rounds"] == res.rounds

    def test_rounds_scale_with_delta_not_n(self):
        small = generators.random_regular(64, 6, seed=5)
        large = generators.random_regular(512, 6, seed=5)
        r_small = pipelines.delta_plus_one_coloring(small, seed=5, backend="array").rounds
        r_large = pipelines.delta_plus_one_coloring(large, seed=5, backend="array").rounds
        # an 8x larger graph with the same Delta should cost at most ~2x the
        # rounds (the dependence on n is only through log* and through how many
        # of the O(Delta) color values actually occur)
        assert r_large <= 2 * r_small + 10

    def test_tree_and_ring(self):
        for graph in (generators.random_tree(60, seed=6), generators.ring(30)):
            res = pipelines.delta_plus_one_coloring(graph, seed=6)
            assert_proper_coloring(graph, res.colors, max_colors=graph.max_degree + 1)


class TestODeltaColoring:
    def test_color_bound(self):
        graph = generators.random_regular(70, 8, seed=3)
        colors, m = make_input_coloring(graph, seed=3)
        res = pipelines.o_delta_coloring(graph, colors, m)
        assert_proper_coloring(graph, res.colors)
        assert res.color_space_size <= 16 * graph.max_degree
        assert "substitution" in res.metadata


class TestTheorem13:
    @pytest.mark.parametrize("epsilon", [0.25, 0.5, 0.75])
    def test_proper_and_color_bound(self, epsilon):
        graph = generators.random_regular(90, 16, seed=8)
        colors, m = make_input_coloring(graph, seed=8)
        res = pipelines.theorem13_coloring(graph, colors, m, epsilon=epsilon, backend="array")
        assert_proper_coloring(graph, res.colors)
        delta = graph.max_degree
        # the O(.) constant: (4f)^2-ish for the defective step times O(d); we
        # only check the asymptotic shape with a generous constant
        assert res.num_colors <= 600 * delta ** (1 + epsilon)

    def test_metadata_records_substitution_and_defect(self):
        graph = generators.random_regular(60, 9, seed=9)
        colors, m = make_input_coloring(graph, seed=9)
        res = pipelines.theorem13_coloring(graph, colors, m, epsilon=0.5)
        assert res.metadata["defect_d"] >= 1
        assert res.metadata["defective_rounds"] >= 1

    def test_degenerate_small_delta(self):
        graph = generators.ring(12)
        colors, m = make_input_coloring(graph, seed=1)
        res = pipelines.theorem13_coloring(graph, colors, m, epsilon=0.5)
        assert_proper_coloring(graph, res.colors)

    def test_invalid_epsilon(self):
        graph = generators.ring(6)
        colors, m = make_input_coloring(graph, seed=1)
        with pytest.raises(ValueError):
            pipelines.theorem13_coloring(graph, colors, m, epsilon=0.0)
        with pytest.raises(ValueError):
            pipelines.theorem13_coloring(graph, colors, m, epsilon=1.5)

    def test_custom_low_degree_coloring_hook(self):
        calls = []

        def custom(sub, sub_colors, sub_m):
            calls.append(sub.n)
            return pipelines.o_delta_coloring(sub, sub_colors, sub_m)

        graph = generators.random_regular(50, 8, seed=10)
        colors, m = make_input_coloring(graph, seed=10)
        res = pipelines.theorem13_coloring(graph, colors, m, epsilon=0.5,
                                           low_degree_coloring=custom)
        assert_proper_coloring(graph, res.colors)
        assert sum(calls) == graph.n  # every vertex colored in exactly one class


def recording_hook(calls):
    """A ``low_degree_coloring`` hook that records each call's subgraph and
    input colors, then runs the default black box."""
    def hook(sub, sub_colors, sub_m):
        calls.append((sub, sub_colors.copy()))
        return pipelines.o_delta_coloring(sub, sub_colors, sub_m, backend="array",
                                          validate_input=False)
    return hook


class TestTheorem13FusedClasses:
    """The fused step (one hook call per degree group) equals the per-class loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=24),
        p=st.floats(min_value=0.15, max_value=0.6),
        isolated=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        epsilon=st.sampled_from([1e-9, 0.25, 0.5, 0.75, 1.0]),
        backend=st.sampled_from(["reference", "array", "jit"]),
    )
    def test_matches_per_class_loop(self, n, p, isolated, seed, epsilon, backend):
        core = generators.gnp(n, p, seed=seed)
        graph = Graph.from_edge_array(n + isolated, core.edge_array())
        colors, m = make_input_coloring(graph, seed=seed)
        got = pipelines.theorem13_coloring(graph, colors, m, epsilon=epsilon, backend=backend)
        want = per_class_theorem13(graph, colors, m, epsilon, backend)
        assert_same_theorem13(got, want)

    @pytest.mark.parametrize("backend", ["reference", "array", "jit"])
    def test_degree_zero_and_one_classes_share_a_group(self, monkeypatch, backend):
        # A 4-star (Delta = 4), the edge 5-6, the isolated vertex 7 and the
        # path 8-9-10.  Classes {0}, {1, 2, 3, 4, 7} (induced degree 0) and
        # {5, 6} (degree 1) form one group; {8, 9, 10} (degree 2) another.
        graph = Graph(11, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (8, 9), (9, 10)])
        fixed_psi(monkeypatch, [4, 2, 2, 2, 2, 7, 7, 2, 0, 0, 0])
        colors, m = make_input_coloring(graph, seed=1)
        got = pipelines.theorem13_coloring(graph, colors, m, epsilon=0.5, backend=backend)
        assert_same_theorem13(got, per_class_theorem13(graph, colors, m, 0.5, backend))

        calls = []
        pipelines.theorem13_coloring(graph, colors, m, epsilon=0.5,
                                     low_degree_coloring=recording_hook(calls))
        groups = {sub.max_degree: sorted(sub_colors) for sub, sub_colors in calls}
        assert groups == {1: sorted(colors[[0, 1, 2, 3, 4, 5, 6, 7]]),
                          2: sorted(colors[[8, 9, 10]])}

    @pytest.mark.parametrize("backend", ["reference", "array", "jit"])
    def test_single_class(self, monkeypatch, backend):
        graph = generators.gnp(20, 0.3, seed=4)
        fixed_psi(monkeypatch, np.zeros(graph.n))
        colors, m = make_input_coloring(graph, seed=4)
        got = pipelines.theorem13_coloring(graph, colors, m, epsilon=0.5, backend=backend)
        assert_same_theorem13(got, per_class_theorem13(graph, colors, m, 0.5, backend))
        assert got.color_space_size == got.metadata["per_class_color_space"]

    @pytest.mark.parametrize("epsilon", [1e-9, 0.5, 1.0])
    def test_hook_receives_disjoint_groups_covering_v(self, epsilon):
        graph = generators.gnp(80, 0.15, seed=12)
        colors, m = make_input_coloring(graph, seed=12)  # distinct: colors name vertices
        calls = []
        pipelines.theorem13_coloring(graph, colors, m, epsilon=epsilon,
                                     low_degree_coloring=recording_hook(calls))
        seen = np.concatenate([sub_colors for _, sub_colors in calls])
        assert sorted(seen) == sorted(colors)
        degrees = [max(1, sub.max_degree) for sub, _ in calls]
        assert len(set(degrees)) == len(degrees)  # one call per degree group

        delta = graph.max_degree
        d = max(1, min(delta - 1, int(round(delta ** (1.0 - epsilon)))))
        psi = pipelines.defective_coloring(graph, colors, m, d=d, backend="array").colors
        vertex_of = {int(c): v for v, c in enumerate(colors)}
        group_of = np.empty(graph.n, dtype=np.int64)
        mono_edges = 0
        for group, (sub, sub_colors) in enumerate(calls):
            verts = np.array([vertex_of[int(c)] for c in sub_colors], dtype=np.int64)
            group_of[verts] = group
            u, w = verts[sub.edge_array()].T
            assert all(graph.has_edge(a, b) for a, b in zip(u, w))
            assert np.array_equal(psi[u], psi[w])
            mono_edges += sub.num_edges
        a, b = graph.edge_array().T
        assert mono_edges == int(np.sum(psi[a] == psi[b]))  # every monochromatic edge
        for psi_color in np.unique(psi):
            assert np.unique(group_of[psi == psi_color]).size == 1  # classes stay whole


class TestCorollary14:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_proper(self, k):
        graph = generators.random_regular(60, 9, seed=11)
        colors, m = make_input_coloring(graph, seed=11)
        res = pipelines.corollary14_coloring(graph, colors, m, k=k)
        assert_proper_coloring(graph, res.colors)

    def test_invalid_k(self):
        graph = generators.ring(6)
        colors, m = make_input_coloring(graph, seed=1)
        with pytest.raises(ValueError):
            pipelines.corollary14_coloring(graph, colors, m, k=0)
