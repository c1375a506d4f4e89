"""Reference-vs-array parity of the engine layer.

The load-bearing invariant of :mod:`repro.engine`: for every algorithm the two
backends must produce *identical* colors, part indices, and round counts.  The
mother algorithm itself is covered in ``test_core_vectorized.py``; this module
property-tests the composed pipelines — Linial, color-class removal, the full
``(Delta + 1)`` pipeline, and Theorem 1.3 — across random graph families and
seeds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.core import pipelines
from repro.core.linial import linial_coloring
from repro.core.reduce import remove_color_class_reduction
from repro.engine import ArrayEngine, ReferenceEngine, get_engine
from repro.verify.coloring import assert_proper_coloring


def random_graph(family: str, n: int, arg: float, seed: int):
    if family == "gnp":
        return generators.gnp(n, min(1.0, max(0.02, arg)), seed=seed)
    if family == "tree":
        return generators.random_tree(n, seed=seed)
    degree = max(1, min(n - 1, int(arg * 10)))
    return generators.random_regular(n + ((n * degree) % 2), degree, seed=seed)


def assert_coloring_parity(a, b):
    assert np.array_equal(a.colors, b.colors)
    assert a.rounds == b.rounds
    assert a.color_space_size == b.color_space_size
    if a.parts is not None and b.parts is not None:
        assert np.array_equal(a.parts, b.parts)


class TestEngineResolution:
    def test_get_engine_names(self):
        assert isinstance(get_engine("reference"), ReferenceEngine)
        assert isinstance(get_engine("array"), ArrayEngine)

    def test_engine_instances_pass_through(self):
        engine = ArrayEngine()
        assert get_engine(engine) is engine

    def test_unknown_backend(self):
        from repro.engine import EngineError

        with pytest.raises(EngineError):
            get_engine("gpu")


class TestRemoveColorClassParity:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_parity(self, n, p, seed):
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        # A sparse high-valued proper coloring exercises many removal rounds.
        a = remove_color_class_reduction(graph, colors, backend="reference")
        b = remove_color_class_reduction(graph, colors, backend="array")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds

    def test_unknown_backend_rejected(self, ring12):
        with pytest.raises(ValueError):
            remove_color_class_reduction(ring12, np.arange(12), backend="gpu")


class TestLinialParity:
    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["gnp", "regular", "tree"]),
        n=st.integers(min_value=4, max_value=50),
        arg=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_parity(self, family, n, arg, seed):
        graph = random_graph(family, n, arg, seed)
        a = linial_coloring(graph, seed=seed, backend="reference")
        b = linial_coloring(graph, seed=seed, backend="array")
        assert_coloring_parity(a, b)
        assert_proper_coloring(graph, b.colors)


class TestDeltaPlusOneParity:
    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["gnp", "regular", "tree"]),
        n=st.integers(min_value=4, max_value=50),
        arg=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_parity(self, family, n, arg, seed):
        graph = random_graph(family, n, arg, seed)
        a = pipelines.delta_plus_one_coloring(graph, seed=seed, backend="reference")
        b = pipelines.delta_plus_one_coloring(graph, seed=seed, backend="array")
        assert_coloring_parity(a, b)
        assert b.metadata["backend"] == "array"
        assert a.metadata["backend"] == "reference"
        assert a.metadata["linial_rounds"] == b.metadata["linial_rounds"]
        assert a.metadata["mother_rounds"] == b.metadata["mother_rounds"]
        assert a.metadata["reduction_rounds"] == b.metadata["reduction_rounds"]
        # the pipeline's budget is max(1, Delta) + 1 (edgeless graphs still
        # get a 2-color space from the mother algorithm)
        assert_proper_coloring(graph, b.colors, max_colors=max(1, graph.max_degree) + 1)

    def test_small_zoo(self, small_graph_zoo):
        for graph in small_graph_zoo:
            a = pipelines.delta_plus_one_coloring(graph, seed=2, backend="reference")
            b = pipelines.delta_plus_one_coloring(graph, seed=2, backend="array")
            assert_coloring_parity(a, b)


class TestTheorem13Parity:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=60),
        p=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
        epsilon=st.sampled_from([0.25, 0.5, 0.75]),
    )
    def test_property_parity(self, n, p, seed, epsilon):
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        a = pipelines.theorem13_coloring(graph, colors, m, epsilon=epsilon, backend="reference")
        b = pipelines.theorem13_coloring(graph, colors, m, epsilon=epsilon, backend="array")
        assert_coloring_parity(a, b)
        assert_proper_coloring(graph, b.colors)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_corollary14_parity(self, random_regular8, k):
        colors, m = make_input_coloring(random_regular8, seed=7)
        a = pipelines.corollary14_coloring(random_regular8, colors, m, k=k, backend="reference")
        b = pipelines.corollary14_coloring(random_regular8, colors, m, k=k, backend="array")
        assert_coloring_parity(a, b)
