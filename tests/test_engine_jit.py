"""The jit backend: resolution, parity, threading, and the fallback path.

Three layers of coverage:

* **Resolution** — ``backend="jit"`` resolves through the registry, describes
  itself (tier, threads, versions), and unknown backends fail with the typed
  :class:`UnknownBackendError` everywhere (registry, reductions, Run specs).
* **Parity** — property tests pin the jit engine to the array backend across
  the composed pipelines, whichever kernel tier resolved.  The plain-Python
  provider (the *exact* source the numba tier compiles) is parity-tested
  separately so the numba kernels' logic is verified even where numba is not
  installed; the C tier is exercised whenever a compiler is present.
* **Fallback** — with numba unimportable and the C tier disabled the engine
  degrades to the array backend with a single :class:`RuntimeWarning` per
  process and bit-identical results.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.core import pipelines
from repro.core.kernels_jit import (
    get_provider,
    python_provider,
    requested_thread_cap,
    reset_provider_cache,
    run_mother_jit,
)
from repro.core.reduce import (
    kuhn_wattenhofer_reduction,
    remove_color_class_reduction,
)
from repro.engine import (
    BatchRunner,
    GraphSpec,
    JitEngine,
    UnknownBackendError,
    available_backends,
    describe_backends,
    get_engine,
)
from repro.engine import jit as jit_module
from repro.engine.retry import RetryPolicy
from repro.verify.coloring import assert_proper_coloring


@pytest.fixture
def pristine_provider():
    """Restore the process-wide provider cache and warning flag after a test
    that monkeypatches the resolution environment."""
    yield
    reset_provider_cache()
    jit_module._reset_fallback_warning()


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


# --------------------------------------------------------------------------- #
# Resolution and introspection
# --------------------------------------------------------------------------- #


class TestJitResolution:
    def test_registered(self):
        assert "jit" in available_backends()
        engine = get_engine("jit")
        assert isinstance(engine, JitEngine)
        assert engine.name == "jit"

    def test_unknown_backend_is_typed(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_engine("gpu")
        assert excinfo.value.backend == "gpu"
        assert excinfo.value.available == available_backends()
        assert "jit" in str(excinfo.value)

    def test_unknown_backend_is_a_value_error(self):
        # Pre-existing `except ValueError` call sites keep working.
        with pytest.raises(ValueError):
            get_engine("gpu")

    def test_reduction_dispatchers_raise_the_same_type(self, ring12):
        colors = np.arange(12)
        with pytest.raises(UnknownBackendError, match="remove_color_class_reduction"):
            remove_color_class_reduction(ring12, colors, backend="gpu")
        with pytest.raises(UnknownBackendError, match="kuhn_wattenhofer_reduction"):
            kuhn_wattenhofer_reduction(ring12, colors, 12, backend="gpu")

    def test_describe_backends_covers_jit(self):
        infos = {info["backend"]: info for info in describe_backends()}
        assert set(infos) == set(available_backends())
        jit_info = infos["jit"]
        assert jit_info["implementation"] == "JitEngine"
        assert "numpy" in jit_info["versions"]
        assert isinstance(jit_info["available"], bool)
        if jit_info["available"]:
            assert jit_info["kernel"] in ("numba", "cc")
            assert jit_info["threads"] >= 1
        else:
            assert jit_info["fallback"] == "array"

    def test_warmup_is_idempotent(self):
        engine = JitEngine()
        engine.warmup()
        engine.warmup()
        assert engine.num_threads >= 1

    def test_thread_cap_env(self, monkeypatch, pristine_provider):
        monkeypatch.setenv("REPRO_NUM_THREADS", "1")
        assert requested_thread_cap() == 1
        reset_provider_cache()
        provider = get_provider()
        if provider is not None:
            assert provider.threads == 1

    def test_thread_cap_invalid_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
        assert requested_thread_cap() is None

    def test_pool_forked_after_threaded_kernels_completes(self, monkeypatch,
                                                          pristine_provider):
        # A fork-started pool worker inherits the forking thread's OpenMP
        # team but not its threads; before the C tier went single-threaded
        # in forked children, such a worker blocked at its first kernel.
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        reset_provider_cache()
        provider = get_provider()
        if provider is None or provider.kind != "cc" or not provider.detail.get("openmp"):
            pytest.skip("needs the OpenMP C tier")
        assert provider.threads == 2
        cells = [GraphSpec("random_regular", 2000, 8, seed=s) for s in range(4)]
        serial = BatchRunner(backend="jit").run("delta_plus_one", cells)
        # The deadline kills a deadlocked worker instead of waiting forever.
        parallel = BatchRunner(backend="jit", workers=2,
                               retry=RetryPolicy(cell_timeout=20.0)).run("delta_plus_one", cells)
        assert parallel.events == []
        assert [r["backend"] for r in parallel.records] == ["jit"] * len(cells)

        def untimed(records):
            return [{k: v for k, v in r.items() if k != "seconds"} for r in records]

        assert untimed(parallel.records) == untimed(serial.records)

    def test_thread_count_does_not_change_results(self, monkeypatch, pristine_provider):
        # Determinism under threads is by construction (no locking, no
        # order-dependent writes), so one cell at 1 and at 4 kernel threads
        # gives the same colors and round counts.
        graph = generators.random_regular(4000, 16, seed=5)
        runs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("REPRO_NUM_THREADS", threads)
            reset_provider_cache()
            provider = get_provider()
            if provider is None:
                pytest.skip("needs a compiled jit tier")
            result = pipelines.delta_plus_one_coloring(graph, seed=5, backend="jit")
            runs.append((provider.threads, result))
        (one, serial), (many, threaded) = runs
        assert one == 1
        if many == 1:
            pytest.skip("only one kernel thread available")
        assert np.array_equal(serial.colors, threaded.colors)
        assert serial.rounds == threaded.rounds


# --------------------------------------------------------------------------- #
# Parity: jit engine vs array, whichever kernel tier resolved
# --------------------------------------------------------------------------- #


class TestJitEngineParity:
    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["gnp", "regular", "tree"]),
        n=st.integers(min_value=4, max_value=50),
        arg=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_delta_plus_one_property_parity(self, family, n, arg, seed):
        graph = random_graph(family, n, arg, seed)
        a = pipelines.delta_plus_one_coloring(graph, seed=seed, backend="array")
        b = pipelines.delta_plus_one_coloring(graph, seed=seed, backend="jit")
        assert_coloring_parity(a, b)
        assert b.metadata["backend"] == "jit"
        assert_proper_coloring(graph, b.colors, max_colors=max(1, graph.max_degree) + 1)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_reductions_property_parity(self, n, p, seed):
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        a = remove_color_class_reduction(graph, colors, backend="array")
        b = remove_color_class_reduction(graph, colors, backend="jit")
        assert np.array_equal(a.colors, b.colors)
        assert a.rounds == b.rounds
        ka = kuhn_wattenhofer_reduction(graph, colors, m, backend="array")
        kb = kuhn_wattenhofer_reduction(graph, colors, m, backend="jit")
        assert np.array_equal(ka.colors, kb.colors)
        assert ka.rounds == kb.rounds

    def test_engine_primitives_on_zoo(self, small_graph_zoo):
        arr = get_engine("array")
        jit = get_engine("jit")
        for graph in small_graph_zoo:
            colors, m = make_input_coloring(graph, seed=5)
            assert_coloring_parity(
                arr.run_mother(graph, colors, m, d=0, k=1),
                jit.run_mother(graph, colors, m, d=0, k=1),
            )
            assert_coloring_parity(
                arr.remove_color_class(graph, colors),
                jit.remove_color_class(graph, colors),
            )
            assert_coloring_parity(
                arr.kuhn_wattenhofer(graph, colors, m),
                jit.kuhn_wattenhofer(graph, colors, m),
            )

    def test_batch_runner_with_reference_parity_check(self):
        result = BatchRunner(backend="jit", parity_check=True).run(
            "delta_plus_one", [GraphSpec("random_regular", 200, 6, seed=1)]
        )
        records = list(result)
        assert len(records) == 1
        assert records[0]["backend"] == "jit"

    def test_solve_api_accepts_jit(self):
        from repro.api.solve import solve
        from repro.api.spec import Problem, Run

        problem = Problem(graph=GraphSpec("random_regular", 120, 6, seed=0))
        report_a = solve(problem, Run(algorithm="delta_plus_one", backend="array"))
        report_j = solve(problem, Run(algorithm="delta_plus_one", backend="jit"))
        strip = lambda rec: {k: v for k, v in rec.items() if k not in ("seconds", "backend")}
        assert strip(report_j.record) == strip(report_a.record)


# --------------------------------------------------------------------------- #
# Parity of the raw kernel tiers (python = the numba source, cc = the C port)
# --------------------------------------------------------------------------- #


class TestKernelTierParity:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=40),
        p=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_python_tier_mother_parity(self, n, p, seed):
        # python_provider executes the exact functions the numba tier
        # compiles, so this validates the numba kernels' logic without numba.
        graph = generators.gnp(n, p, seed=seed)
        colors, m = make_input_coloring(graph, seed=seed)
        a = get_engine("array").run_mother(graph, colors, m, d=0, k=1)
        b = run_mother_jit(graph, colors, m, d=0, k=1, kernels=python_provider())
        assert_coloring_parity(a, b)
        assert b.metadata["kernel"] == "python"

    def test_python_tier_reduction_parity(self, petersen):
        colors, m = make_input_coloring(petersen, seed=9)
        kernels = python_provider()
        a = remove_color_class_reduction(petersen, colors, backend="array")
        b = remove_color_class_reduction(petersen, colors, backend="jit", kernels=kernels)
        assert np.array_equal(a.colors, b.colors) and a.rounds == b.rounds
        ka = kuhn_wattenhofer_reduction(petersen, colors, m, backend="array")
        kb = kuhn_wattenhofer_reduction(petersen, colors, m, backend="jit", kernels=kernels)
        assert np.array_equal(ka.colors, kb.colors) and ka.rounds == kb.rounds

    def test_cc_tier_when_compiler_present(self):
        from repro.core.kernels_cc import cc_provider, find_compiler

        if find_compiler() is None:
            pytest.skip("no C compiler on this machine")
        provider = cc_provider()
        if provider is None:
            pytest.skip("C tier failed to build on this machine")
        assert provider.kind == "cc"
        graph = generators.random_regular(300, 6, seed=4)
        colors, m = make_input_coloring(graph, seed=4)
        a = get_engine("array").run_mother(graph, colors, m, d=0, k=1)
        b = run_mother_jit(graph, colors, m, d=0, k=1, kernels=provider)
        assert_coloring_parity(a, b)

    def test_numba_tier_when_numba_present(self):
        pytest.importorskip("numba")
        reset_provider_cache()
        try:
            provider = get_provider()
            assert provider is not None and provider.kind == "numba"
            graph = generators.random_regular(300, 6, seed=4)
            colors, m = make_input_coloring(graph, seed=4)
            a = get_engine("array").run_mother(graph, colors, m, d=0, k=1)
            b = run_mother_jit(graph, colors, m, d=0, k=1, kernels=provider)
            assert_coloring_parity(a, b)
        finally:
            reset_provider_cache()


# --------------------------------------------------------------------------- #
# The fallback path: no compiled tier at all
# --------------------------------------------------------------------------- #


class TestFallback:
    def _force_fallback(self, monkeypatch):
        # `import numba` raises with None in sys.modules, and the C tier is
        # disabled by env — exactly a machine with neither tier.
        monkeypatch.setitem(sys.modules, "numba", None)
        monkeypatch.setenv("REPRO_JIT_DISABLE", "cc")
        reset_provider_cache()
        jit_module._reset_fallback_warning()

    def test_degrades_to_array_with_single_warning(self, monkeypatch, pristine_provider):
        self._force_fallback(monkeypatch)
        graph = generators.random_regular(200, 6, seed=3)
        engine = JitEngine()
        with pytest.warns(RuntimeWarning, match="falling back to the array backend"):
            result = pipelines.delta_plus_one_coloring(graph, seed=3, backend=engine)
        expected = pipelines.delta_plus_one_coloring(graph, seed=3, backend="array")
        assert_coloring_parity(expected, result)

        # The warning is per-process, not per-engine: a second engine (and a
        # second call) stays silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = JitEngine()
            result2 = pipelines.delta_plus_one_coloring(graph, seed=3, backend=again)
            assert not again.available
            assert again.provider_kind is None
        assert_coloring_parity(expected, result2)

    def test_fallback_describe_and_primitives(self, monkeypatch, pristine_provider):
        self._force_fallback(monkeypatch)
        engine = JitEngine()
        with pytest.warns(RuntimeWarning):
            info = engine.describe()
        assert info["available"] is False
        assert info["fallback"] == "array"
        assert info["kernel"] is None
        graph = generators.gnp(40, 0.2, seed=1)
        colors, m = make_input_coloring(graph, seed=1)
        arr = get_engine("array")
        assert_coloring_parity(
            arr.run_mother(graph, colors, m), engine.run_mother(graph, colors, m)
        )
        assert_coloring_parity(
            arr.remove_color_class(graph, colors), engine.remove_color_class(graph, colors)
        )
        assert_coloring_parity(
            arr.kuhn_wattenhofer(graph, colors, m), engine.kuhn_wattenhofer(graph, colors, m)
        )

    def test_disable_env_forces_fallback_without_monkeypatching_imports(
        self, monkeypatch, pristine_provider
    ):
        monkeypatch.setenv("REPRO_JIT_DISABLE", "numba,cc")
        reset_provider_cache()
        assert get_provider() is None

    def test_active_tier_names_the_fallback(self, monkeypatch, pristine_provider):
        # The queryable per-job answer to the once-per-process warning: a
        # long-running server surfaces this in every manifest and /healthz.
        self._force_fallback(monkeypatch)
        engine = JitEngine()
        with pytest.warns(RuntimeWarning):
            assert engine.active_tier() == "jit:fallback-array"

    def test_active_tier_names_the_compiled_tier(self):
        engine = JitEngine()
        if engine.available:
            assert engine.active_tier() == f"jit:{engine.provider_kind}"
        assert get_engine("array").active_tier() == "array"
        assert get_engine("reference").active_tier() == "reference"
