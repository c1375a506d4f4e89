"""The jit backend: resolution, parity, threading, and the fallback path.

Three layers of coverage:

* **Resolution** — ``backend="jit"`` resolves through the registry, describes
  itself (tier, threads, versions), and unknown backends fail with the typed
  :class:`UnknownBackendError` everywhere (registry, reductions, Run specs).
* **Parity** — property tests pin the jit engine to the array backend across
  the composed pipelines, and the C kernels are compared with the reference
  and array backends directly whenever a compiler is present.
* **Fallback** — with the C tier disabled, or its library unusable, the
  engine degrades to the array backend with a single
  :class:`RuntimeWarning` per process and bit-identical results.
"""

import os
import random
import subprocess
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import make_input_coloring
from repro.congest import generators
from repro.congest.graph import Graph
from repro.core import kernels_cc, pipelines
from repro.core.algorithm1 import run_mother_algorithm
from repro.core.kernels_jit import (
    get_provider,
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
from repro.engine.sink import machine_cores
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
        # Both reductions resolve backend= through get_engine, so an unknown
        # name fails exactly as engine resolution does.
        colors = np.arange(12)
        reductions = (
            lambda: remove_color_class_reduction(ring12, colors, backend="gpu"),
            lambda: kuhn_wattenhofer_reduction(ring12, colors, 12, backend="gpu"),
        )
        for reduction in reductions:
            with pytest.raises(UnknownBackendError) as excinfo:
                reduction()
            assert excinfo.value.backend == "gpu"
            assert excinfo.value.available == available_backends()

    def test_describe_backends_covers_jit(self):
        infos = {info["backend"]: info for info in describe_backends()}
        assert set(infos) == set(available_backends())
        jit_info = infos["jit"]
        assert jit_info["implementation"] == "JitEngine"
        assert "numpy" in jit_info["versions"]
        assert isinstance(jit_info["available"], bool)
        if jit_info["available"]:
            assert jit_info["kernel"] == "cc"
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

    def test_thread_cap_is_clamped_at_the_cores(self, monkeypatch, pristine_provider):
        # OpenMP starts a team of any size it is given.  Only the resolved
        # count is read: no kernel runs while the cap is raised.
        cores = machine_cores()
        monkeypatch.setenv("REPRO_NUM_THREADS", str(cores + 1))
        reset_provider_cache()
        provider = get_provider()
        if provider is None:
            pytest.skip("needs the C tier")
        assert provider.threads <= cores

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_one_fork_handler_however_often_the_tier_resolves(self, monkeypatch,
                                                              pristine_provider):
        # Python cannot unregister an at-fork handler, so a handler per
        # resolution would reset the thread count once per past resolution
        # at every later fork.  The child reports its count as exit status.
        calls = []
        set_threads = kernels_cc.CcKernels.set_threads

        def counted(kernels, n):
            calls.append(n)
            set_threads(kernels, n)

        monkeypatch.setattr(kernels_cc.CcKernels, "set_threads", counted)
        for _ in range(5):
            reset_provider_cache()
            if get_provider() is None:
                pytest.skip("needs the C tier")
        calls.clear()
        pid = os.fork()
        if pid == 0:
            os._exit(len(calls))
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 1

    def test_pool_forked_after_threaded_kernels_completes(self, monkeypatch,
                                                          pristine_provider):
        # A fork-started pool worker inherits the forking thread's OpenMP
        # team but not its threads; before the C tier went single-threaded
        # in forked children, such a worker blocked at its first kernel.
        if machine_cores() < 2:
            pytest.skip("needs two cores for two kernel threads")
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        reset_provider_cache()
        provider = get_provider()
        if provider is None or not provider.detail.get("openmp"):
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
                kuhn_wattenhofer_reduction(graph, colors, m, backend=arr),
                kuhn_wattenhofer_reduction(graph, colors, m, backend=jit),
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
# The C tier: raw-kernel parity and its build
# --------------------------------------------------------------------------- #


class TestKernelTierParity:
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

    def test_concurrent_builder_cannot_empty_the_source(self, tmp_path, monkeypatch):
        # Another builder of the same library truncates the shared source
        # path while this build's compiler runs.  Compiled from there, an
        # empty source makes a valid library without the kernels.
        real_run = subprocess.run

        def run(cmd, **kwargs):
            for shared in tmp_path.glob("repro_kernels_*.c"):
                shared.write_text("")
            return real_run(cmd, **kwargs)

        monkeypatch.setattr(kernels_cc.subprocess, "run", run)
        provider = kernels_cc.cc_provider(tmp_path)
        if provider is None:
            pytest.skip("C tier failed to build on this machine")
        assert provider.kind == "cc" and not provider.detail["cached"]
        assert sorted(path.suffix for path in tmp_path.iterdir()) == [".json", ".so"]

    def test_library_without_kernels_falls_back(self, tmp_path, monkeypatch,
                                                pristine_provider):
        built = kernels_cc.build_library(tmp_path)
        if built is None:
            pytest.skip("C tier failed to build on this machine")
        sofile, _ = built
        stub = tmp_path / "stub.c"
        stub.write_text("int repro_no_kernels(void) { return 0; }\n")
        subprocess.run([kernels_cc.find_compiler(), "-shared", "-fPIC", str(stub),
                        "-o", str(sofile)], check=True, capture_output=True)
        assert kernels_cc.cc_provider(tmp_path) is None
        monkeypatch.setenv("REPRO_JIT_CACHE", str(tmp_path))
        reset_provider_cache()
        jit_module._reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="falling back to the array backend"):
            assert JitEngine().active_tier() == "jit:fallback-array"


# --------------------------------------------------------------------------- #
# Coefficients from the input color's digits, the word-size guard and the C
# wrappers' checks
# --------------------------------------------------------------------------- #


def _compiled_provider():
    provider = get_provider()
    if provider is None:
        pytest.skip("no compiled kernel tier on this machine")
    return provider


def _five_case_coloring(graph, m, q, seed):
    """A proper coloring in ``[m]`` with 0, 1, m // 2, m - 2 and m - 1 on five
    vertices.  Where ``[m]`` spans several rows of ``q``, every other color
    has one residue mod ``q``, which the five avoid: such neighbors share the
    constant digit, tie at trial 0, and run on to ``x > lo`` (one batch) or
    to ``lo > 0`` (``k = 1``).  Below that the colors are distinct."""
    rng = np.random.default_rng(seed)
    special = np.array([0, 1, m // 2, m - 2, m - 1], dtype=np.int64)
    if m < 4 * q:
        rest = rng.permutation(np.setdiff1d(np.arange(m), special))
        return np.concatenate([special, rest[: graph.n - 5]])
    residue = min(set(range(q)) - set((special % q).tolist()))
    rows = np.array(random.Random(seed).sample(range(1, (m - residue) // q),
                                               graph.max_degree + 1))
    base, _ = make_input_coloring(graph, m=graph.max_degree + 1, seed=seed)
    colors = rows[base] * q + residue
    colors[rng.choice(graph.n, size=5, replace=False)] = special
    return colors


class TestCoefficientTable:
    """The jit mother kernel reads each polynomial's coefficients from the
    base-``q`` digits of ``input color + q``; the array backend reads them
    from its ``sequence_coefficients`` table, and the reference backend
    evaluates them with Python ints."""

    #: (m, Delta, d): Linial's first step on big_graph's grid (ids in [10**12],
    #: Delta = 4, one batch: q = 163, f = 20), then defect and batch variety.
    CASES = [(10 ** 12, 4, 0), (16, 3, 0), (10 ** 4, 8, 2), (2 ** 40, 6, 1), (97, 1, 0)]

    @staticmethod
    def assert_matches_oracles(graph, colors, params):
        """The C tier equals the reference and array backends; returns the
        array result."""
        want = get_engine("array").run_mother(graph, colors, params.m, params=params)
        ref = run_mother_algorithm(graph, colors, params.m, params=params)
        got = run_mother_jit(graph, colors, params.m, params=params,
                             kernels=_compiled_provider())
        for other in (ref, got):
            assert np.array_equal(other.colors, want.colors)
            assert np.array_equal(other.parts, want.parts)
            assert other.rounds == want.rounds
        return want

    @pytest.mark.parametrize("m,delta,d", CASES)
    def test_tiers_match_array_backend(self, m, delta, d):
        from repro.core.corollaries import _single_batch_params
        from repro.core.params import MotherParameters

        one_batch = _single_batch_params(m, delta, d)
        if (m, delta, d) == (10 ** 12, 4, 0):
            assert (one_batch.q, one_batch.f) == (163, 20)
        q = one_batch.q
        if delta == 1:
            graph = Graph(200, np.arange(200).reshape(100, 2))  # a matching
        else:
            graph = generators.random_regular(min(m, 200), delta, seed=m % 1000)
        colors = _five_case_coloring(graph, m, q, seed=m % 1000)
        assert set(colors.tolist()) >= {0, 1, m // 2, m - 2, m - 1}
        res = self.assert_matches_oracles(graph, colors, one_batch)
        past_trial_0 = bool((res.colors // q > 0).any())
        by_batch = self.assert_matches_oracles(
            graph, colors, MotherParameters(m=m, delta=delta, d=d, k=1, f=one_batch.f, q=q))
        assert by_batch.rounds == int(by_batch.parts.max())
        if m >= 4 * q:
            assert past_trial_0 and by_batch.rounds > 1

    @pytest.mark.parametrize("q,f", [(5, 1), (11, 2)])
    def test_full_width_colors(self, q, f):
        """Colors up to ``q**(f + 1) - q - 1``, whose ``+ q`` takes all
        ``f + 1`` digits, on a ring: a kernel that drops the top digit, reads
        the digits in reverse or evaluates later trials at ``lo`` differs
        from the array backend here (or raises).  Derived parameters with
        ``f >= 2`` have ``q**f > m + q``, so their top digit is always 0."""
        from repro.core.params import MotherParameters

        ring = generators.ring(12)
        m = q ** (f + 1) - q
        for k in (1, q):
            params = MotherParameters(m=m, delta=2, d=0, k=k, f=f, q=q)
            for seed in range(20):
                rng = np.random.default_rng(seed)
                colors = np.zeros(12, dtype=np.int64)
                colors[0] = m - 1
                for v in range(1, 12):  # uniform in [m], unlike both ring neighbors
                    banned = {colors[v - 1], colors[0] if v == 11 else -1}
                    colors[v] = rng.choice(sorted(set(range(m)) - banned))
                self.assert_matches_oracles(ring, colors, params)

    @pytest.mark.parametrize("backend", ["array", "jit"])
    def test_word_size_guard(self, backend):
        from repro.core.params import MotherParameters, ParameterError

        # A 4-cycle with input colors >= 2**31 and a hand-built field of size
        # 2**31: an int32 digit would truncate and int64 Horner would
        # overflow, so both backends refuse before allocating.
        cycle = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        colors = np.array([2 ** 31, 2 ** 31 + 1, 2 ** 31, 2 ** 31 + 1], dtype=np.int64)
        m = 2 ** 31 + 2
        params = MotherParameters(m=m, delta=2, d=0, k=1, f=1, q=2 ** 31)
        with pytest.raises(ParameterError, match="q < 2\\*\\*31"):
            get_engine(backend).run_mother(cycle, colors, m, params=params)
        below = MotherParameters(m=m, delta=2, d=0, k=1, f=2, q=2 ** 31 - 1)
        a = get_engine("array").run_mother(cycle, colors, m, params=below)
        b = get_engine(backend).run_mother(cycle, colors, m, params=below)
        assert_coloring_parity(a, b)
        assert_proper_coloring(cycle, b.colors)

    def test_c_wrappers_check_their_arrays(self):
        from repro.core.kernels_cc import cc_provider

        kernels = cc_provider()
        if kernels is None:
            pytest.skip("no C compiler on this machine")
        graph = generators.ring(6)
        colors_in = np.arange(6, dtype=np.int64)
        act = np.arange(6, dtype=np.int64)
        active = np.ones(6, dtype=bool)
        parts = np.zeros(6, dtype=np.int64)
        vals = np.empty(6, dtype=np.int32)

        def mother(colors_in=colors_in, parts=parts, vals=vals):
            kernels.mother_first(act, graph.indptr, graph.indices, colors_in, 3, 7, 7, 0,
                                 active, -np.ones(6, dtype=np.int64), parts, 0, 7,
                                 vals)

        mother()  # well-formed: accepted
        bad_inputs = [
            colors_in.astype(np.int32),                    # wrong dtype
            np.arange(12, dtype=np.int64)[::2],            # not contiguous
            colors_in[:5],                                 # shorter than n
        ]
        for bad in bad_inputs:
            with pytest.raises((TypeError, ValueError)):
                mother(colors_in=bad)
        with pytest.raises((TypeError, ValueError)):
            mother(vals=vals.astype(np.int64))
        with pytest.raises((TypeError, ValueError)):
            mother(vals=vals[:5])
        with pytest.raises((TypeError, ValueError)):
            mother(parts=parts[:5])

    def test_c_remove_classes_checks_its_arrays(self):
        from repro.core.kernels_cc import cc_provider

        kernels = cc_provider()
        if kernels is None:
            pytest.skip("no C compiler on this machine")
        graph = generators.ring(6)
        # Target 3 on the ring: the classes of colors 5, 4 and 3, in turn.
        order = np.array([0, 2, 4], dtype=np.int64)
        starts = np.array([0, 1, 2, 3], dtype=np.int64)
        used = np.empty(3, dtype=np.uint8)

        def remove(order=order, starts=starts, indptr=graph.indptr, colors=None, used=used):
            colors = np.array([5, 1, 4, 0, 3, 2]) if colors is None else colors
            kernels.remove_classes(order, starts, indptr, graph.indices, colors, 3, used)
            return colors

        assert remove().tolist() == [0, 1, 2, 0, 1, 2]  # well-formed: accepted
        assert remove(starts=np.array([0, 3]), used=np.empty(9, dtype=np.uint8)).tolist() \
            == [0, 1, 2, 0, 1, 2]  # one class of three
        assert remove(order=order[:0], starts=starts[:1]).tolist() == [5, 1, 4, 0, 3, 2]
        with pytest.raises(TypeError):
            remove(colors=np.array([5, 1, 4, 0, 3, 2], dtype=np.int32))
        with pytest.raises(TypeError):
            remove(order=np.arange(6, dtype=np.int64)[::2])
        with pytest.raises(TypeError):
            remove(starts=starts.astype(np.int32))
        with pytest.raises(TypeError):
            remove(used=used.astype(bool))
        with pytest.raises(ValueError):
            remove(used=used[:-1])
        with pytest.raises(ValueError):  # the largest class needs 3 * target
            remove(starts=np.array([0, 3]))
        with pytest.raises(ValueError):
            remove(indptr=graph.indptr[:-1].copy())
        for bad in ([0, 1, 2], [1, 1, 2, 3], [0, 2, 1, 3], []):
            with pytest.raises(ValueError):
                remove(starts=np.array(bad, dtype=np.int64))


# --------------------------------------------------------------------------- #
# The fallback path: no compiled tier at all
# --------------------------------------------------------------------------- #


class TestFallback:
    def _force_fallback(self, monkeypatch):
        # The C tier disabled by env — exactly a machine without a compiler.
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
            kuhn_wattenhofer_reduction(graph, colors, m, backend=arr),
            kuhn_wattenhofer_reduction(graph, colors, m, backend=engine),
        )

    def test_disable_env_forces_fallback_without_monkeypatching_imports(
        self, monkeypatch, pristine_provider
    ):
        monkeypatch.setenv("REPRO_JIT_DISABLE", "cc")
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
