"""Spec round-trip tests: Problem / Run / JobSpec <-> dict <-> JSON, lossless."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import algorithm_names, get_algorithm
from repro.api.spec import (
    SCHEMA_VERSION,
    JobSpec,
    Problem,
    Run,
    SpecError,
    canonical_json,
    spec_hash,
)
from repro.congest import generators
from repro.engine.batch import GraphSpec

GOLDEN = json.loads(
    (__import__("pathlib").Path(__file__).parent / "golden" / "batch_records.json").read_text()
)


def roundtrip(obj):
    """dict -> object -> JSON -> object; assert every hop is lossless."""
    cls = type(obj)
    via_dict = cls.from_dict(obj.to_dict())
    assert via_dict == obj
    via_json = cls.from_json(obj.to_json())
    assert via_json == obj
    assert via_json.to_dict() == obj.to_dict()
    return via_json


class TestProblemRoundTrip:
    def test_graph_spec_problem(self):
        problem = Problem(graph=GraphSpec("gnp", 50, 4, 7))
        assert roundtrip(problem).graph == GraphSpec("gnp", 50, 4, 7)

    def test_live_graph_not_serializable(self):
        problem = Problem(graph=generators.ring(8))
        assert not problem.is_serializable
        with pytest.raises(SpecError, match="live Graph"):
            problem.to_dict()

    def test_unknown_input_coloring_rejected(self):
        with pytest.raises(SpecError, match="input_coloring"):
            Problem(graph=GraphSpec("ring", 10, 2, 0), input_coloring="rainbow")

    def test_unknown_fields_rejected(self):
        with pytest.raises(SpecError, match="unknown"):
            Problem.from_dict({"graph": {"family": "ring", "n": 10, "delta": 2}, "extra": 1})

    def test_schema_version_enforced(self):
        good = Problem(graph=GraphSpec("ring", 10, 2, 0)).to_dict()
        assert good["schema"] == SCHEMA_VERSION
        with pytest.raises(SpecError, match="schema"):
            Problem.from_dict({**good, "schema": SCHEMA_VERSION + 1})
        with pytest.raises(SpecError, match="schema"):
            Problem.from_dict({**good, "schema": 0})


class TestRunRoundTrip:
    @pytest.mark.parametrize("algorithm", sorted(GOLDEN["task_params"]))
    def test_every_registered_algorithm_roundtrips(self, algorithm):
        # the golden params are the canonical exercise of each schema
        run = Run(algorithm=algorithm, params=GOLDEN["task_params"][algorithm],
                  backend="reference", workers=2, seed=3, parity_check=True)
        back = roundtrip(run)
        assert back.params == GOLDEN["task_params"][algorithm]
        assert (back.backend, back.workers, back.seed, back.parity_check) == \
            ("reference", 2, 3, True)

    def test_golden_params_cover_registry(self):
        assert set(GOLDEN["task_params"]) == set(algorithm_names())

    @settings(max_examples=50, deadline=None)
    @given(
        params=st.dictionaries(
            st.text(st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=8),
            st.one_of(st.integers(-1000, 1000), st.booleans(),
                      st.floats(allow_nan=False, allow_infinity=False, width=32),
                      st.text(max_size=12)),
            max_size=4,
        ),
        backend=st.sampled_from(["array", "reference"]),
        workers=st.integers(1, 8),
        seed=st.one_of(st.none(), st.integers(0, 2 ** 31)),
        parity=st.booleans(),
    )
    def test_property_json_roundtrip(self, params, backend, workers, seed, parity):
        # Run serialization is lossless for any JSON-scalar param dict
        # (validation against a schema happens at solve time, not here).
        run = Run(algorithm="x", params=params, backend=backend, workers=workers,
                  seed=seed, parity_check=parity)
        assert Run.from_json(run.to_json()) == run

    def test_defaults(self):
        run = Run.from_dict({"algorithm": "kdelta"})
        assert run == Run(algorithm="kdelta")
        assert (run.backend, run.workers, run.seed, run.parity_check) == ("array", 1, None, False)

    def test_invalid_runs_rejected(self):
        with pytest.raises(SpecError):
            Run(algorithm="")
        with pytest.raises(SpecError):
            Run(algorithm="kdelta", workers=0)
        with pytest.raises(SpecError, match="missing 'algorithm'"):
            Run.from_dict({"backend": "array"})

    def test_unknown_backend_rejected_with_typed_error(self):
        from repro.engine import UnknownBackendError, available_backends

        with pytest.raises(UnknownBackendError, match="Run.backend") as excinfo:
            Run(algorithm="kdelta", backend="bogus")
        assert excinfo.value.backend == "bogus"
        assert excinfo.value.available == available_backends()
        with pytest.raises(SpecError):
            Run(algorithm="kdelta", backend="")

    def test_jit_backend_accepted(self):
        run = roundtrip(Run(algorithm="kdelta", backend="jit"))
        assert run.backend == "jit"


class TestJobSpecRoundTrip:
    def job(self, **overrides):
        kwargs = dict(
            run=Run(algorithm="kdelta", backend="array"),
            problems=(Problem(graph=GraphSpec("random_regular", 40, 4, 0)),
                      Problem(graph=GraphSpec("gnp", 40, 4, 1))),
            params_grid=({"k": 1}, {"k": 2}),
        )
        kwargs.update(overrides)
        return JobSpec(**kwargs)

    def test_roundtrip(self):
        roundtrip(self.job())
        roundtrip(self.job(params_grid=None))

    def test_single_problem_form_accepted(self):
        job = JobSpec.from_dict({
            "problem": {"graph": {"family": "ring", "n": 12, "delta": 2}},
            "run": {"algorithm": "delta_plus_one"},
        })
        assert len(job.problems) == 1
        assert job.cells() == [GraphSpec("ring", 12, 2, 0)]

    def test_effective_grid_merges_run_params(self):
        job = self.job(run=Run(algorithm="ruling_set", params={"r": 3}),
                       params_grid=({"baseline": True}, {}))
        assert job.effective_grid() == [{"r": 3, "baseline": True}, {"r": 3}]

    def test_run_seed_overrides_cells(self):
        job = self.job(run=Run(algorithm="kdelta", seed=9))
        assert [c.seed for c in job.cells()] == [9, 9]

    def test_empty_problems_rejected(self):
        with pytest.raises(SpecError, match="at least one problem"):
            JobSpec(run=Run(algorithm="kdelta"), problems=())

    def test_both_problem_forms_rejected(self):
        with pytest.raises(SpecError, match="not both"):
            JobSpec.from_dict({
                "problem": {"graph": {"family": "ring", "n": 12, "delta": 2}},
                "problems": [],
                "run": {"algorithm": "kdelta"},
            })


class TestSpecHash:
    def test_stable_under_key_order(self):
        a = {"run": {"algorithm": "kdelta"}, "schema": 1}
        b = {"schema": 1, "run": {"algorithm": "kdelta"}}
        assert spec_hash(a) == spec_hash(b)
        assert canonical_json(a) == canonical_json(b)

    def test_object_and_dict_agree(self):
        job = JobSpec.single(Problem(graph=GraphSpec("ring", 12, 2, 0)),
                             Run(algorithm="delta_plus_one"))
        assert spec_hash(job) == spec_hash(job.to_dict())

    def test_different_specs_differ(self):
        p = Problem(graph=GraphSpec("ring", 12, 2, 0))
        a = JobSpec.single(p, Run(algorithm="delta_plus_one"))
        b = JobSpec.single(p, Run(algorithm="kdelta"))
        assert spec_hash(a) != spec_hash(b)


class TestLiveGraphHashing:
    """Regression: ``spec_hash`` over a Problem holding a live Graph used to
    die inside ``to_dict`` (SpecError: not serializable), making dedupe over
    programmatic submissions undefined.  Live graphs now hash canonically via
    the content of their CSR triplet."""

    def test_fingerprint_is_content_based(self):
        from repro.api.spec import graph_fingerprint

        a = generators.random_regular(60, 4, seed=7)
        b = generators.random_regular(60, 4, seed=7)  # same content, new object
        c = generators.random_regular(60, 4, seed=8)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)
        assert len(graph_fingerprint(a)) == 16

    def test_fingerprint_survives_shared_memory_round_trip(self):
        from repro.api.spec import graph_fingerprint
        from repro.congest.graph import Graph
        from repro.congest.shared import release

        graph = generators.random_regular(60, 4, seed=3)
        handle = graph.to_shared()
        try:
            attached = Graph.from_shared(handle)
            assert graph_fingerprint(attached) == graph_fingerprint(graph)
        finally:
            handle.close()
            release(handle.name)

    def test_fingerprint_rejects_non_graphs(self):
        from repro.api.spec import graph_fingerprint

        with pytest.raises(SpecError, match="expects a Graph"):
            graph_fingerprint({"n": 3})

    def test_spec_hash_over_live_graph_problem(self):
        live = Problem(graph=generators.ring(24))
        assert not live.is_serializable
        digest = spec_hash(live)  # no raise — the regression
        assert digest == spec_hash(Problem(graph=generators.ring(24)))
        assert digest != spec_hash(Problem(graph=generators.ring(26)))
        # canonical dict marks the graph as live and embeds the fingerprint
        doc = live.canonical_dict()
        assert doc["graph"]["live"] is True and "csr_sha256" in doc["graph"]

    def test_spec_hash_over_live_graph_jobspec(self):
        run = Run(algorithm="delta_plus_one")
        a = JobSpec.single(Problem(graph=generators.ring(24)), run)
        b = JobSpec.single(Problem(graph=generators.ring(24)), run)
        assert spec_hash(a) == spec_hash(b)

    def test_live_and_spec_described_problems_never_collide(self):
        live = Problem(graph=generators.ring(24))
        described = Problem(graph=GraphSpec("ring", 24, 2, 0))
        assert spec_hash(live) != spec_hash(described)

    def test_to_dict_still_refuses_live_graphs(self):
        # hashing is canonical; *serialization* is still an explicit error
        with pytest.raises(SpecError, match="live Graph"):
            Problem(graph=generators.ring(8)).to_dict()
        with pytest.raises(SpecError, match="live Graph"):
            JobSpec.single(Problem(graph=generators.ring(8)),
                           Run(algorithm="kdelta")).to_dict()


class TestJobStatus:
    def make(self, **overrides):
        from repro.api.spec import JobStatus

        base = dict(id="ab12", spec={"run": {"algorithm": "kdelta"}})
        base.update(overrides)
        return JobStatus(**base)

    def test_round_trip(self):
        from repro.api.spec import JobStatus

        status = self.make(state="running", cells_total=4, cells_done=2,
                           backend_tier="jit:cc", submitted_at=12.5, attempts=1)
        assert JobStatus.from_json(status.to_json()) == status

    def test_terminal_states(self):
        from repro.api.spec import JOB_STATES

        assert JOB_STATES == ("queued", "running", "done", "failed")
        for state, terminal in (("queued", False), ("running", False),
                                ("done", True), ("failed", True)):
            assert self.make(state=state).terminal is terminal

    def test_unknown_state_rejected(self):
        with pytest.raises(SpecError, match="unknown job state"):
            self.make(state="paused")

    def test_missing_fields_rejected(self):
        from repro.api.spec import JobStatus

        with pytest.raises(SpecError, match="missing"):
            JobStatus.from_dict({"state": "queued"})


class TestExperimentSpecs:
    def test_all_experiments_expressed_and_roundtrip(self):
        from repro.analysis.experiments import experiment_specs

        specs = experiment_specs()
        # every experiment E1..E10 appears (E5/E9 as split entries)
        covered = {name.split("_")[0] for name in specs}
        assert covered == {f"E{i}" for i in range(1, 11)}
        for name, job in specs.items():
            back = JobSpec.from_json(job.to_json())
            assert back == job, name
            assert spec_hash(back) == spec_hash(job), name

    def test_saved_spec_files_match_generator(self):
        # the committed specs/ directory is exactly what the generator writes
        import pathlib

        from repro.analysis.experiments import experiment_specs

        spec_dir = pathlib.Path(__file__).parent.parent / "specs"
        specs = experiment_specs()
        for name, job in specs.items():
            path = spec_dir / f"{name}.json"
            assert path.exists(), f"missing specs/{name}.json — run " \
                                  "scripts/generate_experiment_specs.py"
            assert JobSpec.from_dict(json.loads(path.read_text())) == job, name
