"""Tests for the algorithm registry (repro.api.registry)."""

import pytest

from repro.api import registry
from repro.api.registry import (
    AlgorithmError,
    ParameterValueError,
    ParamSpec,
    UnknownAlgorithmError,
    UnknownParameterError,
    algorithm_names,
    algorithm_specs,
    get_algorithm,
    register_algorithm,
    validate_params,
)

#: The task names from before the registry existed — all must stay reachable.
LEGACY_TASKS = [
    "linial_reduction", "kdelta", "delta_squared", "outdegree",
    "defective_one_round", "defective", "linial", "delta_plus_one",
    "theorem13", "corollary14", "ruling_set",
]


class TestRegistryContents:
    def test_every_legacy_task_is_registered(self):
        names = algorithm_names()
        for task in LEGACY_TASKS:
            assert task in names

    def test_experiment_tasks_registered(self):
        assert "one_round_tightness" in algorithm_names()
        assert "baseline" in algorithm_names()

    def test_specs_carry_metadata(self):
        for spec in algorithm_specs():
            assert spec.summary, spec.name
            assert spec.guarantee, spec.name
            assert spec.output in ("coloring", "ruling set"), spec.name
            assert callable(spec.runner), spec.name

    def test_runners_are_importable_module_level_functions(self):
        # parallel workers resolve tasks by name, but custom forks may pass the
        # runner callable — it must be importable (module-level, no <locals>).
        for spec in algorithm_specs():
            assert "<locals>" not in spec.runner.__qualname__, spec.name

    def test_unknown_algorithm_is_a_keyerror_with_known_names(self):
        with pytest.raises(UnknownAlgorithmError) as excinfo:
            get_algorithm("no_such_algorithm")
        assert isinstance(excinfo.value, KeyError)
        assert "no_such_algorithm" in str(excinfo.value)
        assert "kdelta" in str(excinfo.value)


class TestParamValidation:
    def test_unknown_parameter_names_algorithm_and_accepted_keys(self):
        with pytest.raises(UnknownParameterError) as excinfo:
            validate_params("kdelta", {"q": 3})
        message = str(excinfo.value)
        assert "'kdelta'" in message and "['q']" in message and "['k']" in message

    def test_ill_typed_parameter_rejected(self):
        with pytest.raises(ParameterValueError, match="expects int"):
            validate_params("kdelta", {"k": "fast"})

    def test_bool_never_accepted_as_int(self):
        with pytest.raises(ParameterValueError):
            validate_params("kdelta", {"k": True})

    def test_int_accepted_for_float_param(self):
        assert validate_params("theorem13", {"epsilon": 1}) == {"epsilon": 1}

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterValueError, match=">= 1"):
            validate_params("kdelta", {"k": 0})

    def test_choices_enforced(self):
        with pytest.raises(ParameterValueError, match="one of"):
            validate_params("baseline", {"algorithm": "quantum"})

    def test_missing_required_rejected(self):
        with pytest.raises(ParameterValueError, match="required"):
            validate_params("one_round_tightness", {"k": 2})

    def test_values_returned_unchanged(self):
        params = {"k": 2}
        assert validate_params("kdelta", params) == {"k": 2}
        assert validate_params("kdelta", {}) == {}  # defaults are not injected

    def test_parse_cli_strings(self):
        spec = get_algorithm("ruling_set")
        assert spec.param("r").parse("ruling_set", "3") == 3
        assert spec.param("baseline").parse("ruling_set", "true") is True
        with pytest.raises(ParameterValueError, match="boolean"):
            spec.param("baseline").parse("ruling_set", "maybe")
        with pytest.raises(ParameterValueError, match="expects int"):
            spec.param("r").parse("ruling_set", "two")


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(AlgorithmError, match="already registered"):
            register_algorithm("kdelta", summary="dup", guarantee="none")(lambda w, e: {})

    def test_register_and_appear_everywhere(self):
        @register_algorithm(
            "test_constant",
            summary="a test-only algorithm",
            guarantee="always zero rounds",
            params=[ParamSpec("scale", int, default=1, minimum=1)],
        )
        def _run_constant(w, engine, scale: int = 1):
            import numpy as np

            return {"rounds": 0, "value": w.graph.n * scale,
                    "_colors": np.zeros(w.graph.n, dtype=np.int64)}

        try:
            assert "test_constant" in algorithm_names()
            # the BatchRunner resolves it by name ...
            from repro.engine import BatchRunner, GraphSpec

            rec = BatchRunner(backend="array").run_cell(
                "test_constant", GraphSpec("ring", 12, 2, 0), params={"scale": 3}
            )
            assert rec["value"] == 36
            # ... and the CLI grows the subcommand with zero edits.
            from repro.cli import build_parser

            args = build_parser().parse_args(["color", "test_constant", "--scale", "2"])
            assert args.algorithm_name == "test_constant" and args.scale == 2
        finally:
            del registry._REGISTRY["test_constant"]

    def test_overwrite_allowed_when_requested(self):
        original = get_algorithm("kdelta")
        try:
            register_algorithm("kdelta", summary="replaced", guarantee="none",
                               overwrite=True)(lambda w, e: {"rounds": 0})
            assert get_algorithm("kdelta").summary == "replaced"
        finally:
            registry._REGISTRY["kdelta"] = original

