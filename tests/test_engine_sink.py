"""Tests for the streaming result sinks (JSONL/CSV), manifests and resume."""

import json

import numpy as np
import pytest

from repro.engine import BatchRunner, CsvSink, GraphSpec, JsonlSink, SinkError, open_sink
from repro.engine.sink import RunManifest, cell_id, cell_key, grid_hash, task_name


def manifest(**overrides) -> RunManifest:
    base = dict(task="kdelta", backend="array", grid_hash="abc123", cells=4,
                parity_check=False, version="1.2.0")
    base.update(overrides)
    return RunManifest(**base)


RECORDS = [
    {"family": "gnp", "n": 30, "Delta": 4, "seed": 0, "rounds": 2, "seconds": 0.25,
     "proper": True},
    {"family": "gnp", "n": 30, "Delta": 4, "seed": 1, "rounds": 1, "seconds": 0.125,
     "proper": False},
]


class TestCellIdentity:
    def test_cell_key_is_param_order_independent(self):
        spec = GraphSpec("gnp", 30, 4, 1)
        assert cell_key("kdelta", spec, {"k": 1, "d": 2}) == cell_key(
            "kdelta", spec, {"d": 2, "k": 1}
        )

    def test_cell_key_distinguishes_cells(self):
        spec = GraphSpec("gnp", 30, 4, 1)
        keys = {
            cell_key("kdelta", spec, {"k": 1}),
            cell_key("kdelta", spec, {"k": 2}),
            cell_key("linial", spec, {"k": 1}),
            cell_key("kdelta", GraphSpec("gnp", 30, 4, 2), {"k": 1}),
        }
        assert len(keys) == 4

    def test_cell_key_accepts_numpy_params(self):
        spec = GraphSpec("gnp", 30, 4, 1)
        assert cell_key("kdelta", spec, {"k": np.int64(3)}) == cell_key(
            "kdelta", spec, {"k": 3}
        )

    def test_task_name_of_callable(self):
        from helpers import scaled_n_task

        assert task_name(scaled_n_task) == "helpers:scaled_n_task"
        assert task_name("kdelta") == "kdelta"

    def test_cell_id_and_grid_hash(self):
        key = cell_key("kdelta", GraphSpec("gnp", 30, 4, 1), {})
        assert len(cell_id(key)) == 16
        assert grid_hash([key, "other"]) != grid_hash(["other", key])  # order matters


class TestJsonlSink:
    def test_round_trip_preserves_types(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
            sink.write("c2", RECORDS[1])
        assert sink.written == 2
        with JsonlSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert resumed.completed == {"c1": RECORDS[0], "c2": RECORDS[1]}
            assert resumed.completed["c1"]["rounds"] == 2  # int stays int
            assert resumed.completed["c1"]["seconds"] == 0.25  # float stays float
            assert resumed.completed["c1"]["proper"] is True  # bool stays bool

    def test_numpy_scalars_serialised(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", {"rounds": np.int64(3), "seconds": np.float64(0.5)})
        lines = path.read_text().splitlines()
        assert json.loads(lines[1])["record"] == {"rounds": 3, "seconds": 0.5}

    def test_first_line_is_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
        head = json.loads(path.read_text().splitlines()[0])
        assert RunManifest.from_dict(head["manifest"]) == manifest()

    def test_torn_final_line_dropped_on_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
        with path.open("a") as f:  # a write the dying run never finished
            f.write('{"cell": "c2", "rec')
        with JsonlSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert set(resumed.completed) == {"c1"}
        # the torn tail is gone from the file itself
        assert len(path.read_text().splitlines()) == 2

    def test_malformed_interior_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
        with path.open("a") as f:
            f.write("{not json}\n")
        with pytest.raises(SinkError, match="malformed JSONL"):
            JsonlSink(path, resume=True).start(manifest())

    def test_wrong_shape_line_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
        with path.open("a") as f:
            f.write('{"no-cell-field": 1}\n')
        with pytest.raises(SinkError, match="not a"):
            JsonlSink(path, resume=True).start(manifest())

    def test_missing_manifest_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"cell": "c1", "record": {}}\n')
        with pytest.raises(SinkError, match="manifest"):
            JsonlSink(path, resume=True).start(manifest())

    def test_resume_refuses_different_sweep(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
        for other in (manifest(grid_hash="ffff"), manifest(task="linial"),
                      manifest(backend="reference"), manifest(parity_check=True)):
            with pytest.raises(SinkError, match="different sweep"):
                JsonlSink(path, resume=True).start(other)

    def test_refused_resume_never_mutates_the_file(self, tmp_path):
        # Even with a torn tail, a file that fails the manifest check must be
        # left exactly as found — reject first, truncate only afterwards.
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest())
            sink.write("c1", RECORDS[0])
        with path.open("a") as f:
            f.write('{"cell": "c2", "rec')  # torn tail
        before = path.read_text()
        with pytest.raises(SinkError, match="different sweep"):
            JsonlSink(path, resume=True).start(manifest(task="linial"))
        assert path.read_text() == before

    def test_resume_tolerates_version_bump(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest(version="1.1.0"))
        JsonlSink(path, resume=True).start(manifest(version="1.2.0"))  # no raise

    def test_resume_of_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with JsonlSink(path, resume=True) as sink:
            sink.start(manifest())
            assert sink.completed == {}
        assert path.exists()


class TestCsvSink:
    def test_round_trip_with_sidecar_manifest(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            for i, rec in enumerate(RECORDS):
                sink.write(f"c{i}", rec)
        header, *rows = path.read_text().splitlines()
        assert header.startswith("cell,family,n,")
        assert len(rows) == 2
        sidecar = json.loads(sink.manifest_path.read_text())
        assert RunManifest.from_dict(sidecar) == manifest()

    def test_resume_retypes_scalars(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
        with CsvSink(path, resume=True) as resumed:
            resumed.start(manifest())
            rec = resumed.completed["c0"]
            assert rec["rounds"] == 2 and isinstance(rec["rounds"], int)
            assert rec["seconds"] == 0.25
            assert rec["proper"] is True
            assert rec["family"] == "gnp"

    def test_torn_final_row_dropped_on_resume(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
        with path.open("a") as f:  # row the dying run never finished
            f.write("c1,gnp,30")
        with CsvSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert set(resumed.completed) == {"c0"}
            resumed.write("c1", RECORDS[1])
        # the torn tail is gone: the file parses as header + two whole rows
        header, *rows = path.read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("c1,")

    def test_row_truncated_inside_last_field_treated_as_torn(self, tmp_path):
        # Field counting alone cannot catch this: the row has every column but
        # its last value was cut mid-write.  The missing newline must flag it.
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
            sink.write("c1", RECORDS[1])
        text = path.read_text()
        path.write_text(text[:-5])  # chop the tail of the last value + newline
        with CsvSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert set(resumed.completed) == {"c0"}  # c1 must re-run, not resurface garbled

    def test_malformed_interior_row_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
        with path.open("a") as f:
            f.write("c1,only,three\n")  # complete line, wrong field count
        with pytest.raises(SinkError, match="fields"):
            CsvSink(path, resume=True).start(manifest())

    def test_resume_without_sidecar_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("cell,rounds\nc0,1\n")
        with pytest.raises(SinkError, match="sidecar"):
            CsvSink(path, resume=True).start(manifest())

    def test_unknown_columns_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
            with pytest.raises(SinkError, match="not in the CSV header"):
                sink.write("c1", {**RECORDS[1], "surprise": 1})


class TestCsvTypedSchema:
    """Regression: CSV resume used to re-type values heuristically (lossy —
    the string ``"42"`` came back as the int ``42``).  The manifest sidecar
    now carries a per-column type schema making resume an exact inverse."""

    TRICKY = {"label": "42", "flag": "True", "count": 42, "ratio": 1.0,
              "ok": True, "note": "", "extra": None}

    def test_sidecar_records_column_schema(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", self.TRICKY)
        sidecar = json.loads(sink.manifest_path.read_text())
        assert sidecar["columns"] == {
            "label": "str", "flag": "str", "count": "int", "ratio": "float",
            "ok": "bool", "note": "str", "extra": "none",
        }
        # the schema rides along the manifest, not instead of it
        assert RunManifest.from_dict(sidecar) == manifest()

    def test_resume_round_trip_is_exact(self, tmp_path):
        # the lossy cases: numeric-looking and bool-looking *strings*
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", self.TRICKY)
        with CsvSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert resumed.completed["c0"] == self.TRICKY
            rec = resumed.completed["c0"]
            assert rec["label"] == "42" and isinstance(rec["label"], str)
            assert rec["flag"] == "True" and isinstance(rec["flag"], str)
            assert rec["ok"] is True and rec["count"] == 42
            assert rec["note"] == "" and rec["extra"] is None

    def test_resume_round_trips_like_jsonl(self, tmp_path):
        # the same records through both sinks resume to identical dicts
        jsonl, csv_path = tmp_path / "run.jsonl", tmp_path / "run.csv"
        other = {**self.TRICKY, "label": "7", "count": 7, "ok": False}
        for cls, path in ((JsonlSink, jsonl), (CsvSink, csv_path)):
            with cls(path) as sink:
                sink.start(manifest())
                sink.write("c0", self.TRICKY)
                sink.write("c1", other)
        with JsonlSink(jsonl, resume=True) as a, CsvSink(csv_path, resume=True) as b:
            a.start(manifest())
            b.start(manifest())
            assert a.completed == b.completed

    def test_float_column_stays_float(self, tmp_path):
        # 1.0 must not collapse to the int 1 on resume
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", {"x": 1.0})
        with CsvSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert isinstance(resumed.completed["c0"]["x"], float)

    def test_numpy_scalars_tag_as_plain_types(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", {"n": np.int64(3), "t": np.float64(0.5), "p": np.bool_(True)})
        with CsvSink(path, resume=True) as resumed:
            resumed.start(manifest())
            assert resumed.completed["c0"] == {"n": 3, "t": 0.5, "p": True}

    def test_mixed_type_column_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", {"x": 1})
            with pytest.raises(SinkError, match="holds int values"):
                sink.write("c1", {"x": "one"})

    def test_newline_in_string_rejected(self, tmp_path):
        # a quoted multi-line field would defeat the torn-tail detector
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            with pytest.raises(SinkError, match="newline"):
                sink.write("c0", {"x": "two\nlines"})

    def test_legacy_sidecar_still_resumes(self, tmp_path):
        # files written before the schema (no "columns" key) keep the old
        # best-effort behavior instead of being rejected
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
        sidecar = json.loads(sink.manifest_path.read_text())
        del sidecar["columns"]
        sink.manifest_path.write_text(json.dumps(sidecar))
        with CsvSink(path, resume=True) as resumed:
            resumed.start(manifest())
            rec = resumed.completed["c0"]
            assert rec["rounds"] == 2 and rec["proper"] is True  # heuristic still works

    def test_schema_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        with CsvSink(path) as sink:
            sink.start(manifest())
            sink.write("c0", RECORDS[0])
        sidecar = json.loads(sink.manifest_path.read_text())
        sidecar["columns"] = {"other": "int"}
        sink.manifest_path.write_text(json.dumps(sidecar))
        with pytest.raises(SinkError, match="column schema"):
            CsvSink(path, resume=True).start(manifest())


class TestBackendTier:
    def test_runner_manifest_carries_active_tier(self):
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0,))
        assert runner.manifest("kdelta", cells).backend_tier == "array"

    def test_jit_tier_is_kind_or_fallback(self):
        from repro.engine.registry import get_engine

        tier = get_engine("jit").active_tier()
        assert tier in ("jit:cc", "jit:fallback-array")

    def test_tier_mismatch_does_not_block_resume(self, tmp_path):
        # the tier is provenance, not identity: a restart may resolve a
        # different tier (e.g. no C compiler after an env change) and must
        # still resume the same sweep
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            sink.start(manifest(backend_tier="jit:cc"))
            sink.write("c0", RECORDS[0])
        with JsonlSink(path, resume=True) as resumed:
            resumed.start(manifest(backend_tier="jit:fallback-array"))  # no raise
            assert set(resumed.completed) == {"c0"}

    def test_progress_callback_reports_each_cell(self, tmp_path):
        calls = []
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        with JsonlSink(tmp_path / "run.jsonl") as sink:
            runner.run("kdelta", cells, sink=sink,
                       progress=lambda done, total, cell, rec: calls.append((done, total, cell)))
        assert calls[0] == (0, 2, None)  # the resume-baseline call
        assert [c[0] for c in calls[1:]] == [1, 2]
        assert all(c[1] == 2 for c in calls)
        assert all(c[2] is not None for c in calls[1:])

    def test_progress_reports_resumed_cells_up_front(self, tmp_path):
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        path = tmp_path / "run.jsonl"
        with JsonlSink(path) as sink:
            runner.run("kdelta", cells, sink=sink)
        calls = []
        with JsonlSink(path, resume=True) as sink:
            runner.run("kdelta", cells, sink=sink,
                       progress=lambda done, total, cell, rec: calls.append((done, total)))
        assert calls[0] == (2, 2)  # every cell already durable before any work
        assert calls[-1] == (2, 2)


class TestOpenSink:
    def test_suffix_dispatch(self, tmp_path):
        assert isinstance(open_sink(tmp_path / "a.jsonl"), JsonlSink)
        assert isinstance(open_sink(tmp_path / "a.ndjson"), JsonlSink)
        assert isinstance(open_sink(tmp_path / "a.csv"), CsvSink)

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(SinkError, match="suffix"):
            open_sink(tmp_path / "a.parquet")


class TestRunnerManifest:
    def test_one_shot_params_grid_iterable(self, tmp_path):
        # A generator params_grid must behave exactly like a list: re-used for
        # every spec, and counted once in the manifest.
        runner = BatchRunner(backend="array")
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        with JsonlSink(tmp_path / "run.jsonl") as sink:
            result = runner.run("kdelta", cells,
                                params_grid=({"k": k} for k in (1, 2)), sink=sink)
        assert len(result) == 4
        assert sorted((r["seed"], r["k"]) for r in result) == [
            (0, 1), (0, 2), (1, 1), (1, 2)]
        listed = runner.manifest("kdelta", cells, params_grid=[{"k": 1}, {"k": 2}])
        generated = runner.manifest("kdelta", cells,
                                    params_grid=({"k": k} for k in (1, 2)))
        assert generated == listed and generated.cells == 4

    def test_manifest_describes_sweep(self):
        runner = BatchRunner(backend="array", parity_check=True)
        cells = BatchRunner.grid("gnp", 30, 4, seeds=(0, 1))
        m = runner.manifest("kdelta", cells, params_grid=[{"k": 1}, {"k": 2}])
        assert m.task == "kdelta"
        assert m.backend == "array"
        assert m.cells == 4
        assert m.parity_check is True
        # the hash pins the grid: any change to cells or params changes it
        assert m.grid_hash != runner.manifest("kdelta", cells, params_grid=[{"k": 1}]).grid_hash
