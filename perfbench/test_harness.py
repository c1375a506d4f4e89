"""Tests of the benchmark harness itself, at toy sizes.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import pathlib

import pytest

from perfbench import inputs, spans, stats
from perfbench.run import END_TO_END

ROOT = pathlib.Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------------- #
# Seed-derived inputs
# --------------------------------------------------------------------------- #


def _snap_bytes(tmp_path, seed: int, name: str) -> bytes:
    path = tmp_path / name
    inputs.write_snap_file(seed, path, vertices=500, raw_edges=3000)
    return path.read_bytes()


def test_same_seed_gives_byte_identical_snap_file(tmp_path):
    assert _snap_bytes(tmp_path, 7, "a.txt") == _snap_bytes(tmp_path, 7, "b.txt")
    assert _snap_bytes(tmp_path, 7, "a.txt") != _snap_bytes(tmp_path, 8, "c.txt")


def test_snap_file_is_a_gappy_one_based_edge_list_with_a_header(tmp_path):
    from repro.corpus import parse_edge_list

    path = tmp_path / "edges.txt"
    inputs.write_snap_file(3, path, vertices=500, raw_edges=3000)
    assert path.read_text().splitlines()[0] == "FromNodeId\tToNodeId"
    parsed = parse_edge_list(path)
    assert parsed.meta["header_skipped"]
    assert parsed.meta["id_min"] == 1
    assert parsed.meta["relabelled"]
    assert parsed.meta["id_max"] > parsed.n  # gaps between ids


def test_snap_shape_is_the_graph_the_parser_builds(tmp_path):
    from repro.corpus import build_graph, parse_edge_list

    path = tmp_path / "edges.txt"
    shape = inputs.write_snap_file(4, path, vertices=500, raw_edges=3000)
    graph, meta = build_graph(parse_edge_list(path))
    assert shape == {"n": graph.n, "m": graph.num_edges, "delta": graph.max_degree}
    assert meta["duplicate_edges"] > 0  # duplicates were left in for the parser


def test_same_seed_gives_identical_job_lists_and_plans():
    zoo = list(inputs.ZOO)

    def dump(seed):
        return json.dumps([
            inputs.interactive_jobs(seed, 60, zoo),
            inputs.bulk_jobs(seed, 10),
            inputs.sweep_plan(seed),
            inputs.big_graph_plan(seed, "edges.txt", {"n": 1, "m": 0, "delta": 0}),
        ], sort_keys=True)

    assert dump(5) == dump(5)
    assert dump(5) != dump(6)


def test_interactive_list_resubmits_every_fourth_request():
    jobs = inputs.interactive_jobs(2, 40, list(inputs.ZOO))
    for index, entry in enumerate(jobs):
        if (index + 1) % inputs.CACHE_EVERY == 0:
            assert "document" in jobs[entry["repeat"]] and entry["repeat"] < index
        else:
            assert "document" in entry
    documents = [json.dumps(e["document"], sort_keys=True) for e in jobs if "document" in e]
    assert len(set(documents)) == len(documents)  # every new request is a new job


def test_edge_count_formulas_match_the_generators():
    from repro.congest.generators import by_name

    for family in inputs.SWEEP_FAMILIES:
        for n, delta in ((300, 8), (401, 16), (2000, 16)):
            graph = by_name(family, n, delta, seed=4)
            assert inputs.edges_of(family, n, delta) == graph.num_edges, (family, n, delta)


def test_frozen_zoo_is_registered():
    from repro.api import algorithm_names

    assert set(inputs.ZOO) <= set(algorithm_names())


# --------------------------------------------------------------------------- #
# The percentile rule
# --------------------------------------------------------------------------- #


def test_p95_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.samples_beyond(199, 0.95) == 9
    with pytest.raises(ValueError):
        stats.percentile(range(199), 0.95)
    assert stats.percentile(range(1, 201), 0.95) == 190  # nearest rank
    assert stats.summary(range(199))["p95"] is None
    assert stats.summary(range(1, 201)) == {"n": 200, "p50": 100.5, "p95": 190}


def test_median_has_no_tail_requirement():
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert stats.summary([4.0])["p50"] == 4.0


# --------------------------------------------------------------------------- #
# Span self-time arithmetic
# --------------------------------------------------------------------------- #


def test_self_time_subtracts_the_union_of_children():
    # children overlap each other and one runs past the parent's end
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert stats.self_time(0.0, 10.0, []) == 10.0
    assert stats.self_time(0.0, 10.0, [(0.0, 10.0), (2.0, 3.0)]) == 0.0
    assert stats.self_time(5.0, 6.0, [(0.0, 1.0)]) == 1.0  # disjoint child


def _span(sid, parent, name, start, end, context="op0", attr=None, pid=1):
    return [pid, sid, parent, name, start, end, 0, context, attr]


def test_grandchildren_only_reduce_their_own_parent():
    spans_ = [
        _span(1, 0, "api.solve", 0.0, 10.0),
        _span(2, 1, "engine.cell", 1.0, 9.0),
        _span(3, 2, "core.run_mother", 2.0, 8.0),
    ]
    selfs = spans.span_self_times(spans_)
    assert selfs[(1, 1)] == 2.0 and selfs[(1, 2)] == 2.0 and selfs[(1, 3)] == 6.0


def test_layer_metrics_skip_setup_and_warmup_work():
    spans_ = [
        _span(1, 0, "engine.warmup", 0.0, 1.0, context=spans.SETUP),
        _span(2, 1, "core.run_mother", 0.2, 0.4, context=spans.SETUP),
        _span(3, 0, "core.run_mother", 2.0, 5.0),
        _span(4, 0, "corpus.ingest", 5.0, 6.0, attr=1),
        _span(5, 0, "corpus.ingest", 6.0, 7.0, attr=0),
        _span(6, 0, "corpus.parse", 0.5, 0.9, context=spans.SETUP, attr=50),
    ]
    metrics = spans.layer_metrics(spans_, {"server.run_p50_s": 0.25})
    assert metrics["engine.warmup_s"] == pytest.approx(0.8)
    assert metrics["core.run_mother_s"] == 3.0 and metrics["core.run_mother_calls"] == 1
    assert metrics["corpus.cache_hit_frac"] == 0.5
    assert metrics["corpus.parse_lines"] == 0
    assert metrics["server.run_p50_s"] == 0.25 and metrics["server.notify_p50_s"] == 0.0
    assert metrics["trace.spans"] == 6


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with the harness
# --------------------------------------------------------------------------- #


def test_benchmark_json_names_what_the_harness_reports():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in document["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == \
        [row[:3] for row in spans.PER_LAYER]
    assert [w["name"] for w in document["workloads"]] == ["big_graph", "sweep", "serve"]
