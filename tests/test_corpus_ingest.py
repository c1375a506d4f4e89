"""Edge-list ingestion, the content-addressed cache, and GraphFormatError."""

import gzip
import json
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.graph import Graph, GraphError, GraphFormatError
from repro.corpus import cache, file_spec, graph_info, ingest, load_file_graph, parse_edge_list
from repro.corpus.ingest import (
    ParsedEdgeList,
    _parse_lines,
    _parse_regular,
    _relabel,
    build_graph,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_ENV, str(tmp_path / "corpus-cache"))


def write(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --------------------------------------------------------------------------- #
# Parsing dialects
# --------------------------------------------------------------------------- #


class TestParseEdgeList:
    def test_plain_zero_indexed(self, tmp_path):
        parsed = parse_edge_list(write(tmp_path, "0 1\n1 2\n2 0\n"))
        assert parsed.n == 3
        assert parsed.edges.tolist() == [[0, 1], [1, 2], [2, 0]]

    def test_comments_blanks_and_tabs(self, tmp_path):
        text = "# a comment\n\n% another\n// third style\n0\t1\n\n1\t2\n"
        parsed = parse_edge_list(write(tmp_path, text))
        assert parsed.edges.tolist() == [[0, 1], [1, 2]]
        assert parsed.meta["comment_lines"] == 3

    def test_csv_with_header(self, tmp_path):
        parsed = parse_edge_list(write(tmp_path, "source,target\n0,1\n1,2\n", "e.csv"))
        assert parsed.meta["header_skipped"] is True
        assert parsed.meta["format"] == "csv"
        assert parsed.edges.tolist() == [[0, 1], [1, 2]]

    def test_one_indexed_relabelled(self, tmp_path):
        parsed = parse_edge_list(write(tmp_path, "1 2\n2 3\n"))
        assert parsed.n == 3
        assert parsed.meta["relabelled"] is True
        assert parsed.meta["id_min"] == 1
        assert parsed.edges.min() == 0

    def test_gapped_ids_relabelled_densely(self, tmp_path):
        parsed = parse_edge_list(write(tmp_path, "10 20\n20 900\n"))
        assert parsed.n == 3
        assert sorted(np.unique(parsed.edges).tolist()) == [0, 1, 2]

    def test_gzip_snap_dialect(self, tmp_path):
        path = tmp_path / "snap.txt.gz"
        body = "# FromNodeId\tToNodeId\n1\t2\n2\t1\n2\t3\n3\t2\n"
        path.write_bytes(gzip.compress(body.encode()))
        parsed = parse_edge_list(path)
        assert parsed.meta["compressed"] is True
        graph, meta = build_graph(parsed)
        assert graph.n == 3
        assert meta["m"] == 2  # both directions collapse
        assert meta["duplicate_edges"] == 2

    def test_extra_columns_ignored(self, tmp_path):
        # SNAP-adjacent formats carry weights/timestamps in trailing columns
        parsed = parse_edge_list(write(tmp_path, "0 1 1.5 999\n1 2 0.25 998\n"))
        assert parsed.edges.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "# c\n0 1\n1 1\n")
        with pytest.raises(GraphFormatError) as excinfo:
            build_graph(parse_edge_list(path))
        assert "edges.txt:3" in str(excinfo.value)

    def test_self_loop_dropped_on_request(self, tmp_path):
        path = write(tmp_path, "0 1\n1 1\n1 2\n")
        parsed = parse_edge_list(path, drop_self_loops=True)
        assert parsed.meta["self_loops_dropped"] == 1
        assert parsed.edges.tolist() == [[0, 1], [1, 2]]

    def test_non_numeric_payload_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "0 1\nfoo bar\n")
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list(path)
        assert "edges.txt:2" in str(excinfo.value)

    def test_second_header_rejected(self, tmp_path):
        path = write(tmp_path, "source,target\nalso,text\n0,1\n", "e.csv")
        with pytest.raises(GraphFormatError):
            parse_edge_list(path)

    def test_single_column_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list(write(tmp_path, "0 1\n42\n"))
        assert "edges.txt:2" in str(excinfo.value)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            parse_edge_list(write(tmp_path, "# only comments\n"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_edge_list(tmp_path / "absent.txt")

    @pytest.mark.parametrize("token", ["99999999999999999999", str(2**63), str(-2**63 - 1)])
    def test_id_outside_int64_names_line(self, tmp_path, token):
        path = write(tmp_path, f"0 1\n2 {token}\n")
        with pytest.raises(GraphFormatError) as excinfo:
            parse_edge_list(path)
        assert excinfo.value.line == 2
        assert "edges.txt:2" in str(excinfo.value)

    def test_int64_extremes_accepted(self, tmp_path):
        parsed = parse_edge_list(write(tmp_path, f"{-2**63} 0\n0 {2**63 - 1}\n"))
        assert (parsed.meta["id_min"], parsed.meta["id_max"]) == (-2**63, 2**63 - 1)
        assert parsed.edges.tolist() == [[0, 1], [1, 2]]

    def test_bare_carriage_returns_end_lines(self, tmp_path):
        path = tmp_path / "mac.txt"
        path.write_bytes(b"# old Mac line ends\r0 1\r1 2\r2 0\r")
        parsed = parse_edge_list(path)
        assert parsed.edges.tolist() == [[0, 1], [1, 2], [2, 0]]
        assert parsed.lines.tolist() == [2, 3, 4]


# --------------------------------------------------------------------------- #
# The regular fast path against the per-line loop
# --------------------------------------------------------------------------- #


def outcome(parse):
    """A parse's result, or its error's message and line."""
    try:
        return parse()
    except GraphFormatError as exc:
        return ("GraphFormatError", str(exc), exc.line)


def assert_same_parse(got, want):
    assert isinstance(got, type(want))
    if not isinstance(want, ParsedEdgeList):
        assert got == want
        return
    assert got.n == want.n and type(got.n) is int
    assert got.edges.dtype == want.edges.dtype and got.edges.shape == want.edges.shape
    assert np.array_equal(got.edges, want.edges)
    assert got.lines.dtype == want.lines.dtype and np.array_equal(got.lines, want.lines)
    assert got.meta == want.meta
    assert [type(v) for v in got.meta.values()] == [type(v) for v in want.meta.values()]


def write_bytes(tmp_path, data, name="edges.txt"):
    path = tmp_path / name
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    return path


_NOT_INT64 = [str(10**19 + 7), str(2**63), str(-2**63 - 1), "0" * 19 + "5"]


@st.composite
def dialect_files(draw):
    """``(file name, bytes)`` in the dialects the parser meets, regular or not.

    Every irregularity is one unlikely draw, so about a third of the files
    stay regular and take the fast path.
    """
    rare = st.integers(0, 11).map(lambda x: x == 0)
    sep = draw(st.sampled_from([" ", "\t", ",", ";", ", ", " \t", "  "]))
    width = draw(st.integers(2, 4))
    extra = draw(st.sampled_from(["int", "int", "int", "int", "float", "word"]))
    signed, zeros, huge, loops, pad = (draw(rare) for _ in range(5))
    high = draw(st.sampled_from([3, 40, 10**6, 10**17]))

    def token(value):
        text = str(value)
        if signed and value >= 0 and draw(st.booleans()):
            text = "+" + text
        if zeros and draw(st.booleans()):
            text = "00" + text
        return text

    def data_line():
        u = draw(st.integers(-high if signed else 0, high))
        v = u if loops and draw(rare) else draw(st.integers(-high if signed else 0, high))
        if v == u and not loops:
            v += 1
        fields = [token(u), token(v)]
        if huge and draw(rare):
            fields[draw(st.integers(0, 1))] = draw(st.sampled_from(_NOT_INT64))
        for _ in range(width - 2):
            fields.append({"int": token(draw(st.integers(0, 99))),
                           "float": "0.25", "word": "w"}[extra])
        text = sep.join(fields)
        return f" {text}\t" if pad and draw(rare) else text

    preamble = draw(st.lists(st.sampled_from(
        ["# comment", "% comment", "// comment", "", "   ", "#"]), max_size=3))
    header = draw(st.sampled_from([None, None, "source,target", "FromNodeId\tToNodeId",
                                   "u v weight", "a b", "1 x"]))
    if header is not None:
        preamble.insert(draw(st.integers(0, len(preamble))), header)
        if draw(rare):
            preamble.append("second header")
    body = [data_line() for _ in range(draw(st.integers(0, 12)))]
    if body and draw(rare):  # one irregular line mid-file
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(
            ["# mid-file comment", "", "  ", "5", "a b", "1 2 3 4 5", "1-2 3",
             "- 3", "+ 3", "1 2 \u00e9", "3;;4", ",,", "7 8 9"])))
    lines = preamble + body
    newline = draw(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    if draw(rare):
        text += draw(st.sampled_from(["\n\n", "  \n", "\r\n\r\n", "\n\r"]))
    data = text.encode("utf-8")
    if draw(rare):
        data += b"3 4\xff\n"
    name = draw(st.sampled_from(["edges.txt", "edges.txt", "edges.csv", "edges.txt.gz"]))
    return name, data


@settings(max_examples=300, deadline=None)
@given(case=dialect_files(), drop_self_loops=st.booleans())
def test_fast_path_equals_loop(tmp_path_factory, case, drop_self_loops):
    name, data = case
    path = write_bytes(tmp_path_factory.mktemp("dialect"), data, name)
    loop = outcome(lambda: _parse_lines(path, drop_self_loops))
    fast = _parse_regular(path)
    if fast is not None:
        assert_same_parse(fast, loop)
    assert_same_parse(outcome(lambda: parse_edge_list(path, drop_self_loops)), loop)


@pytest.mark.parametrize("name,data", [
    ("snap.txt", b"# Nodes: 4\n# FromNodeId\tToNodeId\n1\t2\n2\t3\n4\t1\n"),
    ("e.csv", b"source,target\r\n0,1\r\n1,2\r\n"),
    ("e.txt", b"\n% konect\n\n 3;7;1\n7;5;-2\n5;3;0"),
    ("e.txt", b"-3 +4 9\n4 -3 8\n\n\n"),
    ("e.txt.gz", b"u v\n10 20\n20 900\n"),
    ("e.txt", b"0 999999999999999999\n-999999999999999999 0\n"),
])
def test_regular_files_take_the_fast_path(tmp_path, name, data):
    path = write_bytes(tmp_path, data, name)
    fast = _parse_regular(path)
    assert fast is not None
    assert_same_parse(fast, _parse_lines(path, False))


@pytest.mark.parametrize("data", [
    b"0 1\r1 2\r",                      # bare \r ends a line
    b"0 1\n# note\n1 2\n",              # comment after the first data line
    b"0 1\n\n1 2\n",                    # blank line after the first data line
    b"0 1 2\n1 2\n",                    # ragged columns
    b"0 1 0.5\n1 2 0.5\n",              # non-numeric extra column
    b"0 1\n1 1\n",                      # self loop
    b"0 1\n1 2 \xc3\xa9\n",             # non-ASCII
    b"0 1\n1-2 3\n",                    # sign inside a token
    b"0 1\n- 2\n",                      # lone sign
    b"0 1\n2 1000000000000000000\n",    # 19 digits
    b"a b\nc d\n0 1\n",                 # a second header
    b"7\n",                             # one field
])
def test_irregular_files_fall_back_to_the_loop(tmp_path, data):
    assert _parse_regular(write_bytes(tmp_path, data)) is None


def test_vendored_corpus_takes_the_fast_path():
    from repro.corpus import corpus_specs

    specs = corpus_specs()
    assert len(specs) == 5
    for entry, spec in specs:
        fast = _parse_regular(pathlib.Path(spec.path))
        assert fast is not None, f"{entry.name} fell back to the per-line loop"
        assert_same_parse(fast, _parse_lines(pathlib.Path(spec.path), False))


@pytest.mark.parametrize("low,high,size", [
    (0, 10, 30), (5, 50, 100), (-40, 40, 60), (0, 10**12, 50), (-10**18, 10**18, 20),
    (-2**63, 2**63 - 1, 10),
])
def test_relabel_bitmap_and_unique_agree(low, high, size):
    rng = np.random.default_rng(size)
    raw = rng.integers(low, high, size=(size, 2), endpoint=True)
    raw[0] = (low, high)
    edges, n, id_min, id_max = _relabel(raw)
    ids = np.unique(raw)
    assert edges.dtype == np.int64
    assert np.array_equal(edges, np.searchsorted(ids, raw))
    assert (n, id_min, id_max) == (ids.size, low, high)


# --------------------------------------------------------------------------- #
# GraphFormatError out of Graph.from_edge_array (satellite: typed errors)
# --------------------------------------------------------------------------- #


class TestGraphFormatError:
    def test_self_loop_names_edge_index(self):
        with pytest.raises(GraphFormatError) as excinfo:
            Graph.from_edge_array(3, np.array([[0, 1], [2, 2]]))
        assert excinfo.value.index == 1
        assert "self loop" in str(excinfo.value)

    def test_out_of_range_names_edge(self):
        with pytest.raises(GraphFormatError) as excinfo:
            Graph.from_edge_array(2, np.array([[0, 1], [1, 5]]))
        assert excinfo.value.index == 1

    def test_non_integral_float_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edge_array(3, np.array([[0.0, 1.5], [1.0, 2.0]]))

    def test_integral_float_accepted(self):
        graph = Graph.from_edge_array(3, np.array([[0.0, 1.0], [1.0, 2.0]]))
        assert graph.n == 3

    def test_string_edges_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph.from_edge_array(2, [["a", "b"]])

    def test_is_a_graph_error(self):
        assert issubclass(GraphFormatError, GraphError)


# --------------------------------------------------------------------------- #
# Property: edge list -> CSR -> edge list round-trip
# --------------------------------------------------------------------------- #


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    count = draw(st.integers(min_value=1, max_value=min(len(pool), 40)))
    return draw(st.permutations(pool)), count


@settings(max_examples=40, deadline=None)
@given(data=edge_lists(), one_indexed=st.booleans(), list_both=st.booleans())
def test_roundtrip_edge_list_csr_edge_list(tmp_path_factory, data, one_indexed, list_both):
    pool, count = data
    edges = sorted(pool[:count])
    offset = 1 if one_indexed else 0
    lines = [f"{u + offset} {v + offset}" for u, v in edges]
    if list_both:
        lines += [f"{v + offset} {u + offset}" for u, v in edges]
    tmp = tmp_path_factory.mktemp("roundtrip")
    path = tmp / "edges.txt"
    path.write_text("\n".join(lines) + "\n")

    graph, _meta = build_graph(parse_edge_list(path))
    # CSR -> edge list: every adjacency appears exactly once per direction
    recovered = set()
    indptr = np.asarray(graph.indptr)
    indices = np.asarray(graph.indices)
    for u in range(graph.n):
        for v in indices[indptr[u]:indptr[u + 1]].tolist():
            recovered.add((min(u, v), max(u, v)))
    # relabel the written edges the way ingestion does (dense, order-preserving)
    used = sorted({x for e in edges for x in e})
    relabel = {old: new for new, old in enumerate(used)}
    expected = {(relabel[u], relabel[v]) for u, v in edges}
    assert recovered == expected
    assert graph.n == len(used)


# --------------------------------------------------------------------------- #
# The content-addressed cache
# --------------------------------------------------------------------------- #


class TestCache:
    def test_second_ingest_hits_cache(self, tmp_path):
        path = write(tmp_path, "0 1\n1 2\n")
        first = ingest(path)
        second = ingest(path)
        assert first.cached is False and second.cached is True
        assert first.digest == second.digest

    def test_cache_hit_is_byte_identical(self, tmp_path):
        path = write(tmp_path, "0 1\n1 2\n2 3\n1 3\n")
        first = ingest(path)
        artifact = cache.artifact_path(first.digest)
        before = artifact.read_bytes()
        second = ingest(path)
        assert artifact.read_bytes() == before
        for field in ("indptr", "indices"):
            np.testing.assert_array_equal(
                np.asarray(getattr(first.graph, field)),
                np.asarray(getattr(second.graph, field)),
            )

    def test_content_addressing_follows_bytes(self, tmp_path):
        a = write(tmp_path, "0 1\n1 2\n", "a.txt")
        b = write(tmp_path, "0 1\n1 2\n", "b.txt")
        c = write(tmp_path, "0 1\n1 2\n2 3\n", "c.txt")
        assert ingest(a).digest == ingest(b).digest
        assert ingest(a).digest != ingest(c).digest
        assert ingest(b).cached is True  # same bytes, different name: cache hit

    def test_cached_load_is_mmap_backed(self, tmp_path):
        path = write(tmp_path, "\n".join(f"{i} {i+1}" for i in range(200)) + "\n")
        digest = ingest(path).digest
        loaded = cache.load(digest)
        assert loaded is not None
        graph, _meta = loaded
        assert isinstance(np.asarray(graph.indptr).base, np.memmap) or isinstance(
            graph.indptr, np.memmap
        )

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        path = write(tmp_path, "0 1\n1 2\n")
        digest = ingest(path).digest
        cache.artifact_path(digest).write_bytes(b"not a zip file")
        assert cache.load(digest) is None
        again = ingest(path)  # falls back to a re-parse and re-store
        assert again.cached is False
        assert again.graph.n == 3

    def test_use_cache_false_forces_cold_parse(self, tmp_path):
        path = write(tmp_path, "0 1\n")
        ingest(path)
        again = ingest(path, use_cache=False)  # hit available, but skipped
        assert again.cached is False
        assert cache.artifact_path(again.digest).exists()  # entry refreshed


# --------------------------------------------------------------------------- #
# file_spec / load_file_graph / graph_info
# --------------------------------------------------------------------------- #


class TestFileSpec:
    def test_spec_records_measured_shape(self, tmp_path):
        path = write(tmp_path, "0 1\n1 2\n2 0\n0 3\n")
        spec = file_spec(path)
        assert (spec.family, spec.n, spec.delta, spec.seed) == ("file", 4, 3, 0)
        graph = load_file_graph(spec)
        assert graph.n == 4

    def test_drifted_file_is_rejected(self, tmp_path):
        path = write(tmp_path, "0 1\n1 2\n")
        spec = file_spec(path)
        path.write_text("0 1\n1 2\n2 3\n3 4\n")  # the file changes under the spec
        with pytest.raises(GraphError, match="does not match its spec"):
            load_file_graph(spec)

    def test_pathless_file_spec_rejected(self, tmp_path):
        from repro.engine.batch import GraphSpec

        with pytest.raises(GraphError, match="no path"):
            load_file_graph(GraphSpec("file", 4, 2, 0))

    def test_graph_info_facts(self, tmp_path):
        path = write(tmp_path, "0 1\n1 2\n3 4\n")
        info = graph_info(ingest(path).graph)
        assert info["n"] == 5
        assert info["m"] == 3
        assert info["delta"] == 2
        assert info["components"] == 2
        assert info["degree_histogram"] == {1: 4, 2: 1}
