"""Edge-list ingestion: on-disk graph files -> :class:`~repro.congest.graph.Graph`.

Real-world graph files (SNAP exports, Konect dumps, CSV edge tables) are
messy: comment lines (``#``, ``%``, ``//``), a header row naming the columns,
whitespace *or* comma separated fields, extra columns (weights, timestamps),
0- or 1-based (or entirely arbitrary, gappy) vertex ids, duplicate edges in
either orientation.  :func:`parse_edge_list` tolerates all of that and fails
*loudly* on anything genuinely malformed — a self loop, an unparseable token,
a one-column line, an id outside the int64 range — with a
:class:`~repro.congest.graph.GraphFormatError` naming the offending source
line.

Most files are *regular*, and those are parsed in one numpy pass over the
file's bytes (:func:`_parse_regular`): the file is ASCII with no bare ``\r``;
comment lines and at most one header come only before the first data line,
and blank lines only before it or after the last one; the body holds only
digits, ``+``/``-`` at the start of a token, spaces, tabs, ``,``, ``;`` and
line ends; no token has more than 18 digits; every data line has the same
number of fields (at least 2); and there is no self loop.  One
``np.fromstring`` call tokenizes the body.  Any other file — and any file
holding an error — goes through the per-line loop (:func:`_parse_lines`),
which names the line of every error.  Both paths return equal
:class:`ParsedEdgeList` values, so which one ran is invisible to callers.

The parse result keeps per-edge line provenance (``lines[i]`` is the 1-based
source line of raw edge ``i``), so every downstream rejection can point back
into the file.  Vertex ids are relabelled to ``0..n-1`` in sorted order
(which is the identity for an already-contiguous 0-based file), and the
relabelled edges go through :meth:`Graph.from_edge_array`, the canonical
validating CSR constructor — duplicates collapse there.

:func:`ingest` wraps the parser with the content-addressed CSR cache
(:mod:`repro.corpus.cache`): the first ingest of a file parses and caches,
every later ingest of byte-identical content loads the cached ``.npz``
artifact (mmap-friendly) without touching the text at all.
"""

from __future__ import annotations

import gzip
import io
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.congest.graph import Graph, GraphFormatError

__all__ = ["ParsedEdgeList", "CorpusGraph", "parse_edge_list", "ingest"]

#: Line prefixes treated as comments (SNAP ``#``, Matrix-Market ``%``, C ``//``).
COMMENT_PREFIXES = ("#", "%", "//")

#: Field separators normalized to whitespace before splitting.
_SEPARATORS = (",", ";")

#: Every byte a regular file's body may hold.
_BODY_BYTES = b"0123456789+- \t,;\r\n"

#: Separators of a regular body mapped to spaces (in a regular body every
#: ``\r`` is part of a ``\r\n``).
_TO_SPACE = bytes.maketrans(b"\t,;\r", b"    ")

#: The most digits a token of a regular body may have: such an id always
#: fits int64, while ``np.fromstring`` silently clamps a larger one.
_MAX_DIGITS = 18

#: Relabel through a presence bitmap while the id range is at most this many
#: times the endpoint count.
_DENSE_FACTOR = 4

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ParsedEdgeList:
    """The raw parse of one edge-list file, before CSR construction.

    ``edges`` are the *relabelled* ``(m_raw, 2)`` endpoint pairs (vertex ids
    ``0..n-1``, duplicates still present); ``lines[i]`` is the 1-based source
    line of ``edges[i]``; ``meta`` records what the parser saw (raw id range,
    comment/header/blank counts, dropped self loops).
    """

    n: int
    edges: np.ndarray
    lines: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CorpusGraph:
    """An ingested on-disk graph: the CSR graph plus its provenance.

    ``digest`` is the full SHA-256 of the source file's bytes — the cache key
    and the content identity :func:`repro.api.spec.spec_hash` pins for
    ``family="file"`` graph specs.  ``cached`` tells whether this load came
    from the ``.npz`` artifact (warm) or parsed the text (cold).
    """

    path: str
    digest: str
    graph: Graph
    meta: dict[str, Any]
    cached: bool


def _open_text(path: pathlib.Path) -> io.TextIOBase:
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", errors="replace")
    return open(path, "r", encoding="utf-8", errors="replace")


def _read_bytes(path: pathlib.Path) -> bytes:
    if path.suffix == ".gz":
        with gzip.open(path, "rb") as handle:
            return handle.read()
    return path.read_bytes()


def _split_fields(text: str) -> list[str]:
    for sep in _SEPARATORS:
        if sep in text:
            text = text.replace(sep, " ")
    return text.split()


def _looks_like_header(fields: list[str]) -> bool:
    """A non-numeric first data row (``source,target`` / ``FromNodeId ToNodeId``)."""
    def numeric(tok: str) -> bool:
        try:
            int(tok)
        except ValueError:
            return False
        return True

    return bool(fields) and not all(numeric(tok) for tok in fields[:2])


def parse_edge_list(
    path: str | pathlib.Path,
    drop_self_loops: bool = False,
) -> ParsedEdgeList:
    """Parse an on-disk edge list into relabelled endpoint pairs.

    Parameters
    ----------
    path:
        A ``.txt`` / ``.csv`` / ``.edges`` file, optionally ``.gz``-compressed
        (by suffix).  Each data line contributes one edge: its first two
        fields are the endpoints; extra fields (weights, timestamps) are
        ignored.
    drop_self_loops:
        Real-world exports sometimes contain ``u u`` rows.  By default they
        raise a :class:`GraphFormatError` naming the line; with
        ``drop_self_loops=True`` they are dropped and counted in
        ``meta["self_loops_dropped"]``.

    Raises
    ------
    GraphFormatError
        On an unparseable token, a one-field line or an id outside the int64
        range (always naming the 1-based source line), or on a self loop
        unless ``drop_self_loops``.
    """
    path = pathlib.Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"edge-list file not found: {path}")
    parsed = _parse_regular(path)
    if parsed is None:
        parsed = _parse_lines(path, drop_self_loops)
    return parsed


def _parse_regular(path: pathlib.Path) -> ParsedEdgeList | None:
    """The parse of a regular file (see the module docstring), in one numpy
    pass over its bytes; ``None`` when the file is not regular."""
    try:
        data = _read_bytes(path)
    except (OSError, EOFError, zlib.error):
        return None  # the loop raises the same error where it reaches it
    if not data.isascii() or data.count(b"\r") != data.count(b"\r\n"):
        return None
    # The preamble, read line by line exactly as the loop reads it.
    pos = lineno = comments = 0
    header = False
    while pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        lineno += 1
        text = data[pos:end].decode("ascii").strip()
        if text.startswith(COMMENT_PREFIXES):
            comments += 1
        elif text:
            if header or not _looks_like_header(_split_fields(text)):
                break
            header = True
        pos = end + 1
    else:
        return None  # no data line
    # Trailing blank lines and whitespace hold no tokens; drop them.
    end = len(data)
    while end > pos and data[end - 1] in b" \t\r\n":
        end -= 1
    body = data[pos:end]
    if body.translate(None, _BODY_BYTES):
        return None
    body = body.translate(_TO_SPACE)
    codes = np.frombuffer(body, dtype=np.uint8)
    token = np.zeros(codes.size + 2, dtype=np.int8)
    token[1:-1] = codes > 32  # digits and signs
    step = np.diff(token)
    bounds = np.flatnonzero(step)  # alternately a token's first byte and one past its last
    starts, stops = bounds[0::2], bounds[1::2]
    breaks = np.flatnonzero(codes == 10)
    rows = breaks.size + 1
    width = starts.size // rows
    if width < 2 or starts.size != rows * width:
        return None
    if body.count(b"+") or body.count(b"-"):
        signs = np.flatnonzero((codes == 43) | (codes == 45))
        # A sign must open a token and be followed by more of it.
        if (step[signs] != 1).any() or not token[signs + 2].all():
            return None
    lengths = stops - starts
    if lengths.max() > _MAX_DIGITS:
        digits = lengths - (codes[starts] < 48)  # a sign is no digit
        if digits.max() > _MAX_DIGITS:
            return None
    # Line i holds tokens i*width .. (i+1)*width-1 iff every line end falls
    # between the last token of one line and the first of the next.
    if not ((stops[width - 1::width][:-1] <= breaks).all()
            and (starts[width::width] > breaks).all()):
        return None
    values = np.fromstring(body, dtype=np.int64, sep=" ")
    if values.size != starts.size:
        return None
    pairs = values.reshape(rows, width)[:, :2]
    if (pairs[:, 0] == pairs[:, 1]).any():
        return None  # the loop names the self loop's line or drops it
    lines = np.arange(lineno, lineno + rows, dtype=np.int64)
    return _finish(path, pairs, lines, header, comments, 0)


def _parse_lines(path: pathlib.Path, drop_self_loops: bool) -> ParsedEdgeList:
    """The per-line parse of any file; names the line of every error."""
    pairs: list[tuple[int, int]] = []
    linenos: list[int] = []
    comments = 0
    self_loops = 0
    header_skipped = False
    first_data = True
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith(COMMENT_PREFIXES):
                comments += 1
                continue
            fields = _split_fields(text)
            if first_data and _looks_like_header(fields):
                # Tolerate exactly one header row naming the columns.
                first_data = False
                header_skipped = True
                continue
            first_data = False
            if len(fields) < 2:
                raise GraphFormatError(
                    f"{path.name}:{lineno}: expected two endpoint fields, "
                    f"got {text!r}", line=lineno,
                )
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path.name}:{lineno}: unparseable edge endpoints in "
                    f"{text!r}", line=lineno,
                ) from None
            if not (_INT64_MIN <= u <= _INT64_MAX and _INT64_MIN <= v <= _INT64_MAX):
                raise GraphFormatError(
                    f"{path.name}:{lineno}: vertex id outside the int64 range "
                    f"in {text!r}", line=lineno,
                )
            if u == v:
                if drop_self_loops:
                    self_loops += 1
                    continue
                raise GraphFormatError(
                    f"{path.name}:{lineno}: self loop on vertex {u} "
                    "(pass drop_self_loops=True to skip such rows)",
                    edge=(u, v), line=lineno,
                )
            pairs.append((u, v))
            linenos.append(lineno)

    if not pairs:
        raise GraphFormatError(
            f"{path.name}: no edges found (only comments/blank lines)"
        )
    raw_edges = np.array(pairs, dtype=np.int64)
    lines = np.array(linenos, dtype=np.int64)
    return _finish(path, raw_edges, lines, header_skipped, comments, self_loops)


def _finish(path: pathlib.Path, raw_edges: np.ndarray, lines: np.ndarray,
            header_skipped: bool, comments: int, self_loops: int) -> ParsedEdgeList:
    """Relabel the raw endpoint pairs and record what the parser saw."""
    edges, n, id_min, id_max = _relabel(raw_edges)
    meta = {
        "format": "csv" if ".csv" in path.suffixes else "txt",
        "compressed": path.suffix == ".gz",
        "header_skipped": header_skipped,
        "comment_lines": comments,
        "edges_raw": int(edges.shape[0]),
        "self_loops_dropped": self_loops,
        "id_min": id_min,
        "id_max": id_max,
        # identity mapping for contiguous 0-based ids
        "relabelled": not (id_min == 0 and id_max == n - 1),
    }
    return ParsedEdgeList(n=n, edges=edges, lines=lines, meta=meta)


def _relabel(raw_edges: np.ndarray) -> tuple[np.ndarray, int, int, int]:
    """Map the ids to ``0..n-1`` in sorted order: ``(edges, n, id_min, id_max)``.

    A presence bitmap plus ``cumsum`` when the id range is within
    :data:`_DENSE_FACTOR` times the endpoint count, else ``np.unique`` +
    ``searchsorted``; both give the same edges.
    """
    id_min, id_max = int(raw_edges.min()), int(raw_edges.max())
    if id_max - id_min < _DENSE_FACTOR * raw_edges.size:
        offsets = raw_edges - id_min
        present = np.zeros(id_max - id_min + 1, dtype=bool)
        present[offsets] = True
        rank = np.cumsum(present, dtype=np.int64)
        return rank[offsets] - 1, int(rank[-1]), id_min, id_max
    ids = np.unique(raw_edges)
    return np.searchsorted(ids, raw_edges), int(ids.size), id_min, id_max


def build_graph(parsed: ParsedEdgeList) -> tuple[Graph, dict[str, Any]]:
    """CSR-construct the parsed edges; return the graph and enriched meta.

    Duplicate edges (either orientation) collapse inside
    :meth:`Graph.from_edge_array`; the number collapsed is recorded in
    ``meta["duplicate_edges"]``.  A :class:`GraphFormatError` raised by the
    constructor is re-raised with the offending *source line* attached (the
    parser's per-edge line map makes the translation exact).
    """
    try:
        graph = Graph.from_edge_array(parsed.n, parsed.edges)
    except GraphFormatError as exc:
        if exc.index is not None and exc.index < parsed.lines.size:
            line = int(parsed.lines[exc.index])
            raise GraphFormatError(
                f"line {line}: {exc}", edge=exc.edge, index=exc.index, line=line
            ) from None
        raise
    meta = dict(parsed.meta)
    meta.update(
        n=graph.n,
        m=graph.num_edges,
        delta=graph.max_degree,
        duplicate_edges=int(parsed.edges.shape[0] - graph.num_edges),
    )
    return graph, meta


def ingest(
    path: str | pathlib.Path,
    cache_dir: str | pathlib.Path | None = None,
    use_cache: bool = True,
    drop_self_loops: bool = False,
) -> CorpusGraph:
    """Load an on-disk edge list as a :class:`Graph`, through the CSR cache.

    The cache (:mod:`repro.corpus.cache`) is keyed by the SHA-256 of the
    file's bytes: a warm load memory-maps the stored ``.npz`` CSR arrays and
    never re-parses the text; editing the file changes the digest and misses
    the cache naturally.  ``use_cache=False`` forces a cold parse (and still
    refreshes the cache entry).
    """
    from repro.corpus import cache

    path = pathlib.Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"edge-list file not found: {path}")
    digest = cache.file_digest(path)
    root = cache.cache_root(cache_dir)
    if use_cache:
        hit = cache.load(digest, root)
        if hit is not None:
            graph, meta = hit
            return CorpusGraph(path=str(path), digest=digest, graph=graph,
                               meta=meta, cached=True)
    parsed = parse_edge_list(path, drop_self_loops=drop_self_loops)
    graph, meta = build_graph(parsed)
    meta["source"] = path.name
    cache.store(digest, graph, meta, root)
    return CorpusGraph(path=str(path), digest=digest, graph=graph, meta=meta,
                       cached=False)
