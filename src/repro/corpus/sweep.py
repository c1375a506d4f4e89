"""The corpus sweep: the algorithm zoo over real graphs, independently verified.

``repro corpus`` runs every registered algorithm (that is runnable with its
default parameters) over every vendored corpus graph — one
:class:`~repro.engine.batch.BatchRunner` sweep whose cells are
``(file graph) x (zoo entry)``, so workers, retry policy, sharding, sinks and
parity checking are all inherited from the engine layer unchanged.

Each cell executes :func:`corpus_task`: the registered runner produces its
structure, then the cell *independently re-verifies it* with
:mod:`repro.verify` — proper coloring (or bounded defect), color count
against the guarantee's hard bounds (``Delta+1`` for the main pipeline),
independence + domination for ruling sets — and the record carries the
verification verdict.  Verification failure raises, so a corpus sweep can
never quietly report an invalid structure.

:func:`summarize` folds the records into the per-graph summary artifact
(markdown + JSON): colors used vs ``Delta+1``, rounds vs the ``log* n``
benchmark of the paper's round bounds, verification status.  Both renderings
are **deterministic** — wall-clock fields are excluded — so two sweeps of one
corpus produce byte-identical artifacts (the acceptance bar the golden smoke
test pins).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping, Sequence

from repro.analysis.bounds import log_star
from repro.analysis.tables import Table

__all__ = ["corpus_task", "default_zoo", "run_corpus_sweep", "summarize"]


def default_zoo() -> list[dict[str, Any]]:
    """The sweep's params grid: one entry per default-runnable registry algorithm.

    Every registered algorithm whose parameters all carry defaults is swept
    with exactly those defaults — a newly registered algorithm joins the
    corpus sweep automatically, and algorithms with required free parameters
    (``baseline``, ``one_round_tightness``) are left to explicit
    ``--algorithms`` selection.
    """
    from repro.api.registry import algorithm_specs

    zoo = []
    for spec in algorithm_specs():
        if any(param.required for param in spec.params):
            continue
        zoo.append({"algorithm": spec.name})
    return zoo


def _verify_cell(graph, algorithm: str, params: Mapping[str, Any],
                 record: Mapping[str, Any], artifacts: Mapping[str, Any]) -> dict[str, Any]:
    """Re-check the cell's output with :mod:`repro.verify`; return verdict fields.

    This is deliberately *independent* of the runners' own assertions: it
    goes straight from the artifacts (the actual coloring / ruling set) to
    the graph, through the verify subpackage — the validators are first-class
    artifacts of the reproduction, and the corpus sweep exercises them on
    every real-graph output.
    """
    from repro import verify
    from repro.api.registry import get_algorithm

    spec = get_algorithm(algorithm)

    def param_value(name: str, fallback):
        # explicit params win; otherwise the schema default the runner used
        if name in params:
            return params[name]
        for p in spec.params:
            if p.name == name and not p.required:
                return p.default
        return fallback

    delta = max(1, graph.max_degree)
    fields: dict[str, Any] = {}
    if spec.output == "ruling set":
        vertices = artifacts["_vertices"]
        r = int(param_value("r", 2))
        verify.assert_ruling_set(graph, vertices, r)
        fields["proper"] = True  # independence is the ruling-set analogue
    else:
        colors = artifacts["_colors"]
        d = int(param_value("d", 0)) if "max defect" in record else 0
        if "_orientation" in artifacts:
            # beta-outdegree coloring: monochromatic edges are allowed, but
            # the exported orientation must cover them with outdegree <= beta
            beta = int(param_value("beta", 1))
            verify.assert_outdegree_orientation(graph, colors, artifacts["_orientation"], beta)
            fields["proper"] = bool(verify.max_defect(graph, colors) == 0)
        elif d > 0:
            verify.assert_defective_coloring(graph, colors, d)
            fields["proper"] = bool(verify.max_defect(graph, colors) == 0)
        else:
            verify.assert_proper_coloring(graph, colors)
            fields["proper"] = True
        fields["colors verified"] = int(verify.count_colors(graph, colors))
        if algorithm == "delta_plus_one":
            verify.assert_proper_coloring(graph, colors, max_colors=delta + 1)
    if "colors verified" in fields:
        fields["within delta plus one"] = fields["colors verified"] <= delta + 1
    fields["verified"] = True
    return fields


def corpus_task(workload, engine, algorithm: str = "delta_plus_one", **params):
    """One corpus cell: run a registered algorithm, then independently verify.

    A module-level importable callable, so parallel workers resolve it by
    reference and a sharded / multi-worker corpus sweep behaves exactly like
    any other BatchRunner task.  The returned record extends the algorithm's
    own measurements with the verification verdict and the ``log* n``
    benchmark the summary compares round counts against.
    """
    from repro.api.registry import get_algorithm

    spec = get_algorithm(algorithm)
    clean = spec.validate_params(dict(params))
    raw = spec.runner(workload, engine, **clean)
    record = {k: v for k, v in raw.items() if not k.startswith("_")}
    artifacts = {k: v for k, v in raw.items() if k.startswith("_")}
    verdict = _verify_cell(workload.graph, algorithm, clean, record, artifacts)
    out = dict(raw)
    out.update(verdict)
    out["log star n"] = int(log_star(max(1, workload.graph.n)))
    return out


def run_corpus_sweep(
    specs: Sequence,
    zoo: Sequence[Mapping[str, Any]] | None = None,
    backend: str = "array",
    workers: int = 1,
    parity_check: bool = False,
    retry=None,
    shard: tuple[int, int] | None = None,
    sink=None,
    progress=None,
):
    """Sweep the zoo over ``specs`` (file-family GraphSpecs) through BatchRunner."""
    from repro.engine.batch import BatchRunner

    runner = BatchRunner(backend=backend, parity_check=parity_check,
                         workers=workers, retry=retry)
    grid = [dict(entry) for entry in (zoo if zoo is not None else default_zoo())]
    return runner.run(corpus_task, list(specs), params_grid=grid, sink=sink,
                      shard=shard, progress=progress)


# --------------------------------------------------------------------------- #
# The summary artifact
# --------------------------------------------------------------------------- #

#: Record keys excluded from the deterministic summary (wall-clock noise).
_NONDETERMINISTIC = ("seconds",)

SUMMARY_SCHEMA = 1


def _clean_record(record: Mapping[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in record.items() if k not in _NONDETERMINISTIC}


def summarize(entries, result, backend: str = "array") -> dict[str, Any]:
    """Fold sweep records into the summary document (the JSON artifact).

    ``entries`` are the :class:`~repro.corpus.vendor.CorpusEntry` objects the
    sweep covered (manifest order); ``result`` the
    :class:`~repro.engine.batch.BatchResult`.  Deterministic by construction:
    record order is grid order, wall-clock fields are dropped, and the
    per-graph rollup depends only on record values.  Cells are matched to
    manifest entries by the record's ``path`` (the spec path the sweep ran)
    and annotated with the entry's short ``graph`` name for readability.
    """
    name_of = {str(entry.path): entry.name for entry in entries}
    cells = []
    for record in result.records:
        cell = _clean_record(record)
        name = name_of.get(str(cell.get("path", "")))
        if name is not None:
            cell["graph"] = name
        if "path" in cell:
            # keep the summary checkout-relocatable (golden-comparable)
            cell["path"] = pathlib.Path(cell["path"]).name
        cells.append(cell)
    graphs = []
    for entry in entries:
        mine = [c for c in cells if c.get("graph") == entry.name]
        verified = all(c.get("verified") is True for c in mine) and bool(mine)
        failed = [c for c in mine if "error" in c]
        graphs.append({
            "name": entry.name,
            "kind": entry.kind,
            "n": entry.n,
            "m": entry.m,
            "delta": entry.delta,
            "log_star_n": int(log_star(max(1, entry.n))),
            "cells": len(mine),
            "verified": verified and not failed,
            "failed_cells": len(failed),
        })
    return {
        "schema": SUMMARY_SCHEMA,
        "backend": backend,
        "graphs": graphs,
        "cells": cells,
    }


def render_summary(summary: Mapping[str, Any]) -> str:
    """The markdown rendering of :func:`summarize`'s document."""
    graph_table = Table(
        f"corpus sweep — {len(summary['graphs'])} graph(s), "
        f"{len(summary['cells'])} cell(s), backend {summary['backend']}",
        ["graph", "kind", "n", "m", "Delta", "log* n", "cells", "all verified"],
    )
    for g in summary["graphs"]:
        graph_table.add_row(g["name"], g["kind"], g["n"], g["m"], g["delta"],
                            g["log_star_n"], g["cells"],
                            "yes" if g["verified"] else "NO")
    cell_table = Table(
        "per-cell results (colors vs Delta+1, rounds vs log* n)",
        ["graph", "algorithm", "colors", "Delta+1", "<=Delta+1", "rounds",
         "log* n", "verified"],
    )
    for c in summary["cells"]:
        if "error" in c:
            err = c.get("error") or {}
            cell_table.add_row(c.get("graph", "?"), c.get("algorithm", "?"),
                               "—", "—", "—", "—", "—",
                               f"FAILED [{err.get('kind', '?')}]")
            continue
        colors = c.get("colors verified", c.get("colors used"))
        if colors is None:
            delta_plus_one, colors, within = "—", "—", "—"  # ruling sets
        else:
            delta_plus_one = int(c.get("Delta", 0)) + 1
            within = "yes" if c.get("within delta plus one") else "no"
        cell_table.add_row(
            c.get("graph", "?"), c.get("algorithm", "?"), colors, delta_plus_one,
            within, c.get("rounds", "—"), c.get("log star n", "—"),
            "yes" if c.get("verified") else "NO",
        )
    cell_table.add_note("every cell independently re-verified with repro.verify "
                        "(proper/defective coloring, ruling-set domination)")
    cell_table.add_note("'<=Delta+1' is a hard guarantee only for delta_plus_one; "
                        "for the other algorithms it situates their trade-off")
    return graph_table.render() + "\n\n" + cell_table.render()


def write_summary(
    summary: Mapping[str, Any], output_dir: str | pathlib.Path
) -> tuple[pathlib.Path, pathlib.Path]:
    """Write ``corpus_summary.{json,md}`` under ``output_dir``; return the paths."""
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "corpus_summary.json"
    md_path = out / "corpus_summary.md"
    json_path.write_text(
        json.dumps(summary, sort_keys=True, indent=1, default=_jsonable) + "\n",
        encoding="utf-8",
    )
    md_path.write_text(render_summary(summary) + "\n", encoding="utf-8")
    return json_path, md_path


def _jsonable(value: Any) -> Any:
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"value {value!r} is not JSON-serializable")
