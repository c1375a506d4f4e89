"""One fresh benchmark process for ``big_graph`` or ``sweep``.

``python3 -m perfbench.child --workload W --plan plan.json --out result.json
[--seconds S | --probe]`` imports the package, resolves the engines (jit
warm-up against the empty ``REPRO_JIT_CACHE`` the harness provides), fills
the vendored-corpus cache for ``sweep``, and prints ``{"ready": <monotonic
time>}`` on stdout: that is the end of set-up.  A probe exits there; a
measured run then repeats the workload's ops until ``--seconds`` have passed
and writes every op's timing and check outcome to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import platform
import shutil
import sys
import time
import traceback

from perfbench import spans
from perfbench.inputs import edges_of

#: Vendored-corpus sweep: the pool size of ``run_corpus_sweep``.
SWEEP_WORKERS = 2


class RunFailure(RuntimeError):
    """A condition that invalidates the whole run (not one op)."""


class CheckFailed(RuntimeError):
    """An op's output disagrees with what the benchmark knows about its input."""


def _require_compiled(engine) -> str:
    tier = engine.active_tier()
    if tier == "jit:fallback-array":
        raise RunFailure("the jit backend resolved to jit:fallback-array; "
                         "refusing to measure the array path as jit")
    return tier


def set_up(workload: str) -> dict:
    """Imports, engine resolution and jit warm-up (plus the corpus cache)."""
    import numpy

    import repro
    import repro.api  # noqa: F401 - the solver front door, part of set-up
    import repro.verify  # noqa: F401
    from repro.engine.registry import get_engine

    jit = get_engine("jit")
    jit.warmup()
    get_engine("array").warmup()
    info = {
        "package_version": repro.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jit_tier": _require_compiled(jit),
        "jit_threads": jit.num_threads,
    }
    if workload == "sweep":
        from repro.corpus import corpus_specs, ingest

        for _entry, spec in corpus_specs():
            ingest(spec.path)
    return info


# --------------------------------------------------------------------------- #
# big_graph
# --------------------------------------------------------------------------- #


def _check_coloring(graph, report) -> None:
    from repro import verify

    if report.provenance.get("backend_tier") == "jit:fallback-array":
        raise RunFailure("a big_graph op ran on jit:fallback-array")
    verify.assert_proper_coloring(graph, report.artifacts["colors"],
                                  max_colors=max(1, graph.max_degree) + 1)


def _op_file(plan: dict) -> int:
    from repro.api import Problem, Run, solve
    from repro.corpus import file_spec, ingest

    spec = file_spec(plan["file"])
    report = solve(Problem(graph=spec), Run(algorithm="delta_plus_one", backend="jit"))
    graph = ingest(plan["file"]).graph  # the verifier's copy, from the warm cache
    expected = plan["file_shape"]
    parsed = {"n": graph.n, "m": graph.num_edges, "delta": graph.max_degree}
    if parsed != expected:
        raise CheckFailed(f"the edge list parsed to {parsed}; the file holds {expected}")
    _check_coloring(graph, report)
    return expected["m"]


def _op_generated(params: dict) -> int:
    from repro.api import Problem, Run, solve
    from repro.congest.generators import by_name

    graph = by_name(params["family"], params["n"], params["delta"], seed=params["seed"])
    edges = edges_of(params["family"], params["n"], params["delta"])
    if graph.num_edges != edges:
        raise CheckFailed(f"{params['family']} n={params['n']} has {graph.num_edges} "
                          f"edges, {edges} expected")
    report = solve(Problem(graph=graph),
                   Run(algorithm="delta_plus_one", backend="jit", seed=params["seed"]))
    _check_coloring(graph, report)
    return edges


def _clear_corpus_cache() -> None:
    root = pathlib.Path(os.environ["REPRO_CORPUS_CACHE"])
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)


def big_graph_ops(plan: dict):
    """Rounds of (file, grid, scale_free) as ``(kind, op, before)`` triples;
    ``before`` runs untimed ahead of its op."""
    while True:
        yield "file", lambda: _op_file(plan), _clear_corpus_cache
        yield "grid", lambda: _op_generated(plan["grid"]), None
        yield "scale_free", lambda: _op_generated(plan["scale_free"]), None


# --------------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------------- #


def _sweep_grid(plan: dict):
    from repro.corpus import corpus_specs
    from repro.engine.batch import GraphSpec

    pairs = corpus_specs()
    specs = [spec for _entry, spec in pairs]
    edges = sum(entry.m for entry, _spec in pairs)
    for graph in plan["generated"]:
        specs.append(GraphSpec(graph["family"], graph["n"], graph["delta"],
                               seed=graph["seed"]))
        edges += edges_of(graph["family"], graph["n"], graph["delta"])
    zoo = [{"algorithm": name} for name in plan["zoo"]]
    return specs, zoo, edges * len(zoo)


def _check_sweep_record(record: dict) -> str | None:
    if "error" in record:
        error = record["error"] or {}
        return f"CellError {error.get('type')}: {error.get('message')}"
    if record.get("verified") is not True:
        graph = record.get("path") or record.get("family")
        return f"cell {record.get('algorithm')} on {graph} was not verified"
    if record.get("algorithm") == "delta_plus_one" and not record.get("within delta plus one"):
        return "delta_plus_one used more than Delta+1 colors"
    return None


def sweep_ops(plan: dict, scratch: pathlib.Path):
    from repro.corpus import run_corpus_sweep
    from repro.engine.sink import open_sink

    specs, zoo, edges = _sweep_grid(plan)
    expected = len(specs) * len(zoo)
    sink_path = scratch / "sweep.jsonl"

    def op():
        with open_sink(sink_path) as sink:
            result = run_corpus_sweep(specs, zoo=zoo, backend="array",
                                      workers=SWEEP_WORKERS, sink=sink)
        problems = [p for p in map(_check_sweep_record, result.records) if p]
        verified = len(result.records) - len(problems)
        problems += [f"{e.get('event')} event on cell {e.get('cell')}"
                     for e in result.events if e.get("event") == "cell-error"]
        if len(result.records) != expected:
            problems.append(f"{len(result.records)} records for {expected} cells")
        return edges, verified, problems

    def clear():
        sink_path.unlink(missing_ok=True)

    while True:
        yield "sweep", op, clear


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #


def run_ops(ops, seconds: float, tracer, whole_rounds: int) -> list[dict]:
    """Run ops until ``seconds`` have passed, finishing whole rounds."""
    results = []
    start = time.monotonic()
    for index, (kind, op, before) in enumerate(ops):
        if index % whole_rounds == 0 and results and time.monotonic() - start >= seconds:
            break
        if before is not None:
            before()
        if tracer is not None:
            tracer.set_context(f"op{index}:{kind}")
        scope = tracer.span(f"op.{kind}") if tracer is not None else contextlib.nullcontext()
        entry = {"kind": kind, "problems": []}
        began = time.perf_counter()
        try:
            with scope:
                outcome = op()
        except RunFailure:
            raise
        except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
            entry["problems"].append(f"{type(exc).__name__}: {exc}")
            entry.update(seconds=time.perf_counter() - began, edges=0, cells=0)
        else:
            entry["seconds"] = time.perf_counter() - began
            if isinstance(outcome, tuple):
                entry["edges"], entry["cells"], entry["problems"] = outcome
            else:
                entry["edges"], entry["cells"] = outcome, 1
        results.append(entry)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("big_graph", "sweep"), required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    out = pathlib.Path(args.out)
    try:
        tracer = spans.maybe_install()
        info = set_up(args.workload)
        print(json.dumps({"ready": time.monotonic()}), flush=True)
        if args.probe:
            return 0
        plan = json.loads(pathlib.Path(args.plan).read_text(encoding="utf-8"))
        if args.workload == "big_graph":
            ops, rounds = big_graph_ops(plan), 3
        else:
            ops, rounds = sweep_ops(plan, out.parent), 1
        results = run_ops(ops, args.seconds, tracer, rounds)
        out.write_text(json.dumps({"info": info, "ops": results}), encoding="utf-8")
    except RunFailure as exc:
        out.write_text(json.dumps({"fatal": str(exc)}), encoding="utf-8")
        return 3
    except Exception:  # noqa: BLE001 - reported to the harness, which fails the run
        out.write_text(json.dumps({"fatal": traceback.format_exc()}), encoding="utf-8")
        return 3
    finally:
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
