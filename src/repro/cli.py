"""Command-line interface — generated from the algorithm registry.

``python -m repro <command>`` exposes the main entry points without writing
any Python.  The subcommand surface is *generated* from the algorithm
registry (:mod:`repro.api.registry`): a newly registered algorithm appears in
``repro color``, ``repro batch --task`` and ``repro list-algorithms`` with
zero CLI edits, and every ``--param`` is validated against the algorithm's
typed schema.

* ``list-algorithms`` — print the registry as a table (name, params with
  defaults, output kind, guarantee) — the living docs of the solver surface.
* ``list-backends`` — print the engine backends with availability, kernel
  tier, versions, and thread counts (``--json`` for machines).
* ``color <algorithm>`` — solve one problem with any registered algorithm;
  each algorithm subcommand carries typed ``--<param>`` flags generated from
  its schema (``repro color kdelta --k 4``, ``repro color ruling_set --r 3``).
* ``run`` — execute a saved declarative spec (``repro run --spec run.json``);
  the emitted sink manifest embeds the exact spec hash.
* ``experiment`` — run one of the experiments E1..E10 and print its table.
* ``batch`` — sweep a registered algorithm over a (family x n x Delta x seed)
  grid through the :class:`repro.engine.batch.BatchRunner`.

Every command accepts ``--backend reference|array`` (default ``array``, the
vectorized engine; ``reference`` is the per-node CONGEST simulator —
identical results, simulator metrics, much slower) and the sweep commands
accept ``--workers N``, ``--parity-check``, ``--output results.jsonl`` (or
``.csv``) and ``--resume`` exactly as before.

Every command prints a short report and exits non-zero if the produced
structure fails verification, so the CLI can be used in scripted sanity
checks.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import zipfile
from typing import Any

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.api.registry import (
    AlgorithmError,
    AlgorithmSpec,
    algorithm_specs,
    get_algorithm,
)
from repro.api.solve import run_spec, solve
from repro.api.spec import JobSpec, Problem, Run, SpecError
from repro.congest import generators
from repro.congest.graph import GraphError
from repro.corpus.vendor import CorpusError
from repro.engine.base import EngineError
from repro.engine.batch import BatchRunner, GraphSpec
from repro.engine.registry import available_backends
from repro.engine.sink import SinkError, open_sink

__all__ = ["main", "build_parser"]


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="random_regular", choices=sorted(generators.FAMILIES),
                        help="graph family (default: random_regular)")
    parser.add_argument("--nodes", "-n", type=int, default=200, help="number of vertices")
    parser.add_argument("--delta", type=int, default=8, help="target maximum degree")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


def _add_backend_argument(parser: argparse.ArgumentParser, default: str | None = "array") -> None:
    parser.add_argument("--backend", default=default, choices=available_backends(),
                        help="execution engine (default: array — the vectorized twin; "
                             "'reference' is the per-node CONGEST simulator; 'jit' the "
                             "compiled multi-threaded kernels — see `repro list-backends`)")


def _add_retry_arguments(parser: argparse.ArgumentParser, with_on_error: bool = True) -> None:
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry each failing cell up to N times (total attempts = N+1; "
                             "default: no retries — worker crashes still re-dispatch once)")
    parser.add_argument("--cell-timeout", type=float, default=None, metavar="SECONDS",
                        help="per-cell deadline; parallel workers breaching it are killed "
                             "and the cell is retried/recorded per the retry policy")
    if with_on_error:
        parser.add_argument("--on-error", choices=("raise", "record"), default=None,
                            help="when a cell exhausts its attempts with a plain exception: "
                                 "'raise' aborts the sweep (default), 'record' writes a "
                                 "structured CellError record and continues")


def _parse_shard(text: str | None) -> tuple[int, int] | None:
    """Parse an ``I/K`` shard selector (``repro batch --shard 0/4``)."""
    if text is None:
        return None
    try:
        index_text, _, of_text = text.partition("/")
        index, of = int(index_text), int(of_text)
    except ValueError:
        raise SystemExit(f"--shard expects I/K (e.g. 0/4), got {text!r}") from None
    if of < 1 or not 0 <= index < of:
        raise SystemExit(f"--shard must satisfy 0 <= I < K, got {text!r}")
    return (index, of)


def _retry_from_args(args):
    """The RetryPolicy the CLI flags describe, or None (keep spec/default)."""
    retries = getattr(args, "retries", None)
    cell_timeout = getattr(args, "cell_timeout", None)
    on_error = getattr(args, "on_error", None)
    if retries is None and cell_timeout is None and on_error is None:
        return None
    from repro.engine.retry import RetryPolicy

    try:
        return RetryPolicy(
            max_attempts=1 + (retries or 0),
            cell_timeout=cell_timeout,
            on_error=on_error or "raise",
        )
    except ValueError as exc:
        raise SystemExit(f"bad retry options: {exc}") from None


def _report_faults(result) -> int:
    """Print the sweep's fault-tolerance summary; non-zero when cells failed."""
    degraded = sum(1 for e in result.events if e.get("event") == "degrade")
    retried = sum(1 for e in result.events if e.get("event") == "retry")
    if retried:
        print(f"retried {retried} failing attempt(s)")
    if degraded:
        print(f"downgraded {degraded} cell(s) from the jit tier to backend 'array'")
    failures = result.failures
    if failures:
        print(f"FAILED CELLS: {len(failures)} cell(s) exhausted their attempts "
              "(structured CellError records were written in their grid slots):",
              file=sys.stderr)
        for record in failures:
            err = record.get("error", {})
            print(f"  - family={record.get('family')} n={record.get('n')} "
                  f"seed={record.get('seed')}: [{err.get('kind')}] "
                  f"{err.get('type')}: {err.get('message')} "
                  f"(attempts={err.get('attempts')})", file=sys.stderr)
        return 1
    return 0


def _add_param_arguments(parser: argparse.ArgumentParser, spec: AlgorithmSpec) -> None:
    """Generate one typed ``--<name>`` flag per schema parameter."""
    for param in spec.params:
        flag = f"--{param.name}"
        help_text = param.help or param.name
        if not param.required:
            help_text += f" (default: {param.default!r})"
        if param.type is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction,
                                required=param.required,
                                default=None if param.required else param.default,
                                help=help_text)
        else:
            parser.add_argument(flag, type=param.type,
                                default=None if param.required else param.default,
                                required=param.required, choices=param.choices,
                                help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Distributed Graph Coloring Made Easy' (Maus, SPAA 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    listing = sub.add_parser("list-algorithms",
                             help="print the algorithm registry (names, params, guarantees)")
    listing.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable JSON instead of the table")

    backends = sub.add_parser(
        "list-backends",
        help="print the engine backends (availability, kernel tier, versions, threads)")
    backends.add_argument("--json", action="store_true", dest="as_json",
                          help="machine-readable JSON instead of the table")

    color = sub.add_parser(
        "color",
        help="solve one problem with any registered algorithm",
        description="Pick a registered algorithm; its parameter flags are generated "
                    "from the registry schema (see `repro list-algorithms`).",
    )
    # dest is "algorithm_name" (not "algorithm") so a schema parameter named
    # "algorithm" (e.g. the baseline contender picker) cannot clobber it.
    algorithms = color.add_subparsers(dest="algorithm_name", required=True, metavar="ALGORITHM")
    for spec in algorithm_specs():
        algo = algorithms.add_parser(spec.name, help=spec.summary,
                                     description=f"{spec.summary} [{spec.source}]. "
                                                 f"Guarantee: {spec.guarantee}")
        _add_graph_arguments(algo)
        _add_backend_argument(algo)
        algo.add_argument("--parity-check", action="store_true",
                          help="re-run on the reference backend and require identical results")
        _add_param_arguments(algo, spec)

    runner = sub.add_parser("run", help="execute a saved declarative spec (run.json)")
    runner.add_argument("--spec", required=True, metavar="PATH",
                        help="JSON spec file: {problem(s): ..., run: ..., params_grid?: ...}")
    _add_backend_argument(runner, default=None)
    runner.add_argument("--workers", type=int, default=None,
                        help="override the spec's worker count")
    runner.add_argument("--parity-check", action="store_true", default=None,
                        help="re-run every cell on the reference backend and require "
                             "identical results (overrides the spec)")
    runner.add_argument("--output", metavar="PATH", default=None,
                        help="stream each record to PATH (.jsonl/.ndjson/.csv); the run "
                             "manifest embeds the exact spec hash")
    runner.add_argument("--resume", action="store_true",
                        help="skip cells already recorded in --output")
    runner.add_argument("--shard", metavar="I/K", default=None,
                        help="execute only deterministic shard I of K of the spec's cell "
                             "grid (stable hash of cell identity; worker-count-"
                             "independent); merge the K shard files with `repro merge`")
    _add_retry_arguments(runner)

    experiment = sub.add_parser("experiment", help="run one of the experiments E1..E10")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS), help="experiment id")
    _add_backend_argument(experiment)
    experiment.add_argument("--parity-check", action="store_true",
                            help="re-run every cell on the reference backend and require identical results")
    experiment.add_argument("--workers", type=int, default=1,
                            help="worker processes the experiment's grid sweeps shard across (default: 1)")

    batch = sub.add_parser("batch", help="sweep an algorithm over a (family x n x Delta x seed) grid")
    batch.add_argument("--task", default="delta_plus_one",
                       choices=[spec.name for spec in algorithm_specs()],
                       help="registered algorithm to run per cell (default: delta_plus_one)")
    batch.add_argument("--family", default="random_regular", nargs="+",
                       choices=sorted(generators.FAMILIES), help="graph families")
    batch.add_argument("--nodes", "-n", type=int, nargs="+", default=[200], help="vertex counts")
    batch.add_argument("--delta", type=int, nargs="+", default=[8], help="target maximum degrees")
    batch.add_argument("--seeds", type=int, default=1, help="number of seeds per cell (0..seeds-1)")
    _add_backend_argument(batch)
    batch.add_argument("--parity-check", action="store_true",
                       help="re-run every cell on the reference backend and require identical results")
    batch.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="task parameter (repeatable), e.g. --param k=4; validated "
                            "against the algorithm's schema")
    batch.add_argument("--workers", type=int, default=1,
                       help="worker processes to shard the grid across (default: 1 = serial; "
                            "records are identical and deterministically ordered either way)")
    batch.add_argument("--output", metavar="PATH", default=None,
                       help="stream each record to PATH as it completes (.jsonl/.ndjson/.csv); "
                            "a run manifest is recorded alongside the records")
    batch.add_argument("--resume", action="store_true",
                       help="skip cells already recorded in --output (restart an interrupted sweep)")
    batch.add_argument("--shard", metavar="I/K", default=None,
                       help="execute only deterministic shard I of K of the cell grid "
                            "(stable hash of cell identity; worker-count-independent); "
                            "any shard can run anywhere, any time — merge the K shard "
                            "files with `repro merge`")
    _add_retry_arguments(batch)

    merge = sub.add_parser(
        "merge",
        help="merge shard result files into one canonical run",
        description="Join the result files of a sharded sweep (`--shard i/k`) "
                    "into one file indistinguishable from a single-box run.  "
                    "Validates that the inputs are the k disjoint, complete "
                    "shards of one sweep (same spec/grid hash, every cell "
                    "exactly once) and fails loudly on overlap, gaps, or "
                    "hash drift.",
    )
    merge.add_argument("shards", nargs="+", metavar="SHARD",
                       help="shard result files (.jsonl/.ndjson/.csv) written by "
                            "--shard i/k runs of one sweep")
    merge.add_argument("--output", required=True, metavar="PATH",
                       help="merged result file; format follows the suffix "
                            "(.jsonl/.ndjson/.csv)")

    serve = sub.add_parser(
        "serve",
        help="run the job server: JobSpec JSON over HTTP, dedupe by spec hash",
        description="Long-running coloring service: POST a JobSpec document to "
                    "/jobs, poll /jobs/<id>, stream per-cell progress from "
                    "/jobs/<id>/events (SSE), check /healthz.  Jobs are "
                    "content-addressed by spec hash (duplicates are cache "
                    "hits) and survive restarts via the resumable sinks in "
                    "--state-dir.  On a multi-core machine a job's cells run "
                    "through the crash-containing process pool, on one core on "
                    "the job's queue thread; /healthz reports the mode.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default: 8765; 0 picks a free port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrently executing jobs (default: 2)")
    serve.add_argument("--state-dir", default="repro-jobs", metavar="DIR",
                       help="durable job state directory (default: ./repro-jobs); "
                            "reuse it across restarts to recover incomplete jobs")
    serve.add_argument("--drain-timeout", type=float, default=30.0, metavar="SECONDS",
                       help="on SIGTERM/SIGINT, wait this long for running jobs to "
                            "finish before forcing exit (default: 30; they resume "
                            "on restart either way)")
    _add_retry_arguments(serve, with_on_error=False)

    corpus = sub.add_parser(
        "corpus",
        help="sweep the algorithm zoo over the vendored real-graph corpus, verified",
        description="Run every default-runnable registered algorithm over the "
                    "graphs of corpus/MANIFEST.json through BatchRunner, "
                    "independently re-verify every output with repro.verify, "
                    "and write a deterministic per-graph summary "
                    "(corpus_summary.md + corpus_summary.json).",
    )
    corpus.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="corpus directory (default: discover corpus/MANIFEST.json "
                             "from the cwd, $REPRO_CORPUS_DIR, or the checkout)")
    corpus.add_argument("--graphs", nargs="+", default=None, metavar="NAME",
                        help="restrict to these manifest graph names (default: all)")
    corpus.add_argument("--algorithms", nargs="+", default=None, metavar="ALGORITHM",
                        help="restrict the zoo to these algorithms (default: every "
                             "registered algorithm runnable with default parameters)")
    _add_backend_argument(corpus)
    corpus.add_argument("--parity-check", action="store_true",
                        help="re-run every cell on the reference backend and require "
                             "identical results")
    corpus.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1; records and summary are "
                             "identical and deterministically ordered either way)")
    corpus.add_argument("--output", metavar="PATH", default=None,
                        help="stream each record to PATH (.jsonl/.ndjson/.csv)")
    corpus.add_argument("--shard", metavar="I/K", default=None,
                        help="execute only deterministic shard I of K of the corpus "
                             "grid; merge the K record files with `repro merge`")
    corpus.add_argument("--summary-dir", metavar="DIR", default=None,
                        help="write corpus_summary.{md,json} here (default: print the "
                             "markdown only)")
    corpus.add_argument("--no-verify-manifest", action="store_true",
                        help="skip the corpus integrity check (file digests vs the "
                             "manifest) before sweeping")
    _add_retry_arguments(corpus)

    graph = sub.add_parser(
        "graph",
        help="inspect graphs (edge-list files, cached artifacts, generator specs)")
    graph_sub = graph.add_subparsers(dest="graph_command", required=True)
    info = graph_sub.add_parser(
        "info",
        help="structural facts of a graph: n, m, Delta, degree histogram, components",
        description="TARGET is an edge-list file (.txt/.csv, optionally .gz — "
                    "ingested through the corpus cache), a corpus graph name, or "
                    "a generator spec FAMILY:N:DELTA[:SEED] "
                    "(e.g. random_regular:200:8).",
    )
    info.add_argument("target", metavar="TARGET",
                      help="edge-list path, corpus graph name, or FAMILY:N:DELTA[:SEED]")
    info.add_argument("--json", action="store_true", dest="as_json",
                      help="machine-readable JSON instead of the table")
    info.add_argument("--corpus-dir", default=None, metavar="DIR",
                      help="corpus directory for corpus-name targets")

    return parser


# --------------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------------- #


def _cmd_list_algorithms(args) -> int:
    specs = algorithm_specs()
    if args.as_json:
        payload = [
            {
                "name": spec.name,
                "summary": spec.summary,
                "source": spec.source,
                "output": spec.output,
                "guarantee": spec.guarantee,
                "requires_input_coloring": spec.requires_input_coloring,
                "params": [
                    {"name": p.name, "type": p.type.__name__, "required": p.required,
                     **({} if p.required else {"default": p.default}),
                     **({"choices": list(p.choices)} if p.choices else {}),
                     "help": p.help}
                    for p in spec.params
                ],
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    from repro.analysis.tables import Table

    table = Table(
        f"registered algorithms ({len(specs)}) — backends: {', '.join(available_backends())}",
        ["algorithm", "params", "output", "source", "guarantee"],
    )
    for spec in specs:
        params = ", ".join(p.describe() for p in spec.params) or "—"
        table.add_row(spec.name, params, spec.output, spec.source, spec.guarantee)
    table.add_note("run one: repro color <algorithm> [--<param> ...]   "
                   "sweep: repro batch --task <algorithm> --param KEY=VALUE")
    table.add_note("new algorithms registered via repro.api.register_algorithm appear "
                   "here and in every command automatically")
    print(table.render())
    return 0


def _cmd_list_backends(args) -> int:
    from repro.engine.registry import describe_backends

    infos = describe_backends()
    if args.as_json:
        print(json.dumps(infos, indent=2))
        return 0
    from repro.analysis.tables import Table

    table = Table(
        f"engine backends ({len(infos)})",
        ["backend", "available", "kernel", "threads", "versions", "notes"],
    )
    for info in infos:
        versions = ", ".join(f"{k} {v}" for k, v in sorted(info["versions"].items()))
        notes = []
        if info.get("fallback"):
            notes.append(f"falls back to {info['fallback']}")
        if info.get("detail", {}).get("openmp"):
            notes.append("openmp")
        table.add_row(
            info["backend"],
            "yes" if info["available"] else "no",
            info.get("kernel") or "—",
            str(info.get("threads", 1)),
            versions,
            "; ".join(notes) or "—",
        )
    table.add_note("select one: --backend <name> on color/run/batch, or "
                   "Run(..., backend=<name>) in a spec")
    table.add_note("jit builds its kernels with the C compiler on PATH (cc, gcc, "
                   "clang or $CC) and falls back to array without one")
    table.add_note("jit threads are capped by REPRO_NUM_THREADS; "
                   "REPRO_JIT_DISABLE=cc forces the array fallback")
    print(table.render())
    return 0


def _cmd_color(args) -> int:
    spec = get_algorithm(args.algorithm_name)
    params = {p.name: getattr(args, p.name) for p in spec.params}
    problem = Problem(graph=GraphSpec(args.family, args.nodes, args.delta, args.seed))
    run = Run(algorithm=spec.name, params=params, backend=args.backend,
              parity_check=args.parity_check)
    report = solve(problem, run)
    record = report.record
    print(f"graph: family={args.family} n={record['n']} Delta={record['Delta']} "
          f"seed={record['seed']}")
    print(report.summary())
    print(f"guarantee: {report.guarantee}")
    return 0


def _cmd_run(args) -> int:
    path = pathlib.Path(args.spec)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from None
    job = JobSpec.from_dict(document)
    if args.resume and not args.output:
        raise SystemExit("--resume requires --output (the file to resume from)")
    shard = _parse_shard(args.shard)
    sink = open_sink(args.output, resume=args.resume) if args.output else None
    try:
        result, digest = run_spec(job, sink=sink, backend=args.backend,
                                  workers=args.workers, parity_check=args.parity_check,
                                  retry=_retry_from_args(args), shard=shard)
    finally:
        if sink is not None:
            sink.close()
    columns = result.columns(exclude=("backend",))
    title = (f"spec {path.name}: algorithm={job.run.algorithm} backend={result.backend} "
             f"cells={len(result)}"
             + (f" shard={shard[0]}/{shard[1]}" if shard else ""))
    print(result.to_table(title, columns).render())
    print(f"\nspec hash: {digest}")
    print(f"total wall-clock: {result.total_seconds:.3f}s on backend {result.backend!r}")
    if sink is not None:
        skipped = len(result) - sink.written
        print(f"wrote {sink.written} record(s) to {args.output}"
              + (f" ({skipped} cell(s) resumed from a previous run)" if skipped else ""))
    return _report_faults(result)


def _cmd_experiment(args) -> int:
    table = run_experiment(args.name, backend=args.backend, parity_check=args.parity_check,
                           workers=args.workers)
    print(table.render())
    return 0


def _parse_params(algorithm: str, pairs: list[str]) -> dict:
    """Parse ``--param KEY=VALUE`` pairs, validated against the registry schema."""
    spec = get_algorithm(algorithm)
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key] = spec.param(key).parse(algorithm, value)  # UnknownParameterError on bad key
    return spec.validate_params(params)


def _cmd_batch(args) -> int:
    if args.resume and not args.output:
        raise SystemExit("--resume requires --output (the file to resume from)")
    shard = _parse_shard(args.shard)
    if shard is not None and not args.output:
        raise SystemExit("--shard requires --output (the shard's result file)")
    runner = BatchRunner(backend=args.backend, parity_check=args.parity_check,
                         workers=args.workers, retry=_retry_from_args(args))
    families = args.family if isinstance(args.family, list) else [args.family]
    cells = BatchRunner.grid(families, args.nodes, args.delta, seeds=range(args.seeds))
    params = _parse_params(args.task, args.param)
    sink = open_sink(args.output, resume=args.resume) if args.output else None
    try:
        result = runner.run(args.task, cells, params_grid=[params] if params else None,
                            sink=sink, shard=shard)
    finally:
        if sink is not None:
            sink.close()
    columns = result.columns(exclude=("backend",))
    title = (
        f"batch: task={args.task} backend={args.backend} cells={len(result)}"
        + (f" shard={shard[0]}/{shard[1]}" if shard else "")
        + (f" workers={args.workers}" if args.workers > 1 else "")
        + (" parity-checked" if args.parity_check else "")
    )
    print(result.to_table(title, columns).render())
    print(f"\ntotal wall-clock: {result.total_seconds:.3f}s on backend {args.backend!r}"
          + (f" across {args.workers} workers" if args.workers > 1 else "")
          + (" (every cell parity-checked against 'reference')" if args.parity_check else ""))
    if sink is not None:
        skipped = len(result) - sink.written
        print(f"wrote {sink.written} record(s) to {args.output}"
              + (f" ({skipped} cell(s) resumed from a previous run)" if skipped else ""))
    return _report_faults(result)


def _cmd_merge(args) -> int:
    from repro.engine.merge import merge_shards

    result = merge_shards(args.shards, args.output)
    manifest = result.manifest
    print(f"merged {result.shards} shard(s) -> {result.output}")
    print(f"  task={manifest.task} backend={manifest.backend} cells={result.cells}")
    print(f"  grid hash {manifest.grid_hash}"
          + (f", spec hash {manifest.spec_hash}" if manifest.spec_hash else ""))
    if result.events:
        print(f"  {result.events} provenance event(s) carried over")
    print("  the merged file resumes like a single-box run (--resume re-runs 0 cells)")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.server import JobServer

    server = JobServer(args.state_dir, host=args.host, port=args.port,
                       workers=args.workers, drain_timeout=args.drain_timeout,
                       default_retry=_retry_from_args(args))

    async def _serve() -> int:
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without loop signal handlers; Ctrl-C still works
        recovered = server.queue.pending()
        print(f"repro serve: listening on {server.url}")
        print(f"  state dir : {server.store.root}")
        print(f"  workers   : {server.workers}")
        execution = server.queue.execution
        if server.queue.job_workers is not None:
            execution += f" (job workers: {server.queue.job_workers})"
        print(f"  execution : {execution}")
        if recovered:
            print(f"  recovered : {recovered} incomplete job(s) re-queued")
        print("  routes    : POST /jobs   GET /jobs[/<id>[/records|/events]]   GET /healthz")
        await server.serve_forever()
        return 0

    try:
        code = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down (incomplete jobs resume on restart)")
        return 0
    if server.drained_clean:
        print("repro serve: drained cleanly (running jobs finished, state persisted)")
        return code
    # A job outlived --drain-timeout; its executor thread is non-daemon and
    # would block interpreter exit, so force it.  The job stays `running` on
    # disk and resumes from its sink on restart.
    print(f"repro serve: drain timed out after {args.drain_timeout:g}s; forcing "
          "exit (incomplete jobs resume on restart)", file=sys.stderr)
    sys.stdout.flush()
    sys.stderr.flush()
    import os
    os._exit(1)


def _cmd_corpus(args) -> int:
    from repro import corpus as corpus_mod

    entries = corpus_mod.load_manifest(args.corpus_dir,
                                       verify=not args.no_verify_manifest)
    if args.graphs:
        known = {entry.name for entry in entries}
        missing = sorted(set(args.graphs) - known)
        if missing:
            raise SystemExit(f"unknown corpus graph(s) {missing}; "
                             f"manifest has: {sorted(known)}")
        entries = [entry for entry in entries if entry.name in args.graphs]
    if args.algorithms:
        zoo = [{"algorithm": _resolve_algorithm(name).name} for name in args.algorithms]
    else:
        zoo = corpus_mod.default_zoo()

    shard = _parse_shard(args.shard)
    if shard is not None and not args.output:
        raise SystemExit("--shard requires --output (the shard's result file)")
    pairs = corpus_mod.corpus_specs(entries)
    sink = open_sink(args.output) if args.output else None
    try:
        result = corpus_mod.run_corpus_sweep(
            [spec for _, spec in pairs], zoo=zoo, backend=args.backend,
            workers=args.workers, parity_check=args.parity_check,
            retry=_retry_from_args(args), shard=shard, sink=sink)
    finally:
        if sink is not None:
            sink.close()
    summary = corpus_mod.summarize(entries, result, backend=args.backend)
    print(corpus_mod.render_summary(summary))
    if args.summary_dir:
        json_path, md_path = corpus_mod.write_summary(summary, args.summary_dir)
        print(f"\nwrote {json_path} and {md_path}")
    if sink is not None:
        print(f"wrote {sink.written} record(s) to {args.output}")
    unverified = [c for c in summary["cells"]
                  if "error" not in c and c.get("verified") is not True]
    if unverified:  # corpus_task raises on failure, so this is belt+braces
        print(f"VERIFICATION FAILED: {len(unverified)} cell(s) unverified",
              file=sys.stderr)
        return 1
    return _report_faults(result)


def _resolve_algorithm(name: str):
    from repro.api.registry import get_algorithm

    spec = get_algorithm(name)  # UnknownAlgorithmError -> ERROR
    if any(p.required for p in spec.params):
        raise SystemExit(
            f"algorithm {name!r} has required parameters ({spec.signature()}) and "
            f"cannot run in a corpus sweep; use `repro color {name}` instead")
    return spec


def _cmd_graph(args) -> int:
    if args.graph_command == "info":
        return _cmd_graph_info(args)
    raise SystemExit(f"unknown graph command {args.graph_command!r}")


def _cmd_graph_info(args) -> int:
    from repro import corpus as corpus_mod

    target = args.target
    path = pathlib.Path(target)
    origin: dict[str, Any] = {}
    if path.is_file() and path.suffix == ".npz":
        # a cached CSR artifact (see repro.corpus.cache) — load it directly
        import numpy as np

        from repro.congest.graph import Graph

        try:
            with np.load(path) as bundle:
                graph = Graph.from_csr_arrays(bundle["indptr"], bundle["indices"])
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise GraphError(f"{path.name}: not a CSR .npz artifact: {exc}") from None
        origin = {"target": str(path), "source": "npz artifact",
                  "digest": path.stem}
    elif path.is_file():
        ingested = corpus_mod.ingest(path)
        graph = ingested.graph
        origin = {"target": str(path), "source": "file",
                  "sha256": ingested.digest, "cached": ingested.cached,
                  **{k: v for k, v in ingested.meta.items()
                     if k in ("format", "compressed", "edges_raw", "duplicate_edges",
                              "self_loops_dropped", "relabelled", "header_skipped")}}
    elif ":" in target:
        family, _, rest = target.partition(":")
        try:
            numbers = [int(x) for x in rest.split(":")]
            n, delta = numbers[0], numbers[1]
            seed = numbers[2] if len(numbers) > 2 else 0
        except (ValueError, IndexError):
            raise SystemExit(
                f"bad generator spec {target!r}; expected FAMILY:N:DELTA[:SEED]"
            ) from None
        graph = generators.by_name(family, n, delta, seed=seed)
        origin = {"target": target, "source": "generator", "family": family,
                  "seed": seed}
    else:
        entries = [entry for entry in corpus_mod.load_manifest(args.corpus_dir)
                   if entry.name == target]
        if not entries:
            raise SystemExit(
                f"{target!r} is neither a file, a FAMILY:N:DELTA spec, nor a "
                "corpus graph name")
        ingested = corpus_mod.ingest(entries[0].path)
        graph = ingested.graph
        origin = {"target": target, "source": "corpus",
                  "file": entries[0].path.name, "kind": entries[0].kind,
                  "sha256": ingested.digest}

    info = corpus_mod.graph_info(graph)
    if args.as_json:
        print(json.dumps({**origin, **info}, indent=2))
        return 0
    from repro.analysis.tables import Table

    table = Table(f"graph info — {origin.get('target', '?')} ({origin['source']})",
                  ["property", "value"])
    for key, value in {**origin, **info}.items():
        if key in ("target", "degree_histogram"):
            continue
        table.add_row(key, value)
    histogram = info["degree_histogram"]
    spread = ", ".join(f"{d}:{c}" for d, c in list(histogram.items())[:12])
    if len(histogram) > 12:
        spread += f", ... ({len(histogram)} distinct degrees)"
    table.add_row("degree histogram", spread)
    print(table.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "list-algorithms": _cmd_list_algorithms,
        "list-backends": _cmd_list_backends,
        "color": _cmd_color,
        "run": _cmd_run,
        "experiment": _cmd_experiment,
        "batch": _cmd_batch,
        "merge": _cmd_merge,
        "serve": _cmd_serve,
        "corpus": _cmd_corpus,
        "graph": _cmd_graph,
    }
    try:
        return commands[args.command](args)
    except AssertionError as exc:  # verification failure (incl. parity errors)
        print(f"VERIFICATION FAILED: {exc}", file=sys.stderr)
        return 1
    except (SinkError, EngineError, AlgorithmError, SpecError,
            GraphError, CorpusError) as exc:
        # unusable sink / backend setup / spec mismatch / malformed graph file
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
