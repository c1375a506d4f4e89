#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload big_graph --seed 1 --seconds 20 --trace 0

Workloads: ``big_graph``, ``sweep``, ``serve`` (see ``METRICS.md``).  The
harness writes the seed-derived inputs, then runs the package in fresh child
processes, each with its own empty jit cache, corpus cache and temp dir under
``.perfbench-work/`` (removed afterwards).  Human-readable lines come first;
the last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--trace 1`` splits ``--seconds``
between an untraced and a traced pass, made the same way, and also prints
the tracing overhead (traced minus untraced) per end-to-end metric.  Exit
codes: 0 all outputs verified, 1 some output failed a check, 2 the run could
not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import numpy

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs, serve, spans, stats  # noqa: E402

WORKLOADS = ("big_graph", "sweep", "serve")

#: End-to-end metrics, reported for every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("edges_per_s", "edges/s"),
    ("cells_per_s", "cells/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
)

#: Set-ups per pass: the measured process plus set-up-only probes.  The
#: probes start after the measured process, so that they run on a host as
#: busy as during the measurement: set-ups started after an idle spell ran up
#: to 40% slower for several seconds.
SETUP_SAMPLES = 11

#: Kernel threads of the jit backend (the load uses at most 2 threads).
THREADS = 2

#: A child process that takes longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 150.0

WORK_DIR = ".perfbench-work"


class RunError(RuntimeError):
    """The run could not be made (set-up failed, a process died, ...)."""


def git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def process_env(directory: pathlib.Path, traced: bool) -> dict:
    """Environment of one package process: empty, run-owned caches and temp
    dir, and, when traced, its own span directory ``directory/trace``."""
    for sub in ("jit", "corpus", "tmp") + (("trace",) if traced else ()):
        (directory / sub).mkdir(parents=True, exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != spans.TRACE_DIR_ENV}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        REPRO_JIT_CACHE=str(directory / "jit"),
        REPRO_CORPUS_CACHE=str(directory / "corpus"),
        REPRO_NUM_THREADS=str(THREADS),
        TMPDIR=str(directory / "tmp"),
        PYTHONUNBUFFERED="1",
    )
    if traced:
        env[spans.TRACE_DIR_ENV] = str(directory / "trace")
    return env


def _tail(path: pathlib.Path, limit: int = 3000) -> str:
    try:
        return path.read_text(encoding="utf-8", errors="replace")[-limit:]
    except OSError:
        return ""


def run_child(workload: str, plan: pathlib.Path, directory: pathlib.Path,
              traced: bool, seconds: float | None) -> tuple[float, dict, float]:
    """One fresh package process; return its set-up time, its result and its
    process tree's peak RSS in MiB."""
    env = process_env(directory, traced)
    out = directory / "result.json"
    command = [sys.executable, "-m", "perfbench.child", "--workload", workload,
               "--plan", str(plan), "--out", str(out)]
    command += ["--probe"] if seconds is None else ["--seconds", repr(seconds)]
    log_path = directory / "child.log"
    with open(log_path, "w", encoding="utf-8") as log:
        began = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=log, start_new_session=True, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise RunError(f"{workload} set-up failed: {_fatal(out) or _tail(log_path)}")
        setup = json.loads(line)["ready"] - began
        try:
            rss = serve.reap(proc, max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - began)))
        except subprocess.TimeoutExpired:
            raise RunError(f"{workload} ran past {CHILD_TIMEOUT_S:g} s") from None
    finally:
        serve.kill_group(proc)
        proc.stdout.close()
    if proc.returncode != 0:
        raise RunError(f"{workload} process exited {proc.returncode}: "
                       f"{_fatal(out) or _tail(log_path)}")
    result = json.loads(out.read_text(encoding="utf-8")) if seconds is not None else {}
    return setup, result, rss


def _fatal(out: pathlib.Path) -> str | None:
    try:
        return json.loads(out.read_text(encoding="utf-8")).get("fatal")
    except (OSError, ValueError):
        return None


def measure_batch(workload: str, seed: int, seconds: float, work: pathlib.Path,
                  traced: bool) -> dict:
    """``big_graph`` / ``sweep``: the measured process, then set-up probes."""
    plan_path = work / "plan.json"
    if workload == "big_graph":
        snap = work / "snap-edges.txt"
        plan = inputs.big_graph_plan(seed, str(snap), inputs.write_snap_file(seed, snap))
    else:
        plan = inputs.sweep_plan(seed)
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")

    def probe(index: int) -> float:
        return run_child(workload, plan_path, work / f"probe{index}", traced, None)[0]

    setup, result, rss = run_child(workload, plan_path, work / "main", traced, seconds)
    setups = [setup] + [probe(index) for index in range(SETUP_SAMPLES - 1)]

    ops = result["ops"]
    # Throughput of a typical round: per op kind, the median over the run's
    # rounds, so that an op slowed by a burst of contention on the shared
    # cores does not move the figure.
    kinds: dict[str, list[dict]] = {}
    for op in ops:
        kinds.setdefault(op["kind"], []).append(op)

    def typical(key: str) -> float:
        return sum(statistics.median(op[key] for op in group) for group in kinds.values())

    medians = {kind: statistics.median(op["seconds"] for op in group)
               for kind, group in kinds.items()}
    # op_p50_s follows one op kind fixed in advance.  On big_graph that is
    # grid, whose time was the steadiest from run to run; the cold-parse
    # file op, a pure-Python loop, spread up to 0.37 over ten seeds.
    latency_kind = "grid" if workload == "big_graph" else "sweep"
    problems = [p for op in ops for p in op["problems"]]
    return {
        "info": result["info"],
        "setups": setups,
        "attempted": sum(op["cells"] or 1 for op in ops),
        "problems": problems,
        "values": {
            "setup_s": statistics.median(setups),
            "edges_per_s": typical("edges") / typical("seconds"),
            "cells_per_s": typical("cells") / typical("seconds"),
            "op_p50_s": medians[latency_kind],
            "peak_rss_mb": rss,
        },
        "lines": [f"ops: {len(ops)} ({', '.join(sorted(kinds))}) in "
                  f"{sum(op['seconds'] for op in ops):.2f} s; per-op seconds "
                  + " ".join(f"{op['kind']}={op['seconds']:.3f}" for op in ops),
                  "op medians: " + " ".join(f"{kind}={median:.4f} s"
                                            for kind, median in medians.items())],
        "client": {},
    }


def measure_serve(seed: int, seconds: float, work: pathlib.Path, traced: bool) -> dict:
    """``serve``: the measured server and clients, then server set-up probes."""

    def probe(index: int) -> float:
        directory = work / f"probe{index}"
        server = serve.Server(ROOT, process_env(directory, traced), directory)
        try:
            setup, health = server.start()
            serve.check_health(health)
        finally:
            server.stop()
        return setup

    directory = work / "main"
    server = serve.Server(ROOT, process_env(directory, traced), directory)
    try:
        setup, health = server.start()
        info = serve.check_health(health)
        logs = serve.drive(server.port, seed, seconds, list(inputs.ZOO))
    finally:
        rss = server.stop()
    if rss is None:
        raise RunError(f"repro serve did not drain within {serve.STOP_TIMEOUT_S:g} s")
    setups = [setup] + [probe(index) for index in range(SETUP_SAMPLES - 1)]

    ilog, blog, wall = logs["interactive"], logs["bulk"], logs["wall"]
    executed = ilog.jobs + blog.jobs
    if not ilog.jobs:
        raise RunError("no interactive job completed: " + "; ".join(ilog.failures[:3]))
    latency = stats.summary(job["latency"] for job in ilog.jobs)
    hits = stats.summary(ilog.cache_hits)
    bulk = stats.summary(job["latency"] for job in blog.jobs)
    waits = stats.summary(job["queue_wait"] for job in ilog.jobs)

    def p50(values) -> float:
        values = list(values)
        return statistics.median(values) if values else 0.0

    client = {
        "server.post_new_p50_s": p50(job["post"] for job in executed),
        "server.post_cached_p50_s": hits["p50"] or 0.0,
        "server.queue_wait_p50_s": waits["p50"],
        "server.queue_wait_p95_s": waits["p95"] or 0.0,
        "server.run_p50_s": p50(job["run"] for job in ilog.jobs),
        "server.notify_p50_s": p50(job["notify"] for job in ilog.jobs),
    }
    lines = [
        _latency_line("interactive", latency),
        _latency_line("cache_hit", hits),
        _latency_line("bulk", bulk),
        f"jobs_per_s           {len(executed) / wall:.4f} jobs/s "
        f"({len(ilog.jobs)} interactive + {len(blog.jobs)} bulk executed in {wall:.2f} s)",
    ]
    return {
        "info": info,
        "setups": setups,
        "attempted": ilog.attempted + blog.attempted,
        "problems": ilog.failures + blog.failures,
        "values": {
            "setup_s": statistics.median(setups),
            "edges_per_s": sum(job["edges"] for job in executed) / wall,
            "cells_per_s": sum(job["cells"] for job in executed) / wall,
            "op_p50_s": latency["p50"],
            "peak_rss_mb": rss,
        },
        "lines": lines,
        "client": client,
    }


def _latency_line(name: str, summary: dict) -> str:
    if not summary["n"]:
        return f"{name:<20} no samples"
    p95 = (f"p95 {summary['p95']:.4f} s" if summary["p95"] is not None else
           f"p95 refused (needs {stats.MIN_BEYOND} samples beyond it)")
    return f"{name:<20} p50 {summary['p50']:.4f} s, {p95}, n={summary['n']}"


def measure(workload: str, seed: int, seconds: float, work: pathlib.Path,
            traced: bool) -> dict:
    """One measured pass: end-to-end values, plus per-layer ones when traced.

    A traced pass traces its set-up probes too, so that its set-ups are made
    the same way as the measured process's; only the measured process's
    spans are aggregated.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "serve":
        run = measure_serve(seed, seconds, work, traced)
    else:
        run = measure_batch(workload, seed, seconds, work, traced)
    if traced:
        run["layers"] = spans.layer_metrics(spans.load_spans(work / "main" / "trace"),
                                            run["client"])
    return run


def report(workload: str, args, run: dict, traced: bool, seconds: float) -> None:
    info = run["info"]
    print(f"perfbench {workload}: seed={args.seed} seconds={seconds:g} "
          f"trace={int(traced)}")
    print(f"provenance: commit={git_commit()} cores={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"package={info.get('package_version')} jit={info.get('jit_tier')} "
          f"threads={info.get('jit_threads')}"
          + (f" execution={json.dumps(info['execution'])}" if "execution" in info else ""))
    setups = ", ".join(f"{s:.3f}" for s in run["setups"])
    for name, unit in END_TO_END:
        note = f"  (median of set-ups {setups})" if name == "setup_s" else ""
        print(f"{name:<20} {run['values'][name]:.6g} {unit}{note}")
    for line in run["lines"]:
        print(line)
    failed = min(len(run["problems"]), run["attempted"])
    print(f"failed_frac          {failed / run['attempted']:.4f} "
          f"({failed} of {run['attempted']} attempted)")
    for problem in run["problems"][:10]:
        print(f"  FAILED: {problem}")
    if traced:
        for name, unit, _better, _how, _span, moves, on in spans.PER_LAYER:
            print(f"{name:<32} {run['layers'][name]:.6g} {unit}   moves {moves} on {on}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: an untraced and a traced pass of half the seconds "
                             "each; print the per-layer metrics and the overhead")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro/__init__.py", "corpus/MANIFEST.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a repository checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    modes = (False, True) if args.trace else (False,)
    seconds = args.seconds / len(modes)
    runs = {}
    try:
        for traced in modes:
            runs[traced] = measure(args.workload, args.seed, seconds, work, traced)
            report(args.workload, args, runs[traced], traced, seconds)
    except Exception:  # noqa: BLE001 - the run could not be made: report, print no result
        print(f"perfbench: {args.workload} run failed:\n{traceback.format_exc()}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass

    if args.trace:
        for name, unit in END_TO_END:
            plain, traced = runs[False]["values"][name], runs[True]["values"][name]
            print(f"tracing overhead {name:<14} {traced - plain:+.6g} {unit} "
                  f"({(traced - plain) / plain:+.1%}; untraced {plain:.6g}, traced {traced:.6g})")
        units = {name: unit for name, unit, *_ in spans.PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in runs[True]["layers"].items()}
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": runs[False]["values"][name], "unit": units[name]}
                   for name, _ in END_TO_END}
    attempted = sum(run["attempted"] for run in runs.values())
    failed = sum(min(len(run["problems"]), run["attempted"]) for run in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
