"""Seed-derived benchmark inputs.

Everything the package is asked to do comes from here and from the workload
seed alone: the SNAP-style edge list of ``big_graph``, the graph seeds of
``big_graph`` and ``sweep``, and the two job lists of ``serve``.  The same
seed gives byte-identical files and lists.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

#: The algorithm zoo of ``sweep`` and of the interactive ``serve`` jobs: the
#: registry's default zoo when the benchmark was defined, frozen so that a
#: newly registered algorithm does not change the benchmark's inputs.
ZOO = ("corollary14", "defective", "defective_one_round", "delta_plus_one",
       "delta_squared", "kdelta", "linial", "linial_reduction", "outdegree",
       "ruling_set", "theorem13")

#: ``big_graph`` op sizes (the package's generator families).
GRID = {"family": "grid", "n": 1_000_000, "delta": 4}
SCALE_FREE = {"family": "power_law", "n": 200_000, "delta": 16}

#: The SNAP-style file: Chung-Lu power law (degree exponent 3).
SNAP_VERTICES = 200_000
SNAP_RAW_EDGES = 820_000

#: ``sweep``: generated graphs swept beside the vendored corpus.
SWEEP_FAMILIES = ("random_regular", "power_law", "grid", "tree")
SWEEP_N = 20_000
SWEEP_DELTA = 16

#: ``serve`` job shapes.
SERVE_FAMILIES = SWEEP_FAMILIES
INTERACTIVE_N = (300, 2000)
INTERACTIVE_DELTAS = (8, 16)
CACHE_EVERY = 4
#: Bulk problems are all ``random_regular``: its generator is vectorized, so a
#: bulk job loads the process pool without holding the server's interpreter
#: lock in a generation loop, which made interactive latency swing from run
#: to run.
BULK_FAMILY = "random_regular"
BULK_PROBLEMS = 4
BULK_N = 20_000
BULK_DELTA = 16


def _digest(seed: int, stream: str) -> bytes:
    return hashlib.sha256(f"perfbench:{stream}:{seed}".encode()).digest()


def numpy_rng(seed: int, stream: str) -> np.random.Generator:
    """An independent numpy stream per (workload seed, purpose)."""
    entropy = int.from_bytes(_digest(seed, stream)[:16], "little")
    return np.random.default_rng(np.random.SeedSequence(entropy))


def graph_seed(seed: int, stream: str) -> int:
    """A package-facing graph seed derived from the workload seed."""
    return int.from_bytes(_digest(seed, stream)[:4], "little") & 0x7FFFFFFF


def write_snap_file(seed: int, path, vertices: int = SNAP_VERTICES,
                    raw_edges: int = SNAP_RAW_EDGES) -> dict:
    """Write a SNAP-style power-law edge list; return the graph it holds.

    Tab separated, one header line, gappy 1-based vertex ids, hubs scattered
    over the id range, duplicate edges (either orientation) left in for the
    parser to collapse.  Self loops are dropped here because the parser
    rejects them.  The returned ``n`` (vertices on some edge), ``m``
    (distinct undirected edges) and ``delta`` are counted here, so that the
    package's parse can be checked against them.
    """
    rng = numpy_rng(seed, "snap")
    weights = 1.0 / np.sqrt(np.arange(1, vertices + 1, dtype=np.float64))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ends = np.searchsorted(cdf, rng.random((raw_edges, 2)), side="right")
    ends = np.minimum(ends, vertices - 1)
    ends = ends[ends[:, 0] != ends[:, 1]]
    gaps = rng.integers(1, 4, size=vertices)
    gaps[0] = 1
    ids = np.cumsum(gaps)[rng.permutation(vertices)]
    labelled = ids[ends]
    body = "\n".join(f"{u}\t{v}" for u, v in labelled.tolist())
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("FromNodeId\tToNodeId\n")
        handle.write(body)
        handle.write("\n")
    distinct = np.unique(np.sort(ends, axis=1), axis=0)
    degrees = np.bincount(distinct.ravel(), minlength=vertices)
    return {"n": int(np.count_nonzero(degrees)), "m": int(distinct.shape[0]),
            "delta": int(degrees.max())}


def big_graph_plan(seed: int, snap_path: str, snap_shape: dict) -> dict:
    return {
        "file": str(snap_path),
        "file_shape": snap_shape,
        "grid": dict(GRID, seed=graph_seed(seed, "grid")),
        "scale_free": dict(SCALE_FREE, seed=graph_seed(seed, "scale_free")),
    }


def sweep_plan(seed: int) -> dict:
    return {
        "zoo": list(ZOO),
        "generated": [
            {"family": family, "n": SWEEP_N, "delta": SWEEP_DELTA,
             "seed": graph_seed(seed, f"sweep:{family}")}
            for family in SWEEP_FAMILIES
        ],
    }


def _document(problems: list[dict], algorithm: str) -> dict:
    return {
        "problems": [{"graph": graph} for graph in problems],
        "run": {"algorithm": algorithm, "backend": "array"},
    }


def _balanced(rnd: random.Random, items):
    """Endless draws using every item once per block, each block in seeded order.

    Stratified rather than independent draws keep the job mix of a run —
    and so its work — nearly the same from seed to seed.
    """
    while True:
        block = list(items)
        rnd.shuffle(block)
        yield from block


def interactive_jobs(seed: int, count: int, zoo: list[str]) -> list[dict]:
    """The interactive client's request list.

    Entry ``i`` is ``{"document": ...}`` (a new single-problem job) or, for
    every ``CACHE_EVERY``-th request, ``{"repeat": j}`` naming an earlier new
    entry to resubmit.  Algorithm, family, Δ and a tenth of the ``n`` range
    each come from their own balanced stream.  Graph seeds are distinct, so
    every new document is a distinct job.
    """
    rnd = random.Random(_digest(seed, "interactive"))
    base = rnd.randrange(1 << 30)
    algorithms = _balanced(rnd, zoo)
    families = _balanced(rnd, SERVE_FAMILIES)
    deltas = _balanced(rnd, INTERACTIVE_DELTAS)
    n_bins = _balanced(rnd, range(10))
    low, high = INTERACTIVE_N
    jobs: list[dict] = []
    fresh: list[int] = []
    for index in range(count):
        if (index + 1) % CACHE_EVERY == 0 and fresh:
            jobs.append({"repeat": rnd.choice(fresh)})
            continue
        graph = {
            "family": next(families),
            "n": low + int((next(n_bins) + rnd.random()) * (high - low) / 10),
            "delta": next(deltas),
            "seed": base + index,
        }
        jobs.append({"document": _document([graph], next(algorithms))})
        fresh.append(index)
    return jobs


def bulk_jobs(seed: int, count: int) -> list[dict]:
    """The bulk client's list: ``BULK_PROBLEMS``-problem delta_plus_one jobs."""
    base = random.Random(_digest(seed, "bulk")).randrange(1 << 30)
    return [
        {"document": _document(
            [{"family": BULK_FAMILY, "n": BULK_N, "delta": BULK_DELTA,
              "seed": base + BULK_PROBLEMS * index + slot}
             for slot in range(BULK_PROBLEMS)],
            "delta_plus_one")}
        for index in range(count)
    ]


def edges_of(family: str, n: int, delta: int) -> int:
    """Exact edge count of a generator-family graph, without building it."""
    if family == "random_regular":
        return (n + (n * delta) % 2) * delta // 2
    if family == "grid":
        side = max(2, int(np.sqrt(n)))
        return 2 * side * (side - 1)
    if family == "tree":
        return max(0, n - 1)
    if family == "power_law":
        attach = max(1, delta // 4)
        if n <= attach:
            return n * (n - 1) // 2
        return attach * (attach - 1) // 2 + (n - attach) * attach
    raise ValueError(f"no edge-count formula for family {family!r}")
