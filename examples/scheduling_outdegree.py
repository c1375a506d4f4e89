"""Conflict-free job scheduling via beta-outdegree (arbdefective) colorings.

A cluster runs jobs that pairwise conflict (shared files, licenses, GPUs);
conflicting jobs must not run in the same slot.  A proper coloring of the
conflict graph is a schedule, but computing a tight (Delta+1)-slot schedule
takes Theta(Delta) coordination rounds.  Corollary 1.2(4) offers a middle
ground used by all modern sublinear coloring algorithms: a *beta-outdegree*
coloring with only O(Delta/beta) classes, computed in O(Delta/beta) rounds,
where inside a class every job conflicts with at most ``beta`` jobs it is
"responsible for" (its out-neighbors).  The classes are then refined into an
exact schedule class by class — each refinement only has to resolve the small
out-degree, not the full degree.

Run with::

    python examples/scheduling_outdegree.py

(This example deliberately stays on the expert-level ``repro.core`` API: the
refinement step consumes the *orientation* of Theorem 1.1 (1) — a ``(k, 2)``
array of ``u -> v`` rows on the result — which is richer than the tidy
record surface of ``repro.api.solve``.  See
``examples/quickstart.py`` / ``frequency_assignment.py`` /
``ruling_set_clustering.py`` for the declarative front door.)
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.congest import generators
from repro.congest.ids import distinct_input_coloring
from repro.core.corollaries import outdegree_coloring
from repro.verify.coloring import assert_proper_coloring, color_classes
from repro.verify.orientation import orientation_outdegrees


def refine_class_into_schedule(graph, vertices, out, slot_of: dict[int, int]) -> None:
    """Refine one outdegree-class against the partial schedule built so far.

    Jobs of the class are processed in decreasing "responsibility" (outdegree
    ``out[v]`` under the orientation) and placed in the first slot free of
    conflicts with already-scheduled neighbors — the centralized stand-in for
    the per-class list-coloring step of the sublinear schedulers.  Because
    slots are shared across classes the final schedule never needs more than
    ``Delta + 1`` slots.
    """
    order = sorted((int(v) for v in vertices), key=lambda v: -int(out[v]))
    for v in order:
        taken = {slot_of[u] for u in graph.neighbors(v) if int(u) in slot_of}
        s = 0
        while s in taken:
            s += 1
        slot_of[v] = s


def main() -> None:
    graph = generators.power_law_cluster(500, 6, seed=11)
    delta = graph.max_degree
    print(f"workload: {graph.n} jobs, {graph.num_edges} conflicts, Delta = {delta}")

    beta = max(1, int(round(delta ** 0.5)))
    m = max(delta ** 4, graph.n)
    ids = distinct_input_coloring(graph, m, seed=11)

    coarse = outdegree_coloring(graph, ids, m, beta=beta)
    out = orientation_outdegrees(graph, coarse.orientation)
    print(
        f"coarse schedule: {coarse.num_colors} classes in {coarse.rounds} rounds "
        f"(beta = {beta}, max responsibility = {int(out.max())})"
    )

    # Refine the coarse classes one at a time into an exact shared schedule
    # (the class order is the "schedule" of Section 3.1 of the paper).
    slot_of: dict[int, int] = {}
    for _, vertices in sorted(color_classes(graph, coarse.colors).items()):
        refine_class_into_schedule(graph, vertices, out, slot_of)
    final_slot = np.array([slot_of[v] for v in range(graph.n)], dtype=np.int64)

    assert_proper_coloring(graph, final_slot)
    num_slots = len(set(final_slot.tolist()))
    busiest = int(np.bincount(final_slot).max())
    print(f"final schedule : {num_slots} conflict-free slots "
          f"(a sequential greedy schedule would use at most {delta + 1})")
    print(f"largest slot runs {busiest} jobs in parallel")


if __name__ == "__main__":
    main()
