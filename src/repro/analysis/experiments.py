"""The experiment suite E1-E10 (one per theorem / corollary item).

The paper has no empirical evaluation section; the reproduction's experiments
verify every stated bound empirically and compare against the baselines the
paper discusses.  Each ``run_eN`` function expresses its workload as a grid of
:class:`repro.engine.batch.GraphSpec` cells, drives them through a
:class:`repro.engine.batch.BatchRunner`, and returns a
:class:`repro.analysis.tables.Table` with one row per configuration, including
the paper's bound next to the measured quantity.

All experiments run on the ``"array"`` backend by default (the vectorized CSR
twin — identical outputs to the per-node reference simulator, property-tested
in ``tests/test_engine_parity.py``).  Pass ``backend="reference"`` to re-run
any experiment on the model-faithful scheduler, or ``parity_check=True`` to
have the runner re-execute every cell on the reference backend and insist on
identical results.

Sizes default to values that finish in seconds; the benchmark harness and the
``EXPERIMENTS.md`` generator call them with the same defaults so the recorded
tables are exactly reproducible.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis import bounds
from repro.analysis.tables import Table
from repro.api.registry import ParamSpec, register_algorithm
from repro.congest import generators
from repro.congest.graph import Graph
from repro.congest.ids import delta4_input_coloring, random_proper_coloring
from repro.core import baselines, one_round
from repro.engine.base import Engine
from repro.engine.batch import BatchRunner, GraphSpec, Workload
from repro.verify.coloring import assert_proper_coloring

__all__ = [
    "EXPERIMENTS", "run_experiment", "delta4_colored_graph", "make_runner",
    "experiment_specs",
] + [f"run_e{i}" for i in range(1, 11)]


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


def make_runner(
    backend: str | Engine = "array", parity_check: bool = False, workers: int = 1
) -> BatchRunner:
    """The BatchRunner every experiment drives its grid through.

    ``workers > 1`` shards every grid sweep (``runner.run``) across a process
    pool; the cell-by-cell parts of the experiments (data-dependent axes,
    single-cell comparisons) stay serial.  Records are identical either way.
    """
    return BatchRunner(backend=backend, parity_check=parity_check, workers=workers)


def degree_scaled_axis(eff_delta: int, epsilons: tuple[float, ...]) -> list[int]:
    """The ``Delta^eps``-derived parameter axis of E4/E5, clamped to ``[1, Delta-1]``.

    Shared by the experiments and by :func:`experiment_specs`, so the saved
    specs can never drift from what the experiments actually sweep.
    """
    return [max(1, min(eff_delta - 1, int(round(eff_delta ** eps)))) for eps in epsilons]


def theorem16_tight_km(delta: int) -> tuple[int, int]:
    """E9's tight pairing: the largest ``k`` Theorem 1.6 allows and its ``m``."""
    k = min(delta - 1, (delta + 3) // 2)
    return k, one_round.required_input_colors(delta, k)


def doubling_k_axis(runner: BatchRunner, spec: GraphSpec, eff_delta: int):
    """E2's data-dependent axis: yield ``(k, record)`` doubling ``k`` until the
    round count collapses to 1 (or the Linial regime ``k > 16*Delta``)."""
    k = 1
    while True:
        rec = runner.run_cell("kdelta", spec, params={"k": k})
        yield k, rec
        if rec["rounds"] <= 1:
            break
        k *= 2
        if k > 16 * eff_delta:
            break


def delta4_colored_graph(
    family: str, n: int, delta: int, seed: int = 0
) -> tuple[Graph, np.ndarray, int]:
    """A graph from the named family together with a ``Delta^4``-input coloring.

    This is the standing assumption of Corollary 1.2 ("on any Delta^4-input
    colored graph"); in practice the input coloring would come from Linial's
    algorithm, here it is manufactured directly so the corollary experiments
    are independent of the Linial experiment.  When the ``Delta^4`` space is
    large enough every vertex receives a *distinct* color (as with unique IDs);
    otherwise a greedy coloring is spread into the color space.

    (Kept as a public helper for the benchmark drivers; the experiments below
    obtain the same workload through :meth:`BatchRunner.workload`.  Both paths
    build the coloring with :func:`repro.congest.ids.delta4_input_coloring`,
    so the recorded tables are reproducible either way.)
    """
    graph = generators.by_name(family, n, delta, seed=seed)
    colors, m = delta4_input_coloring(graph, seed=seed)
    return graph, colors, m


# --------------------------------------------------------------------------- #
# E1 — Corollary 1.2 (1): Linial's one-round color reduction
# --------------------------------------------------------------------------- #


def run_e1(
    n: int = 300,
    deltas: tuple[int, ...] = (4, 8, 16),
    seed: int = 1,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    table = Table(
        "E1 — Corollary 1.2(1): one-round reduction of a Delta^4-coloring",
        ["family", "Delta", "n", "rounds", "colors used", "color space", "paper bound 256*Delta^2"],
    )
    cells = [
        GraphSpec(family, n, delta, seed)
        for family in ("random_regular", "gnp")
        for delta in deltas
    ]
    for rec in runner.run("linial_reduction", cells):
        table.add_row(
            rec["family"], rec["Delta"], rec["n"], rec["rounds"], rec["colors used"],
            rec["color space"], bounds.corollary12_1_colors(rec["Delta"]),
        )
    table.add_note("Every row must have rounds = 1 and color space <= 256*Delta^2.")
    return table


# --------------------------------------------------------------------------- #
# E2 — Corollary 1.2 (2): the k sweep (rounds vs colors trade-off)
# --------------------------------------------------------------------------- #


def run_e2(
    n: int = 400,
    delta: int = 16,
    family: str = "random_regular",
    seed: int = 2,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    spec = GraphSpec(family, n, delta, seed)
    eff = runner.workload(spec).eff_delta
    table = Table(
        f"E2 — Corollary 1.2(2): O(k*Delta) colors in O(Delta/k) rounds (Delta={eff})",
        ["k", "rounds", "round bound 16*Delta/k", "colors used", "color bound 16*Delta*k"],
    )
    # The k axis is data-dependent (doubled until the round count collapses to
    # 1), so the sweep goes cell by cell through the runner, which still shares
    # the one cached graph/coloring across every k.
    for k, rec in doubling_k_axis(runner, spec, eff):
        table.add_row(
            k, rec["rounds"], bounds.corollary12_2_rounds(eff, k), rec["colors used"],
            bounds.corollary12_2_colors(eff, k),
        )
    table.add_note("Rounds fall linearly in 1/k while the color budget grows linearly in k.")
    return table


# --------------------------------------------------------------------------- #
# E3 — Corollary 1.2 (3): Delta^2 colors in O(1) rounds
# --------------------------------------------------------------------------- #


def run_e3(
    n: int = 400,
    deltas: tuple[int, ...] = (8, 16, 32),
    seed: int = 3,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    table = Table(
        "E3 — Corollary 1.2(3): Delta^2 colors in O(1) rounds (k = ceil(Delta/16))",
        ["Delta", "rounds", "colors used", "color bound Delta^2"],
    )
    cells = [GraphSpec("random_regular", n, delta, seed) for delta in deltas]
    for rec in runner.run("delta_squared", cells):
        table.add_row(
            rec["Delta"], rec["rounds"], rec["colors used"],
            bounds.corollary12_3_colors(rec["Delta"]),
        )
    table.add_note("Rounds stay O(1) (at most 256 by the proof, tiny in practice) as Delta grows.")
    return table


# --------------------------------------------------------------------------- #
# E4 — Corollary 1.2 (4): beta-outdegree colorings
# --------------------------------------------------------------------------- #


def run_e4(
    n: int = 300,
    delta: int = 16,
    epsilons: tuple[float, ...] = (0.25, 0.5, 0.75),
    seed: int = 4,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    spec = GraphSpec("random_regular", n, delta, seed)
    eff = runner.workload(spec).eff_delta
    table = Table(
        f"E4 — Corollary 1.2(4): beta-outdegree O(Delta/beta)-colorings (Delta={eff})",
        ["beta", "rounds", "round bound O(Delta/beta)", "colors used", "color bound O(Delta/beta)",
         "max outdegree"],
    )
    betas = degree_scaled_axis(eff, epsilons)
    for rec in runner.run("outdegree", [spec], params_grid=[{"beta": b} for b in betas]):
        table.add_row(
            rec["beta"], rec["rounds"], bounds.corollary12_4_rounds(eff, rec["beta"]),
            rec["colors used"], bounds.corollary12_4_colors(eff, rec["beta"]),
            rec["max outdegree"],
        )
    table.add_note("The orientation of monochromatic edges always has outdegree <= beta (hard invariant).")
    return table


# --------------------------------------------------------------------------- #
# E5 — Corollary 1.2 (5)+(6): defective colorings
# --------------------------------------------------------------------------- #


def run_e5(
    n: int = 300,
    delta: int = 16,
    epsilons: tuple[float, ...] = (0.25, 0.5, 0.75),
    seed: int = 5,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    spec = GraphSpec("random_regular", n, delta, seed)
    eff = runner.workload(spec).eff_delta
    table = Table(
        f"E5 — Corollary 1.2(5)/(6): d-defective O((Delta/d)^2)-colorings (Delta={eff})",
        ["variant", "d", "rounds", "colors used", "color bound O((Delta/d)^2)", "max defect"],
    )
    for d in degree_scaled_axis(eff, epsilons):
        one = runner.run_cell("defective_one_round", spec, params={"d": d})
        table.add_row(
            "one round (5)", d, one["rounds"], one["colors used"],
            bounds.corollary12_5_colors(eff, d), one["max defect"],
        )
        multi = runner.run_cell("defective", spec, params={"d": d})
        table.add_row(
            "multi round (6)", d, multi["rounds"], multi["colors used"],
            bounds.corollary12_5_colors(eff, d), multi["max defect"],
        )
    table.add_note("max defect <= d in every row (hard invariant).")
    return table


# --------------------------------------------------------------------------- #
# E6 — the (Delta+1)-coloring pipeline
# --------------------------------------------------------------------------- #


def run_e6(
    sizes: tuple[int, ...] = (100, 400, 1000),
    delta: int = 12,
    seed: int = 6,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    table = Table(
        "E6 — (Delta+1)-coloring pipeline: IDs -> Linial -> k=1 mother -> class removal",
        ["n", "Delta", "linial rounds", "mother rounds", "reduce rounds", "total rounds",
         "colors used", "Delta+1"],
    )
    cells = [GraphSpec("random_regular", n, delta, seed) for n in sizes]
    for rec in runner.run("delta_plus_one", cells):
        table.add_row(
            rec["n"], rec["Delta"], rec["linial rounds"], rec["mother rounds"],
            rec["reduce rounds"], rec["rounds"], rec["colors used"], rec["Delta"] + 1,
        )
    table.add_note("Total rounds grow linearly in Delta and only additively (log* n) in n.")
    return table


# --------------------------------------------------------------------------- #
# E7 — Theorem 1.3: O(Delta^{1+eps}) colors
# --------------------------------------------------------------------------- #


def run_e7(
    n: int = 300,
    deltas: tuple[int, ...] = (8, 16, 32),
    epsilon: float = 0.5,
    seed: int = 7,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    table = Table(
        f"E7 — Theorem 1.3: O(Delta^(1+eps))-coloring (eps={epsilon})",
        ["Delta", "rounds (measured)", "paper rounds O(Delta^(1/2-eps/2))",
         "substituted bound O(Delta^eps + Delta^(1-eps))", "colors used", "color bound Delta^(1+eps)"],
    )
    cells = [GraphSpec("random_regular", n, delta, seed) for delta in deltas]
    for rec in runner.run("theorem13", cells, params_grid=[{"epsilon": epsilon}]):
        eff = rec["Delta"]
        substituted = eff ** epsilon + eff ** (1 - epsilon)
        table.add_row(
            eff, rec["rounds"], bounds.theorem13_rounds(eff, epsilon), substituted,
            rec["colors used"], bounds.theorem13_colors(eff, epsilon),
        )
    table.add_note(
        "The Theorem 3.1 black box ([Bar16, BEG18]) is substituted by the k=1 mother algorithm; "
        "measured rounds follow the substituted bound, colors follow the paper bound "
        "(see repro.core.pipelines)."
    )
    return table


# --------------------------------------------------------------------------- #
# E8 — Theorem 1.5: (2, r)-ruling sets vs the SEW13 baseline
# --------------------------------------------------------------------------- #


def run_e8(
    n: int = 300,
    delta: int = 16,
    rs: tuple[int, ...] = (2, 3),
    seed: int = 8,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    spec = GraphSpec("random_regular", n, delta, seed)
    eff = runner.workload(spec).eff_delta
    table = Table(
        f"E8 — Theorem 1.5: (2,r)-ruling sets (Delta={eff})",
        ["r", "method", "rounds", "ruling rounds only", "paper bound", "set size"],
    )
    for r in rs:
        ours = runner.run_cell("ruling_set", spec, params={"r": r})
        table.add_row(
            r, "Theorem 1.5", ours["rounds"], ours["ruling rounds only"],
            bounds.theorem15_rounds(eff, r), ours["set size"],
        )
        base = runner.run_cell("ruling_set", spec, params={"r": r, "baseline": True})
        table.add_row(
            r, "SEW13 baseline", base["rounds"], base["ruling rounds only"],
            bounds.sew13_ruling_rounds(eff, r), base["set size"],
        )
    table.add_note(
        "The ruling-phase rounds follow Lemma 3.2 exactly; the end-to-end advantage of Theorem 1.5 "
        "depends on the Theorem 3.1 black box we substitute (see repro.core.pipelines)."
    )
    return table


# --------------------------------------------------------------------------- #
# E9 — Theorem 1.6: one-round color reduction, tightness
# --------------------------------------------------------------------------- #


@register_algorithm(
    "one_round_tightness",
    summary="Theorem 1.6: one-round reduction of exactly k colors from a tight m-coloring",
    guarantee="proper m-k coloring in exactly 1 round when m = k(Delta-k+3)",
    source="Theorem 1.6 / Lemma 4.1",
    params=[
        ParamSpec("k", int, minimum=1, help="number of colors removed in the one round"),
        ParamSpec("m", int, minimum=1,
                  help="input color-space size (tight at k(Delta-k+3))"),
    ],
)
def _task_one_round_tightness(w: Workload, engine: Engine, k: int, m: int) -> Mapping[str, Any]:
    """Bespoke E9 task: Theorem 1.6 needs its own tight input coloring, not Delta^4."""
    delta = w.spec.delta
    colors, m = random_proper_coloring(w.graph, num_colors=m, seed=w.spec.seed)
    res = one_round.one_round_color_reduction(w.graph, colors, m, k=k, delta=delta)
    proper = True
    try:
        assert_proper_coloring(w.graph, res.colors, max_colors=m - k)
    except AssertionError:
        proper = False
    return {
        "rounds": int(res.rounds),
        "m": int(m),
        "k": int(k),
        "output colors space": int(res.color_space_size),
        "m - k": int(m - k),
        "proper": proper,
        "_colors": res.colors,
    }


def run_e9(
    n: int = 200,
    deltas: tuple[int, ...] = (4, 6, 8),
    seed: int = 9,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    table = Table(
        "E9 — Theorem 1.6: one-round reduction of exactly k colors",
        ["Delta", "m = k(Delta-k+3)", "k (paper)", "rounds", "output colors space", "m - k",
         "proper"],
    )
    for delta in deltas:
        # Use the tight m for the largest k allowed by the theorem.
        k, m = theorem16_tight_km(delta)
        spec = GraphSpec("random_regular", n, delta, seed)
        rec = runner.run_cell("one_round_tightness", spec, params={"k": k, "m": m})
        table.add_row(
            delta, rec["m"], rec["k"], rec["rounds"], rec["output colors space"],
            rec["m - k"], rec["proper"],
        )
    table.add_note(
        "Lemma 4.3's matching impossibility (no one-round algorithm reaches m-k-1 colors when "
        "m = k(Delta-k+3)-1) is verified exhaustively for small Delta in the test suite."
    )
    return table


# --------------------------------------------------------------------------- #
# E10 — baseline comparison
# --------------------------------------------------------------------------- #


@register_algorithm(
    "baseline",
    summary="one contender of the E10 baseline comparison",
    guarantee="proper coloring (contender-specific color/round bounds; "
              "'luby' is randomized, 'greedy' is centralized)",
    source="E10 / Section 1 baselines",
    params=[
        ParamSpec("algorithm", str,
                  choices=("mother", "linial", "beg18", "kw_halving", "luby", "greedy"),
                  help="which contender to run"),
        ParamSpec("k", int, default=1, minimum=1,
                  help="batch size for the 'mother' contender"),
    ],
)
def _task_e10_baselines(w: Workload, engine: Engine, algorithm: str, k: int = 1) -> Mapping[str, Any]:
    """One row of the E10 comparison; ``algorithm`` picks the contender."""
    from repro.core import corollaries
    from repro.core.linial import linial_coloring

    if algorithm == "mother":
        res = corollaries.kdelta_coloring(w.graph, w.input_colors, w.m, k=k, backend=engine)
    elif algorithm == "linial":
        res = linial_coloring(w.graph, seed=w.spec.seed, backend=engine)
    elif algorithm == "beg18":
        res = baselines.locally_iterative_beg18(w.graph, w.input_colors, w.m, backend=engine)
    elif algorithm == "kw_halving":
        start = corollaries.delta_squared_coloring(w.graph, w.input_colors, w.m, backend=engine)
        kw = engine.kuhn_wattenhofer(w.graph, start.colors, start.color_space_size)
        return {
            "rounds": int(start.rounds + kw.rounds),
            "colors used": int(kw.num_colors),
            "color space": int(kw.color_space_size),
            "_colors": kw.colors,
        }
    elif algorithm == "luby":
        res = baselines.luby_randomized_coloring(w.graph, seed=w.spec.seed)
    elif algorithm == "greedy":
        res = baselines.greedy_sequential(w.graph)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown E10 algorithm {algorithm!r}")
    return {
        "rounds": int(res.rounds),
        "colors used": int(res.num_colors),
        "color space": int(res.color_space_size),
        "_colors": res.colors,
    }


def run_e10(
    n: int = 300,
    delta: int = 16,
    seed: int = 10,
    backend: str | Engine = "array",
    parity_check: bool = False,
    workers: int = 1,
) -> Table:
    runner = make_runner(backend, parity_check, workers)
    spec = GraphSpec("random_regular", n, delta, seed)
    workload = runner.workload(spec)
    table = Table(
        f"E10 — baselines vs the mother algorithm (Delta={workload.eff_delta}, n={workload.graph.n})",
        ["algorithm", "rounds", "colors used", "color space"],
    )
    rows: list[tuple[str, dict[str, Any]]] = [
        *[(f"mother algorithm (k={k})", {"algorithm": "mother", "k": k}) for k in (1, 4, 16)],
        ("Linial from unique IDs", {"algorithm": "linial"}),
        ("locally-iterative (BEG18 regime) + reduce", {"algorithm": "beg18"}),
        ("Delta^2 + Kuhn-Wattenhofer halving", {"algorithm": "kw_halving"}),
        ("randomized (Luby-style, Delta+1 palette)", {"algorithm": "luby"}),
        ("sequential greedy (centralized)", {"algorithm": "greedy"}),
    ]
    for label, params in rows:
        rec = runner.run_cell("baseline", spec, params=params)
        table.add_row(label, rec["rounds"], rec["colors used"], rec["color space"])
    table.add_note("Deterministic Delta+1 in O(Delta) rounds vs O(Delta log Delta) for KW halving; "
                   "randomized Luby needs O(log n) rounds but is not deterministic.")
    return table


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #

EXPERIMENTS: dict[str, Callable[..., Table]] = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
}


def run_experiment(name: str, **kwargs) -> Table:
    """Run one experiment by name (``"E1"`` .. ``"E10"``)."""
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](**kwargs)


# --------------------------------------------------------------------------- #
# E1-E10 as saved declarative specs
# --------------------------------------------------------------------------- #


def experiment_specs() -> "dict[str, JobSpec]":
    """Every experiment's sweep, re-expressed as a declarative :class:`JobSpec`.

    These are the documents ``scripts/generate_experiment_specs.py`` saves to
    ``specs/`` and ``repro run --spec`` replays; replaying one produces the
    exact records the corresponding ``run_eN`` function sweeps (the bound
    columns of the rendered tables are derived, not measured).

    Data-dependent axes are *frozen into the spec* at generation time, the
    declarative analogue of what the experiment computes on the fly:

    * E2's ``k`` axis doubles until the round count collapses to 1 — the spec
      records the ks that doubling visits (discovered with a quick array-
      backend run here);
    * E4/E5's ``beta`` / ``d`` axes and E9's tight ``(k, m)`` pairs depend
      only on the cell's effective Delta, computed the same way the
      experiment computes them;
    * E5 (two algorithm variants) and E9 (per-Delta parameter pairing) expand
      into one spec per variant / Delta, since a spec names exactly one
      algorithm and sweeps a pure (cells x params) grid.
    """
    from repro.api.spec import JobSpec, Problem, Run

    def job(algorithm: str, cells: list[GraphSpec], grid=None, params=None) -> JobSpec:
        return JobSpec(
            run=Run(algorithm=algorithm, params=params or {}, backend="array"),
            problems=tuple(Problem(graph=cell) for cell in cells),
            params_grid=None if grid is None else tuple(grid),
        )

    runner = make_runner("array")
    specs: dict[str, JobSpec] = {}

    # E1 — Corollary 1.2(1): one-round reduction over two families.
    specs["E1"] = job("linial_reduction", [
        GraphSpec(family, 300, delta, 1)
        for family in ("random_regular", "gnp") for delta in (4, 8, 16)
    ])

    # E2 — the k sweep; freeze the data-dependent doubling axis (the same
    # discovery loop run_e2 drives, via the shared helper).
    e2_cell = GraphSpec("random_regular", 400, 16, 2)
    eff = runner.workload(e2_cell).eff_delta
    ks = [k for k, _ in doubling_k_axis(runner, e2_cell, eff)]
    specs["E2"] = job("kdelta", [e2_cell], grid=[{"k": k} for k in ks])

    # E3 — Delta^2 colors in O(1) rounds.
    specs["E3"] = job("delta_squared",
                      [GraphSpec("random_regular", 400, delta, 3) for delta in (8, 16, 32)])

    # E4 — beta-outdegree colorings; betas derived from the effective Delta
    # with the same shared helper run_e4 uses.
    e4_cell = GraphSpec("random_regular", 300, 16, 4)
    betas = degree_scaled_axis(runner.workload(e4_cell).eff_delta, (0.25, 0.5, 0.75))
    specs["E4"] = job("outdegree", [e4_cell], grid=[{"beta": b} for b in betas])

    # E5 — defective colorings, one spec per variant.
    e5_cell = GraphSpec("random_regular", 300, 16, 5)
    ds = degree_scaled_axis(runner.workload(e5_cell).eff_delta, (0.25, 0.5, 0.75))
    specs["E5_one_round"] = job("defective_one_round", [e5_cell], grid=[{"d": d} for d in ds])
    specs["E5_multi_round"] = job("defective", [e5_cell], grid=[{"d": d} for d in ds])

    # E6 — the (Delta+1) pipeline over growing n.
    specs["E6"] = job("delta_plus_one",
                      [GraphSpec("random_regular", n, 12, 6) for n in (100, 400, 1000)])

    # E7 — Theorem 1.3 over growing Delta.
    specs["E7"] = job("theorem13",
                      [GraphSpec("random_regular", 300, delta, 7) for delta in (8, 16, 32)],
                      params={"epsilon": 0.5})

    # E8 — ruling sets: Theorem 1.5 vs the SEW13 baseline, per radius.
    e8_cell = GraphSpec("random_regular", 300, 16, 8)
    specs["E8"] = job("ruling_set", [e8_cell], grid=[
        {"r": r, **({"baseline": True} if baseline else {})}
        for r in (2, 3) for baseline in (False, True)
    ])

    # E9 — Theorem 1.6 tightness; (k, m) is paired per Delta (the shared
    # helper run_e9 uses), one spec each.
    for delta in (4, 6, 8):
        k, m = theorem16_tight_km(delta)
        specs[f"E9_delta{delta}"] = job(
            "one_round_tightness", [GraphSpec("random_regular", 200, delta, 9)],
            params={"k": k, "m": m},
        )

    # E10 — the baseline comparison as a params grid over contenders.
    e10_cell = GraphSpec("random_regular", 300, 16, 10)
    specs["E10"] = job("baseline", [e10_cell], grid=[
        {"algorithm": "mother", "k": 1},
        {"algorithm": "mother", "k": 4},
        {"algorithm": "mother", "k": 16},
        {"algorithm": "linial"},
        {"algorithm": "beg18"},
        {"algorithm": "kw_halving"},
        {"algorithm": "luby"},
        {"algorithm": "greedy"},
    ])
    return specs
