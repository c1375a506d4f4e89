"""The experiment suite E1-E10 (one per theorem / corollary item).

The paper has no empirical evaluation section; the reproduction's experiments
verify every stated bound empirically and compare against the baselines the
paper discusses.  :func:`experiment_specs` is the one place that says what
each experiment sweeps: a declarative :class:`repro.api.spec.JobSpec` per
experiment (two for E5, three for E9), saved to ``specs/`` by
``scripts/generate_experiment_specs.py``.  :data:`EXPERIMENTS` says how each
experiment's records render as a :class:`repro.analysis.tables.Table`, with
the paper's bound (from :mod:`repro.analysis.bounds`) next to the measured
quantity, and :func:`run_experiment` replays the spec(s) and renders the
table.  ``scripts/generate_experiments_md.py`` writes EXPERIMENTS.md from
:func:`run_experiment`, so the recorded tables are exactly what it returns.

Every experiment runs on the ``"array"`` backend by default (the vectorized
CSR twin — identical outputs to the per-node reference simulator,
property-tested in ``tests/test_engine_parity.py``).  Pass
``backend="reference"`` to re-run any experiment on the model-faithful
scheduler, ``parity_check=True`` to re-execute every cell on the reference
backend and insist on identical results, or ``workers > 1`` to shard each
spec's cells across a process pool; the table is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis import bounds
from repro.analysis.tables import Table
from repro.api.registry import ParamSpec, register_algorithm
from repro.congest.ids import random_proper_coloring
from repro.core import baselines, one_round
from repro.core.reduce import kuhn_wattenhofer_reduction
from repro.engine.base import Engine
from repro.engine.batch import BatchRunner, GraphSpec, Workload
from repro.verify.coloring import assert_proper_coloring

__all__ = ["EXPERIMENTS", "ExperimentTable", "run_experiment", "experiment_specs"]


# --------------------------------------------------------------------------- #
# Tasks only the experiments run
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
        kw = kuhn_wattenhofer_reduction(w.graph, start.colors, start.color_space_size,
                                        backend=engine)
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


# --------------------------------------------------------------------------- #
# What E1-E10 sweep: saved declarative specs
# --------------------------------------------------------------------------- #


def experiment_specs() -> "dict[str, JobSpec]":
    """Every experiment's sweep as a declarative :class:`JobSpec`.

    These are the documents ``scripts/generate_experiment_specs.py`` saves to
    ``specs/``, ``repro run --spec`` replays and :func:`run_experiment`
    renders (the bound columns of the tables are derived, not measured).
    Keys are experiment names; E5 and E9 have one key per spec, named
    ``E5_<variant>`` and ``E9_delta<Delta>``.

    Data-dependent axes are *frozen into the spec* here:

    * E2's ``k`` axis doubles until the round count collapses to 1 (or ``k``
      passes ``16*Delta``, the Linial regime) — the spec records the ks that
      doubling visits, discovered with a quick array-backend run;
    * E4/E5's ``beta`` / ``d`` axes are ``Delta^eps`` for ``eps`` in 1/4, 1/2
      and 3/4, clamped to ``[1, Delta-1]``, of the cell's effective Delta;
      E9 pairs each Delta with the largest ``k`` Theorem 1.6 allows and its
      tight ``m``;
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

    def degree_scaled_axis(cell: GraphSpec) -> list[int]:
        eff = runner.workload(cell).eff_delta
        return [max(1, min(eff - 1, int(round(eff ** eps)))) for eps in (0.25, 0.5, 0.75)]

    runner = BatchRunner(backend="array")
    specs: dict[str, JobSpec] = {}

    # E1 — Corollary 1.2(1): one-round reduction over two families.
    specs["E1"] = job("linial_reduction", [
        GraphSpec(family, 300, delta, 1)
        for family in ("random_regular", "gnp") for delta in (4, 8, 16)
    ])

    # E2 — the k sweep; freeze the data-dependent doubling axis.
    e2_cell = GraphSpec("random_regular", 400, 16, 2)
    eff = runner.workload(e2_cell).eff_delta
    ks = [1]
    while runner.run_cell("kdelta", e2_cell, params={"k": ks[-1]})["rounds"] > 1:
        if 2 * ks[-1] > 16 * eff:
            break
        ks.append(2 * ks[-1])
    specs["E2"] = job("kdelta", [e2_cell], grid=[{"k": k} for k in ks])

    # E3 — Delta^2 colors in O(1) rounds.
    specs["E3"] = job("delta_squared",
                      [GraphSpec("random_regular", 400, delta, 3) for delta in (8, 16, 32)])

    # E4 — beta-outdegree colorings.
    e4_cell = GraphSpec("random_regular", 300, 16, 4)
    specs["E4"] = job("outdegree", [e4_cell],
                      grid=[{"beta": b} for b in degree_scaled_axis(e4_cell)])

    # E5 — defective colorings, one spec per variant.
    e5_cell = GraphSpec("random_regular", 300, 16, 5)
    ds = degree_scaled_axis(e5_cell)
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

    # E9 — Theorem 1.6 tightness, one spec per Delta.
    for delta in (4, 6, 8):
        k = min(delta - 1, (delta + 3) // 2)
        specs[f"E9_delta{delta}"] = job(
            "one_round_tightness", [GraphSpec("random_regular", 200, delta, 9)],
            params={"k": k, "m": one_round.required_input_colors(delta, k)},
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


# --------------------------------------------------------------------------- #
# How E1-E10 render: one table description per experiment
# --------------------------------------------------------------------------- #

Record = dict[str, Any]


@dataclass(frozen=True)
class ExperimentTable:
    """How one experiment's replayed records render as its table.

    ``rows`` takes one record list per spec of the experiment, in
    :func:`experiment_specs` order, and yields the table's rows.  ``title``
    is formatted with the first record's fields (``{Delta}`` is the cell's
    effective Delta).
    """

    title: str
    columns: tuple[str, ...]
    rows: Callable[..., Iterable[Sequence[Any]]]
    note: str

    def table(self, *records: list[Record]) -> Table:
        table = Table(self.title.format_map(records[0][0]), list(self.columns))
        for row in self.rows(*records):
            table.add_row(*row)
        table.add_note(self.note)
        return table


def _each(row: Callable[[Record], Sequence[Any]]) -> Callable[..., Iterable[Sequence[Any]]]:
    """The rows of a one-spec experiment: one per record, in grid order."""
    return lambda records: map(row, records)


def _e5_rows(one_round: list[Record], multi_round: list[Record]):
    for pair in zip(one_round, multi_round, strict=True):
        for variant, r in zip(("one round (5)", "multi round (6)"), pair):
            yield (variant, r["d"], r["rounds"], r["colors used"],
                   bounds.corollary12_5_colors(r["Delta"], r["d"]), r["max defect"])


def _e8_row(r: Record) -> tuple:
    if r.get("baseline"):
        method, bound = "SEW13 baseline", bounds.sew13_ruling_rounds(r["Delta"], r["r"])
    else:
        method, bound = "Theorem 1.5", bounds.theorem15_rounds(r["Delta"], r["r"])
    return r["r"], method, r["rounds"], r["ruling rounds only"], bound, r["set size"]


def _e9_rows(*per_delta: list[Record]):
    for records in per_delta:
        for r in records:
            yield (r["Delta"], r["m"], r["k"], r["rounds"], r["output colors space"],
                   r["m - k"], r["proper"])


#: E10's row label per contender, formatted with the record's fields.
_E10_LABELS = {
    "mother": "mother algorithm (k={k})",
    "linial": "Linial from unique IDs",
    "beg18": "locally-iterative (BEG18 regime) + reduce",
    "kw_halving": "Delta^2 + Kuhn-Wattenhofer halving",
    "luby": "randomized (Luby-style, Delta+1 palette)",
    "greedy": "sequential greedy (centralized)",
}


EXPERIMENTS: dict[str, ExperimentTable] = {
    "E1": ExperimentTable(
        "E1 — Corollary 1.2(1): one-round reduction of a Delta^4-coloring",
        ("family", "Delta", "n", "rounds", "colors used", "color space",
         "paper bound 256*Delta^2"),
        _each(lambda r: (r["family"], r["Delta"], r["n"], r["rounds"], r["colors used"],
                         r["color space"], bounds.corollary12_1_colors(r["Delta"]))),
        "Every row must have rounds = 1 and color space <= 256*Delta^2.",
    ),
    "E2": ExperimentTable(
        "E2 — Corollary 1.2(2): O(k*Delta) colors in O(Delta/k) rounds (Delta={Delta})",
        ("k", "rounds", "round bound 16*Delta/k", "colors used", "color bound 16*Delta*k"),
        _each(lambda r: (r["k"], r["rounds"], bounds.corollary12_2_rounds(r["Delta"], r["k"]),
                         r["colors used"], bounds.corollary12_2_colors(r["Delta"], r["k"]))),
        "Rounds fall linearly in 1/k while the color budget grows linearly in k.",
    ),
    "E3": ExperimentTable(
        "E3 — Corollary 1.2(3): Delta^2 colors in O(1) rounds (k = ceil(Delta/16))",
        ("Delta", "rounds", "colors used", "color bound Delta^2"),
        _each(lambda r: (r["Delta"], r["rounds"], r["colors used"],
                         bounds.corollary12_3_colors(r["Delta"]))),
        "Rounds stay O(1) (at most 256 by the proof, tiny in practice) as Delta grows.",
    ),
    "E4": ExperimentTable(
        "E4 — Corollary 1.2(4): beta-outdegree O(Delta/beta)-colorings (Delta={Delta})",
        ("beta", "rounds", "round bound O(Delta/beta)", "colors used",
         "color bound O(Delta/beta)", "max outdegree"),
        _each(lambda r: (r["beta"], r["rounds"], bounds.corollary12_4_rounds(r["Delta"], r["beta"]),
                         r["colors used"], bounds.corollary12_4_colors(r["Delta"], r["beta"]),
                         r["max outdegree"])),
        "The orientation of monochromatic edges always has outdegree <= beta (hard invariant).",
    ),
    "E5": ExperimentTable(
        "E5 — Corollary 1.2(5)/(6): d-defective O((Delta/d)^2)-colorings (Delta={Delta})",
        ("variant", "d", "rounds", "colors used", "color bound O((Delta/d)^2)", "max defect"),
        _e5_rows,
        "max defect <= d in every row (hard invariant).",
    ),
    "E6": ExperimentTable(
        "E6 — (Delta+1)-coloring pipeline: IDs -> Linial -> k=1 mother -> class removal",
        ("n", "Delta", "linial rounds", "mother rounds", "reduce rounds", "total rounds",
         "colors used", "Delta+1"),
        _each(lambda r: (r["n"], r["Delta"], r["linial rounds"], r["mother rounds"],
                         r["reduce rounds"], r["rounds"], r["colors used"], r["Delta"] + 1)),
        "Total rounds grow linearly in Delta and only additively (log* n) in n.",
    ),
    "E7": ExperimentTable(
        "E7 — Theorem 1.3: O(Delta^(1+eps))-coloring (eps={epsilon})",
        ("Delta", "rounds (measured)", "paper rounds O(Delta^(1/2-eps/2))",
         "substituted bound O(Delta^eps + Delta^(1-eps))", "colors used",
         "color bound Delta^(1+eps)"),
        _each(lambda r: (r["Delta"], r["rounds"], bounds.theorem13_rounds(r["Delta"], r["epsilon"]),
                         r["Delta"] ** r["epsilon"] + r["Delta"] ** (1 - r["epsilon"]),
                         r["colors used"], bounds.theorem13_colors(r["Delta"], r["epsilon"]))),
        "The Theorem 3.1 black box ([Bar16, BEG18]) is substituted by the k=1 mother algorithm; "
        "measured rounds follow the substituted bound, colors follow the paper bound "
        "(see repro.core.pipelines).",
    ),
    "E8": ExperimentTable(
        "E8 — Theorem 1.5: (2,r)-ruling sets (Delta={Delta})",
        ("r", "method", "rounds", "ruling rounds only", "paper bound", "set size"),
        _each(_e8_row),
        "The ruling-phase rounds follow Lemma 3.2 exactly; the end-to-end advantage of "
        "Theorem 1.5 depends on the Theorem 3.1 black box we substitute "
        "(see repro.core.pipelines).",
    ),
    "E9": ExperimentTable(
        "E9 — Theorem 1.6: one-round reduction of exactly k colors",
        ("Delta", "m = k(Delta-k+3)", "k (paper)", "rounds", "output colors space", "m - k",
         "proper"),
        _e9_rows,
        "Lemma 4.3's matching impossibility (no one-round algorithm reaches m-k-1 colors when "
        "m = k(Delta-k+3)-1) is verified exhaustively for small Delta in the test suite.",
    ),
    "E10": ExperimentTable(
        "E10 — baselines vs the mother algorithm (Delta={Delta}, n={n})",
        ("algorithm", "rounds", "colors used", "color space"),
        _each(lambda r: (_E10_LABELS[r["algorithm"]].format_map(r), r["rounds"],
                         r["colors used"], r["color space"])),
        "Deterministic Delta+1 in O(Delta) rounds vs O(Delta log Delta) for KW halving; "
        "randomized Luby needs O(log n) rounds but is not deterministic.",
    ),
}


def run_experiment(
    name: str, backend: str = "array", parity_check: bool = False, workers: int = 1
) -> Table:
    """Replay experiment ``name``'s spec(s) (``"E1"`` .. ``"E10"``) and render its table.

    ``backend``, ``parity_check`` and ``workers`` are :func:`run_spec`'s
    execution overrides: they change how the cells run, never which cells
    run or what they record.
    """
    # Imported here: the registry imports this module to register its tasks.
    from repro.api.solve import run_spec

    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    records = [
        run_spec(job, backend=backend, parity_check=parity_check, workers=workers)[0].records
        for key, job in experiment_specs().items() if key.split("_")[0] == name
    ]
    return EXPERIMENTS[name].table(*records)
