"""Regenerate EXPERIMENTS.md from the E1-E10 tables the benchmark harness records.

Usage::

    python -m pytest benchmarks -k regenerate --override-ini='testpaths=' \\
        --benchmark-disable -q                  # writes benchmarks/results/E*.md
    python scripts/generate_experiments_md.py  # stitches EXPERIMENTS.md

Both steps are deterministic, so re-running them on an unchanged tree leaves
``git diff`` empty (CI checks this).  The per-experiment commentary below
states what the paper claims, what we measure, and whether the shape holds;
the numbers are pasted verbatim from ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

PREAMBLE = """\
# EXPERIMENTS — paper claims vs measured behaviour

The paper ("Distributed Graph Coloring Made Easy", Maus, SPAA 2021) is a theory
paper with no empirical tables or figures; its evaluation is the set of
theorems.  Every experiment below therefore reproduces one theorem / corollary
item: we run the algorithm on the round-synchronous CONGEST simulator, measure
rounds / colors / structural guarantees, and put the paper's bound next to the
measurement.  Tables are produced by
`python -m pytest benchmarks -k regenerate --override-ini='testpaths=' --benchmark-disable`
(which writes `benchmarks/results/E*.md`) and stitched together by
`python scripts/generate_experiments_md.py`; the small-instance versions of the
same tables are asserted in the test suite (`tests/test_analysis.py`).

Reading guide:

* **Hard invariants** (proper coloring, defect <= d, outdegree <= beta,
  partition degree <= d, ruling-set independence and domination) are checked by
  `repro.verify` on every run — a violation fails the test/benchmark, so every
  number below comes from a verified structure.
* **Round bounds** are worst-case bounds; on random input colorings the
  algorithm typically colors almost everyone in the first round or two, so the
  measured rounds are far below the bound.  The *shape* (rounds fall like
  Delta/k, defective/outdegree variants finish in one or O(Delta/d) rounds,
  etc.) is what the experiments confirm.
* One documented substitution: the Theorem 3.1 black box ([Bar16, BEG18]:
  O(Delta) colors in O(sqrt(Delta)) rounds) is replaced by the paper's own
  k = 1 algorithm (O(Delta) colors in O(Delta) rounds).  This affects measured
  rounds of E7/E8 (noted there) and nothing else.  See the `o_delta_coloring`
  entry of `repro.core.pipelines`.

### Multi-worker sweeps

Every experiment accepts a worker count and shards its grid sweeps across a
process pool; every table is *identical* to the serial run (deterministic cell
ordering, cross-process-deterministic generators — see "Parallel execution &
sinks" in ARCHITECTURE.md):

```
python -m repro experiment E6 --workers 4                 # CLI
run_experiment("E6", workers=4)                           # Python
python -m repro batch --task delta_plus_one \\
    --family random_regular gnp -n 300 --delta 8 16 --seeds 5 \\
    --workers 4 --parity-check --output sweep.jsonl       # raw grid sweep
```

`--output sweep.jsonl` streams each record to disk as it completes and
`--resume` restarts an interrupted sweep where it left off, skipping the
cells already recorded (the file's manifest is checked, so resuming a
different sweep into the file is rejected).  The data-dependent, cell-by-cell
parts of E2/E5/E8/E9/E10 stay serial by construction; the grid sweeps of
E1/E3/E6/E7 and all `repro batch` runs shard.  Sweep throughput is measured
by the `sweep` workload of `perfbench/`.

### Fault-tolerant sweeps

Long sweeps survive infrastructure failures instead of discarding hours of
completed cells (see "Fault tolerance & degradation" in ARCHITECTURE.md):

```
python -m repro batch --task delta_plus_one \\
    --family random_regular gnp -n 300 --delta 8 16 --seeds 5 \\
    --workers 4 --retries 2 --cell-timeout 600 --on-error record \\
    --output sweep.jsonl
```

`--retries N` re-runs a failing cell up to N extra times (with deterministic,
seed-pinned backoff when configured); `--cell-timeout S` kills and retries a
worker stuck past the deadline; `--on-error record` writes a structured
CellError record (error kind, exception type, traceback digest, attempt
count) in the failed cell's grid slot and keeps sweeping — the CLI then
prints a failure summary and exits non-zero.  Worker crashes are always
re-dispatched once even without flags, a failing `jit` cell gets one attempt
on the bit-identical `array` backend before giving up (the downgrade is
recorded in the events journal), and `--resume` re-runs exactly the failed
cells.  The chaos suite (`tests/test_faults.py`, CI job `chaos-smoke`)
asserts sweeps interrupted by injected worker kills, hangs and sink failures
converge to records byte-identical to an uninterrupted run.

### Saved specs (`specs/`)

Every experiment's sweep is also saved as a declarative spec (the unified
solver API of `repro.api` — see "Unified solver API" in ARCHITECTURE.md):

```
python -m repro run --spec specs/E6.json --workers 2 --parity-check \
    --output e6.jsonl
```

replays the E6 workload and emits records byte-identical to the in-process
sweep; the sink manifest embeds the exact spec hash, so a results file pins
the document that produced it.  The files are regenerated by
`python scripts/generate_experiment_specs.py` from
`repro.analysis.experiments.experiment_specs()`; data-dependent axes (E2's
doubling `k` axis, E4/E5's degree-derived `beta`/`d`, E9's tight `(k, m)`
pairs) are frozen into the documents at generation time, and E5/E9 split into
one spec per algorithm variant / Delta (a spec names exactly one algorithm
over a pure cells x params grid).  `specs/INDEX.json` lists every spec with
its hash; the spec round-trips and the golden-record replay are asserted in
`tests/test_api_spec.py` / `tests/test_api_solve.py`.
"""

COMMENTARY = {
    "E1_linial_one_round": (
        "E1 — Corollary 1.2(1): Linial's color reduction",
        "Claim: a Delta^4-input coloring is reduced to at most 256*Delta^2 colors in one round.\n"
        "Measured: every row finishes in exactly 1 round and the output color space is well below\n"
        "256*Delta^2; the colors actually used are far fewer on random graphs (the bound is a\n"
        "worst-case guarantee over all graphs and input colorings).",
    ),
    "E2_rounds_vs_k": (
        "E2 — Corollary 1.2(2): O(k*Delta) colors in O(Delta/k) rounds",
        "Claim: batch size k trades rounds for colors, with at most 16*Delta*k colors in\n"
        "ceil(16*Delta/k) rounds.  Measured: rounds are monotonically non-increasing in k and reach 1\n"
        "round within a few doublings; the color budget grows linearly in k as predicted.  On random\n"
        "inputs conflicts are rare, so the measured rounds sit far below the worst-case bound.",
    ),
    "E3_delta_squared": (
        "E3 — Corollary 1.2(3): Delta^2 colors in O(1) rounds",
        "Claim: with k = ceil(Delta/16) the algorithm needs only O(1) rounds (at most 256 by the\n"
        "proof's constants).  Measured: 2-4 rounds across Delta = 8..32.  (For Delta < 16 the\n"
        "corollary's Delta^2 color constant is not meaningful because k = 1; the color space is then\n"
        "bounded by 16*Delta instead.)",
    ),
    "E4_outdegree": (
        "E4 — Corollary 1.2(4): beta-outdegree colorings",
        "Claim: k = 1, d = beta yields an O(Delta/beta)-coloring whose monochromatic edges can be\n"
        "oriented with outdegree at most beta, in O(Delta/beta) rounds.  Measured: the orientation\n"
        "outdegree never exceeds beta (hard invariant, checked on every run), colors and rounds are\n"
        "within the X = 4*f*Delta/(beta+1) bound.",
    ),
    "E5_defective": (
        "E5 — Corollary 1.2(5)/(6): d-defective colorings",
        "Claim: defect parameter d gives an O((Delta/d)^2)-coloring, in one round (variant 5, one\n"
        "batch) or O(Delta/d) rounds (variant 6, k = 1, color = (color, part) pair).  Measured: the\n"
        "maximum defect never exceeds d (hard invariant); variant 5 always takes exactly 1 round.",
    ),
    "E6_delta_plus_one": (
        "E6 — the (Delta+1)-coloring pipeline (Section 3.1)",
        "Claim: unique IDs -> Linial -> k=1 mother algorithm -> color-class removal gives a proper\n"
        "(Delta+1)-coloring in O(Delta) + log* n rounds.  Measured: colors used <= Delta+1 always;\n"
        "total rounds are dominated by the color-class removal stage, which spends one round per\n"
        "color value above Delta+1 that actually occurs.  At fixed Delta more of the O(Delta)\n"
        "mother colors occur on larger graphs, so the measured rounds rise with n (roughly doubling\n"
        "from n = 100 to n = 1000) while staying within the O(Delta) bound; Linial adds log* n.",
    ),
    "E7_theorem13": (
        "E7 — Theorem 1.3: O(Delta^{1+eps}) colors",
        "Claim: O(Delta^{1+eps}) colors in O(Delta^{1/2-eps/2}) + log* n rounds.  Our build follows\n"
        "the proof exactly (d-defective coloring, then per-class coloring with disjoint color\n"
        "spaces) but substitutes the Theorem 3.1 black box with the k = 1 algorithm, so the\n"
        "measured rounds follow the substituted bound O(Delta^eps + Delta^{1-eps}) rather than the\n"
        "paper's; the color count follows the paper's bound (with the implementation's constants).",
    ),
    "E8_ruling_sets": (
        "E8 — Theorem 1.5: (2, r)-ruling sets",
        "Claim: O(Delta^{2/(r+2)}) + log* n rounds, improving on the O(Delta^{2/r}) of [SEW13].\n"
        "Measured: the Lemma 3.2 ruling-phase rounds are always smaller for Theorem 1.5's coloring\n"
        "than for the Delta^2 baseline (the mechanism of the improvement), and the end-to-end round\n"
        "counts also come out ahead on these instances; the asymptotic end-to-end advantage depends\n"
        "on the substituted Theorem 3.1 component (see E7).  Independence and r-domination of every\n"
        "returned set are verified.",
    ),
    "E9_one_round": (
        "E9 — Theorem 1.6: one-round color reduction",
        "Claim: with m = k(Delta-k+3) input colors exactly k colors can be removed in one round\n"
        "(Lemma 4.1), and with one fewer input color no one-round algorithm can achieve m-k-1\n"
        "output colors (Lemma 4.3).  Measured: the Lemma 4.1 algorithm always outputs a proper\n"
        "coloring with exactly m-k colors in 1 round; the impossibility side is verified exhaustively\n"
        "for Delta = 2, 3, 4 by the conflict-graph checker in the test suite\n"
        "(tests/test_core_one_round.py::TestLemma43Impossibility).",
    ),
    "E10_baselines": (
        "E10 — baselines",
        "The mother algorithm at k = 1 matches the locally-iterative (BEG18) regime; adding\n"
        "color-class removal gives Delta+1 colors in O(Delta) total rounds, against\n"
        "O(Delta log Delta) for the classical Kuhn-Wattenhofer halving from Delta^2 colors, O(log n)\n"
        "rounds for the randomized Luby-style baseline (not deterministic), and n rounds for the\n"
        "sequential greedy.  These are asymptotic orders, and at Delta = 16 the measured order\n"
        "differs: Kuhn-Wattenhofer halving (about log Delta = 4 phases) needs about half the rounds of\n"
        "mother + removal, whose removal stage spends one round per occurring color value above\n"
        "Delta+1.  What the mother algorithm adds is the trade-off itself: k = 4 and k = 16 finish\n"
        "in one round with O(k Delta) colors.",
    ),
}

ORDER = [
    "E1_linial_one_round", "E2_rounds_vs_k", "E3_delta_squared", "E4_outdegree",
    "E5_defective", "E6_delta_plus_one", "E7_theorem13", "E8_ruling_sets",
    "E9_one_round", "E10_baselines",
]


def main() -> None:
    if not RESULTS.exists():
        sys.exit("benchmarks/results/ not found — run the regenerate benchmarks first")
    parts = [PREAMBLE]
    for name in ORDER:
        path = RESULTS / f"{name}.md"
        title, commentary = COMMENTARY[name]
        parts.append(f"\n## {title}\n")
        parts.append(commentary + "\n")
        if path.exists():
            table = path.read_text(encoding="utf-8")
            # drop the table's own "### ..." heading, the section heading above replaces it
            lines = [ln for ln in table.splitlines() if not ln.startswith("### ")]
            parts.append("\n".join(lines).strip() + "\n")
        else:
            parts.append(f"_missing: {path.name} (benchmark not run)_\n")
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
