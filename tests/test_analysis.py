"""Tests for the analysis layer: bounds, tables, and the experiment harness."""

import pathlib

import pytest

from repro.analysis import bounds
from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.tables import Table


class TestBounds:
    def test_log_star(self):
        assert bounds.log_star(1) == 0
        assert bounds.log_star(2) == 1
        assert bounds.log_star(4) == 2
        assert bounds.log_star(16) == 3
        assert bounds.log_star(65536) == 4
        assert bounds.log_star(2 ** 65536 if False else 10 ** 80) == 5

    def test_corollary12_formulas(self):
        assert bounds.corollary12_1_colors(10) == 25600
        assert bounds.corollary12_2_colors(10, 4) == 640
        assert bounds.corollary12_2_rounds(10, 4) == 40
        assert bounds.corollary12_3_colors(9) == 81

    def test_outdegree_and_defective_bounds_positive(self):
        for delta in (8, 16, 64):
            for b in (1, 2, 4):
                assert bounds.corollary12_4_colors(delta, b) > 0
                assert bounds.corollary12_5_colors(delta, b) > 0
                assert bounds.corollary12_6_rounds(delta, b) > 0

    def test_theorem11_round_bound_decreases_in_k(self):
        values = [bounds.theorem11_round_bound(16 ** 4, 16, 0, k) for k in (1, 2, 4, 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_theorem13_and_15(self):
        assert bounds.theorem13_colors(16, 0.5) == 64
        assert bounds.theorem13_rounds(16, 0.5) == 2
        assert bounds.theorem15_rounds(16, 2) == 4
        assert bounds.sew13_ruling_rounds(16, 2) == 16

    def test_theorem16_matches_examples(self):
        delta = 20
        assert bounds.theorem16_max_reduction(delta + 1, delta) == 0
        assert bounds.theorem16_max_reduction(delta + 2, delta) == 1
        assert bounds.theorem16_max_reduction(2 * delta + 2, delta) == 2
        assert bounds.theorem16_max_reduction(3 * delta, delta) == 3


class TestTable:
    def test_add_row_and_render(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row("x", 3)
        t.add_note("a note")
        text = t.render()
        assert "### demo" in text
        assert "| a" in text and "2.50" in text
        assert "- a note" in text

    def test_row_length_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_column_and_dicts(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2)
        t.add_row(3, 4)
        assert t.column("b") == [2, 4]
        assert t.to_dicts()[1] == {"a": 3, "b": 4}


@pytest.fixture(scope="module")
def tables():
    """Every experiment at its spec size, the runs EXPERIMENTS.md records."""
    return {name: run_experiment(name) for name in EXPERIMENTS}


class TestExperimentHarness:
    def test_registry_complete(self):
        assert sorted(EXPERIMENTS) == [f"E{i}" for i in (1, 10, 2, 3, 4, 5, 6, 7, 8, 9)]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    # The experiments are small at their spec size (all ten take well under a
    # second), so these tests assert each one's bounds on the very runs
    # EXPERIMENTS.md records.  The tasks also verify every structure they
    # return (proper coloring, defect, orientation, ruling set) on every cell.
    def test_e1_small(self, tables):
        table = tables["E1"]
        assert all(r == 1 for r in table.column("rounds"))
        for used, space, bound in zip(table.column("colors used"), table.column("color space"),
                                      table.column("paper bound 256*Delta^2")):
            assert used <= space <= bound

    def test_e2_small(self, tables):
        table = tables["E2"]
        rounds = table.column("rounds")
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))
        assert all(r <= bound for r, bound in zip(rounds, table.column("round bound 16*Delta/k")))

    def test_e3_small(self, tables):
        table = tables["E3"]
        assert all(r <= 256 for r in table.column("rounds"))
        for used, bound in zip(table.column("colors used"), table.column("color bound Delta^2")):
            assert used <= max(bound, 256)

    def test_e4_small(self, tables):
        table = tables["E4"]
        assert all(out <= beta for beta, out in zip(table.column("beta"),
                                                    table.column("max outdegree")))

    def test_e5_small(self, tables):
        rows = tables["E5"].to_dicts()
        assert all(row["max defect"] <= row["d"] for row in rows)
        assert all(row["rounds"] == 1 for row in rows if row["variant"] == "one round (5)")

    def test_e6_small(self, tables):
        table = tables["E6"]
        assert all(used <= target for used, target in zip(table.column("colors used"),
                                                          table.column("Delta+1")))

    def test_e7_small(self, tables):
        assert len(tables["E7"].rows) == 3

    def test_e8_small(self, tables):
        rows = tables["E8"].to_dicts()
        for r in (2, 3):
            ours, = (x for x in rows if x["r"] == r and x["method"] == "Theorem 1.5")
            base, = (x for x in rows if x["r"] == r and x["method"] == "SEW13 baseline")
            assert ours["ruling rounds only"] <= base["ruling rounds only"]

    def test_e9_small(self, tables):
        table = tables["E9"]
        assert all(table.column("proper"))
        assert all(r == 1 for r in table.column("rounds"))

    def test_e10_small(self, tables):
        assert len(tables["E10"].rows) >= 7

    def test_experiments_md_records_every_table(self, tables):
        text = (pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md").read_text(encoding="utf-8")
        for name, table in tables.items():
            # EXPERIMENTS.md puts a section heading in place of the title line
            body = table.render().split("\n", 2)[2]
            assert body in text, f"{name} drifted: run scripts/generate_experiments_md.py"

    @pytest.mark.parametrize("name,overrides", [
        ("E2", {"workers": 2}),
        ("E5", {"workers": 2}),
        ("E9", {"backend": "reference"}),
    ])
    def test_execution_overrides_render_the_same_table(self, tables, name, overrides):
        assert run_experiment(name, **overrides).render() == tables[name].render()
