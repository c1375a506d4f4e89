"""Fixtures for the benchmark harness.

Each ``test_eN_*`` file regenerates one experiment table (E1-E10: one per
theorem or corollary item of the paper; the algorithms and the Theorem 3.1
substitution are documented in :mod:`repro.core.pipelines`) and times its
core computation with pytest-benchmark.  The rendered tables are written to
``benchmarks/results/`` so EXPERIMENTS.md can quote exactly what the harness
produced; ``scripts/generate_experiments_md.py`` stitches them together.

Only pytest *fixtures* belong here.  Importable helpers must live in a
regular module instead (the tests use ``tests/helpers.py``): pytest loads
every ``conftest.py`` under the single module name ``conftest``, so ``from
conftest import ...`` silently resolves to whichever directory's conftest was
imported first.
"""

from __future__ import annotations

import pathlib
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ModuleNotFoundError:
        sys.path.insert(0, str(_SRC))

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture
def record_table():
    """Persist a rendered experiment table under ``benchmarks/results/``."""

    def _record(name: str, table) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.md"
        path.write_text(table.render() + "\n", encoding="utf-8")

    return _record

