"""Experiment harness: closed-form bounds, parameter sweeps and table rendering.

The paper contains no empirical tables or figures (it is a theory paper), so
the reproduction's "tables" are the theorem-by-theorem experiments E1-E10
defined in :mod:`repro.analysis.experiments`; each renders a
:class:`repro.analysis.tables.Table` that ``repro experiment`` prints and
that EXPERIMENTS.md records.
"""

from repro.analysis import bounds
from repro.analysis.tables import Table
from repro.analysis.experiments import EXPERIMENTS, run_experiment

__all__ = ["bounds", "Table", "EXPERIMENTS", "run_experiment"]
