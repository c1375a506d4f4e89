#!/usr/bin/env python
"""Regenerate ``specs/`` — the experiment suite E1-E10 as saved declarative specs.

Usage::

    PYTHONPATH=src python scripts/generate_experiment_specs.py

Each file is a ``repro run --spec``-able JSON document produced by
:func:`repro.analysis.experiments.experiment_specs` (see its docstring for how
data-dependent axes are frozen).  Replaying one yields exactly the records
``run_experiment`` renders into the experiment's table::

    python -m repro run --spec specs/E6.json --workers 2 --parity-check

The files are committed, so ``specs/`` doubles as living documentation of the
experiment workloads; CI replays one on every push and checks that the sink
manifest embeds the exact spec hash.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.experiments import experiment_specs  # noqa: E402
from repro.api.spec import spec_hash  # noqa: E402


def main() -> None:
    out_dir = ROOT / "specs"
    out_dir.mkdir(exist_ok=True)
    index = {}
    for name, job in experiment_specs().items():
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(job.to_dict(), indent=2, sort_keys=False) + "\n",
                        encoding="utf-8")
        index[name] = {"file": path.name, "algorithm": job.run.algorithm,
                       "cells": len(job.cells()) * len(job.effective_grid() or [{}]),
                       "spec_hash": spec_hash(job)}
        print(f"wrote {path} (hash {index[name]['spec_hash']})")
    (out_dir / "INDEX.json").write_text(json.dumps(index, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out_dir / 'INDEX.json'} ({len(index)} specs)")


if __name__ == "__main__":
    main()
