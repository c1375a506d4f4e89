"""The model-faithful reference backend.

Wraps the per-node message-passing implementation of Algorithm 1
(:func:`repro.core.algorithm1.run_mother_algorithm`, driven by
:class:`repro.congest.network.SynchronousNetwork`) and the Python
color-class removal.  Results keep the simulator's round, message and
bandwidth metrics in their metadata, so CONGEST claims stay checkable.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.engine.base import Engine

__all__ = ["ReferenceEngine"]


class ReferenceEngine(Engine):
    """Per-node scheduler backend (the model-level artifact).

    Runs Algorithm 1 under CONGEST with the simulator's default bandwidth
    accounting (:func:`repro.core.algorithm1.run_mother_algorithm` keeps the
    ``model`` and bandwidth knobs for direct callers).
    """

    name = "reference"

    def run_mother(
        self,
        graph: Graph,
        input_colors: np.ndarray,
        m: int,
        d: int = 0,
        k: int = 1,
        params: MotherParameters | None = None,
        validate_input: bool = True,
    ) -> ColoringResult:
        from repro.core.algorithm1 import run_mother_algorithm

        return run_mother_algorithm(
            graph,
            input_colors,
            m=m,
            d=d,
            k=k,
            params=params,
            validate_input=validate_input,
        )

    def remove_color_class(
        self,
        graph: Graph,
        colors: np.ndarray,
        target_colors: int | None = None,
    ) -> ColoringResult:
        from repro.core.reduce import removal_loop_reference, run_removal

        return run_removal(graph, colors, target_colors, self.name, removal_loop_reference)
