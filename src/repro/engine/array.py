"""The vectorized NumPy backend.

Wraps the whole-graph CSR implementations — Algorithm 1 from
:mod:`repro.core.vectorized` and the array color-class removal loop from
:mod:`repro.core.reduce` — behind the :class:`repro.engine.base.Engine`
contract.  Outputs are bit-identical to the reference backend
(property-tested); the trade-off is that no per-message simulator metrics
are produced.
"""

from __future__ import annotations

import numpy as np

from repro.congest.graph import Graph
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.engine.base import Engine

__all__ = ["ArrayEngine"]


class ArrayEngine(Engine):
    """CSR-adjacency NumPy backend (the performance twin)."""

    name = "array"

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
        from repro.core.vectorized import run_mother_algorithm_vectorized

        return run_mother_algorithm_vectorized(
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
        from repro.core.reduce import removal_loop_array, run_removal

        return run_removal(graph, colors, target_colors, self.name, removal_loop_array)
