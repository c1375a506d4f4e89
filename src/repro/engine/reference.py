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

    Parameters
    ----------
    model:
        ``"CONGEST"`` (default, with per-message bit accounting) or
        ``"LOCAL"``.
    bandwidth_factor / strict_bandwidth:
        Passed through to :class:`repro.congest.network.SynchronousNetwork`.
    """

    name = "reference"

    def __init__(
        self,
        model: str = "CONGEST",
        bandwidth_factor: float = 32.0,
        strict_bandwidth: bool = False,
    ):
        if model not in ("CONGEST", "LOCAL"):
            raise ValueError(f"model must be 'CONGEST' or 'LOCAL', got {model!r}")
        self.model = model
        self.bandwidth_factor = float(bandwidth_factor)
        self.strict_bandwidth = bool(strict_bandwidth)

    @property
    def collects_message_metrics(self) -> bool:
        return True

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
            model=self.model,
            bandwidth_factor=self.bandwidth_factor,
            strict_bandwidth=self.strict_bandwidth,
        )

    def remove_color_class(
        self,
        graph: Graph,
        colors: np.ndarray,
        target_colors: int | None = None,
    ) -> ColoringResult:
        from repro.core.reduce import remove_color_class_reduction

        return remove_color_class_reduction(
            graph, colors, target_colors=target_colors, backend="reference"
        )

    # kuhn_wattenhofer: the Engine base-class default already runs the
    # reference path; no override needed.
