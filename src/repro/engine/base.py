"""The backend contract of the execution-engine layer.

An :class:`Engine` provides the two primitive operations every coloring
pipeline in the package is composed of:

* :meth:`Engine.run_mother` — one invocation of Algorithm 1 / Theorem 1.1
  (the "mother algorithm") with parameters ``(m, d, k)``;
* :meth:`Engine.remove_color_class` — the color-class-removal reduction used
  as the finishing step of the ``(Delta + 1)`` pipeline.

Everything else (Linial's iterated reduction, the Corollary 1.2 wrappers, the
Theorem 1.3 defective-class decomposition, ruling sets, the Kuhn-Wattenhofer
halving baseline) is backend-generic composition living in
:mod:`repro.core`; those functions accept a ``backend=`` argument and route
the primitives through the selected engine.

Three engines ship with the package (see :mod:`repro.engine.registry`):

* ``"reference"`` — the model-faithful per-node CONGEST/LOCAL simulator.
  Every message is materialised and bit-accounted; results carry the
  simulator's round/message/bandwidth metrics.  Slow, but it *is* the model.
* ``"array"`` — the whole-graph NumPy twin over the CSR adjacency.  Produces
  bit-identical colors, parts, and round counts (property-tested), orders of
  magnitude faster, but reports no per-message metrics.
* ``"jit"`` — compiled kernels bit-identical to the array twin, which it
  falls back to when no compiled tier is available.

The parity guarantee between them is the load-bearing invariant of the
layer: any new backend must reproduce the reference outputs exactly.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.graph import Graph
    from repro.core.params import MotherParameters
    from repro.core.results import ColoringResult

__all__ = ["Engine", "EngineError", "UnknownBackendError"]


class EngineError(RuntimeError):
    """Raised for unknown backends or invalid engine configurations."""


class UnknownBackendError(EngineError, ValueError):
    """An unregistered backend name was requested.

    Typed (and carrying ``backend`` and ``available``) so both resolution
    paths — :func:`repro.engine.registry.get_engine` and ``Run.backend``
    validation in :mod:`repro.api.spec` — fail the same way, naming the
    accepted backends instead of surfacing a bare ``KeyError``/``ValueError``.
    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    call sites keep working.
    """

    def __init__(self, backend: object, available: "list[str] | tuple[str, ...]",
                 context: str | None = None):
        self.backend = backend
        self.available = sorted(available)
        where = f" for {context}" if context else ""
        super().__init__(
            f"unknown backend {backend!r}{where}; "
            f"available backends: {', '.join(self.available)}"
        )


class Engine(abc.ABC):
    """A pluggable execution backend for the paper's algorithms.

    Subclasses implement the two abstract primitives below; each must match
    the reference semantics exactly (same colors, same part indices, same
    round counts) — callers are free to mix backends across pipeline stages.
    """

    #: Registry key and the value reported in result metadata.
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def run_mother(
        self,
        graph: "Graph",
        input_colors: np.ndarray,
        m: int,
        d: int = 0,
        k: int = 1,
        params: "MotherParameters | None" = None,
        validate_input: bool = True,
    ) -> "ColoringResult":
        """Run Algorithm 1 on ``graph`` (the semantics of Theorem 1.1)."""

    @abc.abstractmethod
    def remove_color_class(
        self,
        graph: "Graph",
        colors: np.ndarray,
        target_colors: int | None = None,
    ) -> "ColoringResult":
        """Greedy color-class removal down to ``target_colors`` colors."""

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def warmup(self) -> None:
        """Pay one-time setup cost (JIT compilation, library loads) now.

        A no-op by default.  :class:`~repro.engine.jit.JitEngine` overrides it
        to compile/load its kernels on tiny inputs so the cost is never timed
        into a sweep's first cell; :class:`~repro.engine.batch.BatchRunner`
        and the parallel worker initializer call it for every engine.
        """

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def describe(self) -> dict:
        """Availability/version/threads metadata for ``repro list-backends``.

        Subclasses extend the returned dict; ``available`` means "runs its
        own execution path" (the jit engine reports ``False`` — plus its
        fallback — when no compiled tier exists).
        """
        return {
            "backend": self.name,
            "available": True,
            "implementation": type(self).__name__,
            "versions": {"numpy": np.__version__},
            "threads": 1,
        }

    def active_tier(self) -> str:
        """The execution tier actually running this engine's primitives.

        For single-path engines this is just the backend name.  Tiered
        engines (the jit backend) override it to report which tier resolved
        — ``"jit:cc"`` or ``"jit:fallback-array"`` —
        so per-job metadata (RunReport provenance, sink manifests, the job
        server's ``/healthz``) can surface silent degradation instead of
        relying on a once-per-process warning.
        """
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
