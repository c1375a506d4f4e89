"""The compiled multi-threaded backend.

Routes the two :class:`repro.engine.base.Engine` primitives through the
fused kernels of :mod:`repro.core.kernels_jit`: an OpenMP C extension
compiled on first use (see :mod:`repro.core.kernels_cc`).  Outputs are
bit-identical to the array backend (property-tested and golden-replayed);
no per-message simulator metrics are produced.

This engine is the one place the jit backend resolves its kernels and the
one place it falls back: when the C tier does not build it runs the array
backend, emitting a single :class:`RuntimeWarning` per process — results
are still correct and identical, only slower.  ``REPRO_NUM_THREADS`` caps
the kernel thread count; ``REPRO_JIT_DISABLE=cc`` forces the fallback for
testing.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.congest.graph import Graph
from repro.core.params import MotherParameters
from repro.core.results import ColoringResult
from repro.engine.array import ArrayEngine
from repro.engine.base import Engine
from repro.testing import faults

__all__ = ["JitEngine"]

#: Sentinel: provider not yet resolved (``None`` is a valid resolution).
_UNSET = object()

# One warning per process, not per engine instance: parallel sweeps construct
# engines in every worker, but the operator only needs to hear once that the
# jit backend is running on the array path.
_FALLBACK_WARNED = False


def _warn_fallback_once() -> None:
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        "backend='jit': no compiled kernel tier is available (no C compiler "
        "produced a working extension, or REPRO_JIT_DISABLE=cc); falling back "
        "to the array backend. Results are identical, only slower. Put a C "
        "compiler (cc, gcc or clang, or $CC) on PATH for the compiled path.",
        RuntimeWarning,
        stacklevel=3,
    )


def _reset_fallback_warning() -> None:
    """Test hook: allow the one-time fallback warning to fire again."""
    global _FALLBACK_WARNED
    _FALLBACK_WARNED = False


class JitEngine(Engine):
    """Compiled-kernel backend (the C tier; array fallback)."""

    name = "jit"

    def __init__(self):
        self._provider = _UNSET
        self._fallback = ArrayEngine()
        self._warm = False
        self._warming = False

    def _fire_fault(self, primitive: str) -> None:
        """The ``"jit"`` fault-injection site: poison this engine's kernels.

        Fires at the entry of every primitive — *before* provider resolution,
        so an injected crash/hang behaves the same on the C tier and on the
        array fallback.  Suppressed during :meth:`warmup`: the retry
        ladder guards cells, not engine construction.
        """
        if not self._warming:
            faults.fire("jit", primitive=primitive, tier=self.name)

    # ------------------------------------------------------------------ #
    # Provider resolution
    # ------------------------------------------------------------------ #

    def _resolve(self):
        """Resolve the kernel provider once per engine, warning on fallback."""
        if self._provider is _UNSET:
            from repro.core.kernels_jit import get_provider

            self._provider = get_provider()
            if self._provider is None:
                _warn_fallback_once()
        return self._provider

    @property
    def available(self) -> bool:
        """Whether a compiled tier backs this engine (vs the array fallback)."""
        return self._resolve() is not None

    @property
    def provider_kind(self) -> str | None:
        """``"cc"``, or ``None`` on the fallback path."""
        provider = self._resolve()
        return provider.kind if provider is not None else None

    @property
    def num_threads(self) -> int:
        provider = self._resolve()
        return provider.threads if provider is not None else 1

    # ------------------------------------------------------------------ #
    # Primitives
    # ------------------------------------------------------------------ #

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
        self._fire_fault("run_mother")
        provider = self._resolve()
        if provider is None:
            return self._fallback.run_mother(
                graph, input_colors, m, d=d, k=k, params=params,
                validate_input=validate_input,
            )
        from repro.core.kernels_jit import run_mother_jit

        return run_mother_jit(
            graph, input_colors, m, d=d, k=k, params=params,
            validate_input=validate_input, kernels=provider,
        )

    def remove_color_class(
        self,
        graph: Graph,
        colors: np.ndarray,
        target_colors: int | None = None,
    ) -> ColoringResult:
        self._fire_fault("remove_color_class")
        provider = self._resolve()
        if provider is None:
            return self._fallback.remove_color_class(
                graph, colors, target_colors=target_colors
            )
        from repro.core.reduce import removal_loop_jit, run_removal

        return run_removal(graph, colors, target_colors, self.name, removal_loop_jit, provider)

    # ------------------------------------------------------------------ #
    # Lifecycle / introspection
    # ------------------------------------------------------------------ #

    def warmup(self) -> None:
        """Build/load the kernels and run both primitives on a tiny graph,
        so the C tier's first build or ``dlopen`` never lands inside a timed
        sweep cell.  Idempotent."""
        if self._warm:
            return
        self._warm = True
        provider = self._resolve()
        if provider is None:
            return
        ring = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        colors = np.array([0, 1, 2, 3], dtype=np.int64)
        self._warming = True
        try:
            self.run_mother(ring, colors, m=4, d=0, k=1, validate_input=False)
            self.remove_color_class(ring, colors, target_colors=3)
        finally:
            self._warming = False

    def active_tier(self) -> str:
        """``"jit:cc"``, or ``"jit:fallback-array"``.

        Resolving the provider is what answers the question, so the first
        call may trigger the one-time tier resolution (and the fallback
        warning); every later call is a cheap attribute read.
        """
        kind = self.provider_kind
        return f"jit:{kind}" if kind is not None else "jit:fallback-array"

    def describe(self) -> dict:
        info = super().describe()
        provider = self._resolve()
        info["available"] = provider is not None
        if provider is None:
            info["fallback"] = "array"
            info["kernel"] = None
        else:
            info["kernel"] = provider.kind
            info["threads"] = provider.threads
            info["versions"][provider.kind] = provider.version
            if provider.detail:
                info["detail"] = dict(provider.detail)
        return info
