"""Compiled kernels for the ``jit`` backend: fused, multi-threaded CSR loops.

The two primitives of the engine contract — the mother algorithm's
trial-color conflict counting and color-class removal — are expressed here
as *per-vertex fused loops* over the CSR triplet
(``indptr``/``indices``/``src_index``-free: each vertex walks its own CSR
range directly).  Unlike the NumPy twin (:mod:`repro.core.vectorized`,
:mod:`repro.core.reduce`), which materialises ``(active_edges x trials)``
intermediates and scatter-adds them with ``bincount``, a compiled kernel

* evaluates each active vertex's polynomial once per batch at the batch's
  first trial (the constant digit when that trial is 0) and evaluates later
  trials on the fly (exact modular integer arithmetic — bit-identical to the
  lazily evaluated NumPy tables),
* counts conflicts per vertex with an early exit as soon as the count
  exceeds ``d``, and stops scanning trials at the *first* ``d``-proper one
  (the same first-qualifying-trial tie-break the array kernel implements
  with ``argmax``), writing the adopted color and part in place, and
* never allocates: callers pass every output and scratch array.

The mother kernel takes each polynomial from its vertex's input color: the
base-``q`` digits of ``color + q`` are its coefficients, peeled off by
division whenever the kernel evaluates it, so no ``(n, f + 1)`` table is
built (Linial's first step on ``10**6`` vertices would hold 84 MB in int32).
The per-vertex values are int32 (:func:`repro.core.params.check_word_size`
refuses ``q >= 2**31``), and the sums run in int64 on every tier.

A third kernel is not an engine primitive: :func:`_kernel_attach` is the
sequential preferential-attachment pass behind
:func:`repro.congest.generators.power_law_cluster`.  The generator takes it
from the same provider ladder, with :func:`python_provider` as the floor
when no compiled tier resolves, so a machine without a compiler still
builds the graph; every tier consumes the same pre-drawn random words, so
one seed gives one graph on every tier.

The kernels below are **pure Python and numba-compilable**: the ``numba``
tier wraps them verbatim with ``@njit(cache=True, parallel=True,
nogil=True)`` so ``prange`` fans the per-vertex loop across threads (the
sequential attachment kernel is compiled without ``parallel``).  When
numba is not installed, a hand-written C translation of the same loops
(:mod:`repro.core.kernels_cc`) is compiled once with the system C compiler
and loaded via :mod:`ctypes`; when neither tier is available the ``jit``
backend degrades to the array backend (see :mod:`repro.engine.jit`).

Determinism under threads is by construction, not by locking: no
iteration reads a cell another iteration of the same loop writes.  In the
mother kernel, iteration ``r`` writes only the entries of its own active
vertex ``v = act[r]``: ``vals[v]`` in the first loop, ``colors[v]`` and
``parts[v]`` when ``v`` adopts in the second.  The second loop reads
``vals[u]`` only once the first loop has finished, and ``colors[u]`` only
for an inactive ``u``; the kernel never writes ``active``, so ``v`` stays
active for the whole call and no other iteration reads ``colors[v]``.  In
color-class removal, iteration ``r`` writes ``colors[v]`` for ``v`` in one
color class, an independent set, so no vertex of the class reads another's
color.  Outputs are therefore bit-identical for any thread count, which is
what lets the parity property suite and the golden records extend to
``backend="jit"`` unchanged.

``REPRO_NUM_THREADS`` caps the kernel thread count (numba
``set_num_threads`` / OpenMP ``omp_set_num_threads``);
``REPRO_JIT_DISABLE=numba,cc`` disables individual tiers (used by tests to
exercise the fallback path).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.congest.graph import Graph
    from repro.core.params import MotherParameters
    from repro.core.results import ColoringResult

try:  # numba's parallel range when compiled; plain range in the python tier
    from numba import prange  # pragma: no cover - only importable with numba
except ImportError:
    prange = range

__all__ = [
    "KernelProvider",
    "get_provider",
    "reset_provider_cache",
    "python_provider",
    "requested_thread_cap",
    "run_mother_jit",
]


# --------------------------------------------------------------------------- #
# The kernels — module-level, numba-compilable pure Python.
#
# These functions are the *single source* of the compiled tier's semantics:
# the numba tier njit-wraps them verbatim, the cc tier is a line-for-line C
# translation (kernels_cc.py), and the tests run them as plain Python against
# the array backend so the logic is parity-checked even where numba is not
# installed.
# --------------------------------------------------------------------------- #


def _kernel_mother_first(act, indptr, indices, colors_in, f1, q, keff, d, active,
                         colors, parts, lo, hi, vals):
    """One mother-algorithm batch: each active vertex adopts its first good
    trial.

    A vertex's polynomial needs nothing but its input color: the base-``q``
    digits of ``colors_in[v] + q``, lowest first, are its ``f1 = f + 1``
    coefficients (the offset skips the constant polynomials, see
    :mod:`repro.core.sequences`).  An evaluation at ``x`` peels the digits
    off and sums ``digit * x**j`` mod ``q``; it stops once the quotient is 0
    (every higher digit is 0) and never takes more than ``f1`` digits, which
    also ends it on a negative color, where floor division sticks at -1.

    The first loop evaluates every active vertex's polynomial once, at the
    batch's first position: ``vals[v] = p_v(lo)``, which at ``lo == 0`` is
    the constant digit ``colors_in[v] % q``.  The second scans trial positions
    ``x in [lo, hi)`` for ``v = act[r]`` in order; a trial conflicts with an
    active neighbor trying the same polynomial value (read from ``vals`` at
    ``x == lo``, evaluated after) or with a colored neighbor whose
    final color equals the trial color ``(x % keff) * q + p_v(x)``.  At the
    first ``x`` with at most ``d`` conflicts, ``v`` writes that color to
    ``colors[v]`` and its batch ``lo // keff + 1`` to ``parts[v]``; a vertex
    with no such trial keeps ``colors[v] == -1``.

    ``vals`` is int32 scratch of ``n`` entries (every value is below ``q``);
    it needs no fill, since only active vertices' entries are read and every
    active vertex is in ``act``.  The sums run in int64 under numba (a digit
    times a power is below ``q**2 < 2**62``) and in Python ints in the
    python tier (``int()`` keeps numpy's fixed-width scalar arithmetic
    out).  The evaluation is written out at each of its three uses:
    the numba tier compiles this function verbatim, and a helper would need
    its own ``@njit``.  An iteration writes only its own vertex's
    ``vals``/``colors``/``parts`` entries and reads ``colors[u]`` only for
    inactive ``u``, so no iteration reads what another writes: safe and
    deterministic under any parallel schedule.
    """
    part = lo // keff + 1
    for r in prange(act.shape[0]):
        v = act[r]
        if lo == 0:
            vals[v] = colors_in[v] % q
        else:
            rest, val, power, j = int(colors_in[v]) + q, 0, 1, 0
            while rest != 0 and j < f1:
                val = (val + rest % q * power) % q
                power = power * lo % q
                rest //= q
                j += 1
            vals[v] = val
    for r in prange(act.shape[0]):
        v = act[r]
        for x in range(lo, hi):
            if x == lo:
                val = int(vals[v])
            else:
                rest, val, power, j = int(colors_in[v]) + q, 0, 1, 0
                while rest != 0 and j < f1:
                    val = (val + rest % q * power) % q
                    power = power * x % q
                    rest //= q
                    j += 1
            trial = (x % keff) * q + val
            conflicts = 0
            for p in range(indptr[v], indptr[v + 1]):
                u = indices[p]
                if active[u]:
                    if x == lo:
                        nval = int(vals[u])
                    else:
                        rest, nval, power, j = int(colors_in[u]) + q, 0, 1, 0
                        while rest != 0 and j < f1:
                            nval = (nval + rest % q * power) % q
                            power = power * x % q
                            rest //= q
                            j += 1
                    if nval == val:
                        conflicts += 1
                elif colors[u] == trial:
                    conflicts += 1
                if conflicts > d:
                    break
            if conflicts <= d:
                colors[v] = trial
                parts[v] = part
                break


def _kernel_remove_classes(order, starts, indptr, indices, colors, target, used):
    """Color-class removal: the classes in turn, each vertex taking its
    smallest free color.

    Class ``i`` is ``order[starts[i]:starts[i + 1]]``; the classes run in
    this fixed order (highest color first) and the vertices of one class in
    parallel.  A class shares one color of a proper coloring, hence is an
    independent set: no vertex's neighborhood intersects it, so the parallel
    loop reads only colors the class never writes.  ``used`` is a
    ``largest class * target`` uint8 scratch row-block (zeroed per row here).
    Mirrors the array path exactly, including ``argmax``-over-all-False -> 0.
    """
    for i in range(starts.shape[0] - 1):
        lo = starts[i]
        for r in prange(starts[i + 1] - lo):
            v = order[lo + r]
            base = r * target
            for c in range(target):
                used[base + c] = 0
            for p in range(indptr[v], indptr[v + 1]):
                b = colors[indices[p]]
                if b >= 0 and b < target:
                    used[base + b] = 1
            c = 0
            while c < target and used[base + c] == 1:
                c += 1
            if c == target:
                c = 0
            colors[v] = c


def _kernel_attach(words, ends, fill, start, n, attach, mark):
    """Preferential attachment (Batagelj & Brandes): vertices ``start..n-1``
    each take ``attach`` distinct targets, in one pass over the endpoint pool.

    ``ends`` is the flattened ``(m, 2)`` edge array and is the pool itself:
    its first ``fill`` slots hold the seed edges, and each new vertex ``v``
    writes its edges ``(v, t)`` right after them.  A target is
    ``ends[r % fill]``, an endpoint of an earlier edge (so a vertex is hit in
    proportion to its degree), where ``r`` is the next unused word of
    ``words`` (non-negative); while the pool is empty (``attach == 1``, first
    vertex) it is ``r % v``.  A target ``v`` already took uses up its word and
    is skipped.  ``mark`` is scratch of length ``n``.

    Sequential by nature: every vertex reads the edges of all earlier ones.
    Returns the number of words used, or -1 when they ran out (the caller
    appends more words and runs the kernel again).
    """
    for i in range(n):
        mark[i] = -1
    w = 0
    for v in range(start, n):
        got = 0
        while got < attach:
            if w == words.shape[0]:
                return -1
            r = words[w]
            w += 1
            if fill > 0:
                t = ends[r % fill]
            else:
                t = r % v
            if mark[t] != v:
                mark[t] = v
                ends[fill + 2 * got] = v
                ends[fill + 2 * got + 1] = t
                got += 1
        fill += 2 * attach
    return w


# --------------------------------------------------------------------------- #
# Providers: numba -> cc -> (None: the engine falls back to the array backend)
# --------------------------------------------------------------------------- #


@dataclass
class KernelProvider:
    """A resolved compiled-kernel tier: the three kernels plus provenance."""

    kind: str  # "numba" | "cc" | "python"
    version: str
    threads: int
    mother_first: Callable[..., None]
    remove_classes: Callable[..., None]
    attach: Callable[..., int]
    detail: dict[str, Any] = field(default_factory=dict)


def requested_thread_cap() -> int | None:
    """The ``REPRO_NUM_THREADS`` cap, or ``None`` when unset/invalid."""
    raw = os.environ.get("REPRO_NUM_THREADS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


def _numba_provider() -> KernelProvider | None:
    """The preferred tier: ``@njit(cache=True, parallel=True)`` over the
    module-level kernels.  ``None`` when numba is not importable or jitting
    fails (old numba, broken install)."""
    try:
        import numba
        from numba import njit
    except Exception:
        return None
    try:
        cap = requested_thread_cap()
        if cap is not None:
            numba.set_num_threads(max(1, min(cap, numba.config.NUMBA_NUM_THREADS)))
        flags = dict(cache=True, parallel=True, nogil=True)
        return KernelProvider(
            kind="numba",
            version=str(numba.__version__),
            threads=int(numba.get_num_threads()),
            mother_first=njit(**flags)(_kernel_mother_first),
            remove_classes=njit(**flags)(_kernel_remove_classes),
            attach=njit(cache=True, nogil=True)(_kernel_attach),
        )
    except Exception:  # pragma: no cover - depends on the numba install
        return None


def python_provider() -> KernelProvider:
    """The kernels as plain Python (``prange == range``).

    Far too slow to be a real engine tier, but it executes the *exact* code
    the numba tier compiles — the parity tests run it against the array
    backend so the numba kernels' logic is verified even on machines without
    numba.  It is also the floor of the attachment kernel:
    ``power_law_cluster`` runs it when no compiled tier resolves.
    """
    import platform

    return KernelProvider(
        kind="python",
        version=platform.python_version(),
        threads=1,
        mother_first=_kernel_mother_first,
        remove_classes=_kernel_remove_classes,
        attach=_kernel_attach,
    )


_PROVIDER: KernelProvider | None = None
_RESOLVED = False


def get_provider(refresh: bool = False) -> KernelProvider | None:
    """Resolve (once per process) the best available compiled tier.

    Order: numba, then the C extension; ``None`` when neither is available
    (the ``jit`` engine then degrades to the array backend).  Tiers named in
    ``REPRO_JIT_DISABLE`` (comma-separated: ``numba``, ``cc``) are skipped —
    tests use this to pin a tier or to force the fallback path.
    """
    global _PROVIDER, _RESOLVED
    if _RESOLVED and not refresh:
        return _PROVIDER
    disabled = {
        tier.strip()
        for tier in os.environ.get("REPRO_JIT_DISABLE", "").split(",")
        if tier.strip()
    }
    provider = None
    if "numba" not in disabled:
        provider = _numba_provider()
    if provider is None and "cc" not in disabled:
        from repro.core import kernels_cc

        provider = kernels_cc.cc_provider()
    _PROVIDER, _RESOLVED = provider, True
    return provider


def reset_provider_cache() -> None:
    """Forget the resolved provider (tests re-resolve under patched env)."""
    global _PROVIDER, _RESOLVED
    _PROVIDER, _RESOLVED = None, False


# --------------------------------------------------------------------------- #
# The mother-algorithm driver (the removal loop lives in repro.core.reduce
# next to its reference/array twins).
# --------------------------------------------------------------------------- #


def run_mother_jit(
    graph: "Graph",
    input_colors: np.ndarray,
    m: int,
    d: int = 0,
    k: int = 1,
    params: "MotherParameters | None" = None,
    validate_input: bool = True,
    *,
    kernels: KernelProvider,
) -> "ColoringResult":
    """Algorithm 1 on the compiled kernels; same semantics and bit-identical
    outputs as :func:`repro.core.vectorized.run_mother_algorithm_vectorized`.

    The Python driver keeps the exact batch structure of the array twin —
    the active-vertex frontier in ascending order, each vertex adopting its
    first qualifying trial — and delegates each batch to
    ``kernels.mother_first``, which reads each polynomial's coefficients
    from the digits of the vertex's input color and writes the adopted
    colors and parts in place; the adopters then leave the frontier.
    :class:`repro.engine.jit.JitEngine` resolves ``kernels`` and runs the
    array twin when no tier resolves.
    """
    from repro.congest.ids import validate_proper_coloring
    from repro.core.params import MotherParameters, check_word_size
    from repro.core.results import ColoringResult

    input_colors = np.ascontiguousarray(input_colors, dtype=np.int64)
    delta = max(1, graph.max_degree)
    if validate_input:
        validate_proper_coloring(graph, input_colors, m)
    if params is None:
        params = MotherParameters.derive(m=m, delta=delta, d=d, k=k)
    check_word_size(params)

    n = graph.n
    if n == 0:
        return ColoringResult(
            colors=np.empty(0, dtype=np.int64),
            rounds=0,
            color_space_size=params.color_space_size,
            parts=np.empty(0, dtype=np.int64),
            metadata={"params": params.describe(), "implementation": "jit",
                      "kernel": kernels.kind},
        )

    q, k_eff, dd = params.q, params.k, params.d
    vals = np.empty(n, dtype=np.int32)
    indptr, indices = graph.indptr, graph.indices

    colors = -np.ones(n, dtype=np.int64)
    parts = np.zeros(n, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    act = np.arange(n, dtype=np.int64)
    rounds = 0

    for batch in range(params.num_batches):
        rounds = batch + 1
        lo = batch * k_eff
        hi = min(lo + k_eff, q)
        kernels.mother_first(act, indptr, indices, input_colors, params.f + 1, q,
                             k_eff, dd, active, colors, parts, lo, hi, vals)
        adopted = colors[act] >= 0
        active[act[adopted]] = False
        act = act[~adopted]
        if act.size == 0:
            break

    if act.size:
        raise RuntimeError(
            "some nodes exhausted their color sequences — this contradicts Theorem 1.1 "
            "and indicates invalid parameters or a bug"
        )

    return ColoringResult(
        colors=colors,
        rounds=rounds,
        color_space_size=params.color_space_size,
        parts=parts,
        metadata={
            "params": params.describe(),
            "implementation": "jit",
            "kernel": kernels.kind,
            "round_bound": params.round_bound,
        },
    )
