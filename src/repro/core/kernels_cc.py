"""The compiled kernels of the ``jit`` backend: one C file built with the
system compiler and loaded via :mod:`ctypes`.

The three kernels — a mother-algorithm batch (``repro_mother_first``),
color-class removal (``repro_remove_classes``) and preferential attachment
(``repro_attach``) — are compiled *once* from the embedded source below into
a small shared library.  ctypes foreign calls drop the GIL, and the engine
kernels multi-thread their per-vertex loops with OpenMP when the toolchain
supports it (``REPRO_NUM_THREADS`` caps the team size; a process forked
after the library loaded runs them single-threaded, see :func:`cc_provider`).

The kernels operate on int64 CSR arrays, the int64 input colors (whose
base-``q`` digits are the polynomial coefficients, see ``poly_at``) and
caller-provided scratch.  All arithmetic is non-negative int64 modular
arithmetic, so the results are bit-identical to the array backend, which
with the reference backend is the parity oracle of the engine kernels; the
attachment kernel is tested against its Python specification,
:func:`repro.core.kernels_jit._kernel_attach`.  The loops index without
bounds checks, so the ctypes wrappers check dtypes, contiguity and sizes
first (O(1)).

Determinism under threads is by construction, not by locking: no iteration
reads a cell another iteration of the same loop writes.
``repro_mother_first`` runs its two loops in one parallel region.  The first
writes ``vals[v]`` for each active ``v``; the implicit barrier of its
``omp for`` ends every write before the second loop reads ``vals``.  There,
iteration ``r`` writes only ``colors[v]`` and ``parts[v]`` of its own active
``v = act[r]`` and reads ``colors[u]`` only for an inactive ``u``.
``active`` is read-only, so no iteration reads the color another one
adopts.  In ``repro_remove_classes``, iteration ``r`` writes ``colors[v]``
for ``v`` in one color class, an independent set, so no vertex of the class
reads another's color.  Outputs are therefore bit-identical for any thread
count.

Build artifacts are content-addressed: the library lands in
``$REPRO_JIT_CACHE`` (default ``~/.cache/repro/jit``) under a hash of the
source and compiler, so every later process just ``dlopen``\\ s it — compile
cost is paid once per machine, never per run.  Each build compiles its own
copy of the source into its own library and renames the library into place,
so concurrent builders never read each other's half-written files.  Any
failure (no compiler, compile error, a library that does not load or lacks
a kernel) makes :func:`cc_provider` return ``None`` and the ``jit`` backend
moves on to its array fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import pathlib
import subprocess
import tempfile
import time
from ctypes import POINTER, c_int32, c_int64, c_uint8
from typing import Any

import numpy as np

__all__ = ["CcKernels", "cc_provider", "build_library", "find_compiler"]

_SOURCE = r"""
#include <stdint.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_O1 __attribute__((optimize("O1")))
#else
#define REPRO_O1
#endif

/* p_c(x) mod q: the base-q digits of c + q, lowest first, are the
   polynomial's coefficients.  It stops once the quotient is 0 (every higher
   digit is 0) and takes at most f1 digits.  Digits and powers are below
   q < 2^31, so every product fits in int64, matching the NumPy tables
   exactly. */
static inline int64_t poly_at(int64_t c, int64_t f1, int64_t x, int64_t q)
{
    int64_t rest = c + q, acc = 0, power = 1;
    for (int64_t j = 0; j < f1 && rest != 0; j++) {
        acc = (acc + rest % q * power) % q;
        power = power * x % q;
        rest /= q;
    }
    return acc;
}

/* One batch: vals[v] = p_v(lo) for every active v (the constant digit at
   lo == 0), then each v adopts its first good trial in place.  The barrier
   between the two loops orders the writes of vals before its reads. */
void repro_mother_first(int64_t nact, const int64_t *act,
                        const int64_t *indptr, const int64_t *indices,
                        const int64_t *colors_in, int64_t f1,
                        int64_t q, int64_t keff, int64_t d,
                        const uint8_t *active, int64_t *colors, int64_t *parts,
                        int64_t lo, int64_t hi, int32_t *vals)
{
    int64_t part = lo / keff + 1;
#ifdef _OPENMP
#pragma omp parallel
#endif
    {
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (int64_t r = 0; r < nact; r++) {
            int64_t v = act[r];
            vals[v] = (int32_t)(lo == 0 ? colors_in[v] % q : poly_at(colors_in[v], f1, lo, q));
        }
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (int64_t r = 0; r < nact; r++) {
            int64_t v = act[r];
            for (int64_t x = lo; x < hi; x++) {
                int64_t val = x == lo ? vals[v] : poly_at(colors_in[v], f1, x, q);
                int64_t trial = (x % keff) * q + val;
                int64_t conflicts = 0;
                for (int64_t p = indptr[v]; p < indptr[v + 1]; p++) {
                    int64_t u = indices[p];
                    if (active[u]) {
                        if ((x == lo ? vals[u] : poly_at(colors_in[u], f1, x, q)) == val)
                            conflicts++;
                    } else if (colors[u] == trial) {
                        conflicts++;
                    }
                    if (conflicts > d)
                        break;
                }
                if (conflicts <= d) {
                    colors[v] = trial;
                    parts[v] = part;
                    break;
                }
            }
        }
    }
}

/* Color-class removal: class i is order[starts[i] .. starts[i + 1]); the
   classes run in order, each one's vertices in parallel. */
void repro_remove_classes(int64_t nclass, const int64_t *order,
                          const int64_t *starts, const int64_t *indptr,
                          const int64_t *indices, int64_t *colors,
                          int64_t target, uint8_t *used)
{
#ifdef _OPENMP
#pragma omp parallel
#endif
    for (int64_t i = 0; i < nclass; i++) {
        int64_t lo = starts[i], nv = starts[i + 1] - lo;
#ifdef _OPENMP
#pragma omp for schedule(static)
#endif
        for (int64_t r = 0; r < nv; r++) {
            int64_t v = order[lo + r];
            uint8_t *row = used + r * target;
            for (int64_t c = 0; c < target; c++)
                row[c] = 0;
            for (int64_t p = indptr[v]; p < indptr[v + 1]; p++) {
                int64_t b = colors[indices[p]];
                if (b >= 0 && b < target)
                    row[b] = 1;
            }
            int64_t c = 0;
            while (c < target && row[c])
                c++;
            if (c == target)  /* cannot happen on valid input; mirrors argmax */
                c = 0;
            colors[v] = c;
        }
    }
}

/* Preferential attachment, sequential (see _kernel_attach).  Compiled at
   -O1: -O3 only adds build time to this pointer-chasing loop. */
REPRO_O1 int64_t repro_attach(int64_t nwords, const int64_t *words,
                                 int64_t *ends, int64_t fill, int64_t start,
                                 int64_t n, int64_t attach, int64_t *mark)
{
    for (int64_t i = 0; i < n; i++)
        mark[i] = -1;
    int64_t w = 0;
    for (int64_t v = start; v < n; v++) {
        int64_t got = 0;
        while (got < attach) {
            if (w == nwords)
                return -1;
            int64_t r = words[w];
            w++;
            int64_t t;
            if (fill > 0)
                t = ends[r % fill];
            else
                t = r % v;
            if (mark[t] != v) {
                mark[t] = v;
                ends[fill + 2 * got] = v;
                ends[fill + 2 * got + 1] = t;
                got++;
            }
        }
        fill += 2 * attach;
    }
    return w;
}

void repro_set_threads(int64_t n)
{
#ifdef _OPENMP
    if (n >= 1)
        omp_set_num_threads((int)n);
#else
    (void)n;
#endif
}

int64_t repro_get_threads(void)
{
#ifdef _OPENMP
    return (int64_t)omp_get_max_threads();
#else
    return 1;
#endif
}
"""

_BASE_FLAGS = ["-O3", "-fPIC", "-shared"]


def find_compiler() -> str | None:
    """The C compiler to use: ``$CC``, then ``cc``/``gcc``/``clang`` on PATH."""
    import shutil

    candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
    for name in candidates:
        if name and shutil.which(name):
            return name
    return None


def _cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_JIT_CACHE")
    if env:
        return pathlib.Path(env)
    home = pathlib.Path(os.path.expanduser("~"))
    if home != pathlib.Path("~"):  # expansion worked
        return home / ".cache" / "repro" / "jit"
    return pathlib.Path(tempfile.gettempdir()) / "repro-jit-cache"


def build_library(cache_dir: str | os.PathLike | None = None
                  ) -> tuple[pathlib.Path, dict[str, Any]] | None:
    """Compile (or reuse) the kernel library; ``None`` when impossible.

    Returns ``(path, info)`` with ``info`` carrying ``cached`` (disk-cache
    hit), ``compile_seconds`` (0.0 on a hit), ``openmp`` and ``compiler`` —
    the jit engine's ``describe()`` reports them under ``detail``, so the
    cold-compile cost stays visible apart from warm kernel timings.
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    directory = pathlib.Path(cache_dir) if cache_dir is not None else _cache_dir()
    digest = hashlib.sha256(
        (_SOURCE + compiler + " ".join(_BASE_FLAGS)).encode()
    ).hexdigest()[:16]
    sofile = directory / f"repro_kernels_{digest}.so"
    meta = sofile.with_suffix(".json")
    if sofile.exists():
        try:
            info = json.loads(meta.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            info = {"openmp": None, "compiler": compiler}
        info.update({"cached": True, "compile_seconds": 0.0})
        return sofile, info
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # Per-process source and library: a shared source file would be
        # truncated under a concurrent builder's compiler, and an empty
        # source compiles into a valid library without the kernels.
        tmp = directory / f".build_{digest}_{os.getpid()}.so"
        csource = tmp.with_suffix(".c")
        csource.write_text(_SOURCE, encoding="utf-8")
        start = time.perf_counter()
        openmp = True
        cmd = [compiler, *_BASE_FLAGS, "-fopenmp", str(csource), "-o", str(tmp)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:  # toolchain without OpenMP: single-threaded build
            openmp = False
            cmd = [compiler, *_BASE_FLAGS, str(csource), "-o", str(tmp)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
        csource.unlink(missing_ok=True)
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            return None
        compile_seconds = time.perf_counter() - start
        os.replace(tmp, sofile)  # atomic: concurrent builders race benignly
        info = {"openmp": openmp, "compiler": compiler}
        meta.write_text(json.dumps(info), encoding="utf-8")
        info.update({"cached": False, "compile_seconds": round(compile_seconds, 4)})
        return sofile, info
    except OSError:
        return None


def _p64(array: np.ndarray):
    return array.ctypes.data_as(POINTER(c_int64))


def _p32(array: np.ndarray):
    return array.ctypes.data_as(POINTER(c_int32))


def _pu8(array: np.ndarray):
    return array.ctypes.data_as(POINTER(c_uint8))


class CcKernels:
    """The C tier: ctypes wrappers around the library's kernels, with the
    provenance the jit engine reports (``kind``, ``version``, ``threads``,
    ``detail``).

    The contract: int64 C-contiguous CSR, index and input-color arrays,
    int32 ``vals`` scratch, ``active`` as a 1-byte bool array, ``used`` as
    uint8 scratch.  The callers (``run_mother_jit``, ``removal_loop_jit``,
    ``power_law_cluster``) construct arrays with exactly these dtypes, so no
    conversion happens here; every kernel that indexes caller arrays
    unchecked checks them first (O(1)).  Binding the argument types looks up
    every kernel symbol, so a library that lacks one raises
    :class:`AttributeError` here, before any call.
    """

    kind = "cc"

    def __init__(self, lib: ctypes.CDLL, version: str, detail: dict[str, Any]):
        self._lib = lib
        self.version = version
        self.detail = detail
        lib.repro_mother_first.restype = None
        lib.repro_mother_first.argtypes = [
            c_int64, POINTER(c_int64), POINTER(c_int64), POINTER(c_int64),
            POINTER(c_int64), c_int64, c_int64, c_int64, c_int64,
            POINTER(c_uint8), POINTER(c_int64), POINTER(c_int64), c_int64, c_int64,
            POINTER(c_int32),
        ]
        lib.repro_remove_classes.restype = None
        lib.repro_remove_classes.argtypes = [
            c_int64, POINTER(c_int64), POINTER(c_int64), POINTER(c_int64),
            POINTER(c_int64), POINTER(c_int64), c_int64, POINTER(c_uint8),
        ]
        lib.repro_attach.restype = c_int64
        lib.repro_attach.argtypes = [
            c_int64, POINTER(c_int64), POINTER(c_int64), c_int64, c_int64,
            c_int64, c_int64, POINTER(c_int64),
        ]
        lib.repro_set_threads.restype = None
        lib.repro_set_threads.argtypes = [c_int64]
        lib.repro_get_threads.restype = c_int64
        lib.repro_get_threads.argtypes = []
        self.threads = int(lib.repro_get_threads())

    def set_threads(self, n: int) -> None:
        """Set the OpenMP team size (a build without OpenMP stays at 1)."""
        self._lib.repro_set_threads(int(n))
        self.threads = int(self._lib.repro_get_threads())

    def mother_first(self, act, indptr, indices, colors_in, f1, q, keff, d, active,
                     colors, parts, lo, hi, vals) -> None:
        """One mother-algorithm batch over trials ``[lo, hi)``: each active
        vertex ``act[r]`` writes its first trial with at most ``d``
        conflicts to ``colors`` (``(x % keff) * q + p_v(x)``) and its batch
        ``lo // keff + 1`` to ``parts``, and keeps ``-1`` when none
        qualifies.  ``f1 = f + 1`` bounds the digits of ``colors_in + q``
        that make up each polynomial.  ``vals`` needs no fill: the kernel
        writes every active vertex's entry before reading any."""
        _require("mother_first", np.int64, act, indptr, indices, colors_in, colors, parts)
        _require("mother_first", np.bool_, active)
        _require("mother_first", np.int32, vals)
        n = colors.size
        if indptr.size != n + 1 or active.size != n or parts.size != n \
                or colors_in.size != n:
            raise ValueError("mother_first kernel: indptr, active, parts, input "
                             "colors and colors disagree on the vertex count")
        if vals.size < n:
            raise ValueError("mother_first kernel: vals is shorter than colors")
        self._lib.repro_mother_first(
            act.size, _p64(act), _p64(indptr), _p64(indices),
            _p64(colors_in), f1, q, keff, d,
            _pu8(active), _p64(colors), _p64(parts), lo, hi, _p32(vals),
        )

    def remove_classes(self, order, starts, indptr, indices, colors, target, used) -> None:
        _require("remove_classes", np.int64, order, starts, indptr, indices, colors)
        _require("remove_classes", np.uint8, used)
        sizes = np.diff(starts)
        if starts.size < 1 or starts[0] != 0 or starts[-1] != order.size \
                or sizes.min(initial=0) < 0:
            raise ValueError("remove_classes kernel: starts must rise from 0 "
                             "to len(order)")
        if indptr.size != colors.size + 1:
            raise ValueError("remove_classes kernel: indptr and colors disagree "
                             "on the vertex count")
        if used.size < sizes.max(initial=0) * target:
            raise ValueError("remove_classes kernel: used is shorter than "
                             "the largest class * target")
        self._lib.repro_remove_classes(
            starts.size - 1, _p64(order), _p64(starts), _p64(indptr),
            _p64(indices), _p64(colors), target, _pu8(used),
        )

    def attach(self, words, ends, fill, start, n, attach, mark) -> int:
        # The C loop indexes ``ends`` and ``mark`` unchecked.
        _require("attach", np.int64, words, ends, mark)
        if start < 1 or ends.size < fill + 2 * (n - start) * attach or mark.size < n:
            raise ValueError("attach kernel: start < 1, or ends or mark too short")
        return int(self._lib.repro_attach(
            words.size, _p64(words), _p64(ends), fill, start, n, attach, _p64(mark),
        ))


def _require(kernel: str, dtype, *arrays: np.ndarray) -> None:
    for array in arrays:
        if array.dtype != dtype or not array.flags.c_contiguous:
            raise TypeError(f"{kernel} kernel arrays must be C-contiguous "
                            f"{np.dtype(dtype).name}, got {array.dtype}")


#: The most recently resolved C tier: the one a forked child resets.
_fork_kernels: CcKernels | None = None


def _one_thread_in_child() -> None:
    # libgomp is not fork-safe: a child forked from a thread that already ran
    # a parallel region inherits that thread's team, whose worker threads do
    # not exist in the child, and blocks forever at its first parallel
    # region.  One thread never starts a team, so a forked child (e.g. a
    # fork-started pool worker) runs the kernels single-threaded.  The thread
    # count lives in the OpenMP runtime, which every loaded copy of the
    # library shares, so resetting the latest tier covers the earlier ones.
    # (A build without OpenMP ignores the thread count.)
    if _fork_kernels is not None:
        _fork_kernels.set_threads(1)


if hasattr(os, "register_at_fork"):  # POSIX only; a handler cannot be removed
    os.register_at_fork(after_in_child=_one_thread_in_child)


def cc_provider(cache_dir: str | os.PathLike | None = None) -> CcKernels | None:
    """Build or load the C tier; ``None`` when no compiler is available, the
    build fails, or the library does not load or lacks a kernel.  A child
    forked later runs the tier resolved last single-threaded."""
    from repro.core.kernels_jit import requested_thread_cap

    built = build_library(cache_dir)
    if built is None:
        return None
    sofile, info = built
    try:
        kernels = CcKernels(ctypes.CDLL(str(sofile)), str(info.get("compiler", "cc")),
                            {"library": str(sofile), **info})
    except (OSError, AttributeError):
        return None
    cap = requested_thread_cap()
    if cap is not None:
        kernels.set_threads(cap)
    global _fork_kernels
    _fork_kernels = kernels
    return kernels
