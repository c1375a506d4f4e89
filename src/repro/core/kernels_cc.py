"""The C tier of the ``jit`` backend: one-file extension built with the
system compiler, loaded via :mod:`ctypes`.

When numba is not installed (the preferred tier, see
:mod:`repro.core.kernels_jit`) but a C compiler is on PATH, the four
kernels are compiled *once* from the embedded source below into a small
shared library and called through :mod:`ctypes` — ctypes foreign calls drop
the GIL, and the engine kernels multi-thread their per-vertex loops with OpenMP
when the toolchain supports it (``REPRO_NUM_THREADS`` caps the team size;
a process forked after the library loaded runs them single-threaded, see
:func:`cc_provider`).

The C code is a line-for-line translation of the pure-Python kernels in
:mod:`repro.core.kernels_jit` (the single source of semantics, parity-tested
against the array backend), operating on the same int64 CSR arrays and
caller-provided :class:`~repro.core.workspace.Workspace` scratch.  All
arithmetic is non-negative int64 modular arithmetic, so the results are
bit-identical to both the NumPy and the numba tiers.

Build artifacts are content-addressed: the library lands in
``$REPRO_JIT_CACHE`` (default ``~/.cache/repro/jit``) under a hash of the
source and compiler, so every later process just ``dlopen``\\ s it — compile
cost is paid once per machine, never per run.  Any failure (no compiler,
compile error, unloadable library) makes :func:`cc_provider` return ``None``
and the ``jit`` backend moves on to its array fallback.
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
from ctypes import POINTER, c_int64, c_uint8
from typing import Any

import numpy as np

__all__ = ["cc_provider", "build_library", "find_compiler"]

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

/* Horner evaluation of the degree-(f1-1) trial polynomial at x, mod q.
   All operands are non-negative and q*q fits int64 (q <= ~3e9), matching
   the int64 modular arithmetic of the NumPy and numba tiers exactly. */
static inline int64_t horner(const int64_t *c, int64_t f1, int64_t x, int64_t q)
{
    int64_t acc = 0;
    for (int64_t j = f1 - 1; j >= 0; j--)
        acc = (acc * x + c[j]) % q;
    return acc;
}

void repro_mother_first(int64_t nact, const int64_t *act,
                        const int64_t *indptr, const int64_t *indices,
                        const int64_t *coeffs, int64_t f1,
                        int64_t q, int64_t keff, int64_t d,
                        const uint8_t *active, const int64_t *colors,
                        int64_t lo, int64_t hi,
                        int64_t *first, int64_t *firstval)
{
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (int64_t r = 0; r < nact; r++) {
        int64_t v = act[r];
        const int64_t *cv = coeffs + v * f1;
        int64_t slot = -1, slotval = 0;
        for (int64_t x = lo; x < hi; x++) {
            int64_t val = horner(cv, f1, x, q);
            int64_t trial = (x % keff) * q + val;
            int64_t conflicts = 0;
            for (int64_t p = indptr[v]; p < indptr[v + 1]; p++) {
                int64_t u = indices[p];
                if (active[u]) {
                    if (horner(coeffs + u * f1, f1, x, q) == val)
                        conflicts++;
                } else if (colors[u] == trial) {
                    conflicts++;
                }
                if (conflicts > d)
                    break;
            }
            if (conflicts <= d) {
                slot = x;
                slotval = val;
                break;
            }
        }
        first[r] = slot;
        firstval[r] = slotval;
    }
}

void repro_remove_class(int64_t nv, const int64_t *verts,
                        const int64_t *indptr, const int64_t *indices,
                        int64_t *colors, int64_t target, uint8_t *used)
{
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (int64_t r = 0; r < nv; r++) {
        int64_t v = verts[r];
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

void repro_kw_round(int64_t nv, const int64_t *verts,
                    const int64_t *indptr, const int64_t *indices,
                    int64_t *colors, int64_t block, int64_t target,
                    uint8_t *used)
{
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (int64_t r = 0; r < nv; r++) {
        int64_t v = verts[r];
        int64_t bo = colors[v] / block;
        uint8_t *row = used + r * target;
        for (int64_t c = 0; c < target; c++)
            row[c] = 0;
        for (int64_t p = indptr[v]; p < indptr[v + 1]; p++) {
            int64_t b = colors[indices[p]];
            if (b / block == bo) {
                int64_t slot = b % block;
                if (slot < target)
                    row[slot] = 1;
            }
        }
        int64_t s = 0;
        while (s < target && row[s])
            s++;
        if (s == target)
            s = 0;
        colors[v] = bo * block + s;
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
        csource = directory / f"repro_kernels_{digest}.c"
        csource.write_text(_SOURCE, encoding="utf-8")
        tmp = directory / f".build_{digest}_{os.getpid()}.so"
        start = time.perf_counter()
        openmp = True
        cmd = [compiler, *_BASE_FLAGS, "-fopenmp", str(csource), "-o", str(tmp)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:  # toolchain without OpenMP: single-threaded build
            openmp = False
            cmd = [compiler, *_BASE_FLAGS, str(csource), "-o", str(tmp)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
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


def _pu8(array: np.ndarray):
    return array.ctypes.data_as(POINTER(c_uint8))


class _CcKernels:
    """ctypes wrappers presenting the library under the provider interface.

    The contract mirrors the pure-Python kernels: int64 C-contiguous CSR and
    index arrays, ``active`` as a 1-byte bool array, ``used`` as uint8
    scratch.  Callers (the jit drivers) construct arrays with exactly these
    dtypes, so no conversion happens here.
    """

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        lib.repro_mother_first.restype = None
        lib.repro_mother_first.argtypes = [
            c_int64, POINTER(c_int64), POINTER(c_int64), POINTER(c_int64),
            POINTER(c_int64), c_int64, c_int64, c_int64, c_int64,
            POINTER(c_uint8), POINTER(c_int64), c_int64, c_int64,
            POINTER(c_int64), POINTER(c_int64),
        ]
        lib.repro_remove_class.restype = None
        lib.repro_remove_class.argtypes = [
            c_int64, POINTER(c_int64), POINTER(c_int64), POINTER(c_int64),
            POINTER(c_int64), c_int64, POINTER(c_uint8),
        ]
        lib.repro_kw_round.restype = None
        lib.repro_kw_round.argtypes = [
            c_int64, POINTER(c_int64), POINTER(c_int64), POINTER(c_int64),
            POINTER(c_int64), c_int64, c_int64, POINTER(c_uint8),
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

    def set_threads(self, n: int) -> int:
        self._lib.repro_set_threads(int(n))
        return int(self._lib.repro_get_threads())

    def threads(self) -> int:
        return int(self._lib.repro_get_threads())

    def mother_first(self, act, indptr, indices, coeffs, q, keff, d, active,
                     colors, lo, hi, first, firstval) -> None:
        self._lib.repro_mother_first(
            act.size, _p64(act), _p64(indptr), _p64(indices),
            _p64(coeffs), coeffs.shape[1], q, keff, d,
            _pu8(active), _p64(colors), lo, hi, _p64(first), _p64(firstval),
        )

    def remove_class(self, verts, indptr, indices, colors, target, used) -> None:
        self._lib.repro_remove_class(
            verts.size, _p64(verts), _p64(indptr), _p64(indices),
            _p64(colors), target, _pu8(used),
        )

    def kw_round(self, verts, indptr, indices, colors, block, target, used) -> None:
        self._lib.repro_kw_round(
            verts.size, _p64(verts), _p64(indptr), _p64(indices),
            _p64(colors), block, target, _pu8(used),
        )

    def attach(self, words, ends, fill, start, n, attach, mark) -> int:
        # The C loop indexes ``ends`` and ``mark`` unchecked.
        for array in (words, ends, mark):
            if array.dtype != np.int64 or not array.flags.c_contiguous:
                raise TypeError("attach kernel arrays must be C-contiguous int64")
        if start < 1 or ends.size < fill + 2 * (n - start) * attach or mark.size < n:
            raise ValueError("attach kernel: start < 1, or ends or mark too short")
        return int(self._lib.repro_attach(
            words.size, _p64(words), _p64(ends), fill, start, n, attach, _p64(mark),
        ))


def cc_provider(cache_dir: str | os.PathLike | None = None):
    """Build/load the C tier as a :class:`~repro.core.kernels_jit.KernelProvider`;
    ``None`` when no compiler is available or the build/load fails."""
    from repro.core.kernels_jit import KernelProvider, requested_thread_cap

    built = build_library(cache_dir)
    if built is None:
        return None
    sofile, info = built
    try:
        kernels = _CcKernels(ctypes.CDLL(str(sofile)))
    except OSError:
        return None
    cap = requested_thread_cap()
    threads = kernels.set_threads(cap) if cap is not None else kernels.threads()
    provider = KernelProvider(
        kind="cc",
        version=str(info.get("compiler", "cc")),
        threads=threads,
        mother_first=kernels.mother_first,
        remove_class=kernels.remove_class,
        kw_round=kernels.kw_round,
        attach=kernels.attach,
        detail={"library": str(sofile), **info},
    )
    if hasattr(os, "register_at_fork"):  # POSIX only
        # libgomp is not fork-safe: a child forked from a thread that already
        # ran a parallel region inherits that thread's team, whose worker
        # threads do not exist in the child, and blocks forever at its first
        # parallel region.  One thread never starts a team, so a forked child
        # (e.g. a fork-started pool worker) runs the kernels single-threaded.
        # (A build without OpenMP ignores the thread count.)
        os.register_at_fork(after_in_child=lambda: _single_threaded(kernels, provider))
    return provider


def _single_threaded(kernels: _CcKernels, provider) -> None:
    provider.threads = kernels.set_threads(1)
