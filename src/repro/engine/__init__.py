"""repro.engine — the pluggable execution-engine layer.

One backend API, three interchangeable implementations:

* :class:`ReferenceEngine` (``backend="reference"``) — the model-faithful
  per-node LOCAL/CONGEST scheduler with round/message/bandwidth metrics;
* :class:`ArrayEngine` (``backend="array"``) — the whole-graph NumPy twin
  over the CSR adjacency, bit-identical outputs, orders of magnitude faster;
* :class:`JitEngine` (``backend="jit"``) — compiled multi-threaded kernels
  (numba, or an OpenMP C extension when numba is absent), bit-identical to
  the array twin; degrades to the array backend with one warning when no
  compiled tier is available.

Every algorithm in :mod:`repro.core` accepts ``backend=`` and routes its
primitive steps (mother-algorithm invocations and color-class removal)
through the selected engine; :class:`BatchRunner` sweeps whole
(graph x seed x params) grids through a backend with shared precomputed
CSR structures and optional built-in reference-parity checking.

See ARCHITECTURE.md for the backend contract and parity guarantees.
"""

from repro.engine.array import ArrayEngine
from repro.engine.base import Engine, EngineError, UnknownBackendError
from repro.engine.batch import BatchResult, BatchRunner, GraphSpec, ParityError
from repro.engine.jit import JitEngine
from repro.engine.reference import ReferenceEngine
from repro.engine.sink import (
    CsvSink,
    JsonlSink,
    ResultSink,
    RunManifest,
    SinkError,
    open_sink,
)
from repro.engine.registry import (
    available_backends,
    describe_backends,
    ensure_known_backend,
    get_engine,
    register_engine,
)
from repro.engine.retry import (
    CellExecutionError,
    CellTimeoutError,
    RetryPolicy,
    WorkerCrashError,
    cell_error_record,
    classify_error,
    describe_error,
)

__all__ = [
    "Engine",
    "EngineError",
    "UnknownBackendError",
    "ReferenceEngine",
    "ArrayEngine",
    "JitEngine",
    "get_engine",
    "register_engine",
    "available_backends",
    "describe_backends",
    "ensure_known_backend",
    "BatchRunner",
    "BatchResult",
    "GraphSpec",
    "ParityError",
    "ResultSink",
    "JsonlSink",
    "CsvSink",
    "RunManifest",
    "SinkError",
    "open_sink",
    "RetryPolicy",
    "CellTimeoutError",
    "WorkerCrashError",
    "CellExecutionError",
    "classify_error",
    "describe_error",
    "cell_error_record",
]
