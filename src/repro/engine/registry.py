"""Backend registry: resolve ``backend=`` arguments to :class:`Engine` instances.

Every backend-generic function in :mod:`repro.core` accepts
``backend="reference" | "array" | Engine``; :func:`get_engine` is the single
resolution point.  Third-party backends (e.g. a GPU twin) can be plugged in
with :func:`register_engine` without touching any call site.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.array import ArrayEngine
from repro.engine.base import Engine, EngineError, UnknownBackendError
from repro.engine.jit import JitEngine
from repro.engine.reference import ReferenceEngine

__all__ = [
    "BACKENDS",
    "get_engine",
    "register_engine",
    "available_backends",
    "describe_backends",
    "ensure_known_backend",
]

#: Factories for the built-in backends (instantiated with defaults on demand).
BACKENDS: dict[str, Callable[[], Engine]] = {
    "reference": ReferenceEngine,
    "array": ArrayEngine,
    "jit": JitEngine,
}

# Default instances are shared: engines are stateless apart from their
# configuration, so one instance per name suffices for the default settings.
_DEFAULT_INSTANCES: dict[str, Engine] = {}


def register_engine(name: str, factory: Callable[[], Engine]) -> None:
    """Register a new backend under ``name`` (overwrites any existing entry)."""
    if not name or not isinstance(name, str):
        raise EngineError(f"backend name must be a non-empty string, got {name!r}")
    BACKENDS[name] = factory
    _DEFAULT_INSTANCES.pop(name, None)


def available_backends() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(BACKENDS)


def ensure_known_backend(name: object, context: str | None = None) -> str:
    """Validate a backend *name* without instantiating its engine.

    Raises :class:`UnknownBackendError` (naming the accepted backends) for
    unregistered names; used by ``Run.backend`` validation in
    :mod:`repro.api.spec` so spec errors match engine-resolution errors.
    """
    if not isinstance(name, str) or name not in BACKENDS:
        raise UnknownBackendError(name, available_backends(), context=context)
    return name


def describe_backends() -> list[dict]:
    """Availability/version/thread metadata for every registered backend.

    One :meth:`Engine.describe` dict per backend, sorted by name — the data
    behind ``repro list-backends``.  Engines are instantiated (shared default
    instances) and the jit engine resolves its kernel provider (availability
    is the point of the report); the C tier's one-time build is disk-cached.
    """
    return [get_engine(name).describe() for name in available_backends()]


def get_engine(backend: str | Engine = "reference") -> Engine:
    """Resolve a backend specifier to an :class:`Engine` instance.

    ``backend`` may be an engine instance (returned as-is) or a registered
    name.  Unknown names raise :class:`EngineError` listing the alternatives.
    """
    if isinstance(backend, Engine):
        return backend
    if not isinstance(backend, str):
        raise EngineError(
            f"backend must be an Engine or a backend name, got {type(backend).__name__}"
        )
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise UnknownBackendError(backend, available_backends()) from None
    if backend not in _DEFAULT_INSTANCES:
        _DEFAULT_INSTANCES[backend] = factory()
    return _DEFAULT_INSTANCES[backend]

