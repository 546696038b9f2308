"""The backend registry: execution-backend name -> backend class.

Backends self-register at import time via :func:`register_backend`; the
package ``__init__`` imports every built-in backend module, so importing
anything from ``repro.core.backends`` guarantees the two stock
backends (``serial``, ``process``) are present.  Third-party
backends register the same way — one module, one decorator, mirroring
the scheme registry — and immediately work everywhere a backend name is
accepted (:class:`~repro.core.engine.ScenarioEngine`, ``run_sweep``,
``compare_grid``, the CLI's ``--backend``).
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ...errors import BackendError
from .base import ExecutionBackend

#: Registration-ordered mapping of backend name -> backend class.
_REGISTRY: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(name: str):
    """Class decorator registering an :class:`ExecutionBackend` by name.

    The decorated class gains a ``name`` attribute.  Re-registering a
    different class under an existing name is an error (re-importing
    the same class is idempotent, so module reloads stay harmless).  So
    is a class that is not an ``ExecutionBackend`` subclass, or that
    neither defines ``submit_batch`` nor inherits one from a concrete
    backend.  Each raises :class:`~repro.errors.BackendError` and
    registers nothing.
    """

    def decorator(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise BackendError(
                f"backend {name!r} already registered by {existing.__name__}"
            )
        if not (isinstance(cls, type) and issubclass(cls, ExecutionBackend)):
            raise BackendError(
                f"backend {cls.__name__} does not subclass ExecutionBackend"
            )
        if cls.submit_batch is ExecutionBackend.submit_batch:
            raise BackendError(
                f"backend {cls.__name__} neither defines submit_batch() nor"
                " inherits one from a concrete backend"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def get_backend(name: str) -> Type[ExecutionBackend]:
    """Look up a backend class by name; raises for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY) or "none"
        raise BackendError(
            f"unknown backend {name!r} (registered: {known})"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def iter_backends() -> Tuple[Tuple[str, Type[ExecutionBackend]], ...]:
    """(name, class) pairs in registration order."""
    return tuple(_REGISTRY.items())


def unregister_backend(name: str) -> None:
    """Remove a backend (test hygiene for dynamically registered ones)."""
    _REGISTRY.pop(name, None)
