"""The scheme registry: execution-scheme name -> executor class.

Schemes self-register at import time via :func:`register_scheme`; the
package ``__init__`` imports every built-in scheme module, so importing
anything from ``repro.core.schemes`` guarantees the six paper schemes
are present.  Third-party schemes register the same way — one module,
one decorator — and immediately work everywhere a scheme name is
accepted (:class:`~repro.core.scenario.Scenario`, the CLI, sweeps).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ...errors import WorkloadError

#: Registration-ordered mapping of scheme name -> executor class.
_REGISTRY: Dict[str, type] = {}


def _check_plugin(cls: type) -> None:
    """Raise unless ``cls`` keeps the scheme plugin contract."""
    # base.py imports get_scheme from here, so its class is looked up
    # at decoration time, once base.py has loaded.
    from .base import SchemeExecutor

    if not (isinstance(cls, type) and issubclass(cls, SchemeExecutor)):
        raise WorkloadError(
            f"scheme {cls.__name__} does not subclass SchemeExecutor"
        )
    if cls.plan is SchemeExecutor.plan:
        raise WorkloadError(
            f"scheme {cls.__name__} neither defines plan() nor inherits"
            " one from a concrete scheme"
        )
    knobs = sorted(
        attr
        for attr, value in vars(cls).items()
        if attr != "name"
        and not (attr.startswith("__") and attr.endswith("__"))
        and not callable(value)
        and not hasattr(value, "__get__")
    )
    if knobs:
        raise WorkloadError(
            f"scheme {cls.__name__} sets class attribute(s)"
            f" {', '.join(knobs)}; executors read none but name, so"
            " declare scheme decisions in the SchemePlan plan() returns"
        )


def register_scheme(name: str):
    """Class decorator registering a :class:`SchemeExecutor` under ``name``.

    The decorated class gains a ``name`` attribute.  Re-registering a
    different class under an existing name is an error (re-importing the
    same class is idempotent, so module reloads stay harmless).  So is a
    class that is not a ``SchemeExecutor`` subclass, has no concrete
    ``plan`` of its own or inherited from another scheme, or sets a
    class attribute other than ``name``: executors read no other knob,
    so every decision a scheme makes lives in its plan.  Each raises
    :class:`~repro.errors.WorkloadError` and registers nothing.
    """

    def decorator(cls: type) -> type:
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise WorkloadError(
                f"scheme {name!r} already registered by {existing.__name__}"
            )
        _check_plugin(cls)
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def get_scheme(name: str) -> type:
    """Look up a scheme class by name; raises for unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY) or "none"
        raise WorkloadError(
            f"unknown scheme {name!r} (registered: {known})"
        ) from None


def scheme_names() -> Tuple[str, ...]:
    """Registered scheme names, in registration order."""
    return tuple(_REGISTRY)


def iter_schemes() -> Tuple[Tuple[str, type], ...]:
    """(name, class) pairs in registration order."""
    return tuple(_REGISTRY.items())


def unregister_scheme(name: str) -> None:
    """Remove a scheme (test hygiene for dynamically registered ones)."""
    _REGISTRY.pop(name, None)
