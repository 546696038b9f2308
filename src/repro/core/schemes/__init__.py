"""Pluggable execution schemes (one module per §III subsection).

Importing this package registers the paper's six schemes; add your own
by subclassing :class:`SchemeExecutor`, returning a :class:`SchemePlan`
from its ``plan`` and decorating it with ``@register_scheme("<name>")``
— see ``docs/extending.md``.
"""

from .base import (
    SchemeContext,
    SchemeExecutor,
    SchemePlan,
    Stream,
    WindowState,
    execute_scenario,
)
from .registry import (
    get_scheme,
    iter_schemes,
    register_scheme,
    scheme_names,
    unregister_scheme,
)

# Import order defines listing order: mirror Scheme.ALL / the paper's §III.
from . import polling as _polling  # noqa: E402,F401
from . import baseline as _baseline  # noqa: E402,F401
from . import batching as _batching  # noqa: E402,F401
from . import com as _com  # noqa: E402,F401
from . import beam as _beam  # noqa: E402,F401
from . import bcom as _bcom  # noqa: E402,F401

__all__ = [
    "SchemeContext",
    "SchemeExecutor",
    "SchemePlan",
    "Stream",
    "WindowState",
    "execute_scenario",
    "get_scheme",
    "iter_schemes",
    "register_scheme",
    "scheme_names",
    "unregister_scheme",
]
