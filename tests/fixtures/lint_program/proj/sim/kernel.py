"""Fixture simulation kernel: deterministic-core entry points.

Each function below reaches the wall-clock sink in ``proj.clocks``
through a *different* call-graph edge kind, so the tests can assert
every resolver independently: direct cross-module call, callback
registration, receiver-typed method call, and registry dispatch.
"""

from ..clocks import Meter, jitter
from ..registry import get_scheme


def advance(now_s):
    """Direct cross-module chain: advance -> jitter -> stamp."""
    return now_s + jitter()


def run_callback(fn):
    """Deferred-call trampoline used by :func:`schedule`."""
    return fn


def schedule():
    """Callback edge: ``jitter`` passed by name, called later."""
    return run_callback(jitter)


def sample():
    """Receiver-type edge: ``meter = Meter(); meter.read()``."""
    meter = Meter()
    return meter.read()


def dispatch():
    """Registry edge: get_scheme -> ThermalScheme.plan -> stamp."""
    scheme = get_scheme("therm")
    return scheme
