"""A registered scheme whose plan hook is impure.

No module imports this class directly — the only route from the sim
entry points into :meth:`ThermalScheme.plan` is the registry-dispatch
edge (``get_scheme(...)`` reaches every ``@register_scheme`` class's
entry hooks).
"""

from .clocks import stamp
from .registry import register_backend, register_scheme


@register_scheme("therm")
class ThermalScheme:
    """Scheme plugin resolved only through the registry."""

    def plan(self, scenario):
        """Entry hook reaching a wall-clock sink via ``stamp``."""
        del scenario
        return stamp()


@register_backend("sockets")
class SocketishBackend:
    """Backend plugin — ``get_scheme`` callers must NOT reach this."""

    @classmethod
    def create(cls, workers=1):
        """Impure factory (env-flavoured); only get_backend reaches it."""
        return stamp()
