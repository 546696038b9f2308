"""Main-board polling (§II-A): the pre-baseline the MCU board replaces."""

from __future__ import annotations

from .base import SchemeExecutor, SchemePlan
from .registry import register_scheme


@register_scheme("polling")
class PollingScheme(SchemeExecutor):
    """Sensors on the main board: the CPU blocks on every read; MCU asleep."""

    def plan(self, scenario) -> SchemePlan:
        """CPU-blocking reads; the MCU never leaves sleep."""
        return SchemePlan(family="cpu_polling")
