"""Batching (§III-A): buffer a window in MCU RAM, one bulk hand-off."""

from __future__ import annotations

from .base import SchemeExecutor, SchemePlan
from .registry import register_scheme


@register_scheme("batching")
class BatchingScheme(SchemeExecutor):
    """Buffer samples in MCU RAM; one interrupt and bulk transfer per window."""

    def plan(self, scenario) -> SchemePlan:
        """Every app gets MCU-buffered sensing; none are offloaded."""
        return SchemePlan(family="buffered", batch_apps=list(scenario.apps))
