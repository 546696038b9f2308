"""BEAM (Shen et al., ATC'16): apps sharing a sensor share one stream."""

from __future__ import annotations

from .base import SchemeExecutor, SchemePlan
from .registry import register_scheme


@register_scheme("beam")
class BeamScheme(SchemeExecutor):
    """Baseline with shared per-sensor streams: one transfer per raw sample."""

    def plan(self, scenario) -> SchemePlan:
        """Like baseline, but apps share one stream per sensor."""
        return SchemePlan(family="interrupting", shared=True)
