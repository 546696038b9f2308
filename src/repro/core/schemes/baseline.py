"""Baseline (§II-B): MCU polls, one interrupt + transfer per sample."""

from __future__ import annotations

from .base import SchemeExecutor, SchemePlan
from .registry import register_scheme


@register_scheme("baseline")
class BaselineScheme(SchemeExecutor):
    """Per-(app, sensor) MCU streams; one interrupt and transfer per sample."""

    def plan(self, scenario) -> SchemePlan:
        """One interrupting stream per (app, sensor) pair — no sharing."""
        return SchemePlan(family="interrupting")
