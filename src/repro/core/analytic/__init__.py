"""Closed-form analytic tier: scheme results without the event kernel.

The discrete-event simulation replays every sample, interrupt and
transfer through generator processes; for steady scenarios the same
schedule is computable directly as arithmetic over operation intervals.
This package holds one closed-form model per scheme *family* (see
:class:`~repro.core.schemes.base.AnalyticPlan`), each returning a
:class:`~repro.core.results.RunResult` with the same shape as the DES —
energy report, busy times, counters, result times — at a fraction of
the cost.

The tier is validated against the DES across the Figure 11 grid (see
``tests/test_analytic.py``); :data:`ANALYTIC_RTOL` is the pinned
agreement band, and the ``auto`` fidelity planner re-confirms through
the DES any grid point where two schemes land within
:data:`AUTO_CONFIRM_BAND` of each other.
"""

from __future__ import annotations

from .model import (
    ANALYTIC_RTOL,
    AUTO_CONFIRM_BAND,
    AnalyticUnsupported,
    analytic_scenario_result,
    supports_analytic,
)

__all__ = [
    "ANALYTIC_RTOL",
    "AUTO_CONFIRM_BAND",
    "AnalyticUnsupported",
    "analytic_scenario_result",
    "supports_analytic",
]
