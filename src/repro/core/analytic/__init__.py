"""Closed-form analytic tier: scheme results without the event kernel.

The discrete-event simulation replays every sample, interrupt and
transfer through generator processes; for steady scenarios the same
schedule is computable directly as arithmetic over operation intervals.
This package holds one scan for every scheme family: it interprets the
same :class:`~repro.core.schemes.base.SchemePlan` each scheme declares
for the DES, and returns a
:class:`~repro.core.results.RunResult` with the same shape as the DES —
energy report, busy times, counters, result times — at a fraction of
the cost.

The tier is validated against the DES across the Figure 11 grid and
generated scenarios (see ``tests/test_analytic.py``): a full scan
reproduces the DES bit for bit, and an extrapolated long scan lands
within :data:`ANALYTIC_RTOL`, the pinned agreement band.
"""

from __future__ import annotations

from .model import ANALYTIC_RTOL, analytic_scenario_result

__all__ = ["ANALYTIC_RTOL", "analytic_scenario_result"]
