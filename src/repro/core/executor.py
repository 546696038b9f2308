"""Scenario execution entry points.

The scheme implementations live in :mod:`repro.core.schemes` (one module
per §III subsection, found through the scheme registry); this module
keeps the historical convenience API on top of them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..obs.recorder import NullRecorder
from .results import RunResult
from .scenario import Scenario
from .schemes.base import execute_scenario


def run_scenario(
    scenario: Scenario,
    obs: Optional[NullRecorder] = None,
    fast_forward: bool = False,
) -> RunResult:
    """Execute one scenario under its registered scheme.

    ``fast_forward=True`` enables steady-state cycle skipping (see
    :mod:`repro.core.fastforward`); results then match full simulation
    at rtol 1e-9 with exact counters rather than bit-identically.
    """
    return execute_scenario(scenario, obs=obs, fast_forward=fast_forward)


def run_apps(
    app_ids: Sequence[str],
    scheme: str,
    windows: int = 1,
    calibration=None,
    waveforms=None,
    obs: Optional[NullRecorder] = None,
    fast_forward: bool = False,
) -> RunResult:
    """Run Table II apps by id under one scheme."""
    return run_scenario(
        Scenario.of(
            app_ids,
            scheme=scheme,
            windows=windows,
            calibration=calibration,
            waveforms=waveforms,
        ),
        obs=obs,
        fast_forward=fast_forward,
    )
