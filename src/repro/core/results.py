"""Run results: energy, timing and functional outputs of one scenario."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..apps.base import AppResult
from ..energy.meter import EnergyReport
from ..firmware.capability import OffloadReport
from ..hw.board import IoTHub
from ..hw.power import BUSY_STATES, Routine
from ..units import to_mj, to_ms


def routine_busy_times(hub: IoTHub, end_time: float) -> Dict[str, float]:
    """Busy seconds per routine, summed over all components.

    This is the paper's Figure 8 'time consumed by each routine' metric:
    only actual work (CPU/MCU execution, sensor reads, bus/NIC activity)
    counts.  Idle/wait time is excluded, and so are the CPU's wake
    transitions, which cost energy but perform no work (see
    :data:`~repro.hw.power.BUSY_STATES`).
    """
    totals: Dict[str, float] = {routine: 0.0 for routine in Routine.ORDER}
    for component in hub.recorder.components:
        for change, duration in hub.recorder.intervals(component, end_time):
            if change.state in BUSY_STATES:
                totals[change.routine] = totals.get(change.routine, 0.0) + duration
    return totals


@dataclass
class RunResult:
    """Everything measured from one scenario execution."""

    scenario_name: str
    scheme: str
    app_ids: List[str]
    windows: int
    duration_s: float
    energy: EnergyReport
    busy_times: Dict[str, float]
    app_results: Dict[str, List[AppResult]]
    result_times: Dict[str, List[float]]
    qos_violations: List[str] = field(default_factory=list)
    interrupt_count: int = 0
    cpu_wake_count: int = 0
    bus_bytes: int = 0
    offload_reports: Dict[str, OffloadReport] = field(default_factory=dict)
    hub: Optional[IoTHub] = None
    #: Which tier produced this result: ``"des"`` (event simulation) or
    #: ``"analytic"`` (closed-form model).  ``fidelity="auto"`` runs tag
    #: each merged point with the tier that actually answered it.
    fidelity: str = "des"

    @property
    def total_busy_s(self) -> float:
        """Work time across all routines (the Fig. 13 'performance')."""
        return sum(
            seconds
            for routine, seconds in self.busy_times.items()
            if routine != Routine.IDLE
        )

    def speedup_vs(self, baseline: "RunResult") -> float:
        """Throughput speedup relative to a baseline run (Figure 13)."""
        if self.total_busy_s <= 0:
            return float("inf")
        return baseline.total_busy_s / self.total_busy_s

    def result_latencies_s(self, app_name: str, window_s: float) -> List[float]:
        """Per-window result latency: delivery time minus window end.

        A latency of 0 means the result landed the instant the sensing
        window closed; heavy apps show multi-second latencies (they are
        slower than real time).
        """
        return [
            finish - (index + 1) * window_s
            for index, finish in enumerate(self.result_times.get(app_name, []))
        ]

    @property
    def results_ok(self) -> bool:
        """Every app produced a result for every window."""
        return all(
            len(results) == self.windows
            for results in self.app_results.values()
        ) and len(self.app_results) == len(self.app_ids)

    def result_payloads(self, app_name: str) -> List[dict]:
        """Payload dicts of one app across windows."""
        return [result.payload for result in self.app_results.get(app_name, [])]

    def summary(self) -> str:
        """One-paragraph human summary."""
        lines = [
            f"{self.scenario_name}: scheme={self.scheme} "
            f"apps={','.join(self.app_ids)} windows={self.windows}",
            f"  duration={to_ms(self.duration_s):.1f} ms  "
            f"energy={to_mj(self.energy.total_j):.1f} mJ "
            f"(marginal {to_mj(self.energy.marginal_j):.1f} mJ)",
            f"  interrupts={self.interrupt_count} wakes={self.cpu_wake_count} "
            f"bus={self.bus_bytes} B busy={to_ms(self.total_busy_s):.1f} ms",
        ]
        if self.qos_violations:
            lines.append(f"  QoS violations: {self.qos_violations}")
        return "\n".join(lines)
