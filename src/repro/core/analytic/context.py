"""Shared scan state for the closed-form scheme models.

An :class:`AnalyticRun` owns the per-component timelines, the FIFO
cursors (sensor rails, MCU core, CPU core, bus, NIC) and the counters a
:class:`~repro.core.results.RunResult` reports.  The family models in
:mod:`.interrupting` / :mod:`.cpu_polling` / :mod:`.buffered` drive it
with operation intervals instead of simulated processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...apps.base import AppResult, IoTApp
from ...hw.cpu import CpuState
from ...hw.mcu import McuState
from ...hw.power import Routine
from ...sensors.base import SensorDevice
from ...sensors.specs import get_spec
from ..schemes.base import SchemePlan, qos_violation
from .ledger import CycleTally, Timeline


class AnalyticRun:
    """Mutable scan state shared by the family models."""

    def __init__(self, scenario, plan: SchemePlan):
        self.scenario = scenario
        self.cal = scenario.calibration
        cal = self.cal
        # SchemeContext: governor-less schemes start the CPU awake.
        self.cpu = Timeline(
            "cpu",
            CpuState.DEEP_SLEEP if plan.governed else CpuState.IDLE,
            cal.cpu.deep_sleep_power_w
            if plan.governed
            else cal.cpu.idle_power_w,
        )
        # build_context: the MCU board is awake (data-collection wait)
        # whenever it owns the sensing; under main-board polling it never
        # leaves sleep.
        mcu_owns_sensing = plan.mcu_owns_sensing
        self.mcu = Timeline(
            "mcu",
            McuState.IDLE if mcu_owns_sensing else McuState.SLEEP,
            cal.mcu.idle_power_w
            if mcu_owns_sensing
            else cal.mcu.sleep_power_w,
            Routine.DATA_COLLECTION if mcu_owns_sensing else Routine.IDLE,
        )
        self.bus = Timeline("pio_bus", "idle", 0.0)
        self.nic = Timeline("nic", "idle", 0.0)
        self.board = Timeline("board", "on", cal.board.overhead_power_w)
        self.mcu_board = Timeline(
            "mcu_board", "on", cal.board.mcu_overhead_power_w
        )
        self.sensors: Dict[str, Timeline] = {}
        self.sensor_specs = {}
        for sensor_id in scenario.sensor_ids:
            spec = get_spec(sensor_id)
            self.sensor_specs[sensor_id] = spec
            self.sensors[sensor_id] = Timeline(
                f"sensor:{sensor_id}", SensorDevice.STANDBY, spec.min_power_w
            )
        #: FIFO cursors: earliest time each serialized resource frees up.
        self.rail_free: Dict[str, float] = {s: 0.0 for s in self.sensors}
        self.mcu_core_free = 0.0
        self.cpu_core_free = 0.0
        self.nic_free = 0.0
        #: RunResult counters.
        self.interrupt_count = 0
        self.cpu_wake_count = 0
        self.bus_bytes = 0
        self.sensor_reads: Dict[str, int] = {s: 0 for s in self.sensors}
        self.qos_violations: List[str] = []
        self.app_results: Dict[str, List[AppResult]] = {
            app.name: [] for app in scenario.apps
        }
        self.result_times: Dict[str, List[float]] = {
            app.name: [] for app in scenario.apps
        }
        #: High-water mark of emitted activity, for the run duration.
        self.last_activity = 0.0
        #: Per-cycle bookkeeping; only a truncated scan attaches one
        #: (see :mod:`.model`), so full scans tally nothing extra.
        self.cycles: Optional[CycleTally] = None

    # ------------------------------------------------------------------
    # shared op primitives
    # ------------------------------------------------------------------
    def wire_time(self, nbytes: int) -> float:
        """PIO wire time for one transfer (setup + payload)."""
        bus = self.cal.bus
        return bus.setup_time_s + max(1, nbytes) / bus.bandwidth_bytes_per_s

    def rail_read(self, sensor_id: str, ready: float) -> float:
        """One rail read: FIFO grant, read burst, back to standby.

        Returns the read-end time (when the sample exists).
        """
        spec = self.sensor_specs[sensor_id]
        grant = max(ready, self.rail_free[sensor_id])
        end = grant + spec.read_time_s
        timeline = self.sensors[sensor_id]
        timeline.set(
            grant,
            SensorDevice.READ,
            spec.typical_power_w + self.cal.mcu.sensor_read_power_w,
            Routine.DATA_COLLECTION,
        )
        timeline.set(end, SensorDevice.STANDBY, spec.min_power_w, Routine.IDLE)
        self.rail_free[sensor_id] = end
        self.sensor_reads[sensor_id] += 1
        self.last_activity = max(self.last_activity, end)
        return end

    def mcu_op(
        self,
        ready: float,
        duration: float,
        routine: str,
        after_routine: str = None,
    ) -> float:
        """One MCU-core execution: FIFO grant, busy burst, idle after."""
        start = max(ready, self.mcu_core_free)
        end = start + duration
        cal = self.cal.mcu
        self.mcu.set(start, McuState.BUSY, cal.active_power_w, routine)
        self.mcu.set(
            end, McuState.IDLE, cal.idle_power_w, after_routine or routine
        )
        self.mcu_core_free = end
        self.last_activity = max(self.last_activity, end)
        return end

    def cpu_op(
        self,
        ready: float,
        duration: float,
        routine: str,
        after_routine: str = None,
    ) -> float:
        """One CPU-core execution: FIFO grant, busy burst, idle after."""
        start = max(ready, self.cpu_core_free)
        end = start + duration
        cal = self.cal.cpu
        self.cpu.set(start, CpuState.BUSY, cal.active_power_w, routine)
        self.cpu.set(
            end, CpuState.IDLE, cal.idle_power_w, after_routine or routine
        )
        self.cpu_core_free = end
        self.last_activity = max(self.last_activity, end)
        return end

    def cpu_wake(self, t: float, routine: str) -> float:
        """Wake the CPU from (deep) sleep; returns the awake time."""
        cal = self.cal.cpu
        duration = (
            cal.deep_transition_time_s
            if self.cpu.state == CpuState.DEEP_SLEEP
            else cal.transition_time_s
        )
        self.cpu.set(t, CpuState.TRANSITION, cal.transition_power_w, routine)
        self.cpu.set(t + duration, CpuState.IDLE, cal.idle_power_w, routine)
        self.cpu_wake_count += 1
        if self.cycles is not None:
            self.cycles.cpu_wakes[self.cycles.index(t)] += 1
        self.last_activity = max(self.last_activity, t + duration)
        return t + duration

    @property
    def cpu_asleep(self) -> bool:
        """Whether the latest emitted CPU state is a sleep state."""
        return self.cpu.state in (CpuState.SLEEP, CpuState.DEEP_SLEEP)

    def bus_transfer(self, start: float, nbytes: int) -> float:
        """Bus-side activity concurrent with a CPU transfer op."""
        end = start + self.wire_time(nbytes)
        self.bus.set(start, "active", self.cal.bus.active_power_w,
                     Routine.DATA_TRANSFER)
        self.bus.set(end, "idle", 0.0, Routine.IDLE)
        self.bus_bytes += max(1, nbytes)
        if self.cycles is not None:
            self.cycles.bus_bytes[self.cycles.index(start)] += max(1, nbytes)
        return end

    def raise_interrupt(self, t: float) -> None:
        """Count one MCU-to-CPU interrupt raised at ``t``."""
        self.interrupt_count += 1
        if self.cycles is not None:
            self.cycles.interrupts[self.cycles.index(t)] += 1

    def nic_send(self, ready: float, nbytes: int) -> float:
        """One uplink publish; FIFO on the NIC lock."""
        start = max(ready, self.nic_free)
        end = start + nbytes / self.cal.board.nic_bandwidth_bytes_per_s
        self.nic.set(start, "tx", self.cal.board.nic_tx_power_w,
                     Routine.APP_COMPUTE)
        self.nic.set(end, "idle", 0.0, Routine.IDLE)
        self.nic_free = end
        self.last_activity = max(self.last_activity, end)
        return end

    # ------------------------------------------------------------------
    # results + QoS
    # ------------------------------------------------------------------
    def record_result(self, app: IoTApp, window_index: int, t: float) -> None:
        """Log one delivered window result; same deadline rule as the DES."""
        self.app_results[app.name].append(
            AppResult(
                app_name=app.name,
                window_index=window_index,
                payload={"analytic": True},
                output_bytes=app.profile.output_bytes,
            )
        )
        self.result_times[app.name].append(t)
        violation = qos_violation(app, window_index, t)
        if violation is not None:
            self.qos_violations.append(violation)

    def timelines(self) -> List[Timeline]:
        """Every component timeline, for integration."""
        return [
            self.cpu,
            self.mcu,
            self.bus,
            self.nic,
            self.board,
            self.mcu_board,
            *self.sensors.values(),
        ]
