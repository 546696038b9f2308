"""Scan state of the analytic tier.

An :class:`AnalyticRun` owns the per-component power schedules
(:class:`~repro.energy.ledger.Schedule`), the FIFO cursors (sensor
rails, MCU core, CPU core, bus, NIC), the counters a
:class:`~repro.core.results.RunResult` reports and the results'
:class:`~repro.core.schemes.base.ResultLog`.  The one scan in
:mod:`.scan` drives it with operation intervals instead of simulated
processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...apps.base import AppResult, IoTApp
from ...energy.ledger import CycleTally, Entry, Schedule
from ...hubos.polling import STORE_TIME_S
from ...hw.bus import wire_time
from ...hw.cpu import CpuState, wake_time_s
from ...hw.mcu import McuState
from ...hw.power import Routine
from ...sensors.base import (
    CHECK_TIME_FRACTION,
    SensorDevice,
    failed_check_count,
    validate_failure_rate,
)
from ...sensors.specs import get_spec
from ..schemes.base import ResultLog, SchemePlan


class AnalyticRun:
    """Mutable scan state the scan drives."""

    def __init__(self, scenario, plan: SchemePlan):
        self.scenario = scenario
        self.cal = scenario.calibration
        cal = self.cal
        # SchemeContext: governor-less schemes start the CPU awake.
        self.cpu = Schedule(
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
        self.mcu = Schedule(
            "mcu",
            McuState.IDLE if mcu_owns_sensing else McuState.SLEEP,
            cal.mcu.idle_power_w
            if mcu_owns_sensing
            else cal.mcu.sleep_power_w,
            Routine.DATA_COLLECTION if mcu_owns_sensing else Routine.IDLE,
        )
        self.bus = Schedule("pio_bus", "idle", 0.0)
        self.nic = Schedule("nic", "idle", 0.0)
        self.board = Schedule("board", "on", cal.board.overhead_power_w)
        self.mcu_board = Schedule(
            "mcu_board", "on", cal.board.mcu_overhead_power_w
        )
        self.sensors: Dict[str, Schedule] = {}
        #: Per rail: read time, read power, standby power and the
        #: sensor schedule's entry list, for :meth:`rail_read`.
        self._rails: Dict[str, Tuple[float, float, float, List[Entry]]] = {}
        for sensor_id in scenario.sensor_ids:
            spec = get_spec(sensor_id)
            schedule = self.sensors[sensor_id] = Schedule(
                f"sensor:{sensor_id}", SensorDevice.STANDBY, spec.min_power_w
            )
            self._rails[sensor_id] = (
                spec.read_time_s,
                spec.typical_power_w + cal.mcu.sensor_read_power_w,
                spec.min_power_w,
                schedule._events,
            )
        #: Reads so far on each failure-injected rail, for
        #: :meth:`checked_read`.  Each rate is checked here, as
        #: ``SensorDevice`` checks it: one set after the scenario was
        #: built has not been.
        self.checked: Dict[str, int] = {}
        for sensor_id in self.sensors:
            rate = scenario.sensor_failure_rates.get(sensor_id, 0.0)
            validate_failure_rate(rate)
            if rate > 0.0:
                self.checked[sensor_id] = 0
        #: FIFO cursors: earliest time each serialized resource frees up.
        self.rail_free: Dict[str, float] = {s: 0.0 for s in self.sensors}
        self.mcu_core_free = 0.0
        self.cpu_core_free = 0.0
        self.nic_free = 0.0
        #: RunResult counters.
        self.interrupt_count = 0
        self.cpu_wake_count = 0
        self.bus_bytes = 0
        self.log = ResultLog(scenario.apps)
        #: The kernel key of the event that logged each QoS violation:
        #: the scan logs them out of event order (see :meth:`log_order`).
        self.violation_keys: List[tuple] = []
        #: High-water mark of emitted activity, for the run duration.
        self.last_activity = 0.0
        #: Per-cycle bookkeeping; only a truncated scan attaches one
        #: (see :mod:`.model`), so full scans tally nothing extra.
        self.cycles: Optional[CycleTally] = None

    # ------------------------------------------------------------------
    # shared op primitives
    # ------------------------------------------------------------------
    # Each primitive appends its two entries to the schedule directly,
    # keeping ``state`` current for the cores (a rail, the bus and the
    # NIC always end in the state they start from), and picks the later
    # of two times by comparison, the way ``max`` would: the first
    # argument unless the second is greater.
    def rail_read(self, sensor_id: str, ready: float) -> float:
        """One rail read: FIFO grant, read burst, back to standby.

        Returns the read-end time (when the sample exists).
        """
        read_s, read_w, standby_w, entries = self._rails[sensor_id]
        free = self.rail_free[sensor_id]
        grant = free if free > ready else ready
        end = grant + read_s
        entries.append(
            (grant, SensorDevice.READ, read_w, Routine.DATA_COLLECTION, None)
        )
        entries.append(
            (end, SensorDevice.STANDBY, standby_w, Routine.IDLE, None)
        )
        self.rail_free[sensor_id] = end
        if end > self.last_activity:
            self.last_activity = end
        return end

    def checked_read(self, sensor_id: str, ready: float) -> List[float]:
        """One read on a failure-injected rail: a check-length burst per
        availability check it fails (:func:`failed_check_count`, as
        :meth:`SensorDevice.acquire` draws them), then :meth:`rail_read`.

        Returns each failed check's end time, then the read-end time.
        """
        reads = self.checked[sensor_id]
        self.checked[sensor_id] = reads + 1
        rate = self.scenario.sensor_failure_rates[sensor_id]
        read_s, read_w, standby_w, entries = self._rails[sensor_id]
        free = self.rail_free[sensor_id]
        t = free if free > ready else ready
        ends = []
        for _ in range(failed_check_count(sensor_id, rate, reads)):
            entries.append(
                (t, SensorDevice.READ, read_w, Routine.DATA_COLLECTION, None)
            )
            t += read_s * CHECK_TIME_FRACTION
            entries.append(
                (t, SensorDevice.STANDBY, standby_w, Routine.IDLE, None)
            )
            ends.append(t)
        self.rail_free[sensor_id] = t
        ends.append(self.rail_read(sensor_id, t))
        return ends

    def mcu_op(
        self,
        ready: float,
        duration: float,
        routine: str,
        after_routine: str = None,
    ) -> float:
        """One MCU-core execution: FIFO grant, busy burst, idle after."""
        free = self.mcu_core_free
        start = free if free > ready else ready
        end = start + duration
        cal = self.cal.mcu
        mcu = self.mcu
        entries = mcu._events
        entries.append(
            (start, McuState.BUSY, cal.active_power_w, routine, None)
        )
        entries.append(
            (end, McuState.IDLE, cal.idle_power_w, after_routine or routine,
             None)
        )
        mcu.state = McuState.IDLE
        self.mcu_core_free = end
        if end > self.last_activity:
            self.last_activity = end
        return end

    def cpu_op(
        self,
        ready: float,
        duration: float,
        routine: str,
        after_routine: str = None,
    ) -> Tuple[float, float]:
        """One CPU-core execution: FIFO grant, busy burst, idle after;
        returns the grant and end times."""
        free = self.cpu_core_free
        start = free if free > ready else ready
        end = start + duration
        cal = self.cal.cpu
        cpu = self.cpu
        entries = cpu._events
        entries.append(
            (start, CpuState.BUSY, cal.active_power_w, routine, None)
        )
        entries.append(
            (end, CpuState.IDLE, cal.idle_power_w, after_routine or routine,
             None)
        )
        cpu.state = CpuState.IDLE
        self.cpu_core_free = end
        if end > self.last_activity:
            self.last_activity = end
        return start, end

    def cpu_read(self, sensor_id: str, ready: float) -> Tuple[float, float]:
        """One blocking read on the CPU core (FIFO): busy through the rail
        read and the store, then idle; returns read and store ends."""
        cal = self.cal.cpu
        free = self.cpu_core_free
        start = free if free > ready else ready
        if sensor_id in self.checked:
            read_end = self.checked_read(sensor_id, start)[-1]
        else:
            read_end = self.rail_read(sensor_id, start)
        end = read_end + STORE_TIME_S
        cpu = self.cpu
        cpu.set(start, CpuState.BUSY, cal.active_power_w, Routine.DATA_COLLECTION)
        cpu.set(read_end, CpuState.BUSY, cal.active_power_w, Routine.DATA_TRANSFER)
        cpu.set(end, CpuState.IDLE, cal.idle_power_w, Routine.DATA_TRANSFER)
        self.cpu_core_free = end
        if end > self.last_activity:
            self.last_activity = end
        return read_end, end

    def mcu_nap(self, now: float, wake: float) -> None:
        """The MCU light-sleeps from ``now`` until ``wake``.

        The earliest-waking stream brings the board back to idle at its
        poll target (``SchemeContext.poll_stream``), unless a mid-sleep
        operation (a rail read ending on another stream) woke the core
        first, in which case the kernel's scheduled wake never fires.
        """
        cal = self.cal.mcu
        mcu = self.mcu
        mcu.set(now, McuState.SLEEP, cal.sleep_power_w, Routine.DATA_COLLECTION)
        mcu.wake(wake, McuState.IDLE, cal.idle_power_w, Routine.DATA_COLLECTION)

    def cpu_wake(self, t: float, routine: str) -> float:
        """Wake the CPU from (deep) sleep; returns the awake time."""
        cal = self.cal.cpu
        cpu = self.cpu
        awake = t + wake_time_s(cal, cpu.state)
        entries = cpu._events
        entries.append(
            (t, CpuState.TRANSITION, cal.transition_power_w, routine, None)
        )
        entries.append((awake, CpuState.IDLE, cal.idle_power_w, routine, None))
        cpu.state = CpuState.IDLE
        self.cpu_wake_count += 1
        if self.cycles is not None:
            self.cycles.cpu_wakes[self.cycles.index(t)] += 1
        if awake > self.last_activity:
            self.last_activity = awake
        return awake

    def bus_transfer(self, start: float, nbytes: int) -> float:
        """Bus-side activity concurrent with a CPU transfer op."""
        if nbytes < 1:
            nbytes = 1
        cal = self.cal.bus
        end = start + wire_time(cal, nbytes)
        entries = self.bus._events
        entries.append(
            (start, "active", cal.active_power_w, Routine.DATA_TRANSFER, None)
        )
        entries.append((end, "idle", 0.0, Routine.IDLE, None))
        self.bus_bytes += nbytes
        if self.cycles is not None:
            self.cycles.bus_bytes[self.cycles.index(start)] += nbytes
        return end

    def count_interrupt(self, t: float) -> None:
        """Count one MCU-to-CPU interrupt raised at ``t``."""
        self.interrupt_count += 1
        if self.cycles is not None:
            self.cycles.interrupts[self.cycles.index(t)] += 1

    def nic_send(self, ready: float, nbytes: int) -> Tuple[float, float]:
        """One uplink publish, FIFO on the NIC; returns grant and end."""
        free = self.nic_free
        start = free if free > ready else ready
        cal = self.cal.board
        end = start + nbytes / cal.nic_bandwidth_bytes_per_s
        entries = self.nic._events
        entries.append(
            (start, "tx", cal.nic_tx_power_w, Routine.APP_COMPUTE, None)
        )
        entries.append((end, "idle", 0.0, Routine.IDLE, None))
        self.nic_free = end
        if end > self.last_activity:
            self.last_activity = end
        return start, end

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def record_result(
        self, app: IoTApp, window_index: int, t: float, key: tuple
    ) -> None:
        """Log one delivered window result, which carries no data, in
        the event ``key``."""
        violation = self.log.record(
            app,
            AppResult(
                app_name=app.name,
                window_index=window_index,
                payload={"analytic": True},
                output_bytes=app.profile.output_bytes,
            ),
            t,
        )
        if violation is not None:
            self.violation_keys.append(key[:3])

    def log_violation(self, violation: str, key: tuple) -> None:
        """Log a QoS violation in the event ``key``."""
        self.log.qos_violations.append(violation)
        self.violation_keys.append(key[:3])

    def log_order(self) -> None:
        """Put the QoS violations in the order of the events that logged
        them, as the kernel runs those events."""
        keys = self.violation_keys
        violations = self.log.qos_violations
        order = sorted(range(len(keys)), key=keys.__getitem__)
        violations[:] = [violations[index] for index in order]
        keys.sort()

    def flush(self, watermark: float) -> None:
        """Walk every schedule's entries before ``watermark``, which no
        later emission precedes, and drop them."""
        for schedule in self.timelines():
            schedule.flush(watermark, self.cycles)

    def timelines(self) -> List[Schedule]:
        """Every component's schedule, for :func:`~repro.energy.ledger.integrate`."""
        return [
            self.cpu,
            self.mcu,
            self.bus,
            self.nic,
            self.board,
            self.mcu_board,
            *self.sensors.values(),
        ]
