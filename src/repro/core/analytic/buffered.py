"""Closed-form model of the MCU-buffered family (batching / COM / BCOM).

MCU side: samples are decoded into RAM; the stream that completes an app
window last runs the hand-off — batching ships the buffer (interrupt +
bulk transfer), COM computes on the MCU and ships only the result.  CPU
side: the race-to-sleep governor replica decides rest states between
interrupts, mirroring :class:`~repro.hubos.governor.SleepGovernor`
decision for decision (including the wake bookkeeping that Figure 5b/5c
hinge on).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from ...apps.base import IoTApp
from ...errors import AnalyticUnsupported
from ...hw.cpu import CpuState
from ...hw.power import Routine
from ..schemes.base import AnalyticPlan, Stream, build_streams
from .context import AnalyticRun
from .mcu_scan import McuOp, scan_streams

#: One pending interrupt: (fire, vector, app, window, count, nbytes).
_Irq = Tuple[float, str, IoTApp, int, int, int]


class _Governor:
    """Replica of :class:`~repro.hubos.governor.SleepGovernor` decisions.

    Emits CPU timeline events instead of power-state transitions; the
    break-even thresholds and the deep-sleep gate are the same formulas.
    """

    def __init__(
        self,
        run: AnalyticRun,
        work_times: List[float],
        allow_deep: bool,
        rest_routine: str,
    ):
        self.run = run
        self.work = sorted(work_times)
        self.allow_deep = allow_deep
        self.rest_routine = rest_routine
        cal = run.cal.cpu
        delta = cal.idle_power_w - cal.sleep_power_w
        self.break_even = (
            cal.wake_energy_j / delta if delta > 0 else float("inf")
        )
        deep_delta = cal.sleep_power_w - cal.deep_sleep_power_w
        self.deep_break_even = (
            cal.transition_power_w * cal.deep_transition_time_s / deep_delta
            if deep_delta > 0
            else float("inf")
        )

    def rest(self, now: float) -> None:
        """Apply the governor at ``now`` (caller guarantees the core idles)."""
        run = self.run
        cal = run.cal.cpu
        index = bisect.bisect_right(self.work, now + 1e-12)
        if index >= len(self.work):
            if self.allow_deep:
                run.cpu.set(
                    now, CpuState.DEEP_SLEEP, cal.deep_sleep_power_w,
                    Routine.IDLE,
                )
            else:
                run.cpu.set(
                    now, CpuState.SLEEP, cal.sleep_power_w, self.rest_routine
                )
            return
        expected = max(0.0, self.work[index] - now)
        if self.allow_deep and expected > max(
            self.break_even, self.deep_break_even
        ):
            run.cpu.set(
                now, CpuState.DEEP_SLEEP, cal.deep_sleep_power_w,
                self.rest_routine,
            )
        elif expected > self.break_even:
            run.cpu.set(
                now, CpuState.SLEEP, cal.sleep_power_w, self.rest_routine
            )
        else:
            run.cpu.set(
                now, CpuState.IDLE, cal.idle_power_w, self.rest_routine
            )


class _ComputeProc:
    """One batch app's CPU compute loop: cursor + delivery times."""

    __slots__ = ("next_window", "delivered", "free")

    def __init__(self):
        self.next_window = 0
        self.delivered: Dict[int, float] = {}
        self.free = 0.0


class _AppBuffer:
    """Chronological RAM accounting of one batch app's buffer."""

    __slots__ = ("bytes", "count")

    def __init__(self):
        self.bytes = 0
        self.count = 0


def run_buffered(run: AnalyticRun, plan: AnalyticPlan) -> None:
    """Populate ``run`` with the batching/COM/BCOM schedule and energy."""
    scenario = run.scenario
    cal = run.cal
    irqs: List[_Irq] = []

    # Streams in DES spawn order: COM apps first, then batch apps; each
    # app's streams are per-app (unshared).
    streams: List[Stream] = []
    info: List[Tuple[IoTApp, bool]] = []  # (app, is_com) per stream
    for app in plan.com_apps:
        for stream in build_streams([app], shared=False):
            streams.append(stream)
            info.append((app, True))
    for app in plan.batch_apps:
        for stream in build_streams([app], shared=False):
            streams.append(stream)
            info.append((app, False))

    # MCU RAM ledger: COM footprints are resident for the whole run;
    # batch buffers grow per sample.  An overflow would make the DES drop
    # samples (CapacityError -> QoS violation), which the closed form
    # does not model — bail to the DES instead.
    capacity = cal.mcu.ram_bytes
    resident = sum(app.profile.mcu_footprint_bytes for app in plan.com_apps)
    if resident > capacity:
        raise AnalyticUnsupported(
            "COM footprints alone exceed MCU RAM; DES required"
        )
    buffers: Dict[str, _AppBuffer] = {
        app.name: _AppBuffer() for app in plan.batch_apps
    }
    coordinator: Dict[Tuple[str, int], int] = {}
    index_of = {id(stream): i for i, stream in enumerate(streams)}

    def sample_ops(stream: Stream, w: int, k: int) -> List[McuOp]:
        app, is_com = info[index_of[id(stream)]]

        def buffered(decoded: float) -> None:
            buffer = buffers[app.name]
            buffer.bytes += stream.sample_bytes
            buffer.count += 1
            if resident + sum(b.bytes for b in buffers.values()) > capacity:
                raise AnalyticUnsupported(
                    f"{app.name} batch buffer overflows MCU RAM; DES required"
                )

        return [
            McuOp(
                cal.mcu.decode_time_per_sample_s,
                Routine.DATA_COLLECTION,
                on_end=None if is_com else buffered,
            )
        ]

    def window_done(stream: Stream, w: int) -> List[McuOp]:
        app, is_com = info[index_of[id(stream)]]
        key = (app.name, w)
        coordinator[key] = coordinator.get(key, 0) + 1
        if coordinator[key] < len(app.profile.sensor_ids):
            return []

        def fire(vector: str, count: int, nbytes: int):
            def record(raised: float) -> None:
                run.raise_interrupt(raised)
                irqs.append((raised, vector, app, w, count, nbytes))

            return record

        if is_com:
            # com_handoff: offloaded compute, result interrupt, transfer.
            return [
                McuOp(
                    app.profile.mcu_compute_time_s(cal),
                    Routine.APP_COMPUTE,
                    after_routine=Routine.IDLE,
                ),
                McuOp(
                    cal.mcu.interrupt_raise_time_s,
                    Routine.INTERRUPT,
                    on_end=fire("result", 1, app.profile.output_bytes),
                ),
                McuOp(
                    cal.mcu.transfer_time_per_sample_s, Routine.DATA_TRANSFER
                ),
            ]
        # batch_handoff / ship_batch: drain the buffer synchronously
        # (concurrently polling streams start filling a fresh batch),
        # then interrupt + bulk put.
        buffer = buffers[app.name]
        nbytes = max(1, buffer.bytes)
        count = buffer.count
        buffer.bytes = 0
        buffer.count = 0
        return [
            McuOp(
                cal.mcu.interrupt_raise_time_s,
                Routine.INTERRUPT,
                on_end=fire("batch", count, nbytes),
            ),
            McuOp(
                cal.mcu.transfer_time_per_sample_s / 4.0 * max(1, count),
                Routine.DATA_TRANSFER,
            ),
        ]

    scan_streams(run, streams, sample_ops, window_done)
    _cpu_replay(run, plan, irqs)


def _cpu_replay(run: AnalyticRun, plan: AnalyticPlan, irqs: List[_Irq]) -> None:
    """Dispatcher + governor + compute replay over the interrupt list."""
    scenario = run.scenario
    cal = run.cal
    # spawn_buffered's governor knobs and CpuRestPolicy work times.
    work_times: List[float] = []
    for app in plan.com_apps:
        work_times.extend(
            (w + 1) * app.profile.window_s + app.profile.mcu_compute_time_s(cal)
            for w in range(scenario.windows)
        )
    for app in plan.batch_apps:
        work_times.extend(
            (w + 1) * app.profile.window_s for w in range(scenario.windows)
        )
    gov = _Governor(
        run,
        work_times,
        allow_deep=not plan.batch_apps,
        rest_routine=(
            Routine.IDLE if not plan.batch_apps else Routine.DATA_TRANSFER
        ),
    )
    procs = {app.name: _ComputeProc() for app in plan.batch_apps}
    # build_context's t=0 rest(): the governor's first decision.
    gov.rest(0.0)
    dispatcher_free = 0.0
    for i, (fire, vector, app, w, count, nbytes) in enumerate(irqs):
        next_fire = irqs[i + 1][0] if i + 1 < len(irqs) else None
        t = max(fire, dispatcher_free)
        if run.cpu_asleep:
            t = run.cpu_wake(t, Routine.INTERRUPT)
        service_end = run.cpu_op(
            t, cal.cpu.interrupt_handling_time_s, Routine.INTERRUPT
        )
        if vector == "batch":
            duration = (
                cal.cpu.bulk_transfer_time_per_sample_s * max(1, count)
                + run.wire_time(nbytes)
            )
        else:
            duration = cal.cpu.transfer_time_per_sample_s + run.wire_time(
                nbytes
            )
        run.bus_transfer(max(service_end, run.cpu_core_free), nbytes)
        transfer_end = run.cpu_op(service_end, duration, Routine.DATA_TRANSFER)
        if vector == "batch":
            proc = procs[app.name]
            proc.delivered[w] = transfer_end
            dispatcher_free = transfer_end
            starts_now = proc.next_window == w and proc.free <= transfer_end
            if not starts_now and run.cpu_core_free <= transfer_end and (
                next_fire is None or next_fire > transfer_end
            ):
                # pending_count == 0 and nothing holds the core: the
                # dispatcher rests before the compute continuation.
                gov.rest(transfer_end)
            _drain(run, gov, proc, app, next_fire)
        else:  # result
            run.record_result(app, w, transfer_end)
            send_end = run.nic_send(transfer_end, app.profile.output_bytes)
            dispatcher_free = send_end
            if run.cpu_core_free <= send_end and (
                next_fire is None or next_fire > send_end
            ):
                gov.rest(send_end)


def _drain(
    run: AnalyticRun,
    gov: _Governor,
    proc: _ComputeProc,
    app: IoTApp,
    next_fire: Optional[float],
) -> None:
    """Run the app's compute loop over every delivered-but-unrun window."""
    cal = run.cal
    while proc.next_window in proc.delivered:
        w = proc.next_window
        start = max(proc.delivered[w], proc.free)
        if run.cpu_asleep:
            start = run.cpu_wake(start, Routine.APP_COMPUTE)
        compute_end = run.cpu_op(
            start, app.profile.cpu_compute_time_s(cal), Routine.APP_COMPUTE
        )
        run.record_result(app, w, compute_end)
        send_end = run.nic_send(compute_end, app.profile.output_bytes)
        proc.free = send_end
        proc.next_window += 1
        if next_fire is None or next_fire > send_end:
            # Otherwise the next interrupt's service covers send_end and
            # the DES rest() is a busy no-op.
            gov.rest(send_end)
