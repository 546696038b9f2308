"""Closed-form model of the MCU-buffered family (batching / COM / BCOM).

MCU side: samples are decoded into RAM; the stream that completes an app
window last runs the hand-off — batching ships the buffer (interrupt +
bulk transfer), COM computes on the MCU and ships only the result.  CPU
side: the race-to-sleep governor's :func:`~repro.hubos.governor.rest_state`
decides rest states between interrupts over the plan's work times, the
same decisions :class:`~repro.hubos.governor.SleepGovernor` takes in the
DES (including the wake bookkeeping that Figure 5b/5c hinge on).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ...apps.base import IoTApp
from ...errors import AnalyticUnsupported
from ...hubos.governor import CpuRestPolicy, rest_state
from ...hubos.transfer import cpu_transfer_time
from ...hw.cpu import CpuState
from ...hw.power import Routine
from ..schemes.base import SchemePlan, Stream, build_streams
from .context import AnalyticRun
from .mcu_scan import scan_streams

#: One pending interrupt: (fire, vector, app, window, count, nbytes).
_Irq = Tuple[float, str, IoTApp, int, int, int]


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


def run_buffered(run: AnalyticRun, plan: SchemePlan) -> None:
    """Populate ``run`` with the batching/COM/BCOM schedule and energy."""
    cal = run.cal
    irqs: List[_Irq] = []

    # Streams in DES spawn order: COM apps first, then batch apps; each
    # app's streams are per-app (unshared).
    streams: List[Stream] = []
    owner: Dict[int, IoTApp] = {}
    for app in plan.com_apps + plan.batch_apps:
        for stream in build_streams([app], shared=False):
            streams.append(stream)
            owner[id(stream)] = app

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
    #: Bytes held in every batch buffer together.
    buffered = 0
    coordinator: Dict[Tuple[str, int], int] = {}

    def on_decode(stream: Stream) -> None:
        nonlocal buffered
        app = owner[id(stream)]
        buffer = buffers.get(app.name)
        if buffer is None:
            return  # COM samples stream through the resident ring
        buffer.bytes += stream.sample_bytes
        buffer.count += 1
        buffered += stream.sample_bytes
        if resident + buffered > capacity:
            raise AnalyticUnsupported(
                f"{app.name} batch buffer overflows MCU RAM; DES required"
            )

    def on_window(stream: Stream, w: int):
        nonlocal buffered
        app = owner[id(stream)]
        key = (app.name, w)
        coordinator[key] = coordinator.get(key, 0) + 1
        if coordinator[key] < len(app.profile.sensor_ids):
            return None
        buffer = buffers.get(app.name)
        if buffer is None:
            return (
                plan.handoff_ops(app, cal, 1),
                (app, w, 1, app.profile.output_bytes),
            )
        # Drain the buffer synchronously (concurrently polling streams
        # start filling a fresh batch), as the DES hand-off does.
        nbytes = max(1, buffer.bytes)
        count = buffer.count
        buffered -= buffer.bytes
        buffer.bytes = 0
        buffer.count = 0
        return plan.handoff_ops(app, cal, count), (app, w, count, nbytes)

    def on_irq(vector: str, raised: float, payload) -> None:
        irqs.append((raised, vector) + payload)

    scan_streams(run, streams, plan, on_irq, on_decode, on_window)
    _cpu_replay(run, plan, irqs)


def _cpu_replay(run: AnalyticRun, plan: SchemePlan, irqs: List[_Irq]) -> None:
    """Dispatcher + governor + compute replay over the interrupt list."""
    cal = run.cal
    policy = CpuRestPolicy(plan.work_times(run.scenario))
    power = {
        CpuState.DEEP_SLEEP: cal.cpu.deep_sleep_power_w,
        CpuState.SLEEP: cal.cpu.sleep_power_w,
        CpuState.IDLE: cal.cpu.idle_power_w,
    }

    def rest(now: float) -> None:
        """SchemeContext.rest at ``now`` (caller guarantees the core idles)."""
        state, routine = rest_state(
            cal.cpu, policy.expected_idle(now), plan.rest_routine,
            plan.allow_deep,
        )
        run.cpu.set(now, state, power[state], routine)

    procs = {app.name: _ComputeProc() for app in plan.batch_apps}
    # build_context's t=0 rest(): the governor's first decision.
    rest(0.0)
    dispatcher_free = 0.0
    for i, (fire, vector, app, w, count, nbytes) in enumerate(irqs):
        next_fire = irqs[i + 1][0] if i + 1 < len(irqs) else None
        t = max(fire, dispatcher_free)
        if run.cpu_asleep:
            t = run.cpu_wake(t, Routine.INTERRUPT)
        service_end = run.cpu_op(
            t, cal.cpu.interrupt_handling_time_s, Routine.INTERRUPT
        )
        bulk = vector == "batch"
        duration = cpu_transfer_time(cal, nbytes, max(1, count), bulk)
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
                rest(transfer_end)
            _drain(run, rest, proc, app, next_fire)
        else:  # result
            run.record_result(app, w, transfer_end)
            send_end = run.nic_send(transfer_end, app.profile.output_bytes)
            dispatcher_free = send_end
            if run.cpu_core_free <= send_end and (
                next_fire is None or next_fire > send_end
            ):
                rest(send_end)


def _drain(
    run: AnalyticRun,
    rest: Callable[[float], None],
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
            rest(send_end)
