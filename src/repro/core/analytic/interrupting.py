"""Closed-form model of the per-sample interrupting family (baseline/BEAM).

MCU side: every sample is read, decoded, announced with an interrupt and
pushed over the PIO bus.  CPU side: the governor is off (the paper's
always-awake baseline); the dispatcher services interrupts FIFO, window
completions start the app computation immediately (the compute process
preempts the next queued interrupt service, as in the DES).
"""

from __future__ import annotations

from typing import List, Tuple

from ...hubos.transfer import cpu_transfer_time
from ...hw.power import Routine
from ..schemes.base import SchemePlan, Stream, build_streams
from .context import AnalyticRun
from .mcu_scan import scan_streams

#: One pending interrupt: (fire_time, (stream, window_index,
#: sample_index)).
_Irq = Tuple[float, Tuple[Stream, int, int]]


def run_interrupting(run: AnalyticRun, plan: SchemePlan) -> None:
    """Populate ``run`` with the baseline/BEAM schedule and energy."""
    irqs: List[_Irq] = []

    def on_irq(vector: str, raised: float, payload) -> None:
        irqs.append((raised, payload))

    streams = build_streams(run.scenario.apps, plan.shared)
    scan_streams(run, streams, plan, on_irq)
    _cpu_replay(run, streams, irqs)


def _cpu_replay(
    run: AnalyticRun, streams: List[Stream], irqs: List[_Irq]
) -> None:
    """Dispatcher + compute replay with the governor off (never sleeps)."""
    cal = run.cal
    # build_context's t=0 rest(): governor off -> idle at the default
    # DATA_TRANSFER wait routine.
    run.cpu.set(0.0, "idle", cal.cpu.idle_power_w, Routine.DATA_TRANSFER)
    # Per stream: the CPU time of one sample's transfer, and each
    # subscriber with its delivery stride.
    per_stream = {
        id(stream): (
            cpu_transfer_time(cal, stream.sample_bytes, 1, bulk=False),
            [(app, stream.stride(app)) for app in stream.subscribers],
        )
        for stream in streams
    }
    for fire, (stream, w, k) in irqs:
        duration, subscribers = per_stream[id(stream)]
        service_end = run.cpu_op(
            fire, cal.cpu.interrupt_handling_time_s, Routine.INTERRUPT
        )
        run.bus_transfer(service_end, stream.sample_bytes)
        transfer_end = run.cpu_op(
            service_end, duration, Routine.DATA_TRANSFER
        )
        for app, stride in subscribers:
            if k % stride != 0:
                continue  # decimated subscriber skips this sample
            if run.tally_sample(app, w, stream.sensor_id):
                # Window delivered: the compute process acquires the
                # core ahead of the next queued interrupt service.
                compute_end = run.cpu_op(
                    transfer_end,
                    app.profile.cpu_compute_time_s(cal),
                    Routine.APP_COMPUTE,
                )
                run.record_result(app, w, compute_end)
                send_end = run.nic_send(compute_end, app.profile.output_bytes)
                # cpu_compute_process rest(): skipped if the dispatcher
                # went busy again during the publish.
                run.cpu.rest(
                    send_end, "idle", cal.cpu.idle_power_w,
                    Routine.DATA_TRANSFER,
                )
