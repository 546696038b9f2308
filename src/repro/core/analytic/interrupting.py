"""Closed-form model of the per-sample interrupting family (baseline/BEAM).

MCU side: every sample is read, decoded, announced with an interrupt and
pushed over the PIO bus.  CPU side: the governor is off (the paper's
always-awake baseline); the dispatcher services interrupts FIFO, window
completions start the app computation immediately (the compute process
preempts the next queued interrupt service, as in the DES).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...hw.power import Routine
from ..schemes.base import SchemePlan, Stream, build_streams
from .context import AnalyticRun
from .mcu_scan import McuOp, scan_streams

#: One pending interrupt: (fire_time, stream, window_index, sample_index).
_Irq = Tuple[float, Stream, int, int]


def run_interrupting(run: AnalyticRun, plan: SchemePlan) -> None:
    """Populate ``run`` with the baseline/BEAM schedule and energy."""
    cal = run.cal
    streams = build_streams(run.scenario.apps, plan.shared)
    irqs: List[_Irq] = []

    def sample_ops(stream: Stream, w: int, k: int) -> List[McuOp]:
        def fire(raised: float) -> None:
            irqs.append((raised, stream, w, k))
            run.raise_interrupt(raised)

        return [
            McuOp(cal.mcu.decode_time_per_sample_s, Routine.DATA_COLLECTION),
            McuOp(cal.mcu.interrupt_raise_time_s, Routine.INTERRUPT,
                  on_end=fire),
            McuOp(cal.mcu.transfer_time_per_sample_s, Routine.DATA_TRANSFER),
        ]

    scan_streams(run, streams, sample_ops)
    _cpu_replay(run, irqs)


def _cpu_replay(run: AnalyticRun, irqs: List[_Irq]) -> None:
    """Dispatcher + compute replay with the governor off (never sleeps)."""
    cal = run.cal
    # build_context's t=0 rest(): governor off -> idle at the default
    # DATA_TRANSFER wait routine.
    run.cpu.set(0.0, "idle", cal.cpu.idle_power_w, Routine.DATA_TRANSFER)
    # Per-(app, window) sample tallies toward window completion.
    counts: Dict[Tuple[str, int], Dict[str, int]] = {}
    completed: Dict[Tuple[str, int], bool] = {}
    for fire, stream, w, k in irqs:
        service_end = run.cpu_op(
            fire, cal.cpu.interrupt_handling_time_s, Routine.INTERRUPT
        )
        duration = cal.cpu.transfer_time_per_sample_s + run.wire_time(
            stream.sample_bytes
        )
        run.bus_transfer(service_end, stream.sample_bytes)
        transfer_end = run.cpu_op(
            service_end, duration, Routine.DATA_TRANSFER
        )
        for app in stream.subscribers:
            if k % stream.stride(app) != 0:
                continue  # decimated subscriber skips this sample
            key = (app.name, w)
            tally = counts.setdefault(key, {})
            tally[stream.sensor_id] = tally.get(stream.sensor_id, 0) + 1
            if completed.get(key):
                continue
            if all(
                tally.get(sensor_id, 0)
                >= app.profile.samples_per_window(sensor_id)
                for sensor_id in app.profile.sensor_ids
            ):
                completed[key] = True
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
