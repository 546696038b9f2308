"""Closed-form model of the CPU-polling scheme.

The main board does everything itself: the MCU never leaves sleep, and
every sample is a blocking read on the CPU core (busy collection during
the rail burst, then a short busy store).  Window completions queue the
app computation on the same core.  The core is the only contended
resource, so the whole schedule is a single FIFO merge of poll chains
and compute jobs.
"""

from __future__ import annotations

import heapq
from typing import Dict, Tuple

from ...hw.cpu import CpuState
from ...hw.power import Routine
from ..schemes.base import SchemePlan, build_streams
from .context import AnalyticRun

#: hubos.polling.STORE_TIME_S — the busy store after each blocking read.
STORE_TIME_S = 20e-6


def run_cpu_polling(run: AnalyticRun, plan: SchemePlan) -> None:
    """Populate ``run`` with the polling schedule and energy."""
    scenario = run.scenario
    cal = run.cal
    windows = scenario.windows
    streams = build_streams(scenario.apps, shared=False)
    # t=0 rest(): governor off -> idle at the DATA_TRANSFER wait routine.
    run.cpu.set(0.0, CpuState.IDLE, cal.cpu.idle_power_w, Routine.DATA_TRANSFER)

    counts: Dict[Tuple[str, int], Dict[str, int]] = {}
    completed: Dict[Tuple[str, int], bool] = {}
    heap = []
    seq = 0
    # (w, k) cursor per stream; request time per stream.
    cursors = [[0, 0] for _ in streams]
    for index, stream in enumerate(streams):
        heapq.heappush(heap, (0.0, seq, "poll", index))
        seq += 1

    def window_delivered(stream, w: int, chain_end: float) -> None:
        """Tally the sample; queue computes for any completed windows."""
        nonlocal seq
        for app in stream.subscribers:
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
                # deliver() fires synchronously: the waiting compute
                # process requests the core at the chain end, ahead of
                # this stream's next poll (same request time, lower seq).
                heapq.heappush(heap, (chain_end, seq, "compute", (app, w)))
                seq += 1

    while heap:
        ready, _, kind, payload = heapq.heappop(heap)
        if kind == "compute":
            app, w = payload
            compute_end = run.cpu_op(
                ready, app.profile.cpu_compute_time_s(cal), Routine.APP_COMPUTE
            )
            run.record_result(app, w, compute_end)
            send_end = run.nic_send(compute_end, app.profile.output_bytes)
            run.cpu.rest(
                send_end, CpuState.IDLE, cal.cpu.idle_power_w,
                Routine.DATA_TRANSFER,
            )
            continue
        index = payload
        stream = streams[index]
        w, k = cursors[index]
        start = max(ready, run.cpu_core_free)
        # Blocking read: CPU busy-collects for the rail burst, then a
        # busy store, then back to transfer-wait idle.
        read_end = run.rail_read(stream.sensor_id, start)
        run.cpu.set(
            start, CpuState.BUSY, cal.cpu.active_power_w,
            Routine.DATA_COLLECTION,
        )
        run.cpu.set(
            read_end, CpuState.BUSY, cal.cpu.active_power_w,
            Routine.DATA_TRANSFER,
        )
        chain_end = read_end + STORE_TIME_S
        run.cpu.set(
            chain_end, CpuState.IDLE, cal.cpu.idle_power_w,
            Routine.DATA_TRANSFER,
        )
        run.cpu_core_free = chain_end
        run.last_activity = max(run.last_activity, chain_end)
        window_delivered(stream, w, chain_end)
        # Advance the stream cursor and schedule its next poll.
        k += 1
        if k >= stream.samples_per_window:
            k = 0
            w += 1
        cursors[index] = [w, k]
        if w >= windows:
            continue
        target = w * stream.window_s + k / stream.rate_hz
        heapq.heappush(heap, (max(target, chain_end), seq, "poll", index))
        seq += 1
