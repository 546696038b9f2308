"""MCU-side stream scan: the closed-form counterpart of the poll loop.

Replays every stream's poll schedule at *operation* granularity: sensor
rails and the MCU core are FIFO resources granted in request-arrival
order (matching :class:`~repro.sim.resources.Resource`), so a stream
blocked in a long rail read never holds the core, and chains from
different streams interleave exactly as the kernel's processes do.  The
chains are the ones the DES runs: the driver's decode after each read,
then the plan's :meth:`~repro.core.schemes.base.SchemePlan.sample_ops`,
plus whatever hand-off the family's ``on_window`` returns.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional, Sequence, Tuple

from ...firmware.driver import McuOp, decode_op
from ...hw.mcu import McuState
from ...hw.power import Routine
from ..schemes.base import SchemePlan, Stream
from .context import AnalyticRun

#: A hand-off returned by ``on_window``: the chain and its irq payload.
Handoff = Tuple[Sequence[McuOp], object]


class _Cursor:
    """Iteration state of one polling stream.

    ``ops`` is ``None`` while the stream's next heap entry is a poll,
    else the chain whose op at ``pos`` the entry runs.
    """

    __slots__ = ("stream", "index", "w", "k", "ops", "pos", "payload",
                 "in_handoff")

    def __init__(self, stream: Stream, index: int):
        self.stream = stream
        self.index = index
        self.w = 0
        self.k = 0
        self.ops: Optional[Sequence[McuOp]] = None
        self.pos = 0
        self.payload: object = None
        self.in_handoff = False


def scan_streams(
    run: AnalyticRun,
    streams: Sequence[Stream],
    plan: SchemePlan,
    on_irq: Callable[[str, float, object], None],
    on_decode: Optional[Callable[[Stream], None]] = None,
    on_window: Optional[Callable[[Stream, int], Optional[Handoff]]] = None,
) -> None:
    """Drive every stream's poll schedule through its op chains.

    After each rail read a stream runs the driver's decode and the
    plan's sample ops (irq payload ``(stream, w, k)``);
    ``on_window(stream, w)`` may return ``(ops, payload)`` to run after
    a stream finishes a window's sample loop (the buffered hand-off —
    the family owns the per-app coordinator and returns ``None`` for
    non-final streams).  Callbacks fire at op end in grant order:
    ``on_decode(stream)`` after each decode, ``on_irq(vector, t,
    payload)`` for each op that raises an interrupt.
    """
    decode = decode_op(run.cal)
    chain = (decode,) + plan.sample_ops(run.cal)
    windows = run.scenario.windows
    rail_free = run.rail_free
    mcu_op = run.mcu_op
    heappush, heappop = heapq.heappush, heapq.heappop
    #: The MCU nap governor's per-stream "next scheduled poll" table.
    #: Entries appear the first time a stream actually waits (exactly
    #: like ``SchemeContext._mcu_next_polls``); a stream mid-chain keeps
    #: its stale (past) target, which blocks any sleep decision.
    next_polls = {}
    # Heap entries are (fire, scheduled, seq, cursor): ``scheduled`` is
    # the instant the kernel would have *inserted* the corresponding
    # event — read start for a read-end, execute start for an
    # execute-end, chain end for a poll timeout.  The kernel's queue
    # breaks equal-fire ties by insertion order, so two chains whose
    # reads end at the same instant are serviced in read-*start* order
    # (the contended-rail loser, whose read started later, queues
    # behind) — not in poll-pop order.  ``seq`` is unique, so the
    # comparison never reaches the cursor.
    # Kernel spawn order: every stream requests its first read at its
    # first target, t=0, in list order; that list is already a heap.
    heap = [
        (0.0, 0.0, index, _Cursor(stream, index))
        for index, stream in enumerate(streams)
    ]
    seq = len(heap)
    while heap:
        t, _, _, cursor = heappop(heap)
        stream = cursor.stream
        ops = cursor.ops
        if ops is None:
            # A poll: the rail read, then the sample chain.
            free = rail_free[stream.sensor_id]
            read_start = free if free > t else t
            read_end = run.rail_read(stream.sensor_id, t)
            cursor.ops = chain
            cursor.pos = 0
            cursor.payload = (stream, cursor.w, cursor.k)
            heappush(heap, (read_end, read_start, seq, cursor))
            seq += 1
            continue
        # One core op: FIFO grant at request-arrival order (= pop order).
        op = ops[cursor.pos]
        cursor.pos += 1
        free = run.mcu_core_free
        start = free if free > t else t
        end = mcu_op(t, op.duration, op.routine, op.after_routine)
        if op is decode:
            if on_decode is not None:
                on_decode(stream)
        elif op.vector is not None:
            run.count_interrupt(end)
            on_irq(op.vector, end, cursor.payload)
        if cursor.pos < len(ops):
            heappush(heap, (end, start, seq, cursor))
            seq += 1
            continue
        # Chain complete: window hand-off, then schedule the next poll.
        cursor.ops = None
        if cursor.in_handoff:
            cursor.in_handoff = False
        else:
            w = cursor.w
            cursor.k += 1
            if cursor.k >= stream.samples_per_window:
                cursor.k = 0
                cursor.w += 1
                if on_window is not None:
                    handoff = on_window(stream, w)
                    if handoff is not None:
                        cursor.ops, cursor.payload = handoff
                        cursor.pos = 0
                        cursor.in_handoff = True
                        heappush(heap, (end, start, seq, cursor))
                        seq += 1
                        continue
        if cursor.w >= windows:
            next_polls.pop(cursor.index, None)
            continue
        target = cursor.w * stream.window_s + cursor.k / stream.rate_hz
        if target > end:
            # The stream is about to wait: refresh its poll entry and
            # evaluate the nap governor at the pre-wait instant.
            next_polls[cursor.index] = target
            _maybe_sleep(run, end, next_polls)
            heappush(heap, (target, end, seq, cursor))
        else:
            # No wait: the process rolls straight from the execute-end
            # event (scheduled at the op's start) into the next read.
            heappush(heap, (end, start, seq, cursor))
        seq += 1


def _maybe_sleep(run: AnalyticRun, now: float, next_polls) -> None:
    """The MCU nap rule: light-sleep if every next poll is far enough."""
    if run.mcu.state != McuState.IDLE:
        return
    upcoming = min(next_polls.values(), default=now)
    if upcoming - now <= run.cal.mcu.sleep_threshold_s:
        return
    cal = run.cal.mcu
    run.mcu.set(now, McuState.SLEEP, cal.sleep_power_w, Routine.DATA_COLLECTION)
    # mcu_wake(): the earliest-waking stream brings the board back to
    # idle exactly at its poll target — unless a mid-sleep operation (a
    # rail read ending on another stream) woke the core first, in which
    # case the kernel's scheduled wake never fires.
    run.mcu.wake(
        upcoming, McuState.IDLE, cal.idle_power_w, Routine.DATA_COLLECTION
    )
