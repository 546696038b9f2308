"""The analytic tier's one scan: every process of a plan on one heap.

Replays the scenario at *operation* granularity, in the kernel's event
order.  Sensor rails, the MCU core and the CPU core are FIFO resources
granted in request-arrival order (matching
:class:`~repro.sim.resources.Resource`), so a stream blocked in a long
rail read never holds a core, and chains from different processes
interleave exactly as the kernel's processes do.  A request that finds
its rail or the MCU core held is handed the resource as the holder's
end event runs, as ``Resource.release`` does, so simultaneous hand-offs
keep the kernel's order.  The chains are the
DES's: the driver's decode after each read, the plan's sample and
hand-off ops on the MCU, each buffered app's hand-offs decided by its
:class:`~repro.core.schemes.base.BufferedApp`; on the CPU each vector's
:data:`~repro.core.schemes.base.CPU_SERVICES` record, each app's
:meth:`~repro.core.schemes.base.SchemePlan.window_compute` and the
governor's rests; under main-board polling, the CPU's blocking reads.
The CPU's rests and the MCU's naps are the DES's
:class:`~repro.hubos.governor.CpuGovernor` and
:class:`~repro.hubos.governor.McuNapRule` decisions, applied as
schedule entries.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Dict, Optional, Sequence, Tuple

from ...energy.ledger import SLEEP_STATES
from ...errors import CapacityError
from ...firmware.driver import McuOp, decode_op
from ...hubos.governor import McuNapRule
from ...hubos.transfer import cpu_transfer_time
from ...hw.cpu import state_powers
from ...hw.mcu import McuState
from ...hw.memory import MemoryRegion
from ...hw.power import Routine
from ..schemes.base import CPU_SERVICES, BufferedApp, Handoff, SchemePlan, Stream
from .context import AnalyticRun

#: The key of ``build_context``'s ``rest()``, before every event (and,
#: until the core's first grant, its ``core_key``).
_BEFORE_EVENTS = (0.0, 0.0, -1)

#: The "what" of a bare end entry: an MCU op that ends in a wait or its
#: process's end, pushed only to hand the core to a request queued on it.
_RELEASE = object()


class _Cursor:
    """Iteration state of one MCU polling stream.

    ``buffered`` is the :class:`BufferedApp` of a buffered app's stream.
    ``ops`` is ``None`` while the next heap entry is a poll, else the
    chain whose op at ``pos`` the entry runs; ``payload`` is the
    :class:`Handoff` of the last hand-off chain (a window's, or a partial
    batch's, which ends its sample's chain) and ``in_handoff`` whether
    ``ops`` is a window's; ``irq`` is the vector its previous op raised.
    """

    __slots__ = ("stream", "buffered", "w", "k", "ops", "pos", "payload",
                 "in_handoff", "irq")

    def __init__(self, stream: Stream, buffered: Optional[BufferedApp]):
        self.stream = stream
        self.buffered = buffered
        self.w = 0
        self.k = 0
        self.ops: Optional[Sequence[McuOp]] = None
        self.pos = 0
        self.payload: Optional[Handoff] = None
        self.in_handoff = False
        self.irq: Optional[str] = None


class _Checks:
    """The "what" of a failed availability check's end entry.

    The kernel runs each failed check as its own event and inserts the
    next check's end, or the read's, inside it; ``ends`` holds those
    times, the read end first, so the next one pops off the back.
    """

    __slots__ = ("cursor", "ends")

    def __init__(self, cursor: _Cursor, ends):
        self.cursor = cursor
        self.ends = ends


class _Overflow:
    """The "what" of a decode's end entry when the sample it decoded
    overflowed MCU RAM: the DES logs the QoS violation in that event,
    then continues ``cursor`` (``None`` if the stream waits)."""

    __slots__ = ("cursor", "violation")

    def __init__(self, cursor: Optional[_Cursor], violation: str):
        self.cursor = cursor
        self.violation = violation


def scan(run: AnalyticRun, plan: SchemePlan) -> None:
    """Populate ``run`` with the schedule and results of ``plan``.

    Heap entries are ``(fire, scheduled, seq, what)``: ``scheduled`` is
    the instant the kernel would have *inserted* the event — read start
    (or the last failed check's end) for a read-end, execute start for
    an execute-end, chain end for a poll timeout.  The kernel breaks
    equal-fire ties by insertion order, so two reads ending at one
    instant are serviced in read-*start* order, not poll-pop order.
    ``seq`` is unique, so the comparison never reaches ``what``: an MCU
    stream's cursor, a failed check (:class:`_Checks`), a decode whose
    sample overflowed (:class:`_Overflow`), or a CPU process resumed
    inside the event its entry stands for, after every event the kernel
    orders first.

    A request for a held rail or MCU core is granted at once by FIFO
    arithmetic, but its end entry waits in the resource's queue: the
    kernel inserts a waiter's end event inside its holder's end event,
    so the scan pushes it, with a fresh ``seq``, as the holder's entry
    pops and before that entry raises or requests anything.  A read that
    fails availability checks holds its rail through one entry per
    check; the rail's queue moves along with them to the read end.
    """
    cal = run.cal
    decode = decode_op(cal)
    chain = (decode,) + plan.sample_ops(cal)
    windows = run.scenario.windows
    rail_free = run.rail_free
    checked = run.checked
    mcu_op = run.mcu_op
    new_tuple = tuple.__new__
    heap: list = []
    next_seq = count().__next__
    cpu = _Cpu(run, plan, heap, next_seq)
    # No hub here: the buffered apps share an MCU RAM region of their own.
    ram = MemoryRegion("mcu.ram", cal.mcu.ram_bytes)
    streams = []
    for _, app, group in plan.sensing(run.scenario.apps):
        buffered = None if app is None else BufferedApp(
            plan, app, cal, ram, run.scenario.batch_size
        )
        streams.extend((stream, buffered) for stream in group)
    # Kernel spawn order: every stream requests its first read at its
    # first target, t=0, in list order; that list is already a heap.
    heap.extend(
        (0.0, 0.0, next_seq(),
         _Cursor(stream, buffered) if plan.mcu_owns_sensing
         else cpu.start(cpu.poll_loop(stream)))
        for stream, buffered in streams
    )
    cpu.rest(0.0, _BEFORE_EVENTS)
    nap_rule = McuNapRule(cal.mcu)
    nap = nap_rule.wait
    mcu = run.mcu
    #: Each resource's last grant, as its end entry ``(end, start, seq,
    #: what)`` (``what`` is ``None`` while nothing continues in it), and
    #: its queue of deferred ``[end, start, what]``; ``releases`` maps
    #: the ``seq`` of a holder with a queue to that ``(queue, sensor)``
    #: (``None`` for the MCU core).
    idle = _BEFORE_EVENTS + (None,)
    mcu_holder = idle
    mcu_queue: deque = deque()
    rail_holders = dict.fromkeys(rail_free, idle)
    rail_queues = {sensor_id: deque() for sensor_id in rail_free}
    releases: dict = {}

    def check_ended(t: float, checks: _Checks) -> int:
        """A failed check's end event: insert the next check's end, or
        the read's, as the rail's holder; returns its ``seq``."""
        ends = checks.ends
        end = ends.pop()
        cursor = checks.cursor
        held = rail_holders[cursor.stream.sensor_id] = (
            end, t, next_seq(), checks if ends else cursor
        )
        heappush(heap, held)
        return held[2]

    #: The schedules are flushed as the scan crosses each window edge.
    window_s = min(app.profile.window_s for app in run.scenario.apps)
    flush_at = window_s
    while heap:
        entry = heappop(heap)
        t, _, seq, cursor = entry
        if t >= flush_at:
            # No later entry precedes the popped instant, except the rest
            # that settling the dispatcher's open chain emits at its end.
            done_key = cpu.done_key
            run.flush(
                t if done_key is None or done_key[0] > t else done_key[0]
            )
            flush_at = (t // window_s + 1) * window_s
        if releases and seq in releases:
            released = releases.pop(seq)
            if cursor.__class__ is _Checks:
                # Not the read's end: the rail stays held, and its queue
                # waits on the holder's next entry.
                releases[check_ended(t, cursor)] = released
                continue
            # The holder's end event: the kernel resumes the first waiter
            # inside it, which inserts the waiter's end event.
            queue, sensor_id = released
            end, start, then = queue.popleft()
            held = (end, start, next_seq(), then)
            if then is not None:
                heappush(heap, held)
            if queue:
                releases[held[2]] = released
            if sensor_id is None:
                mcu_holder = held
            else:
                rail_holders[sensor_id] = held
            if cursor is _RELEASE:
                continue
        if cursor.__class__ is not _Cursor:
            kind = cursor.__class__
            if kind is _Checks:
                check_ended(t, cursor)
                continue
            if kind is not _Overflow:
                # A CPU step: once the scan has passed the end of the
                # dispatcher's chain, that chain's pending check closes
                # first.
                if cpu.done_key is not None and cpu.done_key < entry:
                    cpu.settle()
                cpu.resume(cursor, t, entry)
                continue
            run.log_violation(cursor.violation, entry)
            cursor = cursor.cursor
            if cursor is None:
                continue
        stream = cursor.stream
        ops = cursor.ops
        if ops is None:
            # A poll: the rail read, then the sample chain.  The rail is
            # held until its holder's end entry pops, even at ``free``.
            sensor_id = stream.sensor_id
            free = rail_free[sensor_id]
            then = cursor
            if sensor_id in checked:
                # Each failed availability check ends in an event of its
                # own before the read's.
                ends = run.checked_read(sensor_id, t)
                ends.reverse()
                end = ends.pop()
                if ends:
                    then = _Checks(cursor, ends)
            else:
                end = run.rail_read(sensor_id, t)
            cursor.ops = chain
            cursor.pos = 0
            if free > t or free == t and entry < rail_holders[sensor_id]:
                queue = rail_queues[sensor_id]
                if not queue:
                    releases[rail_holders[sensor_id][2]] = (queue, sensor_id)
                queue.append((end, free, then))
            else:
                held = rail_holders[sensor_id] = (end, t, next_seq(), then)
                heappush(heap, held)
            continue
        irq = cursor.irq
        if irq is not None:
            # The previous op raised an interrupt as it ended: the
            # kernel wakes the dispatcher before this op's request.  Only
            # hand-off chains raise in a buffered app's stream, and only
            # per-sample chains in another's, whose ``payload`` is None.
            cursor.irq = None
            run.count_interrupt(t)
            # A per-sample hand-off, built without the named tuple's
            # Python-level constructor: this runs once per sample.
            cpu.interrupt(t, entry, irq, cursor.payload
                          or new_tuple(Handoff, (stream.sample_bytes, 1,
                                       stream, cursor.w, cursor.k, None,
                                       True)))
        # One core op: FIFO grant at request-arrival order (= pop order);
        # the core, like a rail, is held until its holder's end entry pops.
        op = ops[cursor.pos]
        cursor.pos += 1
        free = run.mcu_core_free
        queued = free > t or free == t and entry < mcu_holder
        start = free if queued else t
        end = mcu_op(t, op.duration, op.routine, op.after_routine)
        overflow = None
        if op is decode:
            buffered = cursor.buffered
            if buffered is not None:
                try:
                    partial = buffered.buffer(stream.sample_bytes, cursor.w)
                except CapacityError as exc:
                    # The DES logs the dropped sample as the decode ends.
                    overflow = str(exc)
                else:
                    if partial is not None:
                        # The sample's chain goes on with the batch's.
                        cursor.ops, cursor.payload = partial
                        cursor.pos = 0
        elif op.vector is not None:
            # A raise is always followed by its transfer, whose entry
            # delivers it at ``end``.
            cursor.irq = op.vector
        # The process continues in the op's end event (``then``) unless
        # its chain ends in a wait or its last window.
        then = cursor
        if cursor.pos == len(ops):
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
                    if cursor.buffered is not None:
                        handoff = cursor.buffered.window_done(w)
                        if handoff is not None:
                            cursor.ops, cursor.payload = handoff
                            cursor.pos = 0
                            cursor.in_handoff = True
            if cursor.ops is None:
                if cursor.w >= windows:
                    nap_rule.finish(cursor)
                    then = None
                else:
                    target = (cursor.w * stream.window_s
                              + cursor.k / stream.rate_hz)
                    if target > end:
                        # The stream is about to wait: the nap rule
                        # decides at the pre-wait instant.  The kernel
                        # wakes it after ``target - end``, which may
                        # round off ``target``.
                        wake = nap(cursor, target, end,
                                   mcu.state == McuState.IDLE)
                        if wake is not None:
                            run.mcu_nap(end, wake)
                        heappush(
                            heap,
                            (end + (target - end), end, next_seq(), cursor),
                        )
                        then = None
                    # Else no wait: the process rolls straight from the
                    # execute-end event into the next read.
        if overflow is not None:
            then = _Overflow(then, overflow)
        if queued:
            if mcu_queue:
                last = mcu_queue[-1]
                if last[2] is None:
                    last[2] = _RELEASE
            else:
                if mcu_holder[3] is None:
                    heappush(heap, mcu_holder[:3] + (_RELEASE,))
                releases[mcu_holder[2]] = (mcu_queue, None)
            mcu_queue.append([end, start, then])
        else:
            mcu_holder = (end, start, next_seq(), then)
            if then is not None:
                heappush(heap, mcu_holder)
    if cpu.done_key is not None:
        cpu.settle()
    cpu.close()
    run.log_order()


class _Cpu:
    """The CPU side of the scan: one FIFO core shared by the interrupt
    dispatcher, each app's window compute loop and, under main-board
    polling, the streams' blocking reads; the governor rests it.

    Each process is a generator mirroring its DES process.  Resumed with
    ``(t, key)``, the kernel key ``(t, scheduled, seq)`` of the event it
    runs in, it yields the key of the event it continues in (its next
    heap entry), or ``None`` to wait for another process.  The core is
    held in every event ordered before ``core_key``, the end event of
    its last grant.
    """

    def __init__(self, run: AnalyticRun, plan: SchemePlan, heap, next_seq):
        self.run = run
        self.plan = plan
        self.cal = run.cal
        self.heap = heap
        self.next_seq = next_seq
        self.core_key = _BEFORE_EVENTS
        #: Compute loops busy with a window, and polls not yet done.
        self.others = 0
        #: The dispatcher's latched hand-offs and their vectors (apart, so
        #: a backlog holds one collectable object per request); whether it
        #: waits for one; and the end of a chain whose pending check is
        #: still open.
        self.pending: deque = deque()
        self.vectors: deque = deque()
        self.idle = True
        self.done_key: Optional[tuple] = None
        self.dispatcher = self.start(self._dispatcher())
        #: Per CPU-computing app: its loop, the windows delivered to it,
        #: and (while it waits for one) the window it waits for.
        self.loops: dict = {}
        self.delivered: dict = {}
        self.waiting: dict = {}
        for app in run.scenario.apps:
            if app not in plan.com_apps:
                self.delivered[app.name] = set()
                self.loops[app.name] = self.start(self._compute_loop(app))
        #: Per stream: each subscriber's app, name, stride and samples
        #: per window; per (app name, window): the samples it misses.
        self.subscribers: dict = {}
        self.missing: Dict[Tuple[str, int], int] = {}
        self.governor = plan.cpu_governor(run.scenario)
        self.powers = state_powers(run.cal.cpu)

    def start(self, process):
        """Prime a process generator; returns its ``send``."""
        next(process)
        return process.send

    def resume(self, send, t: float, key) -> None:
        """Run a process on from the event ``key`` at ``t``."""
        end = send((t, key))
        if end is not None:
            heappush(self.heap, end + (send,))

    def close(self) -> None:
        """Break the processes' reference cycles: free the run at once."""
        self.dispatcher.__self__.close()
        for send in self.loops.values():
            send.__self__.close()

    def grant(self, t: float, duration: float, routine: str) -> tuple:
        """Grant the core FIFO at ``t`` for one op; returns its end key."""
        start, end = self.run.cpu_op(t, duration, routine)
        key = self.core_key = (end, start, self.next_seq())
        return key

    def wake(self, t: float, routine: str) -> tuple:
        """Wake the sleeping CPU at ``t``; returns the wake's end key."""
        return (self.run.cpu_wake(t, routine), t, self.next_seq())

    def send(self, t: float, nbytes: int) -> tuple:
        """Send ``nbytes`` upstream, FIFO on the NIC; returns its end key."""
        start, end = self.run.nic_send(t, nbytes)
        return (end, start, self.next_seq())

    def rest(self, t: float, key) -> None:
        """``SchemeContext.rest`` at ``t``, inside the event ``key``."""
        if self.core_key > key:
            return  # another process holds the core: nothing to rest
        cpu = self.run.cpu
        state, routine = self.governor.rest(t)
        last = cpu.last()
        if last is not None:
            last_t, last_state, _, last_routine, _ = last
            if last_t == t and last_state == state and last_routine == routine:
                # The CPU entered this very state at this instant: the
                # DES's repeated change integrates to nothing.
                return
        cpu.set(t, state, self.powers[state], routine)

    # ------------------------------------------------------------------
    # the dispatcher (SchemeContext.dispatcher)
    # ------------------------------------------------------------------
    def interrupt(self, t: float, key, vector: str, handoff: Handoff) -> None:
        """Latch one interrupt raised in the event ``key``; wake the
        dispatcher if it waits for one."""
        if self.done_key is not None and self.done_key < key:
            self.settle()
        self.pending.append(handoff)
        self.vectors.append(vector)
        if self.idle:
            self.idle = False
        elif self.done_key is not None:
            # Latched before the last chain ends: the dispatcher serves
            # it as that chain ends.
            key, self.done_key = self.done_key, None
            t = key[0]
        else:
            return
        end = self.dispatcher((t, key))
        if end is not None:
            heappush(self.heap, end + (self.dispatcher,))

    def settle(self) -> None:
        """Close the pending check of the chain ending at ``done_key``:
        nothing was latched by then, so the dispatcher rests and waits."""
        key, self.done_key = self.done_key, None
        self.idle = True
        self.rest(key[0], key)

    def _dispatcher(self):
        """``SchemeContext.dispatcher`` over the same records.

        While no other CPU process runs, nothing can queue for the core
        or move the CPU between its ops, so it runs them back to back,
        ahead of the scan, rather than one heap step per op end.  Once
        nothing is latched it waits, leaving ``done_key`` for the scan
        to close.
        """
        run = self.run
        cpu = run.cpu
        cal = self.cal
        pending = self.pending
        vectors = self.vectors
        next_seq = self.next_seq
        cpu_op = run.cpu_op
        handling_s = cal.cpu.interrupt_handling_time_s
        transfer_s = {}
        t, key = yield
        while True:
            handoff = pending.popleft()
            service = CPU_SERVICES[vectors.popleft()]
            if cpu.state in SLEEP_STATES:
                key = self.wake(t, Routine.INTERRUPT)
                t, key = (yield key) if self.others else (key[0], key)
            start, t = cpu_op(t, handling_s, Routine.INTERRUPT)
            key = self.core_key = (t, start, next_seq())
            if self.others:
                t, key = yield key
            free = run.cpu_core_free
            run.bus_transfer(free if free > t else t, handoff.nbytes)
            shape = (handoff.nbytes, handoff.samples, service.bulk)
            duration = transfer_s.get(shape)
            if duration is None:
                duration = transfer_s[shape] = cpu_transfer_time(cal, *shape)
            start, t = cpu_op(t, duration, Routine.DATA_TRANSFER)
            key = self.core_key = (t, start, next_seq())
            if self.others:
                t, key = yield key
            published = getattr(self, service.completion)(t, key, handoff)
            if published:
                key = self.send(t, published)
                t, key = (yield key) if self.others else (key[0], key)
            if not pending:
                self.done_key = key
                t, key = yield None

    # The three completions of a CpuService; each returns the bytes it
    # sends upstream.
    def deliver_sample(self, t: float, key, handoff: Handoff) -> int:
        # A window completes when it misses no sample (as in
        # ``WindowState.register``): each stream delivers its share.
        stream = handoff.owner
        subscribers = self.subscribers.get(id(stream))
        if subscribers is None:
            subscribers = self.subscribers[id(stream)] = [
                (app, app.name, stream.stride(app), sum(
                    app.profile.samples_per_window(sensor_id)
                    for sensor_id in app.profile.sensor_ids
                ))
                for app in stream.subscribers
            ]
        w, k = handoff.window, handoff.index
        missing = self.missing
        for app, name, stride, samples in subscribers:
            if k % stride == 0:
                window = (name, w)
                left = missing[window] = missing.get(window, samples) - 1
                if left == 0:
                    self._deliver(app, w, t, key)
        return 0

    def deliver_window(self, t: float, key, handoff: Handoff) -> int:
        if handoff.final:
            self._deliver(handoff.owner, handoff.window, t, key)
        return 0

    def publish(self, t: float, key, handoff: Handoff) -> int:
        self.run.record_result(handoff.owner, handoff.window, t, key)
        return handoff.nbytes

    # ------------------------------------------------------------------
    # compute loops and main-board polls
    # ------------------------------------------------------------------
    def _deliver(self, app, w: int, t: float, key) -> None:
        """Window ``w`` of ``app`` became CPU-visible at ``t``."""
        self.delivered[app.name].add(w)
        if self.waiting.get(app.name) == w:
            del self.waiting[app.name]
            self.resume(self.loops[app.name], t, key)

    def _compute_loop(self, app):
        """``SchemeContext.cpu_compute_process`` of ``app``."""
        run = self.run
        cpu = run.cpu
        chain = self.plan.window_compute(app, self.cal)
        delivered = self.delivered[app.name]
        for w in range(run.scenario.windows):
            if w not in delivered:
                self.waiting[app.name] = w
                t, key = yield None
            self.others += 1
            if cpu.state in SLEEP_STATES:
                t, key = yield self.wake(t, Routine.APP_COMPUTE)
            t, key = yield self.grant(t, chain.duration, Routine.APP_COMPUTE)
            run.record_result(app, w, t, key)
            t, key = yield self.send(t, chain.output_bytes)
            self.rest(t, key)
            self.others -= 1
        yield None  # finished: nothing resumes it

    def poll_loop(self, stream: Stream):
        """``SchemeContext.poll_stream`` under main-board polling
        (§II-A): the core is held through each rail read and the store,
        then the sample is delivered as its interrupt's service would."""
        run = self.run
        self.others += 1
        t, key = yield
        for w in range(run.scenario.windows):
            for k in range(stream.samples_per_window):
                target = w * stream.window_s + k / stream.rate_hz
                if target > t:
                    t, key = yield (t + (target - t), t, self.next_seq())
                read_end, end = run.cpu_read(stream.sensor_id, t)
                # The store's end event, inserted as the read ends.
                self.core_key = (end, read_end, self.next_seq())
                t, key = yield self.core_key
                self.deliver_sample(
                    t, key, Handoff(stream.sample_bytes, 1, stream, w, k)
                )
        self.others -= 1
        yield None  # finished: nothing resumes it
