"""The power ledger: every component's power history and its integration.

This is the one place both tiers keep power history and the one
:func:`integrate` that turns it into energy and busy time — the
software stand-in for the paper's Monsoon monitor (§III-B).

* The DES appends to a :class:`Timeline` per component: each
  :class:`~repro.hw.power.PowerStateMachine` transition, and each edge
  of a PIO bus transfer, is one plain ``(t, state, power_w, routine)``
  tuple, appended in time order with no check.  The hub's
  :class:`PowerLedger` (``hub.recorder``) holds those timelines and
  answers the Figure 5 queries, so a timeline keeps its whole history.
* The analytic tier knows its operation intervals up front and emits
  them slightly out of order into a :class:`Schedule`.  Its scan
  flushes each schedule as it passes a window edge: the entries before
  a watermark are replayed in a stable sort on time (entries at one
  instant keep their emission order, the kernel's FIFO order for ties)
  into the component's walk, and dropped.  A full scan then holds one
  window of entries, not its whole horizon.

Both walk the same constant-power segments and :func:`integrate`
folds the walks into one tally, so both tiers share one summation
order: components in sorted-name order, each walked in time.  A
component's energy is a running sum of its own.  Busy time is one
running sum across components, which a timeline, walked inside
:func:`integrate`, adds to at once; a schedule's walk, fed by flushes
that interleave with other components', keeps its busy spans until
:func:`integrate` reaches it.  The walk is also where an out-of-order
history is caught: a DES change before its predecessor, or an
analytic entry behind a flushed watermark, raises ``ValueError``.  A
truncated analytic scan (and any caller that wants per-window
figures) passes a :class:`CycleTally` and gets its energy and busy
time per cycle from the same walk.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import reduce
from operator import add, attrgetter, itemgetter
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
)

from ..hw.power import BUSY_STATES, Routine

#: One recorded change: ``(t, state, power_w, routine)``.
Change = Tuple[float, str, float, str]
#: One constant-power piece of a history: ``(t0, t1, state, power_w,
#: routine)``.
Segment = Tuple[float, float, str, float, str]


class Timeline:
    """One component's power history, appended in time order.

    ``changes`` is a plain list of :data:`Change` tuples; the DES
    appends to it directly.  The order is checked once per read, by
    :meth:`segments`, not on every append.
    """

    __slots__ = ("component", "changes")

    def __init__(self, component: str):
        self.component = component
        self.changes: List[Change] = []

    def segments(self, end_time: float) -> Iterator[Segment]:
        """Walk the history as constant-power segments up to ``end_time``.

        Zero-length segments (two changes at one instant) are skipped;
        the last change at an instant holds from it.  Raises
        ``ValueError`` if a change precedes the one before it.
        """
        history = iter(self.changes)
        for since, state, power, routine in history:
            break
        else:
            return
        for t, new_state, new_power, new_routine in history:
            if t > since:
                if t > end_time:
                    break
                yield (since, t, state, power, routine)
                since = t
            elif t < since:
                raise ValueError(
                    f"out-of-order state change for {self.component}: "
                    f"{t} < {since}"
                )
            state, power, routine = new_state, new_power, new_routine
        if end_time > since:
            yield (since, end_time, state, power, routine)

    def fold(self, end_time: float, cycles: CycleTally) -> None:
        """Walk the history up to ``end_time`` into ``cycles``' buckets.

        :func:`integrate` folds the components in sorted-name order, so
        busy time, one running sum across them, goes straight into the
        shared bucket.  The walk visits each cycle in one stretch, so
        the component's energy for the cycle is summed per routine here,
        in segment order, and lands in the cycle's ``(component,
        routine)`` keys when the walk leaves it.
        """
        component = self.component
        cycle_s = cycles.cycle_s
        index, edge = 0, cycle_s
        busy = cycles.busy[0]
        energy: Dict[str, float] = {}
        for t0, t1, state, power, routine in self.segments(end_time):
            while t1 > edge:
                span = edge - t0
                energy[routine] = energy.get(routine, 0.0) + power * span
                if state in BUSY_STATES:
                    busy[routine] = busy.get(routine, 0.0) + span
                t0 = edge
                _fold(cycles.energy[index], component, energy)
                energy = {}
                index += 1
                edge = (
                    (index + 1) * cycle_s if index < cycles.last
                    else math.inf
                )
                busy = cycles.busy[index]
            span = t1 - t0
            energy[routine] = energy.get(routine, 0.0) + power * span
            if state in BUSY_STATES:
                busy[routine] = busy.get(routine, 0.0) + span
        _fold(cycles.energy[index], component, energy)


#: One emitted entry: ``(t, state, power_w, routine, mode)``.
#: ``routine=None`` keeps the current tag.  ``mode`` is ``None`` for
#: unconditional and ``"wake"`` for applied-only-if-still-sleeping (a
#: mid-sleep operation may have woken the component before its
#: scheduled wake, in which case the kernel's wake event never fires).
Entry = Tuple[float, str, float, Optional[str], Optional[str]]

#: States a ``"wake"`` entry can interrupt.
SLEEP_STATES = frozenset({"sleep", "deep_sleep"})

_by_time = itemgetter(0)


class Schedule:
    """A component's power history emitted ahead of time, out of order,
    and integrated as its emitter passes it.

    The analytic models interleave per-process chains, so entries arrive
    slightly out of time order.  The op primitives append :data:`Entry`
    tuples to ``_events`` directly; :meth:`set` and :meth:`wake` append
    one each.  :meth:`flush` replays the entries before a watermark,
    sorted stably on time so entries at one instant apply in emission
    order, into the component's walk and drops them from ``_events``
    (in place: callers may hold the list); :meth:`fold`, which
    :func:`integrate` calls, replays the rest and closes the walk.
    """

    __slots__ = ("component", "_initial", "_events", "state", "_walk",
                 "_watermark", "_held", "_last")

    def __init__(
        self,
        component: str,
        state: str,
        power_w: float,
        routine: str = Routine.IDLE,
    ):
        self.component = component
        self._initial = (state, power_w, routine, 0.0)
        self._events: List[Entry] = []
        #: Procedural view of the *latest emitted* state, for models that
        #: need to know whether the component currently sleeps.  Only
        #: meaningful while entries are emitted in time order.
        self.state = state
        self._walk: Optional[_Walk] = None
        #: Every entry before this instant is walked; ``math.inf`` once
        #: :meth:`fold` has closed the schedule.
        self._watermark = -math.inf
        #: ``len(_events)`` after the last flush, and the entry emitted
        #: last before it, for :meth:`last`.
        self._held = 0
        self._last: Optional[Entry] = None

    def set(
        self,
        t: float,
        state: str,
        power_w: float,
        routine: Optional[str] = None,
    ) -> None:
        """Enter ``state`` at ``t``; ``routine=None`` keeps the current tag."""
        self._events.append((t, state, power_w, routine, None))
        self.state = state

    def wake(
        self,
        t: float,
        state: str,
        power_w: float,
        routine: Optional[str] = None,
    ) -> None:
        """Like :meth:`set`, but applied at replay only while the
        component still sleeps at ``t`` — a scheduled wake that a
        mid-sleep operation (e.g. a rail read ending) may preempt."""
        self._events.append((t, state, power_w, routine, "wake"))
        self.state = state

    def last(self) -> Optional[Entry]:
        """The entry emitted last, flushed or not (``None`` before any)."""
        events = self._events
        return events[-1] if len(events) > self._held else self._last

    def flush(self, watermark: float, cycles: Optional[CycleTally]) -> None:
        """Walk the entries before ``watermark`` over ``cycles`` (the
        whole run as one cycle when ``None``) and drop them.

        The emitter promises that no entry before ``watermark`` is still
        to come, and that ``watermark`` is within the run.  An entry
        behind an earlier watermark raises ``ValueError``.
        """
        events = self._events
        if len(events) > self._held:
            self._last = events[-1]
        count = _count_before(self._sorted(), watermark)
        if self._walk is None:
            self._walk = _Walk(cycles or _whole_run(), self._initial)
        self._walk.replay(events[:count])
        del events[:count]
        self._held = len(events)
        if watermark > self._watermark:
            self._watermark = watermark

    def fold(self, end_time: float, cycles: CycleTally) -> None:
        """Walk the rest of the entries up to ``end_time`` over
        ``cycles``, close the walk there and add it to the buckets."""
        if self._watermark == math.inf:
            raise ValueError(f"{self.component} is already integrated")
        events = self._sorted()
        walk = self._walk
        if walk is None:
            walk = self._walk = _Walk(cycles, self._initial)
        # An entry past ``end_time`` is never applied; restating the
        # state at ``end_time`` closes the open segment there.
        walk.replay(events[:_count_before(
            events, math.nextafter(end_time, math.inf)
        )])
        state, power, _, _ = walk.now
        walk.replay(((end_time, state, power, None, None),))
        self._watermark = math.inf
        walk.fold(self.component, cycles)

    def _sorted(self) -> List[Entry]:
        """``_events`` sorted stably on time; raises ``ValueError`` if
        one lies behind the flushed watermark."""
        events = self._events
        events.sort(key=_by_time)
        if events and events[0][0] < self._watermark:
            raise ValueError(
                f"out-of-order entry for {self.component}: {events[0][0]} "
                f"< {self._watermark}, already integrated"
            )
        return events


class CycleTally:
    """Per-cycle counters, energy and busy time of a run.

    Cycle ``i`` covers ``[i * cycle_s, (i + 1) * cycle_s)``; activity
    past the last window (the final drain) lands in one extra cycle.
    Counters are one integer per cycle, never a per-event log; only the
    analytic tier fills them.
    """

    __slots__ = ("cycle_s", "last", "interrupts", "cpu_wakes", "bus_bytes",
                 "energy", "busy")

    def __init__(self, cycle_s: float, windows: int):
        self.cycle_s = cycle_s
        #: Index of the drain cycle, the last one kept.
        self.last = windows
        self.interrupts = [0] * (windows + 1)
        self.cpu_wakes = [0] * (windows + 1)
        self.bus_bytes = [0] * (windows + 1)
        self.energy: List[Dict[Tuple[str, str], float]] = [
            {} for _ in range(windows + 1)
        ]
        self.busy: List[Dict[str, float]] = [{} for _ in range(windows + 1)]

    def index(self, t: float) -> int:
        """The cycle holding instant ``t``."""
        return min(int(t // self.cycle_s), self.last)


def _whole_run() -> CycleTally:
    """The tally of a run that is not split into cycles: one bucket."""
    return CycleTally(math.inf, 0)


class _Walk:
    """A schedule's walk through the cycles of a :class:`CycleTally`,
    fed by flushes that interleave with other components' walks.

    For each cycle it has entered, the walk holds the component's energy
    per routine, summed in segment order, and each busy span per routine
    as an 8-byte double: busy time is one running sum across components
    in sorted-name order, which a flush cannot add to yet.  ``now`` is
    the replay state (state, power, routine and the start of the open
    segment).  :meth:`fold` adds the walk to the tally's buckets.
    """

    __slots__ = ("cycle_s", "last", "edge", "energy", "busy", "now")

    def __init__(self, cycles: CycleTally, now: Tuple[str, float, str, float]):
        self.cycle_s = cycles.cycle_s
        self.last = cycles.last
        #: Where the current cycle ends.
        self.edge = cycles.cycle_s
        self.energy: List[Dict[str, float]] = [{}]
        self.busy: List[Dict[str, array]] = [{}]
        self.now = now

    def _cross(
        self, t0: float, t1: float, state: str, power: float, routine: str
    ) -> float:
        """Split ``[t0, t1)`` at every cycle edge before ``t1``, entering
        each new cycle; returns the start of the piece in the last one."""
        while t1 > self.edge:
            edge = self.edge
            span = edge - t0
            energy = self.energy[-1]
            energy[routine] = energy.get(routine, 0.0) + power * span
            if state in BUSY_STATES:
                busy = self.busy[-1]
                spans = busy.get(routine)
                if spans is None:
                    spans = busy[routine] = array("d")
                spans.append(span)
            t0 = edge
            self.energy.append({})
            self.busy.append({})
            index = len(self.energy) - 1
            self.edge = (
                (index + 1) * self.cycle_s if index < self.last else math.inf
            )
        return t0

    def replay(self, entries: Iterable[Entry]) -> None:
        """Walk on over time-sorted :data:`Entry` tuples from ``now``.

        Each entry later than the open segment's start closes that
        segment; a tie only changes the state it holds, and a ``"wake"``
        the component no longer sleeps for is dropped.
        """
        state, power, routine, since = self.now
        energy, busy, edge = self.energy[-1], self.busy[-1], self.edge
        for t, new_state, new_power, new_routine, mode in entries:
            if mode is not None and state not in SLEEP_STATES:
                continue  # a wake the component no longer sleeps for
            if t > since:
                if t > edge:
                    since = self._cross(since, t, state, power, routine)
                    energy, busy, edge = (
                        self.energy[-1], self.busy[-1], self.edge
                    )
                span = t - since
                energy[routine] = energy.get(routine, 0.0) + power * span
                if state in BUSY_STATES:
                    spans = busy.get(routine)
                    if spans is None:
                        spans = busy[routine] = array("d")
                    spans.append(span)
                since = t
            state, power = new_state, new_power
            if new_routine is not None:
                routine = new_routine
        self.now = (state, power, routine, since)

    def fold(self, component: str, cycles: CycleTally) -> None:
        """Add the walk to ``cycles``' buckets: energy under its
        ``(component, routine)`` keys, each busy span onto its routine's
        running sum in time order (a left fold, not ``sum``, which
        compensates since Python 3.12)."""
        if (self.cycle_s, self.last) != (cycles.cycle_s, cycles.last):
            raise ValueError(
                f"{component} was walked over other cycles than the tally's"
            )
        for bucket, energy in zip(cycles.energy, self.energy):
            _fold(bucket, component, energy)
        for bucket, busy in zip(cycles.busy, self.busy):
            for routine, spans in busy.items():
                bucket[routine] = reduce(add, spans, bucket.get(routine, 0.0))


def _count_before(events: Sequence[tuple], t: float) -> int:
    """How many of the time-sorted ``events`` lie before ``t``: the probe
    ``(t,)`` sorts before every entry at ``t`` and after every earlier
    one."""
    return bisect_left(events, (t,))


def integrate(
    timelines: Iterable[Union[Timeline, Schedule]],
    end_time: float,
    cycles: Optional[CycleTally] = None,
) -> Tuple[Dict[Tuple[str, str], float], Dict[str, float]]:
    """Integrate timelines into (energy by (component, routine), busy
    seconds by routine).

    ``timelines`` are :class:`Timeline` or :class:`Schedule` objects,
    one per component, each walked (a schedule: the rest of its walk)
    up to ``end_time`` and folded into the buckets in sorted component
    order.  Only busy states (:data:`~repro.hw.power.BUSY_STATES`)
    count towards busy time.  With a ``cycles`` tally, segments are
    split at cycle edges, each cycle's energy and busy time fill its
    buckets, and the totals sum the buckets; without one the whole run
    is one bucket, which is the plain running sum.  A schedule flushed
    over one tally must be integrated with a tally of the same cycles.
    """
    if cycles is None:
        cycles = _whole_run()
    for timeline in sorted(timelines, key=attrgetter("component")):
        timeline.fold(end_time, cycles)
    energy_total: Dict[Tuple[str, str], float] = {}
    busy_total: Dict[str, float] = {routine: 0.0 for routine in Routine.ORDER}
    for totals, buckets in (
        (energy_total, cycles.energy), (busy_total, cycles.busy)
    ):
        for bucket in buckets:
            for key, value in bucket.items():
                totals[key] = totals.get(key, 0.0) + value
    return energy_total, busy_total


def _fold(
    bucket: Dict[Tuple[str, str], float],
    component: str,
    energy: Dict[str, float],
) -> None:
    """Add one component's per-routine cycle energy to a cycle bucket."""
    for routine, joules in energy.items():
        key = (component, routine)
        bucket[key] = bucket.get(key, 0.0) + joules


class PowerLedger:
    """The hub's power history: one :class:`Timeline` per component.

    Reached as ``hub.recorder``.  Queries are component-first and read
    through :meth:`Timeline.segments`, so an out-of-order history raises
    ``ValueError`` from any of them, as it does from :func:`integrate`.
    """

    def __init__(self) -> None:
        self._timelines: Dict[str, Timeline] = {}

    def timeline(self, component: str) -> Timeline:
        """The timeline of ``component``, created on first use."""
        timeline = self._timelines.get(component)
        if timeline is None:
            timeline = self._timelines[component] = Timeline(component)
        return timeline

    def timelines(self) -> List[Timeline]:
        """Every component's timeline, for :func:`integrate`."""
        return list(self._timelines.values())

    @property
    def components(self) -> Tuple[str, ...]:
        """Names of all components with a timeline, sorted."""
        return tuple(sorted(self._timelines))

    def intervals(self, component: str, end_time: float) -> Iterator[Segment]:
        """One component's :data:`Segment` walk, closed at ``end_time``."""
        timeline = self._timelines.get(component)
        return timeline.segments(end_time) if timeline else iter(())

    def changes(self, component: str) -> Tuple[Change, ...]:
        """All recorded changes for one component, in time order."""
        timeline = self._timelines.get(component)
        if timeline is None:
            return ()
        for _ in timeline.segments(math.inf):
            pass  # the walk checks the order
        return tuple(timeline.changes)

    def state_at(self, component: str, time: float) -> Optional[Change]:
        """The change in effect at ``time`` for ``component`` (or None)."""
        for t0, t1, state, power_w, routine in self.intervals(
            component, math.inf
        ):
            if time < t1:
                return (t0, state, power_w, routine) if time >= t0 else None
        return None

    def time_in_state(self, component: str, state: str, end_time: float) -> float:
        """Total time the component spent in ``state`` up to ``end_time``."""
        return sum(
            t1 - t0
            for t0, t1, in_state, _, _ in self.intervals(component, end_time)
            if in_state == state
        )

    def render_ascii(
        self,
        component: str,
        end_time: float,
        width: int = 80,
        state_chars: Optional[Dict[str, str]] = None,
    ) -> str:
        """ASCII strip chart of one component's states (Figure 5 style)."""
        chars = state_chars or {}
        cells = []
        for column in range(width):
            change = self.state_at(component, end_time * (column + 0.5) / width)
            if change is None:
                cells.append(" ")
            else:
                state = change[1]
                cells.append(chars.get(state, state[0].upper()))
        return "".join(cells)

    def sample_trace(
        self, end_time: float, sample_interval_s: float
    ) -> List[Tuple[float, float]]:
        """Evenly spaced ``(time, hub_power_w)`` samples (Monsoon style).

        Each sample sums the power in effect at its instant over the
        components, in sorted order, in one walk per component.
        """
        steps = int(end_time / sample_interval_s)
        times = [index * sample_interval_s for index in range(steps + 1)]
        power = [0.0] * len(times)
        for component in self.components:
            index = 0
            for t0, t1, _, power_w, _ in self.intervals(component, math.inf):
                while index < len(times) and times[index] < t1:
                    if times[index] >= t0:
                        power[index] += power_w
                    index += 1
        return list(zip(times, power))
