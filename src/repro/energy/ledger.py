"""The power ledger: every component's power history and its integration.

This is the one place both tiers keep power history and the one
:func:`integrate` that turns it into energy and busy time — the
software stand-in for the paper's Monsoon monitor (§III-B).

* The DES appends to a :class:`Timeline` per component: each
  :class:`~repro.hw.power.PowerStateMachine` transition, and each edge
  of a PIO bus transfer, is one plain ``(t, state, power_w, routine)``
  tuple, appended in time order with no check.  The hub's
  :class:`PowerLedger` (``hub.recorder``) holds those timelines and
  answers the Figure 5 queries.
* The analytic tier knows its operation intervals up front and emits
  them slightly out of order into a :class:`Schedule`, which replays
  them with a stable sort on time: entries at one instant keep their
  emission order, the kernel's FIFO order for ties.

Both hand :func:`integrate` the same stream of constant-power
segments, so both tiers share one summation order: components in
sorted-name order, each walked in time.  The walk is also where an
out-of-order DES history is caught.  A truncated analytic scan (and any
caller that wants per-window figures) passes a :class:`CycleTally` and
gets its energy and busy time per cycle from the same walk.
"""

from __future__ import annotations

import math
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

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
    """A component's power history emitted ahead of time, out of order.

    The analytic models interleave per-process chains, so entries arrive
    slightly out of time order; :meth:`segments` replays them with a
    stable sort on time, so entries at one instant apply in emission
    order.  The analytic tier's op primitives append :data:`Entry`
    tuples to ``_events`` directly; :meth:`set` and :meth:`wake` append
    one each.
    """

    __slots__ = ("component", "_initial", "_events", "state")

    def __init__(
        self,
        component: str,
        state: str,
        power_w: float,
        routine: str = Routine.IDLE,
    ):
        self.component = component
        self._initial = (state, power_w, routine)
        self._events: List[Entry] = []
        #: Procedural view of the *latest emitted* state, for models that
        #: need to know whether the component currently sleeps.  Only
        #: meaningful while entries are emitted in time order.
        self.state = state

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

    def segments(self, end_time: float) -> Iterator[Segment]:
        """Replay the entries in time order as constant-power segments.

        Sorts the entries in place; the sort is stable, so a replay
        after further emissions still applies ties in emission order.
        """
        self._events.sort(key=_by_time)
        state, power, routine = self._initial
        since = 0.0
        for t, new_state, new_power, new_routine, mode in self._events:
            if mode is not None and state not in SLEEP_STATES:
                continue  # a wake the component no longer sleeps for
            if t > end_time:
                break
            if t > since:
                yield (since, t, state, power, routine)
                since = t
            state, power = new_state, new_power
            if new_routine is not None:
                routine = new_routine
        if end_time > since:
            yield (since, end_time, state, power, routine)


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


def integrate(
    timelines: Iterable[Union[Timeline, Schedule]],
    end_time: float,
    cycles: Optional[CycleTally] = None,
) -> Tuple[Dict[Tuple[str, str], float], Dict[str, float]]:
    """Integrate timelines into (energy by (component, routine), busy
    seconds by routine).

    ``timelines`` are :class:`Timeline` or :class:`Schedule` objects,
    one per component, walked once each in sorted component order up to
    ``end_time``.  Only busy states (:data:`~repro.hw.power.BUSY_STATES`)
    count towards busy time.  With a ``cycles`` tally, segments are
    split at cycle edges, each cycle's energy and busy time fill its
    buckets, and the totals sum the buckets; without one the whole run
    is one bucket, which is the plain running sum.
    """
    if cycles is None:
        cycles = CycleTally(math.inf, 0)
    cycle_s = cycles.cycle_s
    for timeline in sorted(timelines, key=attrgetter("component")):
        component = timeline.component
        index, edge = 0, cycle_s
        busy = cycles.busy[0]
        # The walk visits each cycle in one stretch, so a component's
        # energy for the cycle is summed per routine here, in segment
        # order, and lands in the cycle's (component, routine) keys when
        # the walk leaves it.  Busy time is summed across components, so
        # it goes straight into the shared bucket.
        energy: Dict[str, float] = {}
        for t0, t1, state, power, routine in timeline.segments(end_time):
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
