"""Interval ledgers: power timelines without a power-state machine.

The DES records every :class:`~repro.hw.power.PowerStateMachine`
transition into a :class:`~repro.sim.trace.TimelineRecorder` and
integrates afterwards.  The analytic models know their operation
intervals up front, so a :class:`Timeline` here just collects
``(time, state, power, routine)`` change events, replays them in time
order and integrates piecewise — producing the same
``by_component_routine`` and busy-time accounting as the DES recorder.

Events may be emitted slightly out of order (the models interleave
per-process chains); the replay sorts by time with a stable insertion
sequence for ties, which matches the kernel's FIFO event ordering.

A truncated scan (see :mod:`.model`) also keeps a :class:`CycleTally`:
its counters per window-length cycle, and — filled by the same
:func:`integrate` pass — its energy and busy time per cycle, which is
what cycle extrapolation verifies and multiplies out.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ...hw.power import BUSY_STATES, Routine

#: One state-change event: (time, seq, state, power_w, routine, mode).
#: ``mode`` is ``""`` for unconditional, ``"rest"`` for skipped-if-busy
#: (another process took the core meanwhile) and ``"wake"`` for
#: applied-only-if-still-sleeping (a mid-sleep operation may have woken
#: the component before its scheduled wake, in which case the kernel's
#: wake event never fires).
_Event = Tuple[float, int, str, float, Optional[str], str]

#: States a ``"wake"`` event can interrupt.
SLEEP_STATES = frozenset({"sleep", "deep_sleep"})


class Timeline:
    """Piecewise power/state/routine history of one component."""

    def __init__(
        self,
        component: str,
        state: str,
        power_w: float,
        routine: str = Routine.IDLE,
    ):
        self.component = component
        self._initial = (state, power_w, routine)
        self._events: List[_Event] = []
        self._seq = 0
        #: Procedural view of the *latest emitted* state, for models that
        #: need to know whether the component currently sleeps.  Only
        #: meaningful while events are emitted in time order.
        self.state = state
        self.routine = routine

    def set(
        self,
        t: float,
        state: str,
        power_w: float,
        routine: Optional[str] = None,
    ) -> None:
        """Enter ``state`` at ``t``; ``routine=None`` keeps the current tag."""
        self._events.append((t, self._seq, state, power_w, routine, ""))
        self._seq += 1
        self.state = state
        if routine is not None:
            self.routine = routine

    def rest(
        self,
        t: float,
        state: str,
        power_w: float,
        routine: Optional[str] = None,
    ) -> None:
        """Like :meth:`set`, but skipped at replay if the component is
        busy at ``t`` — the governor-off ``rest()`` semantics (another
        process may have started an operation in the meantime)."""
        self._events.append((t, self._seq, state, power_w, routine, "rest"))
        self._seq += 1

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
        self._events.append((t, self._seq, state, power_w, routine, "wake"))
        self._seq += 1
        self.state = state
        if routine is not None:
            self.routine = routine

    def segments(
        self, end_time: float
    ) -> Iterable[Tuple[float, float, str, float, str]]:
        """Replay events; yields ``(t0, t1, state, power_w, routine)``."""
        state, power, routine = self._initial
        since = 0.0
        for t, _, new_state, new_power, new_routine, mode in sorted(
            self._events
        ):
            if mode == "rest" and state == "busy":
                continue
            if mode == "wake" and state not in SLEEP_STATES:
                continue
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
    """Per-cycle counters, energy and busy time of a truncated scan.

    Cycle ``i`` covers ``[i * cycle_s, (i + 1) * cycle_s)``; activity
    past the last window (the final drain) lands in one extra cycle.
    Counters are one integer per cycle, never a per-event log.
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
    run, end_time: float
) -> Tuple[Dict[Tuple[str, str], float], Dict[str, float]]:
    """Integrate a run's timelines into (energy by component/routine,
    busy times).

    Mirrors :meth:`repro.energy.meter.PowerMonitor.measure` and
    :func:`repro.core.results.routine_busy_times` over the analytic
    interval set.  A run that keeps a :class:`CycleTally`
    (``run.cycles``) gets its per-cycle energy and busy time from the
    same pass: segments are split at cycle edges and the totals are
    summed over the cycles.  Without one, the whole run is one cycle.
    """
    cycles = run.cycles if run.cycles is not None else CycleTally(
        float("inf"), 0
    )
    cycle_s = cycles.cycle_s
    for timeline in run.timelines():
        component = timeline.component
        index, edge = 0, cycle_s
        energy, busy = cycles.energy[0], cycles.busy[0]
        # Segments are contiguous and time-ordered, so one cursor per
        # timeline walks the cycles.
        for t0, t1, state, power, routine in timeline.segments(end_time):
            key = (component, routine)
            is_busy = state in BUSY_STATES
            while t1 > edge:
                energy[key] = energy.get(key, 0.0) + power * (edge - t0)
                if is_busy:
                    busy[routine] = busy.get(routine, 0.0) + (edge - t0)
                t0 = edge
                index += 1
                edge = (
                    (index + 1) * cycle_s if index < cycles.last
                    else float("inf")
                )
                energy, busy = cycles.energy[index], cycles.busy[index]
            energy[key] = energy.get(key, 0.0) + power * (t1 - t0)
            if is_busy:
                busy[routine] = busy.get(routine, 0.0) + (t1 - t0)
    energy_total: Dict[Tuple[str, str], float] = {}
    busy_total: Dict[str, float] = {routine: 0.0 for routine in Routine.ORDER}
    for totals, buckets in (
        (energy_total, cycles.energy), (busy_total, cycles.busy)
    ):
        for bucket in buckets:
            for key, value in bucket.items():
                totals[key] = totals.get(key, 0.0) + value
    return energy_total, busy_total
