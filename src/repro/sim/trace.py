"""Timeline recording: power-state changes and annotations.

The :class:`TimelineRecorder` is the substrate for the paper's Figure 5
(power states of the MCU and CPU over time) and for the energy integration in
:mod:`repro.energy.meter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..units import to_ms


@dataclass(frozen=True)
class StateChange:
    """One component's power-state change at an instant."""

    time: float
    component: str
    state: str
    power_w: float
    routine: str

    def __str__(self) -> str:
        return (
            f"t={to_ms(self.time):10.3f}ms {self.component:<10} "
            f"{self.state:<12} {self.power_w:6.3f}W [{self.routine}]"
        )


class TimelineRecorder:
    """Append-only log of state changes, queryable per component.

    Changes must be appended in non-decreasing time order per component (the
    kernel guarantees this because callbacks run in time order).
    """

    def __init__(self) -> None:
        self._changes: Dict[str, List[StateChange]] = {}

    def record(self, change: StateChange) -> None:
        """Append a state change for its component."""
        history = self._changes.setdefault(change.component, [])
        if history and change.time < history[-1].time:
            raise ValueError(
                f"out-of-order state change for {change.component}: "
                f"{change.time} < {history[-1].time}"
            )
        history.append(change)

    @property
    def components(self) -> Tuple[str, ...]:
        """Names of all components that have recorded changes."""
        return tuple(sorted(self._changes))

    def changes(self, component: str) -> Tuple[StateChange, ...]:
        """All recorded changes for one component, in time order."""
        return tuple(self._changes.get(component, ()))

    def intervals(
        self, component: str, end_time: float
    ) -> Iterator[Tuple[StateChange, float]]:
        """Yield ``(change, duration)`` pairs for one component.

        The final interval is closed at ``end_time``.  Zero-length intervals
        (two changes at the same instant) are skipped.
        """
        history = self._changes.get(component, [])
        for current, following in zip(history, history[1:]):
            duration = following.time - current.time
            if duration > 0:
                yield current, duration
        if history:
            last = history[-1]
            tail = end_time - last.time
            if tail > 0:
                yield last, tail

    def state_at(self, component: str, time: float) -> Optional[StateChange]:
        """The change in effect at ``time`` for ``component`` (or None)."""
        latest = None
        for change in self._changes.get(component, []):
            if change.time <= time:
                latest = change
            else:
                break
        return latest

    def time_in_state(self, component: str, state: str, end_time: float) -> float:
        """Total time the component spent in ``state`` up to ``end_time``."""
        return sum(
            duration
            for change, duration in self.intervals(component, end_time)
            if change.state == state
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
            time = end_time * (column + 0.5) / width
            change = self.state_at(component, time)
            if change is None:
                cells.append(" ")
            else:
                cells.append(chars.get(change.state, change.state[0].upper()))
        return "".join(cells)
