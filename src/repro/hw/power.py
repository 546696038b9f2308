"""Power-state machines and the paper's four routine categories."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import PowerStateError
from ..sim.kernel import Simulator
from ..sim.trace import StateChange, TimelineRecorder


class Routine:
    """The four sub-task categories the paper attributes energy to (§II).

    ``IDLE`` is the extra category for time no app sub-task is responsible
    for (the idle hub of Figure 1).
    """

    DATA_COLLECTION = "data_collection"
    INTERRUPT = "interrupt"
    DATA_TRANSFER = "data_transfer"
    APP_COMPUTE = "app_compute"
    IDLE = "idle"

    #: Presentation order used by every report and benchmark table.
    ORDER: Tuple[str, ...] = (
        DATA_COLLECTION,
        INTERRUPT,
        DATA_TRANSFER,
        APP_COMPUTE,
        IDLE,
    )

    #: All valid routine tags.
    ALL = frozenset(ORDER)


#: Component states that count as "busy" for the timing breakdown
#: (Figures 8 and 13): actual work on a core, a sensor rail, the bus or
#: the NIC.  Wake transitions cost energy but perform no work, so they
#: are excluded from the performance metric.
BUSY_STATES = frozenset({"busy", "read", "active", "tx"})


class PowerStateMachine:
    """Tracks one component's power state and routine attribution.

    Every transition is logged to the shared timeline.  States are declared
    up front with their power draw; attempting to enter an undeclared state
    raises :class:`PowerStateError` (catching typos early matters because a
    mis-tagged state silently corrupts the energy accounting).
    """

    def __init__(
        self,
        sim: Simulator,
        recorder: TimelineRecorder,
        component: str,
        states: Dict[str, float],
        initial_state: str,
        initial_routine: str = Routine.IDLE,
    ):
        if initial_state not in states:
            raise PowerStateError(f"unknown initial state {initial_state!r}")
        self._sim = sim
        self._recorder = recorder
        self.component = component
        self._states = dict(states)
        self.state = initial_state
        self.routine = initial_routine
        self._record()

    @property
    def power_w(self) -> float:
        """Current power draw in watts."""
        return self._states[self.state]

    def state_power(self, state: str) -> float:
        """Declared draw of ``state`` (without entering it)."""
        try:
            return self._states[state]
        except KeyError:
            raise PowerStateError(
                f"{self.component}: unknown state {state!r}"
            ) from None

    def set_state(self, state: str, routine: Optional[str] = None) -> None:
        """Enter ``state``; optionally retag the active routine."""
        if state not in self._states:
            raise PowerStateError(f"{self.component}: unknown state {state!r}")
        if routine is not None:
            if routine not in Routine.ALL:
                raise PowerStateError(
                    f"{self.component}: unknown routine {routine!r}"
                )
            self.routine = routine
        self.state = state
        self._record()

    def set_routine(self, routine: str) -> None:
        """Retag the current interval without changing power state."""
        self.set_state(self.state, routine)

    def _record(self) -> None:
        self._recorder.record(
            StateChange(
                time=self._sim.now,
                component=self.component,
                state=self.state,
                power_w=self.power_w,
                routine=self.routine,
            )
        )
