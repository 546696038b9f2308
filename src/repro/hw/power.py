"""Power-state machines and the paper's four routine categories."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from ..errors import PowerStateError
from ..sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.ledger import PowerLedger


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

    Every transition is appended to the component's timeline in the hub's
    :class:`~repro.energy.ledger.PowerLedger`.  States are declared
    up front with their power draw; attempting to enter an undeclared state
    raises :class:`PowerStateError` (catching typos early matters because a
    mis-tagged state silently corrupts the energy accounting).
    """

    def __init__(
        self,
        sim: Simulator,
        recorder: PowerLedger,
        component: str,
        states: Dict[str, float],
        initial_state: str,
        initial_routine: str = Routine.IDLE,
    ):
        if initial_state not in states:
            raise PowerStateError(f"unknown initial state {initial_state!r}")
        if initial_routine not in Routine.ALL:
            raise PowerStateError(f"unknown initial routine {initial_routine!r}")
        self._sim = sim
        self._history = recorder.timeline(component).changes
        self.component = component
        self._states = dict(states)
        self.state = initial_state
        self.routine = initial_routine
        self._history.append(
            (sim.now, initial_state, states[initial_state], initial_routine)
        )

    def set_state(self, state: str, routine: Optional[str] = None) -> None:
        """Enter ``state``; optionally retag the active routine.

        An unknown state or routine raises :class:`PowerStateError` and
        leaves the machine and its timeline as they were.
        """
        try:
            power_w = self._states[state]
        except KeyError:
            raise PowerStateError(
                f"{self.component}: unknown state {state!r}"
            ) from None
        if routine is None:
            routine = self.routine
        elif routine not in Routine.ALL:
            raise PowerStateError(
                f"{self.component}: unknown routine {routine!r}"
            )
        self.state = state
        self.routine = routine
        self._history.append((self._sim._now, state, power_w, routine))
