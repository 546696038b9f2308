"""The hub's two race-to-sleep rules (§III-A), each stated once.

:class:`CpuGovernor` picks the main board's rest state.  The paper's
rule: sleeping only pays off if the idle gap exceeds the break-even time
(wake energy divided by the idle-vs-sleep power delta).  The governor
additionally knows when the CPU has *no* upcoming work at all and may
power-gate into deep sleep (idle hub; fully offloaded apps).
:class:`McuNapRule` lets the MCU board light-sleep between sparse polls.

Both rules only decide.  The event simulation applies a decision as a
power-state transition and the analytic scan as schedule entries, each
from its own view of whether the component is busy or idle, so the two
tiers take identical decisions.

Figure 5 falls out of this logic: in Baseline the 1 ms sample gaps are
below break-even, so the CPU never sleeps; in Batching the gap is the
whole sensing window, so it does.
"""

from __future__ import annotations

import bisect
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from ..calibration import CpuCalibration, McuCalibration
from ..hw.cpu import CpuState
from ..hw.power import Routine


class CpuRestPolicy:
    """Schedule knowledge: when will the CPU next have work to do?

    ``work_times`` is the sorted list of future instants at which the CPU
    is expected to be needed (interrupt arrivals, window computations).
    """

    def __init__(self, work_times: Sequence[float]):
        self.work_times: List[float] = sorted(work_times)

    def next_work_after(self, now: float) -> Optional[float]:
        """Earliest scheduled CPU work strictly after ``now``."""
        index = bisect.bisect_right(self.work_times, now + 1e-12)
        if index >= len(self.work_times):
            return None
        return self.work_times[index]

    def expected_idle(self, now: float) -> Optional[float]:
        """Seconds until the next CPU work, or ``None`` when exhausted."""
        upcoming = self.next_work_after(now)
        if upcoming is None:
            return None
        return max(0.0, upcoming - now)


def _break_even_s(cal: CpuCalibration) -> float:
    """Minimum gap for which a shallow sleep saves energy.

    The paper computes 4 mJ / (5 W - 1.5 W) = 1.14 ms against the active
    power; against the awake-idle power the gap is larger.  We use the
    conservative awake-idle form (the state the core would otherwise
    rest in).
    """
    delta = cal.idle_power_w - cal.sleep_power_w
    if delta <= 0:
        return float("inf")
    return cal.wake_energy_j / delta


def _deep_break_even_s(cal: CpuCalibration) -> float:
    """Minimum gap for which deep sleep beats shallow sleep."""
    delta = cal.sleep_power_w - cal.deep_sleep_power_w
    if delta <= 0:
        return float("inf")
    deep_wake_energy = cal.transition_power_w * cal.deep_transition_time_s
    return deep_wake_energy / delta


class CpuGovernor:
    """Chooses the rest state of an idle CPU between bursts of work.

    ``work_times`` are the instants the plan expects CPU work (see
    :class:`CpuRestPolicy`); ``None`` means an ungoverned plan, whose
    CPU stays awake once up (the paper's baseline "is in active mode all
    the time", Fig. 5a).  ``routine`` is what the rest is charged to and
    ``allow_deep`` whether the CPU may power-gate.
    """

    def __init__(
        self,
        cal: CpuCalibration,
        work_times: Optional[Sequence[float]],
        routine: str = Routine.DATA_TRANSFER,
        allow_deep: bool = False,
    ):
        self.policy = None if work_times is None else CpuRestPolicy(work_times)
        self.routine = routine
        self.allow_deep = allow_deep
        #: Minimum gap for which a shallow sleep saves energy, and for
        #: which a deep one does.
        self.break_even_s = _break_even_s(cal)
        self.deep_break_even_s = max(self.break_even_s, _deep_break_even_s(cal))

    def rest(self, now: float) -> Tuple[str, str]:
        """The ``(CpuState, routine)`` the idle CPU rests in at ``now``.

        Ungoverned, the CPU stays awake: it starts idle and only a
        governed plan ever puts it to sleep.  Governed, with no work
        left the CPU power-gates (charged to the idle routine) when
        ``allow_deep``, else it sleeps shallowly; otherwise it sleeps
        only past the break-even gap, deeply only past the deep-sleep
        break-even too, and stays awake below it.
        """
        policy = self.policy
        if policy is None:
            return CpuState.IDLE, self.routine
        expected_idle_s = policy.expected_idle(now)
        if expected_idle_s is None:
            if self.allow_deep:
                return CpuState.DEEP_SLEEP, Routine.IDLE
            return CpuState.SLEEP, self.routine
        if self.allow_deep and expected_idle_s > self.deep_break_even_s:
            return CpuState.DEEP_SLEEP, self.routine
        if expected_idle_s > self.break_even_s:
            return CpuState.SLEEP, self.routine
        return CpuState.IDLE, self.routine


class McuNapRule:
    """When the MCU board may light-sleep between its streams' polls.

    ``next_polls`` holds each polling stream's next scheduled poll.  A
    stream enters it the first time it waits and leaves it once it has
    polled its last sample; a stream busy in a chain keeps its passed
    target, which blocks every nap until it waits again.
    """

    def __init__(self, cal: McuCalibration):
        self.threshold_s = cal.sleep_threshold_s
        self.next_polls: Dict[Hashable, float] = {}

    def wait(
        self, stream: Hashable, target: float, now: float, idle: bool
    ) -> Optional[float]:
        """``stream`` waits from ``now`` for its poll at ``target``.

        Returns the instant the MCU, ``idle`` now, wakes from the nap it
        takes, the earliest next poll; ``None`` when it stays up.
        """
        next_polls = self.next_polls
        next_polls[stream] = target
        if not idle:
            return None
        upcoming = min(next_polls.values())
        if upcoming - now > self.threshold_s:
            return upcoming
        return None

    def finish(self, stream: Hashable) -> None:
        """``stream`` has polled its last sample: it no longer waits."""
        self.next_polls.pop(stream, None)
