"""The race-to-sleep governor (§III-A).

The paper's rule: sleeping only pays off if the idle gap exceeds the
break-even time (wake energy divided by the idle-vs-sleep power delta).
The governor additionally knows when the CPU has *no* upcoming work at
all and may power-gate into deep sleep (idle hub; fully offloaded apps).

Figure 5 falls out of this logic: in Baseline the 1 ms sample gaps are
below break-even, so the CPU never sleeps; in Batching the gap is the
whole sensing window, so it does.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from ..calibration import CpuCalibration
from ..hw.cpu import Cpu, CpuState
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


def rest_state(
    cal: CpuCalibration,
    expected_idle_s: Optional[float],
    wait_routine: str,
    allow_deep: bool,
) -> Tuple[str, str]:
    """The best rest state for an idle CPU: ``(CpuState, routine)``.

    ``expected_idle_s`` of ``None`` means no work is scheduled at all:
    the CPU power-gates (charged to the idle routine) when ``allow_deep``,
    else it sleeps shallowly.  Otherwise it sleeps only past the
    break-even gap, deeply only past the deep-sleep break-even too, and
    stays awake below it.  Pure, so the event simulation and the
    analytic tier take identical decisions.
    """
    if expected_idle_s is None:
        if allow_deep:
            return CpuState.DEEP_SLEEP, Routine.IDLE
        return CpuState.SLEEP, wait_routine
    break_even = _break_even_s(cal)
    if allow_deep and expected_idle_s > max(
        break_even, _deep_break_even_s(cal)
    ):
        return CpuState.DEEP_SLEEP, wait_routine
    if expected_idle_s > break_even:
        return CpuState.SLEEP, wait_routine
    return CpuState.IDLE, wait_routine


class SleepGovernor:
    """Chooses the CPU's rest state between bursts of work."""

    def __init__(self, cpu: Cpu):
        self.cpu = cpu
        self.sleep_decisions = 0
        self.deep_decisions = 0
        self.stay_awake_decisions = 0

    @property
    def break_even_s(self) -> float:
        """Minimum gap for which a shallow sleep saves energy."""
        return _break_even_s(self.cpu.cal)

    def rest(
        self,
        expected_idle_s: Optional[float],
        wait_routine: str = Routine.DATA_TRANSFER,
        allow_deep: bool = False,
    ) -> None:
        """Put the CPU in the best rest state for the expected gap.

        ``expected_idle_s`` of ``None`` means no work is scheduled at all.
        The decision is instantaneous (entering sleep is free; the cost is
        paid on wake, per the calibration).
        """
        if self.cpu.psm.state == "busy":
            return
        state, routine = rest_state(
            self.cpu.cal, expected_idle_s, wait_routine, allow_deep
        )
        if state == CpuState.IDLE:
            self.stay_awake_decisions += 1
            self.cpu.set_idle(routine)
        elif state == CpuState.DEEP_SLEEP:
            self.deep_decisions += 1
            self.cpu.enter_sleep(deep=True, routine=routine)
        else:
            self.sleep_decisions += 1
            self.cpu.enter_sleep(deep=False, routine=routine)
