"""The main-board CPU model (Raspberry Pi 3B class).

The CPU has five power states:

* ``busy``       — executing instructions (5 W)
* ``idle``       — online but not executing; the governor kept it awake
  because the next wake-up is too close for sleeping to pay off (2.5 W)
* ``sleep``      — shallow sleep, 1.6 ms / 4 mJ away from active (1.5 W)
* ``deep_sleep`` — power-gated; only entered when the CPU has no upcoming
  work registered at all, e.g. an idle hub or a fully offloaded app (0.35 W)
* ``transition`` — waking up (2.5 W for 1.6 ms)

The modelled core is a single execution context guarded by a FIFO
:class:`~repro.sim.resources.Resource`; multi-app scenarios contend for it.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from ..calibration import CpuCalibration
from ..energy.ledger import PowerLedger
from ..errors import HardwareError
from ..sim.kernel import Simulator
from ..sim.process import Delay
from ..sim.resources import Resource
from .power import PowerStateMachine


class CpuState:
    """Named CPU power states."""

    BUSY = "busy"
    IDLE = "idle"
    SLEEP = "sleep"
    DEEP_SLEEP = "deep_sleep"
    TRANSITION = "transition"


def state_powers(cal: CpuCalibration) -> Dict[str, float]:
    """Each CPU power state's draw, in watts."""
    return {
        CpuState.BUSY: cal.active_power_w,
        CpuState.IDLE: cal.idle_power_w,
        CpuState.SLEEP: cal.sleep_power_w,
        CpuState.DEEP_SLEEP: cal.deep_sleep_power_w,
        CpuState.TRANSITION: cal.transition_power_w,
    }


def wake_time_s(cal: CpuCalibration, state: str) -> float:
    """Seconds the CPU takes to wake from sleep ``state``.

    Shallow sleep wakes in 1.6 ms at 2.5 W (the paper's 4 mJ); deep
    sleep pays the longer power-gated exit latency.
    """
    if state == CpuState.DEEP_SLEEP:
        return cal.deep_transition_time_s
    return cal.transition_time_s


class Cpu:
    """Power/timing model of the hub's application processor."""

    def __init__(
        self,
        sim: Simulator,
        recorder: PowerLedger,
        cal: CpuCalibration,
        initial_state: str = CpuState.DEEP_SLEEP,
    ):
        self.sim = sim
        self.cal = cal
        self.core = Resource("cpu.core")
        self.psm = PowerStateMachine(
            sim,
            recorder,
            component="cpu",
            states=state_powers(cal),
            initial_state=initial_state,
        )
        self.wake_count = 0
        self.instructions_retired = 0

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def compute_time(self, instructions: float) -> float:
        """Seconds the CPU needs to retire ``instructions``."""
        if instructions < 0:
            raise HardwareError(f"negative instruction count: {instructions}")
        return instructions / (self.cal.mips * 1e6)

    @property
    def asleep(self) -> bool:
        """Whether the CPU is in a sleep state (shallow or deep)."""
        return self.psm.state in (CpuState.SLEEP, CpuState.DEEP_SLEEP)

    # ------------------------------------------------------------------
    # process-facing generators
    # ------------------------------------------------------------------
    def execute(
        self,
        duration: float,
        routine: str,
        instructions: Optional[float] = None,
        after_state: str = CpuState.IDLE,
        after_routine: Optional[str] = None,
    ) -> Generator:
        """Run busy for ``duration`` seconds attributed to ``routine``.

        The caller must already own :attr:`core`.  Afterwards the CPU drops
        to ``after_state`` (idle by default; the governor may then decide to
        sleep).
        """
        if self.asleep:
            raise HardwareError("execute() while asleep; wake() first")
        self.psm.set_state(CpuState.BUSY, routine)
        if instructions is None:
            instructions = duration * self.cal.mips * 1e6
        self.instructions_retired += instructions
        if duration > 0:
            yield Delay(duration)
        self.psm.set_state(after_state, after_routine or routine)

    def wake(self, routine: str) -> Generator:
        """Transition from a sleep state to idle (see :func:`wake_time_s`)."""
        if not self.asleep:
            return
        duration = wake_time_s(self.cal, self.psm.state)
        self.wake_count += 1
        self.psm.set_state(CpuState.TRANSITION, routine)
        yield Delay(duration)
        self.psm.set_state(CpuState.IDLE, routine)
