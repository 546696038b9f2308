"""The MCU-board model (ESP8266 class).

The MCU core is serial (one instruction stream) and guarded by a FIFO
resource.  Raw sensor acquisition runs on the sensors' own rails through the
MCU board's I/O controller and does not occupy the core; only the driver's
decode/format step and offloaded app computation do.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..calibration import McuCalibration
from ..energy.ledger import PowerLedger
from ..errors import HardwareError
from ..sim.kernel import Simulator
from ..sim.process import Delay
from ..sim.resources import Resource
from .memory import MemoryRegion
from .power import PowerStateMachine


class McuState:
    """Named MCU power states."""

    BUSY = "busy"
    IDLE = "idle"
    SLEEP = "sleep"


class Mcu:
    """Power/timing model of the auxiliary micro-controller."""

    def __init__(
        self,
        sim: Simulator,
        recorder: PowerLedger,
        cal: McuCalibration,
        initial_state: str = McuState.SLEEP,
    ):
        self.sim = sim
        self.cal = cal
        self.core = Resource("mcu.core")
        self.ram = MemoryRegion("mcu.ram", cal.ram_bytes)
        self.psm = PowerStateMachine(
            sim,
            recorder,
            component="mcu",
            states={
                McuState.BUSY: cal.active_power_w,
                McuState.IDLE: cal.idle_power_w,
                McuState.SLEEP: cal.sleep_power_w,
            },
            initial_state=initial_state,
        )
        self.instructions_retired = 0

    def compute_time(self, instructions: float) -> float:
        """Seconds the MCU needs to retire ``instructions``."""
        if instructions < 0:
            raise HardwareError(f"negative instruction count: {instructions}")
        return instructions / (self.cal.mips * 1e6)

    def execute(
        self,
        duration: float,
        routine: str,
        instructions: Optional[float] = None,
        after_state: str = McuState.IDLE,
        after_routine: Optional[str] = None,
    ) -> Generator:
        """Run the MCU core busy for ``duration`` seconds.

        Caller must own :attr:`core`.  Ends in ``after_state``.
        """
        self.psm.set_state(McuState.BUSY, routine)
        if instructions is None:
            instructions = duration * self.cal.mips * 1e6
        self.instructions_retired += instructions
        if duration > 0:
            yield Delay(duration)
        self.psm.set_state(after_state, after_routine or routine)

    def set_idle(self, routine: str) -> None:
        """MCU awake between polls, attributed to ``routine``."""
        self.psm.set_state(McuState.IDLE, routine)

    def enter_sleep(self, routine: str) -> None:
        """MCU deep sleep (no sensing scheduled)."""
        self.psm.set_state(McuState.SLEEP, routine)
