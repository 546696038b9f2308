"""Hardware models of the IoT hub: CPU, MCU, buses, interrupts, memories.

Each active component but the PIO bus owns a
:class:`~repro.hw.power.PowerStateMachine` that appends every state change
to its timeline in the hub's :class:`~repro.energy.ledger.PowerLedger`;
the bus appends each transfer's interval itself.  Energy is integrated
offline by :func:`repro.energy.ledger.integrate`.
"""

from .power import Routine, PowerStateMachine
from .cpu import Cpu, CpuState
from .mcu import Mcu, McuState
from .bus import PioBus, NetworkInterface
from .interrupt import InterruptController, InterruptRequest
from .memory import MemoryRegion
from .board import IoTHub

__all__ = [
    "Cpu",
    "CpuState",
    "InterruptController",
    "InterruptRequest",
    "IoTHub",
    "Mcu",
    "McuState",
    "MemoryRegion",
    "NetworkInterface",
    "PioBus",
    "PowerStateMachine",
    "Routine",
]
