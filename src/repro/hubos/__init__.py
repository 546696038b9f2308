"""Main-board system software: the CPU and MCU sleep rules, IRQ service,
transfers, and the oprofile-style app characterizer."""

from .governor import CpuGovernor, CpuRestPolicy, McuNapRule
from .interrupts import service_interrupt
from .profiler import CharacterizationRow, characterize_app, characterize_apps
from .transfer import cpu_transfer

__all__ = [
    "CharacterizationRow",
    "CpuGovernor",
    "CpuRestPolicy",
    "McuNapRule",
    "characterize_app",
    "characterize_apps",
    "cpu_transfer",
    "service_interrupt",
]
