"""MCU-board firmware: sensor driver, op runner, batching buffers.

This is the software that runs *on the MCU* in the paper's prototype:
the three-task sensor read pipeline (§II-B) and the op runner every
core chain goes through (interrupt raises, bus hand-offs, offloaded app
computation), the Batching buffer manager (§III-A) and the COM
capability checks (§III-B).
"""

from .batching import BatchBuffer
from .capability import OffloadReport, check_offloadable
from .driver import McuOp, read_and_decode, run_ops

__all__ = [
    "BatchBuffer",
    "McuOp",
    "OffloadReport",
    "check_offloadable",
    "read_and_decode",
    "run_ops",
]
