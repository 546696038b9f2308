"""MCU-board firmware: sensor driver, op runner, offload checks.

This is the software that runs *on the MCU* in the paper's prototype:
the three-task sensor read pipeline (§II-B), the op runner every core
chain goes through (interrupt raises, bus hand-offs, offloaded app
computation) and the COM capability checks (§III-B).  The buffered
schemes' MCU RAM and hand-offs are
:class:`~repro.core.schemes.base.BufferedApp`.
"""

from .capability import OffloadReport, check_offloadable
from .driver import McuOp, read_and_decode, run_ops

__all__ = [
    "McuOp",
    "OffloadReport",
    "check_offloadable",
    "read_and_decode",
    "run_ops",
]
