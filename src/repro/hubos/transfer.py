"""CPU-side data transfer: picking sensor values off the PIO bus (§II-B).

Per-interrupt transfers pay the full setup each time; batched transfers
amortize it into a copy loop while the bus streams the payload.
"""

from __future__ import annotations

from typing import Generator

from ..calibration import Calibration
from ..hw.board import IoTHub
from ..hw.bus import wire_time
from ..hw.power import Routine


def cpu_transfer_time(
    cal: Calibration, nbytes: int, sample_count: int, bulk: bool
) -> float:
    """CPU busy time for moving ``sample_count`` samples (``nbytes``).

    The CPU pays a per-sample driver overhead (full for per-interrupt
    transfers, amortized for batched ones) *plus* the wire time: with no
    DMA it polls the PIO controller while the payload streams in (the
    paper's future-work observation — §IV-F).
    """
    if bulk:
        per_sample = cal.cpu.bulk_transfer_time_per_sample_s
    else:
        per_sample = cal.cpu.transfer_time_per_sample_s
    return per_sample * sample_count + wire_time(cal.bus, max(1, nbytes))


def cpu_transfer(
    hub: IoTHub, nbytes: int, sample_count: int, bulk: bool
) -> Generator:
    """Generator: the CPU side of one transfer (:func:`cpu_transfer_time`).

    The bus is active concurrently for the wire time, which the CPU's
    busy time includes, so holding the core keeps transfers from
    overlapping on the bus; its draw is the cheap 10% of Figure 4.
    """
    duration = cpu_transfer_time(hub.calibration, nbytes, sample_count, bulk)
    if hub.cpu.asleep:
        yield from hub.cpu.wake(Routine.DATA_TRANSFER)
    yield from hub.cpu.core.acquire()
    hub.bus.transfer(max(1, nbytes), Routine.DATA_TRANSFER)
    yield from hub.cpu.execute(duration, Routine.DATA_TRANSFER)
    hub.cpu.core.release()
