"""The MCU-side sensor driver: §II-B's three-task read pipeline.

Task I (availability check) and Task II (register read) occupy the sensor
rail for the spec's read time; Task III (raw-data -> information decode)
runs on the MCU core for the calibrated decode time.
"""

from __future__ import annotations

from typing import Generator

from ..hw.board import IoTHub
from ..hw.mcu import McuState
from ..hw.power import Routine
from ..sensors.base import SensorDevice


def read_and_decode(
    hub: IoTHub,
    device: SensorDevice,
    idle_routine: str = Routine.DATA_COLLECTION,
) -> Generator:
    """Generator: acquire one decoded sample from ``device``.

    Returns the :class:`SensorSample`.  The rail read and the core decode
    are both attributed to the data-collection routine.
    """
    sample = yield from device.acquire(Routine.DATA_COLLECTION)
    yield from hub.mcu.core.acquire()
    yield from hub.mcu.execute(
        hub.calibration.mcu.decode_time_per_sample_s,
        Routine.DATA_COLLECTION,
        after_state=McuState.IDLE,
        after_routine=idle_routine,
    )
    hub.mcu.core.release()
    return sample


def raise_interrupt(hub: IoTHub, vector: str, payload) -> Generator:
    """Generator: MCU raises one interrupt toward the main board."""
    yield from hub.mcu.core.acquire()
    yield from hub.mcu.execute(
        hub.calibration.mcu.interrupt_raise_time_s, Routine.INTERRUPT
    )
    hub.mcu.core.release()
    hub.irq.raise_irq("mcu", vector, payload)


def mcu_transfer_busy(hub: IoTHub, sample_count: int, bulk: bool) -> Generator:
    """Generator: MCU-side busy time for putting data on the PIO bus.

    Per-sample handshakes dominate in baseline; batched transfers amortize
    them (the MCU streams from its buffer).
    """
    per_sample = hub.calibration.mcu.transfer_time_per_sample_s
    if bulk:
        per_sample = per_sample / 4.0
    duration = per_sample * sample_count
    yield from hub.mcu.core.acquire()
    # After its side of the handshake the MCU waits for the CPU to drain
    # the PIO bus; that wait belongs to the transfer routine (Fig. 4).
    yield from hub.mcu.execute(
        duration, Routine.DATA_TRANSFER, after_routine=Routine.DATA_TRANSFER
    )
    hub.mcu.core.release()
