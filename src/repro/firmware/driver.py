"""The MCU-side sensor driver and op runner: §II-B's read pipeline.

Task I (availability check) and Task II (register read) occupy the sensor
rail for the spec's read time; Task III (raw-data -> information decode)
runs on the MCU core for the calibrated decode time.  Every core
operation — the decode, interrupt raises, bus hand-offs, offloaded app
computation — is an :class:`McuOp` record: :func:`run_ops` executes a
chain of them in the event simulation, and the analytic tier scans the
same records.
"""

from __future__ import annotations

from typing import Generator, NamedTuple, Optional, Sequence, Tuple

from ..calibration import Calibration, McuCalibration
from ..hw.board import IoTHub
from ..hw.mcu import McuState
from ..hw.power import Routine
from ..sensors.base import SensorDevice


class McuOp(NamedTuple):
    """One MCU-core operation of a chain.

    The core is busy for ``duration`` under ``routine`` and then idles
    under ``after_routine`` (default: ``routine``).  ``vector``, if set,
    is the interrupt raised toward the CPU when the op ends;
    ``instructions`` overrides the retired-instruction count otherwise
    derived from the duration; ``span`` is the (category, name) the op
    is traced under.
    """

    duration: float
    routine: str
    after_routine: Optional[str] = None
    vector: Optional[str] = None
    instructions: Optional[float] = None
    span: Optional[Tuple[str, str]] = None


def decode_op(cal: Calibration) -> McuOp:
    """Task III: the core decode that follows every rail read."""
    return McuOp(cal.mcu.decode_time_per_sample_s, Routine.DATA_COLLECTION)


def mcu_transfer_time(cal: McuCalibration, sample_count: int, bulk: bool) -> float:
    """MCU-side busy time for putting ``sample_count`` samples on the bus.

    Per-sample handshakes dominate in baseline; batched transfers amortize
    them (the MCU streams from its buffer).
    """
    per_sample = cal.transfer_time_per_sample_s
    if bulk:
        per_sample = per_sample / 4.0
    return per_sample * sample_count


def run_ops(hub: IoTHub, ops: Sequence[McuOp], payload) -> Generator:
    """Generator: run an op chain on the MCU core.

    Each op is granted the core FIFO, runs busy and releases it; an op
    with a ``vector`` then raises that interrupt carrying ``payload``.
    """
    # Locals and a header unpack: this runs for every sample.
    mcu = hub.mcu
    core = mcu.core
    sim = hub.sim
    obs = sim.obs
    observing = obs.enabled
    idle = McuState.IDLE
    for duration, routine, after_routine, vector, instructions, span in ops:
        if observing:
            t0 = sim.now
        yield from core.acquire()
        yield from mcu.execute(duration, routine, instructions, idle, after_routine)
        core.release()
        if vector is not None:
            hub.irq.raise_irq("mcu", vector, payload)
        if observing and span is not None:
            obs.span(span[0], span[1], t0, sim.now)


def read_and_decode(hub: IoTHub, device: SensorDevice) -> Generator:
    """Generator: acquire one decoded sample from ``device``.

    Returns the :class:`SensorSample`.  The rail read and the core decode
    are both attributed to the data-collection routine.
    """
    sample = yield from device.acquire(Routine.DATA_COLLECTION)
    # The one-op chain inline: this runs for every sample, and the
    # decode raises nothing and records no span.
    decode = decode_op(hub.calibration)
    mcu = hub.mcu
    yield from mcu.core.acquire()
    yield from mcu.execute(decode.duration, decode.routine)
    mcu.core.release()
    return sample
