"""PIO bus and network-interface models.

The PIO bus is the physical MCU<->main-board link (a UART in the paper's
prototype).  Figure 4's point is that the *physical* transfer is cheap
(10% of data-transfer energy); the expensive part is the CPU and MCU being
awake around it, which the CPU/MCU models capture.
"""

from __future__ import annotations

from typing import Generator

from ..calibration import BoardCalibration, BusCalibration
from ..energy.ledger import PowerLedger
from ..errors import BusError, PowerStateError
from ..sim.kernel import Simulator
from ..sim.process import Delay
from ..sim.resources import Resource
from .power import PowerStateMachine, Routine


def wire_time(cal: BusCalibration, nbytes: int) -> float:
    """Wire time for one PIO transfer of ``nbytes`` (setup + payload)."""
    return cal.setup_time_s + nbytes / cal.bandwidth_bytes_per_s


class PioBus:
    """Bandwidth-limited link between the MCU and the CPU.

    A transfer is one ``active`` interval on the bus's ledger timeline,
    the same pair of changes the analytic tier's
    :meth:`~repro.core.analytic.context.AnalyticRun.bus_transfer`
    writes.  The bus runs no process and holds no lock: its one caller,
    :func:`~repro.hubos.transfer.cpu_transfer`, holds the CPU core for
    at least the wire time, so transfers never overlap, and
    :meth:`transfer` raises :class:`BusError` if one would.
    """

    IDLE = "idle"
    ACTIVE = "active"

    def __init__(
        self,
        sim: Simulator,
        recorder: PowerLedger,
        cal: BusCalibration,
        name: str = "pio_bus",
    ):
        self.sim = sim
        self.cal = cal
        self._history = recorder.timeline(name).changes
        self._history.append((sim.now, self.IDLE, 0.0, Routine.IDLE))
        self.bytes_transferred = 0
        self.transfer_count = 0

    def transfer_duration(self, nbytes: int) -> float:
        """Wire time for one transfer of ``nbytes``."""
        if nbytes <= 0:
            raise BusError(f"transfer of {nbytes} bytes")
        return wire_time(self.cal, nbytes)

    def transfer(self, nbytes: int, routine: str = Routine.DATA_TRANSFER) -> float:
        """Record one transfer of ``nbytes`` starting now; returns its end.

        Raises :class:`BusError` for a non-positive size or when the
        previous transfer has not ended yet, and :class:`PowerStateError`
        for an unknown routine; a rejected transfer leaves the timeline
        and counters as they were.
        """
        duration = self.transfer_duration(nbytes)
        if routine not in Routine.ALL:
            raise PowerStateError(f"pio bus: unknown routine {routine!r}")
        history = self._history
        start = self.sim._now
        # The last change is the end of the previous transfer (or the
        # initial idle entry): only this method appends here.
        busy_until = history[-1][0]
        if start < busy_until:
            raise BusError(
                f"transfer at t={start!r} overlaps the one ending at "
                f"t={busy_until!r}"
            )
        end = start + duration
        history.append((start, self.ACTIVE, self.cal.active_power_w, routine))
        history.append((end, self.IDLE, 0.0, Routine.IDLE))
        self.bytes_transferred += nbytes
        self.transfer_count += 1
        return end


class NetworkInterface:
    """Uplink (WiFi/Ethernet) used by apps to publish their results."""

    IDLE = "idle"
    TX = "tx"

    def __init__(
        self,
        sim: Simulator,
        recorder: PowerLedger,
        cal: BoardCalibration,
        name: str = "nic",
    ):
        self.sim = sim
        self.cal = cal
        self.lock = Resource(name)
        self.psm = PowerStateMachine(
            sim,
            recorder,
            component=name,
            states={self.IDLE: 0.0, self.TX: cal.nic_tx_power_w},
            initial_state=self.IDLE,
        )
        self.bytes_sent = 0
        self.messages_sent = 0

    def tx_duration(self, nbytes: int) -> float:
        """Air time for ``nbytes`` of uplink payload."""
        if nbytes <= 0:
            raise BusError(f"tx of {nbytes} bytes")
        return nbytes / self.cal.nic_bandwidth_bytes_per_s

    def send(self, nbytes: int, routine: str = Routine.APP_COMPUTE) -> Generator:
        """Generator: transmit ``nbytes`` upstream."""
        duration = self.tx_duration(nbytes)
        yield from self.lock.acquire()
        self.psm.set_state(self.TX, routine)
        yield Delay(duration)
        self.bytes_sent += nbytes
        self.messages_sent += 1
        self.psm.set_state(self.IDLE, Routine.IDLE)
        self.lock.release()
