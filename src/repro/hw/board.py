"""Assembly of a complete IoT hub: boards, interconnect, constant loads."""

from __future__ import annotations

from typing import Dict, Optional

from ..calibration import Calibration, default_calibration
from ..energy.ledger import PowerLedger
from ..obs.recorder import NullRecorder
from ..sim.kernel import Simulator
from .bus import NetworkInterface, PioBus
from .cpu import Cpu, CpuState
from .interrupt import InterruptController
from .mcu import Mcu, McuState
from .power import PowerStateMachine, Routine


class IoTHub:
    """A Raspberry-Pi-plus-ESP8266 style hub, ready for a scenario to drive.

    The hub wires together:

    * ``cpu``   — the main board's application processor,
    * ``mcu``   — the auxiliary micro-controller (with its 80 KB RAM),
    * ``bus``   — the PIO link between them,
    * ``irq``   — the MCU->CPU interrupt controller,
    * ``nic``   — the uplink used to publish app results,
    * two constant-draw components for board overheads.

    Sensors are attached by :class:`repro.sensors.base.SensorDevice`, which
    registers its own power component here via :meth:`add_component`.
    """

    def __init__(
        self,
        calibration: Optional[Calibration] = None,
        cpu_initial_state: str = CpuState.DEEP_SLEEP,
        mcu_initial_state: str = McuState.SLEEP,
        obs: Optional[NullRecorder] = None,
    ):
        self.calibration = calibration or default_calibration()
        self.sim = Simulator(obs=obs)
        self.recorder = PowerLedger()
        self.cpu = Cpu(
            self.sim, self.recorder, self.calibration.cpu, cpu_initial_state
        )
        self.mcu = Mcu(
            self.sim, self.recorder, self.calibration.mcu, mcu_initial_state
        )
        self.bus = PioBus(self.sim, self.recorder, self.calibration.bus)
        self.irq = InterruptController(self.sim)
        self.nic = NetworkInterface(self.sim, self.recorder, self.calibration.board)
        self._extra_components: Dict[str, PowerStateMachine] = {}
        # Constant board overheads, always on, attributed to IDLE.
        self._board_load = PowerStateMachine(
            self.sim,
            self.recorder,
            component="board",
            states={"on": self.calibration.board.overhead_power_w},
            initial_state="on",
        )
        self._mcu_board_load = PowerStateMachine(
            self.sim,
            self.recorder,
            component="mcu_board",
            states={"on": self.calibration.board.mcu_overhead_power_w},
            initial_state="on",
        )

    def add_component(
        self,
        name: str,
        states: Dict[str, float],
        initial_state: str,
        initial_routine: str = Routine.IDLE,
    ) -> PowerStateMachine:
        """Register an extra powered component (sensors use this)."""
        psm = PowerStateMachine(
            self.sim,
            self.recorder,
            component=name,
            states=states,
            initial_state=initial_state,
            initial_routine=initial_routine,
        )
        self._extra_components[name] = psm
        return psm

    def component(self, name: str) -> PowerStateMachine:
        """Look up an extra component by name."""
        return self._extra_components[name]

    @property
    def obs(self) -> NullRecorder:
        """The instrumentation recorder shared with the kernel."""
        return self.sim.obs

    @property
    def idle_power_w(self) -> float:
        """Whole-hub draw when everything sleeps (Figure 1 'Idle' bar)."""
        return self.calibration.idle_hub_power_w

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation; returns the final virtual time."""
        return self.sim.run(until=until)
