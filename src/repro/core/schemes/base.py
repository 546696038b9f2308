"""Scheme-plugin protocol and the shared execution plumbing.

A scheme is a small class: a :class:`SchemeExecutor` subclass whose
``plan`` returns a :class:`SchemePlan` — which family of wiring it uses,
whether streams are shared, which apps compute on the MCU.  That one
declaration is all a scheme states; both tiers interpret it.  Every
chain is stated once, on the plan: the MCU's op chains
(:meth:`SchemePlan.sample_ops`, :meth:`SchemePlan.handoff_ops`), each
interrupt vector's CPU service (:data:`CPU_SERVICES`) and each app's
window compute (:meth:`SchemePlan.window_compute`); both tiers keep a
buffered app's MCU RAM and hand-offs in one :class:`BufferedApp` and
their results in one :class:`ResultLog`.  The
discrete-event simulation wires the plan through :func:`build_context`
(one :func:`wire` over the primitives :class:`SchemeContext` owns — the
hub, the sensor devices, the one poll loop, window bookkeeping, the
interrupt dispatcher and the CPU compute loop), and the closed-form tier
in :mod:`repro.core.analytic` scans it.  Both tiers hold the plan's
:class:`~repro.hubos.governor.CpuGovernor` and one
:class:`~repro.hubos.governor.McuNapRule`, and only apply their
decisions.

:func:`execute_scenario` is the single entry point: look the scheme up
in the registry, build a fresh context, run the discrete-event
simulation to completion and integrate the energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import ClassVar, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ...apps.base import AppResult, IoTApp, SampleWindow
from ...energy.ledger import integrate
from ...energy.meter import EnergyReport
from ...errors import CapacityError, WorkloadError
from ...firmware.capability import OffloadReport
from ...firmware.driver import (
    McuOp,
    mcu_transfer_time,
    read_and_decode,
    run_ops,
)
from ...hubos.governor import CpuGovernor, McuNapRule
from ...hubos.interrupts import service_interrupt
from ...hubos.polling import cpu_blocking_read
from ...hubos.transfer import cpu_transfer
from ...hw.board import IoTHub
from ...hw.cpu import CpuState
from ...hw.mcu import McuState
from ...hw.memory import MemoryRegion
from ...hw.power import Routine
from ...obs.recorder import NullRecorder
from ...sensors.base import SensorDevice
from ...sim.process import Delay, Signal, Wait
from ...units import to_ms
from ..results import RunResult
from .registry import get_scheme


@dataclass
class Stream:
    """One MCU polling stream: a sensor feeding one or more apps.

    Under BEAM, subscribers with slower QoS rates receive a decimated
    view of the shared stream: ``strides[app]`` is how many raw samples
    separate two deliveries to that app.
    """

    sensor_id: str
    subscribers: List[IoTApp]
    rate_hz: float
    window_s: float
    samples_per_window: int
    sample_bytes: int
    strides: Dict[str, int] = field(default_factory=dict)

    def stride(self, app: IoTApp) -> int:
        """Delivery stride for one subscriber (1 = every sample)."""
        return self.strides.get(app.name, 1)

    @property
    def key(self) -> str:
        """Stable stream label: ``<sensor>@<app>[+<app>...]``."""
        apps = "+".join(app.name for app in self.subscribers)
        return f"{self.sensor_id}@{apps}"


@dataclass
class WindowState:
    """Collection progress of one (app, window).

    ``complete`` means every expected sample has been *collected*;
    ``delivered`` means the CPU has received the data (post-transfer) and
    the window computation may start.
    """

    window: SampleWindow
    expected: Dict[str, int]
    signal: Signal
    complete: bool = False
    delivered: bool = False

    def register(self, sample) -> bool:
        """Add a sample; returns True when the window just completed."""
        self.window.add(sample)
        if self.complete:
            return False
        for sensor_id, needed in self.expected.items():
            if self.window.count(sensor_id) < needed:
                return False
        self.complete = True
        return True

    def deliver(self) -> None:
        """Mark the window CPU-visible and wake its compute process."""
        self.delivered = True
        self.signal.fire(self.window.window_index)


def qos_violation(app: IoTApp, window_index: int, t: float) -> Optional[str]:
    """The QoS violation of a result delivered at ``t``, or ``None``.

    Heavy apps are soft real-time (converting 1 s of audio takes longer
    than 1 s) and have no deadline; light apps must deliver within one
    extra window.  Both tiers record results through this rule.
    """
    if app.profile.heavy:
        return None
    deadline = window_index * app.profile.window_s + 2.0 * app.profile.window_s
    if t <= deadline + 1e-9:
        return None
    return (
        f"{app.name} window {window_index}: result at {to_ms(t):.1f} ms, "
        f"deadline {to_ms(deadline):.1f} ms"
    )


class ResultLog:
    """Each app's window results and their delivery times, plus the QoS
    violations: what both tiers record and how they report it."""

    def __init__(self, apps: Sequence[IoTApp]):
        self.app_results: Dict[str, List[AppResult]] = {a.name: [] for a in apps}
        self.result_times: Dict[str, List[float]] = {a.name: [] for a in apps}
        self.qos_violations: List[str] = []

    def record(self, app: IoTApp, result: AppResult, t: float) -> Optional[str]:
        """Log ``app``'s result delivered at ``t``; check its deadline.
        Returns the QoS violation it logged, if any."""
        self.app_results[app.name].append(result)
        self.result_times[app.name].append(t)
        violation = qos_violation(app, result.window_index, t)
        if violation is not None:
            self.qos_violations.append(violation)
        return violation

    def run_result(
        self, scenario, plan: SchemePlan, energy, busy, end_time, **counters
    ) -> RunResult:
        """The :class:`RunResult` of the integrated ``energy`` and ``busy``
        times; ``counters`` are the tier's own fields (interrupts, wakes,
        bus bytes, ``hub``, ``fidelity``).  An app short of a result per
        window raises :class:`~repro.errors.WorkloadError`."""
        missing = [
            app.name
            for app in scenario.apps
            if len(self.app_results[app.name]) != scenario.windows
        ]
        if missing:
            raise WorkloadError(
                f"scenario {scenario.name}: apps without complete "
                f"results: {missing}"
            )
        return RunResult(
            scenario_name=scenario.name,
            scheme=scenario.scheme,
            app_ids=[app.table2_id for app in scenario.apps],
            windows=scenario.windows,
            duration_s=end_time,
            energy=EnergyReport(
                duration_s=end_time,
                idle_floor_power_w=scenario.calibration.idle_hub_power_w,
                by_component_routine=energy,
            ),
            busy_times=busy,
            app_results=dict(self.app_results),
            result_times=dict(self.result_times),
            qos_violations=list(self.qos_violations),
            offload_reports=dict(plan.offload_reports),
            **counters,
        )


def build_streams(apps: Sequence[IoTApp], shared: bool) -> List[Stream]:
    """Build polling streams for ``apps``: per-app or shared-per-sensor.

    Pure function of the app profiles — no hub, no simulator — so the
    DES wiring and the closed-form analytic tier
    (:mod:`repro.core.analytic`) derive their schedules from the exact
    same stream set.  Raises
    :class:`~repro.errors.WorkloadError` for BEAM-unshareable sensors
    (mixed window lengths, non-dividing rates).
    """
    if not shared:
        return [
            Stream(
                sensor_id=sensor_id,
                subscribers=[app],
                rate_hz=app.profile.rate_hz(sensor_id),
                window_s=app.profile.window_s,
                samples_per_window=app.profile.samples_per_window(sensor_id),
                sample_bytes=app.profile.sample_bytes(sensor_id),
            )
            for app in apps
            for sensor_id in app.profile.sensor_ids
        ]
    by_sensor: Dict[str, List[IoTApp]] = {}
    for app in apps:
        for sensor_id in app.profile.sensor_ids:
            by_sensor.setdefault(sensor_id, []).append(app)
    streams = []
    for sensor_id, subscribers in by_sensor.items():
        windows = {app.profile.window_s for app in subscribers}
        if len(windows) > 1:
            raise WorkloadError(
                f"BEAM cannot share {sensor_id}: subscribers disagree "
                f"on window length"
            )
        # Poll at the fastest subscriber's rate; slower subscribers
        # get a decimated view (their rate must divide the fastest).
        fastest = max(app.profile.rate_hz(sensor_id) for app in subscribers)
        strides: Dict[str, int] = {}
        for app in subscribers:
            ratio = fastest / app.profile.rate_hz(sensor_id)
            stride = int(round(ratio))
            if abs(ratio - stride) > 1e-9 or stride < 1:
                raise WorkloadError(
                    f"BEAM cannot share {sensor_id}: {app.name}'s rate "
                    f"does not divide the fastest subscriber's"
                )
            strides[app.name] = stride
        reference = max(
            subscribers, key=lambda app: app.profile.rate_hz(sensor_id)
        )
        streams.append(
            Stream(
                sensor_id=sensor_id,
                subscribers=list(subscribers),
                rate_hz=fastest,
                window_s=reference.profile.window_s,
                samples_per_window=reference.profile.samples_per_window(
                    sensor_id
                ),
                sample_bytes=max(
                    app.profile.sample_bytes(sensor_id) for app in subscribers
                ),
                strides=strides,
            )
        )
    return streams


class Handoff(NamedTuple):
    """What one hand-off carries to the CPU: everything its service needs.

    ``nbytes`` in ``samples`` samples cross the PIO bus for ``owner``'s
    ``window``: the :class:`Stream` a sample feeds (``index`` is its
    index in the window), or the app whose window or result it is.
    ``data`` is the sample or the result (the analytic tier carries
    none); a partial batch is not ``final`` and completes no window.
    """

    nbytes: int
    samples: int
    owner: object
    window: int
    index: int = 0
    data: object = None
    final: bool = True


#: A hand-off's MCU ops and the :class:`Handoff` its interrupt carries.
HandoffChain = Tuple[Tuple[McuOp, ...], Handoff]


class CpuService(NamedTuple):
    """The CPU's service of one interrupt vector (§II-B): interrupt
    processing, the transfer of the hand-off's bytes (``bulk`` or per
    sample), then the ``completion``: ``"deliver_sample"`` to the
    subscribers, ``"deliver_window"`` to the compute loop, or
    ``"publish"`` the result upstream."""

    bulk: bool
    completion: str
    service_span: Tuple[str, str]
    transfer_span: Tuple[str, str]


#: Each interrupt vector's CPU service, run by both tiers.
CPU_SERVICES: Dict[str, CpuService] = {
    vector: CpuService(
        bulk, completion, ("irq", f"service:{vector}"),
        ("transfer", f"cpu:{vector}"),
    )
    for vector, bulk, completion in (
        ("sample", False, "deliver_sample"),
        ("batch", True, "deliver_window"),
        ("result", False, "publish"),
    )
}


class WindowCompute(NamedTuple):
    """One window's chain on the CPU: wake if asleep, compute (busy
    ``duration``, retiring ``instructions``, traced as ``span``), record
    the result, publish ``output_bytes`` on the NIC, then rest."""

    duration: float
    instructions: float
    output_bytes: int
    span: Tuple[str, str]


@dataclass
class SchemePlan:
    """A scheme's whole declaration: what it decides, not how to wire it.

    The paper's schemes differ in three decisions — who polls (CPU or
    MCU), whether the MCU hands data over per sample or per window, and
    where each app computes — plus BEAM's stream sharing.  ``family``
    names the first two; :func:`build_context` (the DES) and
    :mod:`repro.core.analytic` (the closed form) each interpret it,
    using the same :meth:`sensing` streams:

    * ``"interrupting"`` — per-sample MCU poll, interrupt, transfer
      (baseline; BEAM sets ``shared``).
    * ``"cpu_polling"`` — the CPU blocks on every read (§II-A polling).
    * ``"buffered"`` — MCU-buffered sensing with per-window hand-off:
      ``batch_apps`` ship their buffer, ``com_apps`` compute on the MCU
      and ship only the result (batching / COM / BCOM mixes).

    Everything else — start states, governor inputs — is derived here
    and cannot be set.
    """

    family: str
    shared: bool = False
    com_apps: List[IoTApp] = field(default_factory=list)
    batch_apps: List[IoTApp] = field(default_factory=list)
    offload_reports: Dict[str, OffloadReport] = field(default_factory=dict)

    FAMILIES: ClassVar[Tuple[str, ...]] = (
        "interrupting",
        "cpu_polling",
        "buffered",
    )

    def __post_init__(self) -> None:
        if self.family not in self.FAMILIES:
            raise WorkloadError(
                f"unknown scheme family {self.family!r} (known: "
                f"{', '.join(self.FAMILIES)})"
            )

    @property
    def governed(self) -> bool:
        """Whether the race-to-sleep governor runs (else the CPU starts
        and stays awake: the paper's baseline "is in active mode all the
        time", Fig. 5a)."""
        return self.family == "buffered"

    @property
    def mcu_owns_sensing(self) -> bool:
        """Whether the MCU board polls (under main-board polling it never
        leaves sleep)."""
        return self.family != "cpu_polling"

    def cpu_governor(self, scenario) -> CpuGovernor:
        """The CPU's rest rule for ``scenario``, which both tiers hold.

        The CPU may power-gate only when no batch needs prompt
        ingestion; its rest is then (pure COM, the CPU fully relieved)
        charged to the hub's idle floor, else to app wait.
        """
        allow_deep = self.governed and not self.batch_apps
        return CpuGovernor(
            scenario.calibration.cpu,
            self.work_times(scenario) if self.governed else None,
            Routine.IDLE if allow_deep else Routine.DATA_TRANSFER,
            allow_deep,
        )

    def work_times(self, scenario) -> List[float]:
        """The instants the governor expects CPU work (``CpuRestPolicy``).

        COM results arrive one MCU compute after each window closes;
        batches at each window close and, with a ``batch_size``, roughly
        every ``batch_size`` samples of a window as partial batches
        (:class:`BufferedApp` ships its whole buffer as a window closes).
        """
        times: List[float] = []
        for app in self.com_apps:
            times.extend(
                (w + 1) * app.profile.window_s
                + app.profile.mcu_compute_time_s(scenario.calibration)
                for w in range(scenario.windows)
            )
        for app in self.batch_apps:
            times.extend(
                (w + 1) * app.profile.window_s
                for w in range(scenario.windows)
            )
            if scenario.batch_size is not None:
                streams = build_streams([app], shared=False)
                for w in range(scenario.windows):
                    samples = sorted(
                        w * stream.window_s + k / stream.rate_hz
                        for stream in streams
                        for k in range(stream.samples_per_window)
                    )
                    times.extend(samples[:: scenario.batch_size])
        return times

    def sensing(
        self, apps: Sequence[IoTApp]
    ) -> List[Tuple[str, Optional[IoTApp], List[Stream]]]:
        """The polling streams in spawn order, as ``(process prefix,
        app, streams)`` groups: per COM app, then per batch app, each
        sharing ``app``'s hand-off; else one group (``app`` is ``None``)."""
        if self.family != "buffered":
            prefix = "poll" if self.mcu_owns_sensing else "cpupoll"
            return [(prefix, None, build_streams(apps, self.shared))]
        return [
            (prefix, app, build_streams([app], shared=False))
            for prefix, group in (
                ("com", self.com_apps), ("batch", self.batch_apps)
            )
            for app in group
        ]

    # ------------------------------------------------------------------
    # Op chains: the one statement of each hand-off and computation,
    # run by the DES (firmware.driver.run_ops, SchemeContext) and
    # scanned by the analytic tier.
    # ------------------------------------------------------------------
    def sample_ops(self, cal) -> Tuple[McuOp, ...]:
        """The core ops after each decoded read: the interrupting
        family's per-sample raise → transfer; none for the others."""
        if self.family != "interrupting":
            return ()
        return _hand_over(cal, "sample", 1, bulk=False)

    def handoff_ops(self, app: IoTApp, cal, count: int) -> Tuple[McuOp, ...]:
        """One buffered hand-off of ``app``'s data (``count`` samples).

        A COM app computes on the MCU and ships only its result; a batch
        app raises one interrupt and bulk-transfers its buffer.
        """
        if app in self.com_apps:
            compute = McuOp(
                app.profile.mcu_compute_time_s(cal),
                Routine.APP_COMPUTE,
                after_routine=Routine.IDLE,
                instructions=app.profile.instructions,
                span=("compute", f"mcu:{app.name}"),
            )
            return (compute,) + _hand_over(cal, "result", 1, bulk=False)
        return _hand_over(cal, "batch", max(1, count), bulk=True)

    def window_compute(self, app: IoTApp, cal) -> WindowCompute:
        """``app``'s window computation when it computes on the CPU."""
        return WindowCompute(
            app.profile.cpu_compute_time_s(cal),
            app.profile.instructions,
            app.profile.output_bytes,
            ("compute", f"cpu:{app.name}"),
        )


def _hand_over(cal, vector: str, samples: int, bulk: bool) -> Tuple[McuOp, ...]:
    """Raise ``vector`` toward the CPU, then put ``samples`` on the bus.

    After its side of the handshake the MCU waits for the CPU to drain
    the PIO bus; that wait belongs to the transfer routine (Fig. 4).
    """
    return (
        McuOp(
            cal.mcu.interrupt_raise_time_s,
            Routine.INTERRUPT,
            vector=vector,
            span=("irq", vector),
        ),
        McuOp(
            mcu_transfer_time(cal.mcu, samples, bulk),
            Routine.DATA_TRANSFER,
            span=("transfer", f"mcu:{vector}"),
        ),
    )


class BufferedApp:
    """One buffered app's MCU RAM and per-window hand-off, in both tiers.

    A COM app reserves its offloaded build (code/heap + stream ring) in
    ``ram`` for the whole run, so its samples stream through the ring
    with no per-sample allocation; a batch app buffers each decoded
    sample, and with a ``batch_size`` ships a partial batch whenever
    that many samples wait and the window still misses samples.  The
    stream that finishes a window last hands it off: a batch app ships
    its buffer, a COM app its result.
    """

    def __init__(
        self, plan: SchemePlan, app: IoTApp, cal, ram: MemoryRegion, batch_size
    ):
        self.plan = plan
        self.app = app
        self.cal = cal
        self.ram = ram
        self.batch_size = batch_size
        self.com = app in plan.com_apps
        self.label = f"batch:{app.name}"
        #: Samples and bytes the batch buffer holds.
        self.samples = 0
        self.nbytes = 0
        #: A window's samples, and (with a ``batch_size``) how many each
        #: incomplete window has registered.
        self.window_samples = sum(
            app.profile.samples_per_window(sensor_id)
            for sensor_id in app.profile.sensor_ids
        )
        self._registered: Dict[int, int] = {}
        #: Streams that finished each window's sample loop.
        self._finished: Dict[int, int] = {}
        if self.com:
            ram.allocate(f"app:{app.name}", app.profile.mcu_footprint_bytes)

    def buffer(self, nbytes: int, window: int) -> Optional[HandoffChain]:
        """Register one decoded sample of ``window``; a batch app charges
        its ``nbytes`` to MCU RAM.

        Returns the partial batch to ship (see :meth:`ship`) once a
        ``batch_size`` of samples waits and ``window`` still misses
        samples, else ``None``.  When the RAM is full, raises
        :class:`CapacityError` and buffers nothing.
        """
        if self.com:
            return None
        batch_size = self.batch_size
        if batch_size is not None:
            registered = self._registered.pop(window, 0) + 1
            if registered < self.window_samples:
                self._registered[window] = registered
        try:
            self.ram.allocate(self.label, nbytes)
        except CapacityError as exc:
            raise CapacityError(
                f"batch {self.label!r}: MCU RAM exhausted after "
                f"{self.samples} samples ({exc})"
            ) from exc
        self.samples += 1
        self.nbytes += nbytes
        if (
            batch_size is not None
            and self.samples >= batch_size
            and registered < self.window_samples
        ):
            return self.ship(window, final=False)
        return None

    def ship(self, window: int, final: bool) -> HandoffChain:
        """Drain the buffer into its ``(handoff_ops, Handoff)`` at once, so
        concurrently polling streams start filling a fresh batch."""
        nbytes, samples = self.nbytes, self.samples
        self.ram.free(self.label)
        self.nbytes = self.samples = 0
        return (
            self.plan.handoff_ops(self.app, self.cal, samples),
            Handoff(max(1, nbytes), max(1, samples), self.app, window,
                    final=final),
        )

    def window_done(self, window: int) -> Optional[HandoffChain]:
        """The ``(handoff_ops, Handoff)`` to run once the app's last
        stream finishes ``window``, else ``None``.  A COM hand-off
        carries no result: only the DES has data to compute it from."""
        finished = self._finished[window] = self._finished.get(window, 0) + 1
        if finished < len(self.app.profile.sensor_ids):
            return None
        if not self.com:
            return self.ship(window, final=True)
        return (
            self.plan.handoff_ops(self.app, self.cal, 1),
            Handoff(self.app.profile.output_bytes, 1, self.app, window),
        )


class SchemeContext:
    """Shared stream/window/governor plumbing the DES wiring composes.

    Holds the scenario's :class:`SchemePlan`, the fresh
    :class:`~repro.hw.board.IoTHub`, the attached sensor devices, the
    plan's :class:`~repro.hubos.governor.CpuGovernor`, the
    :class:`~repro.hubos.governor.McuNapRule` and all scheme-agnostic
    process generators.
    """

    def __init__(
        self,
        scenario,
        plan: SchemePlan,
        obs: Optional[NullRecorder] = None,
    ):
        self.scenario = scenario
        self.plan = plan
        self.cal = scenario.calibration
        # Governor-less schemes keep the CPU online from the start.
        initial_cpu = CpuState.DEEP_SLEEP if plan.governed else CpuState.IDLE
        self.hub = IoTHub(self.cal, cpu_initial_state=initial_cpu, obs=obs)
        #: Instrumentation sink (shared with the kernel; no-op by default).
        self.obs = self.hub.obs
        self.governor = plan.cpu_governor(scenario)
        self.nap = McuNapRule(self.cal.mcu)
        self.devices: Dict[str, SensorDevice] = {}
        for sensor_id in scenario.sensor_ids:
            waveform = scenario.waveforms.get(sensor_id)
            self.devices[sensor_id] = SensorDevice.attach(
                self.hub,
                sensor_id,
                waveform,
                failure_rate=scenario.sensor_failure_rates.get(sensor_id, 0.0),
            )
        self._windows: Dict[Tuple[str, int], WindowState] = {}
        self.log = ResultLog(scenario.apps)

    # ------------------------------------------------------------------
    # governor plumbing
    # ------------------------------------------------------------------
    def rest(self) -> None:
        """Put a CPU that is not busy in the rest state the governor
        decides."""
        psm = self.hub.cpu.psm
        if psm.state != CpuState.BUSY:
            psm.set_state(*self.governor.rest(self.hub.sim.now))

    # ------------------------------------------------------------------
    # window bookkeeping
    # ------------------------------------------------------------------
    def window_state(self, app: IoTApp, index: int) -> WindowState:
        """The (lazily created) collection state of one app window."""
        key = (app.name, index)
        if key not in self._windows:
            start = index * app.profile.window_s
            sources = {
                sensor_id: self.devices[sensor_id].waveform
                for sensor_id in app.profile.sensor_ids
            }
            state = WindowState(
                window=app.build_window(index, start, sources=sources),
                expected={
                    sensor_id: app.profile.samples_per_window(sensor_id)
                    for sensor_id in app.profile.sensor_ids
                },
                signal=Signal(f"{app.name}.w{index}"),
            )
            self._windows[key] = state
        return self._windows[key]

    # The three completions of a CPU service (CpuService.completion);
    # each returns the bytes it sends upstream.
    def deliver_sample(self, handoff: Handoff) -> int:
        """Hand one CPU-visible sample to its subscribers' windows."""
        stream, k = handoff.owner, handoff.index
        for app in stream.subscribers:
            if k % stream.stride(app) != 0:
                continue  # decimated subscriber skips this sample
            state = self.window_state(app, handoff.window)
            if state.register(handoff.data):
                state.deliver()
        return 0

    def deliver_window(self, handoff: Handoff) -> int:
        """Hand a batch's window, once complete, to its compute loop."""
        if handoff.final:
            app, window_index = handoff.owner, handoff.window
            state = self.window_state(app, window_index)
            if not state.complete:
                raise WorkloadError(
                    f"{app.name} batch window {window_index} incomplete"
                )
            state.deliver()
        return 0

    def publish(self, handoff: Handoff) -> int:
        """Record an MCU-computed result; its bytes go upstream."""
        self.log.record(handoff.owner, handoff.data, self.hub.sim.now)
        return handoff.nbytes

    # ------------------------------------------------------------------
    # MCU-side processes
    # ------------------------------------------------------------------
    def poll_stream(self, stream: Stream, buffered: Optional[BufferedApp] = None):
        """One stream's poll loop: wait for each sample, read, run ops.

        While the stream waits the MCU naps if the nap rule decides so,
        and the poll brings it back up.  The MCU reads and decodes, then runs the plan's
        :meth:`~SchemePlan.sample_ops`; under main-board polling the CPU
        blocks on the read and delivers the sample itself.  A stream of
        a ``buffered`` app registers each sample into the app's window
        and buffer (a sample the full RAM cannot hold is a QoS
        violation), ships the partial batch :meth:`BufferedApp.buffer`
        returns, and runs the app's hand-off once its last stream
        finishes a window.
        """
        hub = self.hub
        device = self.devices[stream.sensor_id]
        app = buffered.app if buffered is not None else None
        mcu_polls = self.plan.mcu_owns_sensing
        read = read_and_decode if mcu_polls else cpu_blocking_read
        ops = self.plan.sample_ops(self.cal)
        # Hoisted out of the per-sample loop: stream.key builds a string
        # per call, sim.now is a property read, and the enabled flag and
        # span method are attribute lookups the loop repeats thousands of
        # times.  The recorder never changes mid-run, so this is safe.
        obs = self.obs
        observing = obs.enabled
        span = obs.span
        sim = hub.sim
        mcu = hub.mcu
        nap = self.nap
        key = stream.key
        for window_index in range(self.scenario.windows):
            window_start = window_index * stream.window_s
            for k in range(stream.samples_per_window):
                target = window_start + k / stream.rate_hz
                now = sim.now
                if target > now:
                    if mcu_polls and nap.wait(
                        key, target, now, mcu.psm.state == McuState.IDLE
                    ) is not None:
                        mcu.enter_sleep(Routine.DATA_COLLECTION)
                    yield Delay(target - now)
                if mcu_polls and mcu.psm.state == McuState.SLEEP:
                    mcu.set_idle(Routine.DATA_COLLECTION)  # up for the poll
                if observing:
                    t0 = sim.now
                sample = yield from read(hub, device)
                if observing:
                    span("sense", key, t0, sim.now)
                if ops or not mcu_polls:
                    handoff = Handoff(
                        stream.sample_bytes, 1, stream, window_index, k, sample
                    )
                    if ops:
                        yield from run_ops(hub, ops, handoff)
                    else:  # a CPU read: its sample is delivered at once
                        self.deliver_sample(handoff)
                if buffered is not None:
                    try:
                        partial = buffered.buffer(
                            stream.sample_bytes, window_index
                        )
                    except CapacityError as exc:
                        self.log.qos_violations.append(str(exc))
                        partial = None
                    self.window_state(app, window_index).register(sample)
                    if partial is not None:
                        yield from run_ops(hub, *partial)
            if buffered is not None:
                done = buffered.window_done(window_index)
                if done is not None:
                    chain, handoff = done
                    if buffered.com:
                        window = self.window_state(app, window_index).window
                        handoff = handoff._replace(data=app.compute(window))
                    yield from run_ops(hub, chain, handoff)
        nap.finish(key)

    # ------------------------------------------------------------------
    # CPU-side processes
    # ------------------------------------------------------------------
    def dispatcher(self):
        """The CPU's interrupt service loop (one process for the hub).

        Runs each request's :data:`CPU_SERVICES` record over its
        :class:`Handoff`, then rests once nothing is pending.  Blocking
        on the interrupt signal schedules no events, so the kernel
        terminates naturally once all device activity is over.
        """
        hub = self.hub
        irq = hub.irq
        obs = self.obs
        while True:
            request = yield from irq.wait()
            service = CPU_SERVICES[request.vector]
            handoff = request.payload
            if obs.enabled:
                t0 = hub.sim.now
            yield from service_interrupt(hub)
            if obs.enabled:
                t1 = hub.sim.now
                obs.span(*service.service_span, t0, t1)
            yield from cpu_transfer(
                hub, handoff.nbytes, handoff.samples, service.bulk
            )
            if obs.enabled:
                obs.span(*service.transfer_span, t1, hub.sim.now)
            published = getattr(self, service.completion)(handoff)
            if published:
                yield from hub.nic.send(published, Routine.APP_COMPUTE)
            if irq.pending_count == 0:
                self.rest()

    def cpu_compute_process(self, app: IoTApp):
        """One app's window compute loop on the CPU: the plan's
        :meth:`~SchemePlan.window_compute` chain per delivered window."""
        hub = self.hub
        cpu = hub.cpu
        obs = self.obs
        chain = self.plan.window_compute(app, self.cal)
        for window_index in range(self.scenario.windows):
            state = self.window_state(app, window_index)
            if not state.delivered:
                yield Wait(state.signal)
            if cpu.asleep:
                yield from cpu.wake(Routine.APP_COMPUTE)
            yield from cpu.core.acquire()
            if obs.enabled:
                t0 = hub.sim.now
            result = app.compute(state.window)
            yield from cpu.execute(
                chain.duration,
                Routine.APP_COMPUTE,
                instructions=chain.instructions,
            )
            cpu.core.release()
            if obs.enabled:
                obs.span(*chain.span, t0, hub.sim.now)
            self.log.record(app, result, hub.sim.now)
            yield from hub.nic.send(chain.output_bytes, Routine.APP_COMPUTE)
            self.rest()

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def collect(self, end_time: float) -> RunResult:
        """Integrate energy and assemble the scenario's :class:`RunResult`."""
        hub = self.hub
        energy, busy = integrate(hub.recorder.timelines(), end_time)
        return self.log.run_result(
            self.scenario, self.plan, energy, busy, end_time,
            interrupt_count=hub.irq.raised_count,
            cpu_wake_count=hub.cpu.wake_count,
            bus_bytes=hub.bus.bytes_transferred,
            hub=hub,
        )


def wire(ctx: SchemeContext) -> None:
    """Spawn ``ctx``'s processes; the kernel breaks ties by spawn order.

    Each sensing group's poll loops, a batch app's compute loop right
    after its own; the dispatcher if the MCU senses (its hand-offs
    interrupt the CPU); then the other apps' compute loops.
    """
    spawn = ctx.hub.sim.spawn
    plan = ctx.plan
    scenario = ctx.scenario
    computes = [app for app in scenario.apps if app not in plan.com_apps]
    for prefix, app, streams in plan.sensing(scenario.apps):
        buffered = None if app is None else BufferedApp(
            plan, app, ctx.cal, ctx.hub.mcu.ram, scenario.batch_size
        )
        for stream in streams:
            spawn(
                ctx.poll_stream(stream, buffered),
                name=f"{prefix}:{stream.key}",
            )
        if app in computes:
            computes.remove(app)
            spawn(ctx.cpu_compute_process(app), name=f"compute:{app.name}")
    if plan.mcu_owns_sensing:
        spawn(ctx.dispatcher(), name="dispatcher")
    for app in computes:
        spawn(ctx.cpu_compute_process(app), name=f"compute:{app.name}")


class SchemeExecutor:
    """Base class for scheme plugins.

    Subclass, decorate with ``@register_scheme("<name>")`` and implement
    ``plan``; the registry makes the scheme addressable by name
    everywhere a scheme string is accepted, in both fidelity tiers.
    """

    #: Registry name; filled in by :func:`register_scheme`.
    name: ClassVar[str] = ""

    def plan(self, scenario) -> SchemePlan:
        """Declare how ``scenario`` executes under this scheme.

        Feasibility checks belong here (COM raises
        :class:`~repro.errors.OffloadError`), so the DES and the analytic
        tier report identical errors.
        """
        raise NotImplementedError


def build_context(
    scenario, obs: Optional[NullRecorder] = None
) -> SchemeContext:
    """Construct and wire a fresh context for one scenario (not yet run).

    Kept apart from :func:`execute_scenario` so scheme-build time can be
    timed separately from the event loop (the repository benchmark's
    ``schemes.build`` span wraps this function).
    """
    plan = get_scheme(scenario.scheme)().plan(scenario)
    ctx = SchemeContext(scenario, plan, obs=obs)
    wire(ctx)
    if plan.mcu_owns_sensing:
        ctx.hub.mcu.set_idle(Routine.DATA_COLLECTION)
    ctx.rest()
    return ctx


def execute_scenario(
    scenario, obs: Optional[NullRecorder] = None
) -> RunResult:
    """Run one scenario under its registered scheme; returns the result.

    ``obs`` attaches an instrumentation recorder (``repro profile`` passes
    a :class:`~repro.obs.recorder.TraceRecorder`); it observes the run but
    never alters it — results are bit-identical with or without it.
    """
    ctx = build_context(scenario, obs=obs)
    ctx.hub.run()
    end_time = max(ctx.hub.sim.now, scenario.horizon_s)
    return ctx.collect(end_time)


#: What a DES run imports on first use: the DSP code the apps compute
#: with and the default sensor waveforms, both built on numpy.  The
#: analytic tier never loads them.
DES_MODULES = (
    "repro.dsp",
    "repro.sensors.accelerometer",
    "repro.sensors.camera",
    "repro.sensors.environment",
    "repro.sensors.fingerprint",
    "repro.sensors.pulse",
    "repro.sensors.sound",
)


def preload_des() -> None:
    """Import :data:`DES_MODULES` now.

    A process pool that forks its workers calls this first, so the
    workers share these modules instead of each importing them at its
    first DES point.
    """
    for name in DES_MODULES:
        import_module(name)
