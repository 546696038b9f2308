"""Scheme-plugin protocol and the shared execution plumbing.

A scheme is a small class: a :class:`SchemeExecutor` subclass whose
``plan`` returns a :class:`SchemePlan` — which family of wiring it uses,
whether streams are shared, which apps compute on the MCU.  That one
declaration is all a scheme states; both tiers interpret it.  The
discrete-event simulation wires it through :func:`build_context` (one
wiring function per family over the primitives
:class:`SchemeContext` owns — the hub, the sensor devices, window
bookkeeping, the interrupt dispatcher, the CPU compute loop and the
sleep governor), and the closed-form tier in
:mod:`repro.core.analytic` scans it.

:func:`execute_scenario` is the single entry point: look the scheme up
in the registry, build a fresh context, run the discrete-event
simulation to completion and integrate the energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ...apps.base import AppResult, IoTApp, SampleWindow
from ...errors import CapacityError, WorkloadError
from ...firmware.batching import BatchBuffer
from ...firmware.capability import OffloadReport
from ...firmware.driver import (
    mcu_transfer_busy,
    raise_interrupt,
    read_and_decode,
)
from ...firmware.runtime import run_offloaded_compute
from ...hubos.governor import CpuRestPolicy, SleepGovernor
from ...hubos.interrupts import service_interrupt
from ...hubos.polling import cpu_blocking_read
from ...hubos.transfer import cpu_transfer
from ...hw.board import IoTHub
from ...hw.cpu import CpuState
from ...hw.mcu import McuState
from ...hw.power import Routine
from ...obs.recorder import NullRecorder
from ...sensors.base import SensorDevice
from ...sim.process import Delay, Signal, Wait
from ...units import to_ms
from ..results import RunResult, routine_busy_times
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


def build_streams(apps: Sequence[IoTApp], shared: bool) -> List[Stream]:
    """Build polling streams for ``apps``: per-app or shared-per-sensor.

    Pure function of the app profiles — no hub, no simulator — so the
    DES wiring functions and the closed-form analytic tier
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


@dataclass
class SchemePlan:
    """A scheme's whole declaration: what it decides, not how to wire it.

    The paper's schemes differ in three decisions — who polls (CPU or
    MCU), whether the MCU hands data over per sample or per window, and
    where each app computes — plus BEAM's stream sharing.  ``family``
    names the first two; :func:`build_context` (the DES) and
    :mod:`repro.core.analytic` (the closed form) each interpret it,
    using the same :func:`build_streams` output:

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

    @property
    def allow_deep(self) -> bool:
        """Whether the CPU may power-gate: only when no batch needs prompt
        ingestion."""
        return self.governed and not self.batch_apps

    @property
    def rest_routine(self) -> str:
        """The routine the CPU's rest is charged to: with the CPU fully
        relieved (pure COM) it is the hub's idle floor, not app wait."""
        return Routine.IDLE if self.allow_deep else Routine.DATA_TRANSFER

    def work_times(self, scenario) -> List[float]:
        """The instants the governor expects CPU work (``CpuRestPolicy``).

        COM results arrive one MCU compute after each window closes;
        batches at each window close and, with a ``batch_size``, roughly
        every ``batch_size`` samples as partial batches.
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
                samples = sorted(
                    w * stream.window_s + k / stream.rate_hz
                    for stream in build_streams([app], shared=False)
                    for w in range(scenario.windows)
                    for k in range(stream.samples_per_window)
                )
                times.extend(samples[:: scenario.batch_size])
        return times


class SchemeContext:
    """Shared stream/window/governor plumbing the DES wiring composes.

    Holds the scenario's :class:`SchemePlan`, the fresh
    :class:`~repro.hw.board.IoTHub`, the attached sensor devices, the
    governor's :class:`~repro.hubos.governor.CpuRestPolicy` and all
    scheme-agnostic process generators.
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
        self.governor = SleepGovernor(self.hub.cpu)
        self.policy = CpuRestPolicy(plan.work_times(scenario))
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
        self._app_results: Dict[str, List[AppResult]] = {
            app.name: [] for app in scenario.apps
        }
        self._result_times: Dict[str, List[float]] = {
            app.name: [] for app in scenario.apps
        }
        self.qos_violations: List[str] = []
        #: Next scheduled poll per stream key — the MCU's own nap governor.
        self._mcu_next_polls: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # governor plumbing
    # ------------------------------------------------------------------
    def rest(self) -> None:
        """Apply the governor with the plan's schedule knowledge."""
        plan = self.plan
        if not plan.governed:
            if self.hub.cpu.psm.state != "busy" and not self.hub.cpu.asleep:
                self.hub.cpu.set_idle(plan.rest_routine)
            return
        expected = self.policy.expected_idle(self.hub.sim.now)
        self.governor.rest(
            expected,
            wait_routine=plan.rest_routine,
            allow_deep=plan.allow_deep,
        )

    def mcu_rest(self, stream_key: str, next_poll: float) -> None:
        """Let the MCU light-sleep if every stream's next poll is far off."""
        self._mcu_next_polls[stream_key] = next_poll
        if self.hub.mcu.psm.state != McuState.IDLE:
            return
        now = self.hub.sim.now
        upcoming = min(self._mcu_next_polls.values(), default=now)
        if upcoming - now > self.cal.mcu.sleep_threshold_s:
            self.hub.mcu.enter_sleep(Routine.DATA_COLLECTION)

    def mcu_wake(self) -> None:
        """Bring the MCU back online for a poll."""
        if self.hub.mcu.psm.state == McuState.SLEEP:
            self.hub.mcu.set_idle(Routine.DATA_COLLECTION)

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

    def record_result(self, app: IoTApp, result: AppResult) -> None:
        """Log one delivered window result and check its QoS deadline."""
        now = self.hub.sim.now
        self._app_results[app.name].append(result)
        self._result_times[app.name].append(now)
        violation = qos_violation(app, result.window_index, now)
        if violation is not None:
            self.qos_violations.append(violation)

    # ------------------------------------------------------------------
    # MCU-side processes
    # ------------------------------------------------------------------
    def poll_stream_interrupting(self, stream: Stream):
        """Baseline/BEAM: poll and interrupt the CPU per sample."""
        device = self.devices[stream.sensor_id]
        # Hoisted out of the per-sample loop: stream.key builds a string
        # per call, sim.now is a property read, and the enabled flag and
        # span method are attribute lookups the loop repeats thousands of
        # times.  The recorder never changes mid-run, so this is safe.
        obs = self.obs
        observing = obs.enabled
        span = obs.span
        sim = self.hub.sim
        key = stream.key
        for window_index in range(self.scenario.windows):
            window_start = window_index * stream.window_s
            for k in range(stream.samples_per_window):
                target = window_start + k / stream.rate_hz
                now = sim.now
                if target > now:
                    self.mcu_rest(key, target)
                    yield Delay(target - now)
                self.mcu_wake()
                if observing:
                    t0 = sim.now
                sample = yield from read_and_decode(self.hub, device)
                if observing:
                    t1 = sim.now
                    span("sense", key, t0, t1)
                yield from raise_interrupt(
                    self.hub, "sample", (stream, window_index, k, sample)
                )
                if observing:
                    t2 = sim.now
                    span("irq", "sample", t1, t2)
                yield from mcu_transfer_busy(self.hub, 1, bulk=False)
                if observing:
                    span("transfer", "mcu:sample", t2, sim.now)
        self._mcu_next_polls.pop(key, None)

    def poll_stream_buffering(
        self,
        stream: Stream,
        app: IoTApp,
        coordinator: Dict[int, int],
        buffer: BatchBuffer,
        on_window_full,
    ):
        """Batching/COM: poll into MCU RAM; last stream triggers hand-off.

        ``buffer`` is shared among the app's streams; ``coordinator``
        counts completed streams per window, and whichever stream finishes
        an app window last invokes the ``on_window_full(window_index,
        buffer)`` generator.
        """
        device = self.devices[stream.sensor_id]
        stream_count = len(app.profile.sensor_ids)
        # Hoisted out of the per-sample loop: stream.key builds a string
        # per call, sim.now is a property read, and the enabled flag and
        # span method are attribute lookups the loop repeats thousands of
        # times.  The recorder never changes mid-run, so this is safe.
        obs = self.obs
        observing = obs.enabled
        span = obs.span
        sim = self.hub.sim
        key = stream.key
        for window_index in range(self.scenario.windows):
            window_start = window_index * stream.window_s
            for k in range(stream.samples_per_window):
                target = window_start + k / stream.rate_hz
                now = sim.now
                if target > now:
                    self.mcu_rest(key, target)
                    yield Delay(target - now)
                self.mcu_wake()
                if observing:
                    t0 = sim.now
                sample = yield from read_and_decode(self.hub, device)
                if observing:
                    span("sense", key, t0, sim.now)
                if buffer is not None:
                    try:
                        buffer.add(sample, stream.sample_bytes)
                    except CapacityError as exc:
                        self.qos_violations.append(str(exc))
                state = self.window_state(app, window_index)
                state.register(sample)
                if (
                    buffer is not None
                    and self.scenario.batch_size is not None
                    and buffer.sample_count >= self.scenario.batch_size
                    and not state.complete
                ):
                    # Partial flush: ship the accumulated batch early.
                    yield from self.ship_batch(
                        app, window_index, buffer, final=False
                    )
            coordinator[window_index] = coordinator.get(window_index, 0) + 1
            if coordinator[window_index] == stream_count:
                yield from on_window_full(window_index, buffer)
        self._mcu_next_polls.pop(key, None)

    def ship_batch(
        self, app: IoTApp, window_index: int, buffer: BatchBuffer, final: bool
    ):
        """MCU side of one batch hand-off (interrupt + bulk put).

        The buffer is drained synchronously here so concurrently polling
        streams start filling a fresh batch; its RAM is released once the
        payload is on the bus.
        """
        nbytes = max(1, buffer.buffered_bytes)
        samples = buffer.flush()
        count = len(samples)
        obs = self.obs
        if obs.enabled:
            t0 = self.hub.sim.now
        yield from raise_interrupt(
            self.hub, "batch", (app, window_index, count, nbytes, final)
        )
        if obs.enabled:
            t1 = self.hub.sim.now
            obs.span("irq", "batch", t0, t1)
        yield from mcu_transfer_busy(self.hub, max(1, count), bulk=True)
        if obs.enabled:
            obs.span("transfer", "mcu:batch", t1, self.hub.sim.now)

    def batch_handoff(self, app: IoTApp):
        """Make the batching hand-off generator for one app."""

        def handoff(window_index: int, buffer: BatchBuffer):
            yield from self.ship_batch(app, window_index, buffer, final=True)

        return handoff

    def com_handoff(self, app: IoTApp):
        """Make the COM hand-off: compute on MCU, ship only the result."""

        def handoff(window_index: int, buffer):
            obs = self.obs
            state = self.window_state(app, window_index)
            if obs.enabled:
                t0 = self.hub.sim.now
            result = yield from run_offloaded_compute(
                self.hub, app, state.window
            )
            if obs.enabled:
                t1 = self.hub.sim.now
                obs.span("compute", f"mcu:{app.name}", t0, t1)
            yield from raise_interrupt(
                self.hub, "result", (app, window_index, result)
            )
            if obs.enabled:
                t2 = self.hub.sim.now
                obs.span("irq", "result", t1, t2)
            yield from mcu_transfer_busy(self.hub, 1, bulk=False)
            if obs.enabled:
                obs.span("transfer", "mcu:result", t2, self.hub.sim.now)

        return handoff

    def poll_stream_cpu(self, stream: Stream):
        """§II-A main-board polling: the CPU blocks on each read."""
        device = self.devices[stream.sensor_id]
        # Hoisted out of the per-sample loop: stream.key builds a string
        # per call, sim.now is a property read, and the enabled flag and
        # span method are attribute lookups the loop repeats thousands of
        # times.  The recorder never changes mid-run, so this is safe.
        obs = self.obs
        observing = obs.enabled
        span = obs.span
        sim = self.hub.sim
        key = stream.key
        for window_index in range(self.scenario.windows):
            window_start = window_index * stream.window_s
            for k in range(stream.samples_per_window):
                target = window_start + k / stream.rate_hz
                now = sim.now
                if target > now:
                    yield Delay(target - now)
                if observing:
                    t0 = sim.now
                sample = yield from cpu_blocking_read(self.hub, device)
                if observing:
                    span("sense", key, t0, sim.now)
                for app in stream.subscribers:
                    state = self.window_state(app, window_index)
                    if state.register(sample):
                        state.deliver()

    # ------------------------------------------------------------------
    # CPU-side processes
    # ------------------------------------------------------------------
    def dispatcher(self):
        """The CPU's interrupt service loop (one process for the hub).

        Runs until the simulation drains: blocking on the interrupt signal
        schedules no events, so the kernel terminates naturally once all
        device activity is over.
        """
        obs = self.obs
        while True:
            request = yield from self.hub.irq.wait()
            if obs.enabled:
                t0 = self.hub.sim.now
            yield from service_interrupt(self.hub)
            if obs.enabled:
                t1 = self.hub.sim.now
                obs.span("irq", f"service:{request.vector}", t0, t1)
            if request.vector == "sample":
                stream, window_index, k, sample = request.payload
                yield from cpu_transfer(
                    self.hub, stream.sample_bytes, 1, bulk=False
                )
                if obs.enabled:
                    obs.span("transfer", "cpu:sample", t1, self.hub.sim.now)
                for app in stream.subscribers:
                    if k % stream.stride(app) != 0:
                        continue  # decimated subscriber skips this sample
                    state = self.window_state(app, window_index)
                    if state.register(sample):
                        state.deliver()
            elif request.vector == "batch":
                app, window_index, count, nbytes, final = request.payload
                yield from cpu_transfer(
                    self.hub, nbytes, max(1, count), bulk=True
                )
                if obs.enabled:
                    obs.span("transfer", "cpu:batch", t1, self.hub.sim.now)
                if final:
                    state = self.window_state(app, window_index)
                    if not state.complete:
                        raise WorkloadError(
                            f"{app.name} batch window {window_index} incomplete"
                        )
                    state.deliver()
            elif request.vector == "result":
                app, window_index, result = request.payload
                yield from cpu_transfer(
                    self.hub, app.profile.output_bytes, 1, bulk=False
                )
                if obs.enabled:
                    obs.span("transfer", "cpu:result", t1, self.hub.sim.now)
                self.record_result(app, result)
                yield from self.hub.nic.send(
                    app.profile.output_bytes, Routine.APP_COMPUTE
                )
            else:  # pragma: no cover - defensive
                raise WorkloadError(f"unknown vector {request.vector!r}")
            if self.hub.irq.pending_count == 0:
                self.rest()

    def cpu_compute_process(self, app: IoTApp):
        """Window computation on the CPU (baseline/batching/beam)."""
        obs = self.obs
        for window_index in range(self.scenario.windows):
            state = self.window_state(app, window_index)
            if not state.delivered:
                yield Wait(state.signal)
            if self.hub.cpu.asleep:
                yield from self.hub.cpu.wake(Routine.APP_COMPUTE)
            yield from self.hub.cpu.core.acquire()
            if obs.enabled:
                t0 = self.hub.sim.now
            result = app.compute(state.window)
            yield from self.hub.cpu.execute(
                app.profile.cpu_compute_time_s(self.cal),
                Routine.APP_COMPUTE,
                instructions=app.profile.instructions,
            )
            self.hub.cpu.core.release()
            if obs.enabled:
                obs.span("compute", f"cpu:{app.name}", t0, self.hub.sim.now)
            self.record_result(app, result)
            yield from self.hub.nic.send(
                app.profile.output_bytes, Routine.APP_COMPUTE
            )
            self.rest()

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def collect(self, end_time: float) -> RunResult:
        """Integrate energy and assemble the scenario's :class:`RunResult`."""
        from ...energy.meter import PowerMonitor

        monitor = PowerMonitor(self.hub.recorder, self.cal.idle_hub_power_w)
        energy = monitor.measure(end_time)
        missing = [
            app.name
            for app in self.scenario.apps
            if len(self._app_results[app.name]) != self.scenario.windows
        ]
        if missing:
            raise WorkloadError(
                f"scenario {self.scenario.name}: apps without complete "
                f"results: {missing}"
            )
        return RunResult(
            scenario_name=self.scenario.name,
            scheme=self.scenario.scheme,
            app_ids=[app.table2_id for app in self.scenario.apps],
            windows=self.scenario.windows,
            duration_s=end_time,
            energy=energy,
            busy_times=routine_busy_times(self.hub, end_time),
            app_results=dict(self._app_results),
            result_times=dict(self._result_times),
            qos_violations=list(self.qos_violations),
            interrupt_count=self.hub.irq.raised_count,
            cpu_wake_count=self.hub.cpu.wake_count,
            bus_bytes=self.hub.bus.bytes_transferred,
            offload_reports=dict(self.plan.offload_reports),
            hub=self.hub,
        )


def wire_interrupting(ctx: SchemeContext) -> None:
    """Baseline/BEAM: the MCU polls and interrupts the CPU per sample."""
    apps = ctx.scenario.apps
    for stream in build_streams(apps, ctx.plan.shared):
        ctx.hub.sim.spawn(
            ctx.poll_stream_interrupting(stream),
            name=f"poll:{stream.key}",
        )
    ctx.hub.sim.spawn(ctx.dispatcher(), name="dispatcher")
    for app in apps:
        ctx.hub.sim.spawn(
            ctx.cpu_compute_process(app), name=f"compute:{app.name}"
        )


def wire_cpu_polling(ctx: SchemeContext) -> None:
    """Main-board polling: the CPU blocks on every read; MCU asleep."""
    apps = ctx.scenario.apps
    for stream in build_streams(apps, shared=False):
        ctx.hub.sim.spawn(
            ctx.poll_stream_cpu(stream), name=f"cpupoll:{stream.key}"
        )
    for app in apps:
        ctx.hub.sim.spawn(
            ctx.cpu_compute_process(app), name=f"compute:{app.name}"
        )


def wire_buffered(ctx: SchemeContext) -> None:
    """Batching/COM/BCOM: MCU-buffered sensing, per-window hand-off."""
    for app in ctx.plan.com_apps:
        # Reserve the offloaded build (code/heap + stream ring) on the
        # MCU for the whole run; samples stream through the ring, so no
        # per-sample batch allocation happens for COM apps.
        ctx.hub.mcu.ram.allocate(
            f"app:{app.name}", app.profile.mcu_footprint_bytes
        )
        coordinator: Dict[int, int] = {}
        handoff = ctx.com_handoff(app)
        for stream in build_streams([app], shared=False):
            ctx.hub.sim.spawn(
                ctx.poll_stream_buffering(
                    stream, app, coordinator, None, handoff
                ),
                name=f"com:{stream.key}",
            )
    for app in ctx.plan.batch_apps:
        coordinator = {}
        buffer = BatchBuffer(ctx.hub.mcu.ram, f"batch:{app.name}")
        handoff = ctx.batch_handoff(app)
        for stream in build_streams([app], shared=False):
            ctx.hub.sim.spawn(
                ctx.poll_stream_buffering(
                    stream, app, coordinator, buffer, handoff
                ),
                name=f"batch:{stream.key}",
            )
        ctx.hub.sim.spawn(
            ctx.cpu_compute_process(app), name=f"compute:{app.name}"
        )
    ctx.hub.sim.spawn(ctx.dispatcher(), name="dispatcher")


#: The DES interpreter of each :attr:`SchemePlan.family`.  Spawn order
#: matters: the kernel breaks ties between simultaneous events by it.
_WIRING: Dict[str, Callable[[SchemeContext], None]] = {
    "interrupting": wire_interrupting,
    "cpu_polling": wire_cpu_polling,
    "buffered": wire_buffered,
}


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
    _WIRING[plan.family](ctx)
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
