"""Board-level details: constant loads, idle floor, offloaded compute."""

import pytest

from repro.apps import create_app
from repro.apps.offline import collect_window
from repro.energy import EnergyReport, integrate
from repro.core import SchemePlan
from repro.firmware import run_ops
from repro.hubos.polling import cpu_blocking_read
from repro.hw import IoTHub
from repro.hw.cpu import CpuState
from repro.sensors import ConstantWaveform, SensorDevice
from repro.sim import Delay


def measure(hub, end_time):
    energy, _ = integrate(hub.recorder.timelines(), end_time)
    return EnergyReport(
        duration_s=end_time,
        idle_floor_power_w=hub.idle_power_w,
        by_component_routine=energy,
    )


def test_constant_board_loads_always_draw():
    hub = IoTHub()

    def idle_for_a_second():
        yield Delay(1.0)

    hub.sim.spawn(idle_for_a_second())
    hub.run()
    report = measure(hub, 1.0)
    board = report.component_j("board")
    carrier = report.component_j("mcu_board")
    assert board == pytest.approx(hub.calibration.board.overhead_power_w)
    assert carrier == pytest.approx(
        hub.calibration.board.mcu_overhead_power_w
    )


def test_idle_hub_total_matches_declared_floor():
    hub = IoTHub()  # CPU deep asleep, MCU asleep, nothing attached

    def wait():
        yield Delay(2.0)

    hub.sim.spawn(wait())
    hub.run()
    report = measure(hub, 2.0)
    assert report.total_j == pytest.approx(hub.idle_power_w * 2.0)
    assert report.marginal_j == pytest.approx(0.0, abs=1e-9)


def test_offloaded_compute_runs_real_algorithm_on_mcu():
    hub = IoTHub()
    hub.mcu.set_idle("data_collection")
    app = create_app("A2")
    window = collect_window(app)
    results = []
    # The COM hand-off's first op is the offloaded computation.
    plan = SchemePlan(family="buffered", com_apps=[app])
    compute = plan.handoff_ops(app, hub.calibration, 1)[0]

    def offload():
        results.append(app.compute(window))
        yield from run_ops(hub, (compute,), None)

    hub.sim.spawn(offload())
    hub.run()
    assert results[0].payload["steps"] >= 1
    assert hub.sim.now == pytest.approx(
        app.profile.mcu_compute_time_s(hub.calibration)
    )
    assert hub.mcu.instructions_retired == pytest.approx(
        app.profile.instructions
    )


def test_cpu_blocking_read_holds_core_busy_for_read_time():
    hub = IoTHub(cpu_initial_state=CpuState.IDLE)
    device = SensorDevice.attach(hub, "S1", ConstantWaveform(1.0))
    samples = []

    def reader():
        sample = yield from cpu_blocking_read(hub, device)
        samples.append(sample)

    hub.sim.spawn(reader())
    hub.run()
    busy = hub.recorder.time_in_state("cpu", CpuState.BUSY, hub.sim.now)
    # The 37.5 ms barometer read blocks the CPU entirely.
    assert busy >= device.spec.read_time_s
    assert samples[0].sensor_id == "S1"


def test_cpu_instruction_counter_accumulates():
    hub = IoTHub(cpu_initial_state=CpuState.IDLE)

    def job():
        yield from hub.cpu.core.acquire()
        yield from hub.cpu.execute(0.001, "app_compute", instructions=5e6)
        hub.cpu.core.release()

    hub.sim.spawn(job())
    hub.run()
    assert hub.cpu.instructions_retired == pytest.approx(5e6)
