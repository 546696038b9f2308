"""Figure 2(c): the timeline of one Sensor.Read() through the MCU.

Paper §II-B: reading one sample is (C) checking the sensor, (R) reading
the data register, (D) decoding — on the MCU side — then the interrupt,
the CPU-side handling and the PIO transfer.  This bench drives exactly
one read through the firmware and checks the stage ordering and lengths.
"""

import pytest

from conftest import run_once

from repro.core import SchemePlan
from repro.firmware.driver import read_and_decode, run_ops
from repro.hubos.interrupts import service_interrupt
from repro.hubos.transfer import cpu_transfer
from repro.hw import IoTHub
from repro.hw.cpu import CpuState
from repro.sensors import ConstantWaveform, SensorDevice, get_spec


def _measure():
    hub = IoTHub(cpu_initial_state=CpuState.IDLE)
    device = SensorDevice.attach(hub, "S4", ConstantWaveform(1.0))
    marks = {}
    # The per-sample chain after the decode: raise, then transfer.
    raise_op, transfer_op = SchemePlan(family="interrupting").sample_ops(
        hub.calibration
    )

    def mcu_side():
        marks["read_start"] = hub.sim.now
        sample = yield from read_and_decode(hub, device)
        marks["decoded"] = hub.sim.now
        yield from run_ops(hub, (raise_op,), sample)
        marks["irq_raised"] = hub.sim.now
        yield from run_ops(hub, (transfer_op,), None)

    def cpu_side():
        request = yield from hub.irq.wait()
        marks["irq_received"] = hub.sim.now
        yield from service_interrupt(hub)
        marks["handled"] = hub.sim.now
        yield from cpu_transfer(hub, request.payload.nbytes, 1, bulk=False)
        marks["transferred"] = hub.sim.now

    hub.sim.spawn(mcu_side())
    hub.sim.spawn(cpu_side())
    hub.run()
    return hub, marks


def test_fig02_read_pipeline(benchmark, figure_printer):
    hub, marks = run_once(benchmark, _measure)
    order = [
        "read_start",
        "decoded",
        "irq_raised",
        "irq_received",
        "handled",
        "transferred",
    ]
    lines = [
        f"{stage:<14}{marks[stage] * 1e3:8.3f} ms" for stage in order
    ]
    figure_printer(
        "Figure 2(c) — timeline of one Sensor.Read() via the MCU",
        "\n".join(lines),
    )

    cal = hub.calibration
    spec = get_spec("S4")
    # Stages strictly ordered.
    times = [marks[stage] for stage in order]
    assert times == sorted(times)
    # (R)+(D): rail read time plus the MCU decode.
    assert marks["decoded"] == pytest.approx(
        spec.read_time_s + cal.mcu.decode_time_per_sample_s
    )
    # Interrupt raised immediately after decode (5 us raise time).
    assert marks["irq_raised"] - marks["decoded"] == pytest.approx(
        cal.mcu.interrupt_raise_time_s
    )
    # The CPU sees the interrupt the moment it is latched.
    assert marks["irq_received"] == marks["irq_raised"]
    # Interrupt processing and the per-sample transfer follow.
    assert marks["handled"] - marks["irq_received"] == pytest.approx(
        cal.cpu.interrupt_handling_time_s
    )
    wire = hub.bus.transfer_duration(spec.sample_bytes)
    assert marks["transferred"] - marks["handled"] == pytest.approx(
        cal.cpu.transfer_time_per_sample_s + wire
    )
