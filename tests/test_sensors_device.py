"""Unit tests for the SensorDevice hardware model."""

import pytest

from repro.hw import IoTHub
from repro.sensors import ConstantWaveform, SensorDevice, get_spec


def test_acquire_returns_sample_with_spec_bytes():
    hub = IoTHub()
    device = SensorDevice.attach(hub, "S4", ConstantWaveform(1.0))
    samples = []

    def reader():
        sample = yield from device.acquire()
        samples.append(sample)

    hub.sim.spawn(reader())
    hub.run()
    assert len(samples) == 1
    sample = samples[0]
    assert sample.sensor_id == "S4"
    assert sample.nbytes == 12
    assert sample.seq == 1
    assert hub.sim.now == pytest.approx(get_spec("S4").read_time_s)


def test_concurrent_reads_serialize_on_rail():
    hub = IoTHub()
    device = SensorDevice.attach(hub, "S4", ConstantWaveform(1.0))
    times = []

    def reader():
        yield from device.acquire()
        times.append(hub.sim.now)

    hub.sim.spawn(reader())
    hub.sim.spawn(reader())
    hub.run()
    read_time = get_spec("S4").read_time_s
    assert times[0] == pytest.approx(read_time)
    assert times[1] == pytest.approx(2 * read_time)
    assert device.read_count == 2


def test_rail_power_high_only_during_read():
    hub = IoTHub()
    device = SensorDevice.attach(hub, "S1", ConstantWaveform(1.0))

    def reader():
        yield from device.acquire()

    hub.sim.spawn(reader())
    hub.run()
    active = hub.recorder.time_in_state(
        "sensor:S1", SensorDevice.READ, hub.sim.now
    )
    assert active == pytest.approx(get_spec("S1").read_time_s)
    # Burst power includes the MCU IO-controller rail.
    _, _, read_power_w, _ = hub.recorder.changes("sensor:S1")[1]
    expected = (
        get_spec("S1").typical_power_w
        + hub.calibration.mcu.sensor_read_power_w
    )
    assert read_power_w == pytest.approx(expected)


def test_default_waveform_used_when_not_injected():
    hub = IoTHub()
    device = SensorDevice.attach(hub, "S2")
    assert device.waveform is not None


def test_sample_values_follow_waveform_determinism():
    hub_a = IoTHub()
    device_a = SensorDevice.attach(hub_a, "S4")
    hub_b = IoTHub()
    device_b = SensorDevice.attach(hub_b, "S4")
    out_a, out_b = [], []

    def reader(device, out):
        sample = yield from device.acquire()
        out.append(sample.value)

    hub_a.sim.spawn(reader(device_a, out_a))
    hub_b.sim.spawn(reader(device_b, out_b))
    hub_a.run()
    hub_b.run()
    assert (out_a[0] == out_b[0]).all()
