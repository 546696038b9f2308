"""Unit tests for the PIO bus, NIC and interrupt controller."""

import pytest

from repro.calibration import default_calibration
from repro.energy import PowerLedger
from repro.errors import BusError, PowerStateError
from repro.hw import InterruptController, IoTHub, NetworkInterface, PioBus
from repro.sim import Delay, Simulator


def make_bus():
    sim = Simulator()
    recorder = PowerLedger()
    bus = PioBus(sim, recorder, default_calibration().bus)
    return sim, recorder, bus


def test_transfer_duration_scales_with_bytes():
    _, _, bus = make_bus()
    small = bus.transfer_duration(10)
    large = bus.transfer_duration(10_000)
    assert large > small
    expected = bus.cal.setup_time_s + 10_000 / bus.cal.bandwidth_bytes_per_s
    assert large == pytest.approx(expected)


def test_transfer_rejects_non_positive_sizes():
    _, recorder, bus = make_bus()
    with pytest.raises(BusError):
        bus.transfer_duration(0)
    with pytest.raises(BusError):
        bus.transfer_duration(-5)
    with pytest.raises(BusError):
        bus.transfer(0)
    with pytest.raises(PowerStateError):
        bus.transfer(10, routine="partying")
    assert recorder.changes("pio_bus") == ((0.0, "idle", 0.0, "idle"),)
    assert bus.bytes_transferred == 0
    assert bus.transfer_count == 0


def active_intervals(recorder, end_time):
    return [
        (t0, t1)
        for t0, t1, state, _, _ in recorder.intervals("pio_bus", end_time)
        if state == PioBus.ACTIVE
    ]


def test_transfers_serialize_on_the_bus():
    sim, recorder, bus = make_bus()
    finish_times = []

    def sender():
        for _ in range(2):
            finish_times.append(bus.transfer(1000))
            yield Delay(finish_times[-1] - sim.now)

    sim.spawn(sender())
    sim.run()
    single = bus.transfer_duration(1000)
    assert finish_times[0] == pytest.approx(single)
    assert finish_times[1] == pytest.approx(2 * single)
    assert active_intervals(recorder, sim.now) == [
        (0.0, finish_times[0]), (finish_times[0], finish_times[1])
    ]
    assert bus.bytes_transferred == 2000
    assert bus.transfer_count == 2


def test_overlapping_transfer_is_rejected():
    sim, recorder, bus = make_bus()
    end = bus.transfer(1000)
    recorded = recorder.changes("pio_bus")
    with pytest.raises(BusError):
        bus.transfer(500)  # still at t=0, inside the first transfer

    def late_sender():
        yield Delay(end / 2)
        bus.transfer(500)

    sim.spawn(late_sender())
    with pytest.raises(BusError):
        sim.run()
    assert recorder.changes("pio_bus") == recorded
    assert active_intervals(recorder, end) == [(0.0, end)]
    assert bus.bytes_transferred == 1000
    assert bus.transfer_count == 1


def test_bus_power_active_only_during_transfer():
    sim, recorder, bus = make_bus()

    def sender():
        yield Delay(1.0)
        end = bus.transfer(2880)  # ~10 ms on the default UART
        yield Delay(end - sim.now)

    sim.spawn(sender())
    sim.run()
    active = recorder.time_in_state("pio_bus", PioBus.ACTIVE, sim.now)
    assert active == pytest.approx(bus.transfer_duration(2880))


def test_nic_send():
    sim = Simulator()
    recorder = PowerLedger()
    nic = NetworkInterface(sim, recorder, default_calibration().board)

    def sender():
        yield from nic.send(2000)

    sim.spawn(sender())
    sim.run()
    assert nic.bytes_sent == 2000
    assert nic.messages_sent == 1
    assert sim.now == pytest.approx(nic.tx_duration(2000))


def test_irq_wait_blocks_until_raised():
    sim = Simulator()
    irq = InterruptController(sim)
    received = []

    def handler():
        request = yield from irq.wait()
        received.append((sim.now, request.vector, request.payload))

    def device():
        yield Delay(2.0)
        irq.raise_irq("mcu", "sample_ready", payload=123)

    sim.spawn(handler())
    sim.spawn(device())
    sim.run()
    assert received == [(2.0, "sample_ready", 123)]


def test_irq_queued_requests_not_lost():
    sim = Simulator()
    irq = InterruptController(sim)
    received = []

    def device():
        for index in range(3):
            irq.raise_irq("mcu", "v", payload=index)
            yield Delay(0.001)

    def handler():
        for _ in range(3):
            request = yield from irq.wait()
            received.append(request.payload)
            yield Delay(0.010)  # slower than the device raises

    sim.spawn(device())
    sim.spawn(handler())
    sim.run()
    assert received == [0, 1, 2]
    assert irq.pending_count == 0
    assert irq.raised_count == 3


def test_hub_assembles_components():
    hub = IoTHub()
    assert hub.cpu.psm.state == "deep_sleep"
    assert hub.mcu.psm.state == "sleep"
    assert hub.idle_power_w == pytest.approx(
        hub.calibration.idle_hub_power_w
    )
    psm = hub.add_component("sensor:test", {"off": 0.0, "on": 0.5}, "off")
    assert hub.component("sensor:test") is psm
