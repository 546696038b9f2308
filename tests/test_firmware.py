"""Unit tests for the MCU firmware layer."""

import pytest

from repro.apps import create_app
from repro.calibration import default_calibration
from repro.core.schemes.base import BufferedApp, SchemePlan
from repro.errors import CapacityError
from repro.firmware import check_offloadable, read_and_decode
from repro.hw import IoTHub, MemoryRegion
from repro.sensors import ConstantWaveform, SensorDevice


def batch_app(ram, batch_size=None):
    """A2's batch-buffer coordinator over ``ram``, whole-window batches
    unless a ``batch_size`` is given."""
    app = create_app("A2")
    plan = SchemePlan("buffered", batch_apps=[app])
    return BufferedApp(plan, app, default_calibration(), ram, batch_size)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def test_read_and_decode_takes_read_plus_decode_time():
    hub = IoTHub()
    device = SensorDevice.attach(hub, "S4", ConstantWaveform(0.0))
    out = []

    def reader():
        result = yield from read_and_decode(hub, device)
        out.append(result)

    hub.sim.spawn(reader())
    hub.run()
    expected = (
        device.spec.read_time_s
        + hub.calibration.mcu.decode_time_per_sample_s
    )
    assert hub.sim.now == pytest.approx(expected)
    assert out[0].sensor_id == "S4"


# ----------------------------------------------------------------------
# batch buffer (the buffered schemes' per-app coordinator)
# ----------------------------------------------------------------------
def test_batch_buffer_accounts_ram():
    ram = MemoryRegion("ram", 100)
    buffered = batch_app(ram)
    buffered.buffer(40, 0)
    buffered.buffer(40, 0)
    assert buffered.samples == 2
    assert buffered.nbytes == 80
    assert ram.usage() == {"batch:stepcounter": 80}


def test_batch_buffer_rejects_overflow():
    ram = MemoryRegion("ram", 100)
    buffered = batch_app(ram)
    buffered.buffer(80, 0)
    with pytest.raises(CapacityError, match="MCU RAM exhausted after 1 samples"):
        buffered.buffer(40, 0)
    # The overflowing sample is not buffered.
    assert (buffered.samples, buffered.nbytes, ram.used_bytes) == (1, 80, 80)


def test_batch_buffer_flush_releases_ram():
    ram = MemoryRegion("ram", 100)
    buffered = batch_app(ram)
    buffered.buffer(60, 0)
    ops, handoff = buffered.ship(0, final=True)
    assert (handoff.nbytes, handoff.samples, handoff.final) == (60, 1, True)
    assert [op.vector for op in ops] == ["batch", None]
    assert ram.used_bytes == 0
    assert buffered.nbytes == 0
    assert ram.peak_bytes == 60
    # The buffer is reusable after a ship.
    buffered.buffer(90, 0)
    assert buffered.samples == 1


def test_batch_buffer_ships_partial_batches_until_the_window_completes():
    # A2 takes 1,000 samples a window: every fourth ships a partial
    # batch, except the window's last, which its hand-off ships.
    buffered = batch_app(MemoryRegion("ram", 100_000), batch_size=4)
    shipped = [buffered.buffer(12, 0) for _ in range(999)]
    partials = [chain for chain in shipped if chain is not None]
    assert len(partials) == 249
    ops, handoff = partials[0]
    assert (handoff.nbytes, handoff.samples, handoff.final) == (48, 4, False)
    assert [op.vector for op in ops] == ["batch", None]
    assert buffered.buffer(12, 0) is None
    assert buffered.samples == 4
    _, handoff = buffered.window_done(0)
    assert (handoff.samples, handoff.final) == (4, True)
    # The next window counts its own samples.
    assert [buffered.buffer(12, 1) is None for _ in range(4)] == [
        True, True, True, False
    ]


# ----------------------------------------------------------------------
# offloadability (the paper's COM feasibility rules)
# ----------------------------------------------------------------------
def test_all_light_apps_are_offloadable():
    for index in range(1, 11):
        app = create_app(f"A{index}")
        report = check_offloadable(app)
        assert report.offloadable, f"{app.name}: {report.reasons}"


def test_heavy_app_rejected_for_weight_and_memory():
    report = check_offloadable(create_app("A11"))
    assert not report
    assert any("heavy-weight" in reason for reason in report.reasons)
    assert any("MCU RAM" in reason for reason in report.reasons)


def test_mcu_unfriendly_sensor_blocks_offload():
    from repro.apps.base import AppProfile, IoTApp

    class HighResApp(IoTApp):
        def __init__(self):
            super().__init__(
                AppProfile(
                    table2_id="AX",
                    name="highres",
                    title="x",
                    category="c",
                    user_task="t",
                    sensor_ids=("S10H",),
                    mips=5.0,
                    heap_bytes=1000,
                    stack_bytes=100,
                )
            )

        def compute(self, window):  # pragma: no cover
            raise NotImplementedError

    report = check_offloadable(HighResApp())
    assert not report
    assert any("MCU-unfriendly" in reason for reason in report.reasons)


def test_slow_mcu_blocks_offload_via_qos():
    cal = default_calibration().with_mcu(mips=1.0)  # absurdly slow MCU
    report = check_offloadable(create_app("A1"), cal)
    assert not report
    assert any("QoS" in reason for reason in report.reasons)


def test_report_carries_requirements():
    report = check_offloadable(create_app("A2"))
    assert report.mcu_compute_time_s == pytest.approx(21.7e-3, rel=0.02)
    profile = create_app("A2").profile
    assert report.required_ram_bytes == profile.mcu_footprint_bytes
