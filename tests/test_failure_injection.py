"""Failure injection: the system degrades loudly, not silently."""

import pytest

from repro.apps import create_app
from repro.apps.base import AppProfile, AppResult, IoTApp
from repro.calibration import default_calibration
from repro.core import Scenario, Scheme, analytic_scenario_result, run_scenario
from repro.errors import OffloadError, SimulationError, WorkloadError
from repro.sim import Delay, Signal, Simulator, Wait


# ----------------------------------------------------------------------
# kernel-level failures
# ----------------------------------------------------------------------
def test_crashing_process_surfaces_its_exception():
    sim = Simulator()

    def crasher():
        yield Delay(1.0)
        raise RuntimeError("device caught fire")

    sim.spawn(crasher())
    with pytest.raises(RuntimeError, match="device caught fire"):
        sim.run()


def test_interrupted_process_does_not_block_others():
    sim = Simulator()
    gate = Signal()
    survived = []

    def victim():
        yield Wait(gate)
        survived.append("victim")  # pragma: no cover - never fires

    def bystander():
        yield Delay(2.0)
        survived.append("bystander")

    victim_proc = sim.spawn(victim())
    sim.spawn(bystander())

    def killer():
        yield Delay(1.0)
        victim_proc.interrupt()

    sim.spawn(killer())
    sim.run()
    assert survived == ["bystander"]
    assert victim_proc.finished


def test_resumed_finished_process_is_an_error():
    sim = Simulator()

    def quick():
        return "done"
        yield  # pragma: no cover

    process = sim.spawn(quick())
    sim.run()
    with pytest.raises(SimulationError):
        process.wake()


# ----------------------------------------------------------------------
# capacity and offload failures
# ----------------------------------------------------------------------
def tiny_ram_batching():
    """A2 batching with 2 KiB of MCU RAM: 170 of a window's 1,000
    samples fit, the other 830 overflow."""
    cal = default_calibration().with_mcu(ram_bytes=2048)
    return Scenario(
        apps=[create_app("A2")], scheme=Scheme.BATCHING, calibration=cal
    )


def assert_tiny_ram_batching(result):
    """The pinned figures of :func:`tiny_ram_batching`, at either tier."""
    assert result.qos_violations == 830 * [
        "batch 'batch:stepcounter': MCU RAM exhausted after 170 samples "
        "(mcu.ram: allocating 12 B for 'batch:stepcounter' exceeds "
        "capacity (2040/2048 B used))"
    ]
    # The 170 buffered samples ship as one batch; the run still finishes
    # and the computation still happens.
    assert (result.interrupt_count, result.bus_bytes) == (1, 2040)
    assert result.energy.total_j.hex() == "0x1.28d34fd0d507cp+1"
    assert result.results_ok


def test_batching_with_tiny_mcu_ram_flags_violations_but_completes():
    result = run_scenario(tiny_ram_batching())
    assert_tiny_ram_batching(result)
    ram = result.hub.mcu.ram
    assert (ram.used_bytes, ram.peak_bytes) == (0, 2040)


def test_analytic_tier_logs_batch_ram_overflow():
    result = analytic_scenario_result(tiny_ram_batching())
    assert result.fidelity == "analytic"
    assert_tiny_ram_batching(result)


def test_com_refuses_heavy_app_with_reasons():
    with pytest.raises(OffloadError) as excinfo:
        run_scenario(Scenario(apps=[create_app("A11")], scheme=Scheme.COM))
    assert "heavy-weight" in str(excinfo.value)


def test_bcom_falls_back_on_ram_contention():
    # Shrink RAM so only some of four offloadable apps fit.
    cal = default_calibration().with_mcu(ram_bytes=24 * 1024)
    result = run_scenario(
        Scenario(
            apps=[create_app(i) for i in ("A2", "A4", "A5", "A7")],
            scheme=Scheme.BCOM,
            calibration=cal,
        )
    )
    placements = {
        name: report.offloadable
        for name, report in result.offload_reports.items()
    }
    assert any(placements.values()), "nothing offloaded at all"
    assert not all(placements.values()), "everything offloaded despite 24 KB"
    fallbacks = [
        report
        for report in result.offload_reports.values()
        if not report.offloadable
    ]
    # Each fallback is RAM-related: either statically too big for the
    # shrunken MCU, or displaced by apps packed before it.
    assert all(
        "RAM" in reason for report in fallbacks for reason in report.reasons
    )
    assert result.results_ok


# ----------------------------------------------------------------------
# misbehaving apps
# ----------------------------------------------------------------------
class EmptyResultApp(IoTApp):
    """An app whose compute() produces no output payload bytes."""

    def __init__(self):
        super().__init__(
            AppProfile(
                table2_id="AX",
                name="empty",
                title="Empty",
                category="test",
                user_task="nothing",
                sensor_ids=("S4",),
                mips=1.0,
                output_bytes=64,
            )
        )

    def compute(self, window):
        return AppResult(
            app_name=self.name,
            window_index=window.window_index,
            payload={},
            output_bytes=0,  # invalid
        )


def test_app_with_empty_output_is_rejected():
    with pytest.raises(WorkloadError):
        run_scenario(Scenario(apps=[EmptyResultApp()], scheme=Scheme.BASELINE))


class SlowOffloadApp(IoTApp):
    """Light enough to pass the static check, but declared window-hostile."""

    def __init__(self):
        super().__init__(
            AppProfile(
                table2_id="AY",
                name="slowpoke",
                title="Slowpoke",
                category="test",
                user_task="spin",
                sensor_ids=("S4",),
                mips=5000.0,  # ~53 s on the MCU: fails the QoS criterion
                heap_bytes=1024,
                stack_bytes=256,
            )
        )

    def compute(self, window):  # pragma: no cover - never offloaded
        return self.make_result(window, {"ok": True})


def test_com_rejects_window_hostile_app():
    with pytest.raises(OffloadError) as excinfo:
        run_scenario(Scenario(apps=[SlowOffloadApp()], scheme=Scheme.COM))
    assert "QoS" in str(excinfo.value)
