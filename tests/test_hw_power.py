"""Unit tests for power-state machines and hardware models."""

import pytest

from repro.calibration import default_calibration
from repro.energy import PowerLedger
from repro.errors import CapacityError, HardwareError, PowerStateError
from repro.hw import Cpu, CpuState, Mcu, McuState, MemoryRegion, Routine
from repro.hw.power import PowerStateMachine
from repro.sim import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    recorder = PowerLedger()
    return sim, recorder


def test_psm_records_initial_state(rig):
    sim, recorder = rig
    PowerStateMachine(
        sim, recorder, "widget", {"on": 1.0, "off": 0.0}, initial_state="off"
    )
    changes = recorder.changes("widget")
    assert len(changes) == 1
    _, state, power_w, _ = changes[0]
    assert state == "off"
    assert power_w == 0.0


def test_psm_rejects_unknown_state(rig):
    sim, recorder = rig
    psm = PowerStateMachine(
        sim, recorder, "widget", {"on": 1.0, "off": 0.0}, initial_state="on"
    )
    recorded = recorder.changes("widget")
    with pytest.raises(PowerStateError):
        psm.set_state("warp", routine=Routine.APP_COMPUTE)
    assert (psm.state, psm.routine) == ("on", Routine.IDLE)
    assert recorder.changes("widget") == recorded
    with pytest.raises(PowerStateError):
        PowerStateMachine(sim, recorder, "w2", {"on": 1.0}, initial_state="off")
    assert "w2" not in recorder.components


def test_psm_rejects_unknown_routine(rig):
    sim, recorder = rig
    psm = PowerStateMachine(
        sim, recorder, "widget", {"on": 1.0, "off": 0.0}, initial_state="on"
    )
    recorded = recorder.changes("widget")
    with pytest.raises(PowerStateError):
        psm.set_state("off", routine="partying")
    assert (psm.state, psm.routine) == ("on", Routine.IDLE)
    assert recorder.changes("widget") == recorded
    with pytest.raises(PowerStateError):
        PowerStateMachine(
            sim, recorder, "w2", {"on": 1.0}, "on", initial_routine="partying"
        )
    assert "w2" not in recorder.components


def test_cpu_break_even_matches_paper():
    cal = default_calibration().cpu
    assert cal.wake_energy_j == pytest.approx(4e-3, rel=0.01)
    assert cal.break_even_time_s == pytest.approx(1.14e-3, rel=0.01)


def test_cpu_execute_times_and_energy(rig):
    sim, recorder = rig
    cpu = Cpu(sim, recorder, default_calibration().cpu, CpuState.IDLE)

    def job():
        yield from cpu.execute(0.010, Routine.APP_COMPUTE)

    sim.spawn(job())
    sim.run()
    busy = recorder.time_in_state("cpu", CpuState.BUSY, sim.now)
    assert busy == pytest.approx(0.010)
    assert cpu.psm.state == CpuState.IDLE


def test_cpu_execute_while_asleep_raises(rig):
    sim, recorder = rig
    cpu = Cpu(sim, recorder, default_calibration().cpu, CpuState.SLEEP)

    def job():
        yield from cpu.execute(0.001, Routine.APP_COMPUTE)

    sim.spawn(job())
    with pytest.raises(HardwareError):
        sim.run()


def test_cpu_wake_costs_transition(rig):
    sim, recorder = rig
    cal = default_calibration().cpu
    cpu = Cpu(sim, recorder, cal, CpuState.SLEEP)

    def job():
        yield from cpu.wake(Routine.INTERRUPT)

    sim.spawn(job())
    sim.run()
    assert sim.now == pytest.approx(cal.transition_time_s)
    assert cpu.psm.state == CpuState.IDLE
    assert cpu.wake_count == 1


def test_cpu_wake_when_awake_is_noop(rig):
    sim, recorder = rig
    cpu = Cpu(sim, recorder, default_calibration().cpu, CpuState.IDLE)

    def job():
        yield from cpu.wake(Routine.INTERRUPT)

    sim.spawn(job())
    sim.run()
    assert sim.now == 0.0
    assert cpu.wake_count == 0


def test_cpu_compute_time_from_instructions():
    sim = Simulator()
    cpu = Cpu(sim, PowerLedger(), default_calibration().cpu, CpuState.IDLE)
    # 24,000 MIPS -> 24e9 instructions per second.
    assert cpu.compute_time(24e9) == pytest.approx(1.0)
    with pytest.raises(HardwareError):
        cpu.compute_time(-1)


def test_mcu_is_19x_slower_than_cpu():
    cal = default_calibration()
    ratio = cal.cpu.mips / cal.mcu.mips
    assert ratio == pytest.approx(19.0)


def test_mcu_execute(rig):
    sim, recorder = rig
    mcu = Mcu(sim, recorder, default_calibration().mcu, McuState.IDLE)

    def job():
        yield from mcu.execute(0.005, Routine.DATA_COLLECTION)

    sim.spawn(job())
    sim.run()
    assert recorder.time_in_state("mcu", McuState.BUSY, sim.now) == pytest.approx(
        0.005
    )


def test_memory_region_accounting():
    region = MemoryRegion("ram", 100)
    region.allocate("a", 40)
    region.allocate("b", 30)
    assert region.used_bytes == 70
    assert region.free_bytes == 30
    with pytest.raises(CapacityError):
        region.allocate("c", 31)
    assert region.free("a") == 40
    assert region.used_bytes == 30
    assert region.peak_bytes == 70
    assert region.free("missing") == 0


def test_memory_region_label_accumulates():
    region = MemoryRegion("ram", 100)
    region.allocate("buf", 10)
    region.allocate("buf", 15)
    assert region.usage() == {"buf": 25}


def test_memory_region_rejects_bad_capacity():
    with pytest.raises(CapacityError):
        MemoryRegion("ram", 0)
