"""Unit tests for the hub OS layer: the CPU governor and the MCU nap
rule, IRQ service, transfers."""

import pytest

from repro.apps import create_app, light_weight_ids
from repro.calibration import default_calibration
from repro.core import Scenario
from repro.core.schemes.base import build_context, execute_scenario
from repro.hubos import (
    CpuGovernor,
    CpuRestPolicy,
    McuNapRule,
    characterize_apps,
    cpu_transfer,
)
from repro.hubos.interrupts import service_interrupt
from repro.hubos.transfer import cpu_transfer_time
from repro.hw import IoTHub
from repro.hw.cpu import CpuState
from repro.hw.mcu import McuState
from repro.hw.power import Routine

CPU_CAL = default_calibration().cpu


def rest_after(gap_s, allow_deep=False):
    """The governor's rest decision for an awake CPU ``gap_s`` before its
    next work (``None``: no work left)."""
    work_times = [] if gap_s is None else [gap_s]
    return CpuGovernor(CPU_CAL, work_times, allow_deep=allow_deep).rest(0.0)


# ----------------------------------------------------------------------
# rest policy
# ----------------------------------------------------------------------
def test_policy_next_work_lookup():
    policy = CpuRestPolicy([0.0, 0.001, 0.5, 1.0])
    assert policy.next_work_after(0.0) == 0.001
    assert policy.next_work_after(0.25) == 0.5
    assert policy.expected_idle(0.9) == pytest.approx(0.1)
    assert policy.expected_idle(2.0) is None


def test_policy_sorts_input():
    policy = CpuRestPolicy([3.0, 1.0, 2.0])
    assert policy.work_times == [1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# governor decisions
# ----------------------------------------------------------------------
def test_governor_stays_awake_for_short_gaps():
    # baseline's 1 kHz gap
    assert rest_after(0.0007) == (CpuState.IDLE, Routine.DATA_TRANSFER)


def test_governor_sleeps_for_long_gaps():
    # batching's window-length gap
    assert rest_after(0.9) == (CpuState.SLEEP, Routine.DATA_TRANSFER)


def test_governor_break_even_boundary():
    edge = CpuGovernor(CPU_CAL, []).break_even_s
    assert rest_after(edge * 0.99)[0] == CpuState.IDLE
    assert rest_after(edge * 1.01)[0] == CpuState.SLEEP


def test_governor_break_even_close_to_paper():
    # The paper derives 1.14 ms; with the awake-idle power the gap is
    # 4 mJ / (4.5 - 1.5) W = 1.33 ms.
    governor = CpuGovernor(CPU_CAL, [])
    assert governor.break_even_s == pytest.approx(1.33e-3, rel=0.01)


def test_governor_deep_sleep_when_no_work_and_allowed():
    # With nothing left to do, the power-gated rest is the hub's idle.
    assert rest_after(None, allow_deep=True) == (
        CpuState.DEEP_SLEEP, Routine.IDLE
    )


def test_governor_shallow_sleep_when_no_work_not_allowed_deep():
    assert rest_after(None) == (CpuState.SLEEP, Routine.DATA_TRANSFER)


def test_governor_deep_sleep_for_long_gaps_when_allowed():
    assert rest_after(1.0, allow_deep=True)[0] == CpuState.DEEP_SLEEP
    # Short gaps still avoid deep sleep even when allowed.
    assert rest_after(0.01, allow_deep=True)[0] == CpuState.SLEEP


def test_governor_never_disturbs_busy_cpu():
    ctx = build_context(Scenario.of(["A2"], scheme="batching"))
    cpu = ctx.hub.cpu
    cpu.psm.set_state(CpuState.BUSY)
    ctx.rest()
    assert cpu.psm.state == CpuState.BUSY


def test_ungoverned_cpu_stays_awake_once_up():
    governor = CpuGovernor(CPU_CAL, None, routine=Routine.IDLE)
    assert governor.rest(5.0) == (CpuState.IDLE, Routine.IDLE)


# ----------------------------------------------------------------------
# the MCU nap rule
# ----------------------------------------------------------------------
MCU_CAL = default_calibration().mcu


def test_nap_rule_naps_until_the_earliest_poll():
    nap = McuNapRule(MCU_CAL)
    assert nap.wait("S1@A3", 0.0375, 0.0188, idle=True) == 0.0375
    # A second stream's later poll does not move the wake.
    assert nap.wait("S2@A4", 0.5, 0.02, idle=True) == 0.0375


def test_nap_rule_keeps_a_busy_mcu_up_but_learns_the_poll():
    nap = McuNapRule(MCU_CAL)
    assert nap.wait("S1@A3", 0.0375, 0.0188, idle=False) is None
    assert nap.next_polls == {"S1@A3": 0.0375}


def test_nap_rule_stays_up_below_the_threshold():
    nap = McuNapRule(MCU_CAL)
    near = MCU_CAL.sleep_threshold_s
    assert nap.wait("S1@A3", near, 0.0, idle=True) is None
    assert nap.wait("S1@A3", 2 * near, 0.0, idle=True) == 2 * near


def test_nap_rule_stale_past_target_blocks_a_nap():
    nap = McuNapRule(MCU_CAL)
    nap.wait("S1@A3", 0.010, 0.0, idle=True)
    # S1 polled at 10 ms and is still in its chain at 18.8 ms: its
    # passed target keeps the MCU up for S2's far-off poll.
    assert nap.wait("S2@A4", 0.5, 0.0188, idle=True) is None


def test_nap_rule_knows_a_stream_only_once_it_waits():
    """The mechanism of the known wrong number (ROADMAP item 2): a
    stream still in its first read has never waited, so it is absent
    from the table and cannot keep the MCU up."""
    nap = McuNapRule(MCU_CAL)
    assert nap.wait("S2@A3", 0.0375, 0.0188, idle=True) == 0.0375
    assert "S1@A3" not in nap.next_polls


def test_nap_rule_forgets_a_finished_stream():
    nap = McuNapRule(MCU_CAL)
    nap.wait("S1@A3", 0.010, 0.0, idle=True)
    nap.finish("S1@A3")
    assert "S1@A3" not in nap.next_polls
    assert nap.wait("S2@A4", 0.5, 0.0188, idle=True) == 0.5
    nap.finish("S1@A3")  # finishing twice is harmless


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the MCU naps while another stream's first "
    "rail read is in flight; registering every stream in the nap rule "
    "at spawn fixes it",
)
def test_mcu_never_turns_busy_straight_from_a_nap():
    """A3 alone under batching, one window: the MCU naps at 18.80 ms
    while S1 reads until 37.5 ms, then turns busy with no wake."""
    result = execute_scenario(Scenario.of(["A3"], scheme="batching"))
    changes = result.hub.recorder.timeline("mcu").changes
    jumps = [
        (before[0], after[0])
        for before, after in zip(changes, changes[1:])
        if before[1] == McuState.SLEEP and after[1] == McuState.BUSY
    ]
    assert jumps == []


# ----------------------------------------------------------------------
# IRQ service + transfer
# ----------------------------------------------------------------------
def test_service_interrupt_wakes_sleeping_cpu():
    hub = IoTHub()
    hub.cpu.psm.set_state(CpuState.SLEEP, Routine.IDLE)

    def handler():
        yield from service_interrupt(hub)

    hub.sim.spawn(handler())
    hub.run()
    assert hub.cpu.wake_count == 1
    expected = (
        hub.calibration.cpu.transition_time_s
        + hub.calibration.cpu.interrupt_handling_time_s
    )
    assert hub.sim.now == pytest.approx(expected)


def test_cpu_transfer_bulk_amortizes_per_sample_cost():
    cal = default_calibration()

    def run_transfer(bulk):
        hub = IoTHub(cpu_initial_state=CpuState.IDLE)

        def mover():
            yield from cpu_transfer(hub, nbytes=12_000, sample_count=1000, bulk=bulk)

        hub.sim.spawn(mover())
        hub.run()
        return hub.sim.now

    slow = run_transfer(bulk=False)
    fast = run_transfer(bulk=True)
    assert fast < slow
    wire = 20e-6 + 12_000 / cal.bus.bandwidth_bytes_per_s
    assert fast == pytest.approx(
        cal.cpu.bulk_transfer_time_per_sample_s * 1000 + wire, rel=0.01
    )


def test_bulk_transfer_matches_paper_100ms():
    # §III-A: transferring 1000 batched samples takes ~100 ms.
    hub = IoTHub(cpu_initial_state=CpuState.IDLE)

    def mover():
        yield from cpu_transfer(hub, nbytes=12_000, sample_count=1000, bulk=True)

    hub.sim.spawn(mover())
    hub.run()
    assert hub.sim.now == pytest.approx(0.102, rel=0.05)


def test_concurrent_cpu_transfers_serialize_on_the_core():
    # The CPU holds its core for the whole transfer, wire time included,
    # and that is what keeps two transfers from overlapping on the bus.
    hub = IoTHub(cpu_initial_state=CpuState.IDLE)

    def mover():
        yield from cpu_transfer(hub, nbytes=12, sample_count=1, bulk=False)

    hub.sim.spawn(mover())
    hub.sim.spawn(mover())
    hub.run()
    assert hub.cpu.core.contention_count == 1
    assert hub.bus.transfer_count == 2
    assert hub.bus.bytes_transferred == 24
    (first_start, first_end), (second_start, second_end) = [
        (t0, t1)
        for t0, t1, state, _, _ in hub.recorder.intervals("pio_bus", hub.sim.now)
        if state == "active"
    ]
    cpu_time = cpu_transfer_time(hub.calibration, 12, 1, bulk=False)
    assert first_start == 0.0
    assert first_end < second_start == cpu_time
    assert second_end == pytest.approx(cpu_time + hub.bus.transfer_duration(12))
    assert hub.sim.now == pytest.approx(2 * cpu_time)


# ----------------------------------------------------------------------
# profiler (Fig. 6)
# ----------------------------------------------------------------------
def test_characterize_apps_reports_fig6_quantities():
    rows = characterize_apps([create_app(i) for i in light_weight_ids()])
    assert len(rows) == 10
    by_id = {row.table2_id: row for row in rows}
    assert by_id["A2"].mips == pytest.approx(3.94)
    assert by_id["A9"].memory_kb == pytest.approx(36.3, rel=0.01)
    average_memory = sum(row.memory_kb for row in rows) / len(rows)
    assert average_memory == pytest.approx(26.2, rel=0.01)
    for row in rows:
        assert row.window_samples > 0
        assert row.host_compute_s >= 0.0
