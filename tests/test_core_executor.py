"""Integration tests: scenarios through the full simulator."""

import pytest

from repro.core import Scenario, Scheme, run_apps
from repro.errors import OffloadError, WorkloadError
from repro.hw.cpu import CpuState
from repro.hw.power import Routine


# ----------------------------------------------------------------------
# scenario validation
# ----------------------------------------------------------------------
def test_scenario_rejects_empty_and_bad_scheme():
    with pytest.raises(WorkloadError):
        Scenario(apps=[])
    with pytest.raises(WorkloadError):
        Scenario.of(["A2"], scheme="warp")
    with pytest.raises(WorkloadError):
        Scenario.of(["A2"], windows=0)
    with pytest.raises(WorkloadError):
        Scenario.of(["A2", "A2"])


def test_scenario_sensor_union():
    scenario = Scenario.of(["A2", "A4"])
    assert scenario.sensor_ids == ["S4", "S1", "S2", "S5", "S7"]


# ----------------------------------------------------------------------
# baseline semantics
# ----------------------------------------------------------------------
def test_baseline_interrupt_count_matches_table2():
    result = run_apps(["A2"], Scheme.BASELINE)
    assert result.interrupt_count == 1000
    result = run_apps(["A4"], Scheme.BASELINE)
    assert result.interrupt_count == 2220


def test_baseline_cpu_never_sleeps():
    result = run_apps(["A2"], Scheme.BASELINE)
    recorder = result.hub.recorder
    assert recorder.time_in_state("cpu", CpuState.SLEEP, result.duration_s) == 0.0
    assert result.cpu_wake_count == 0


def test_baseline_results_are_functional():
    result = run_apps(["A2"], Scheme.BASELINE)
    assert result.results_ok
    payload = result.result_payloads("stepcounter")[0]
    assert payload["samples"] == 1000
    assert payload["steps"] >= 1  # default walking waveform


def test_baseline_transfer_dominates_energy():
    result = run_apps(["A2"], Scheme.BASELINE)
    fractions = result.energy.routine_fractions()
    assert fractions[Routine.DATA_TRANSFER] > 0.7  # paper: ~77-81%
    assert fractions[Routine.INTERRUPT] > 0.05  # paper: ~10-16%
    assert fractions[Routine.APP_COMPUTE] < 0.05


def test_multi_window_baseline():
    result = run_apps(["A2"], Scheme.BASELINE, windows=3)
    assert result.interrupt_count == 3000
    assert len(result.app_results["stepcounter"]) == 3
    assert result.duration_s >= 3.0


# ----------------------------------------------------------------------
# batching semantics
# ----------------------------------------------------------------------
def test_batching_single_interrupt_per_window():
    result = run_apps(["A2"], Scheme.BATCHING)
    assert result.interrupt_count == 1  # paper: 1000 -> 1
    assert result.results_ok


def test_batching_cpu_sleeps_most_of_window():
    result = run_apps(["A2"], Scheme.BATCHING)
    recorder = result.hub.recorder
    asleep = recorder.time_in_state("cpu", CpuState.SLEEP, result.duration_s)
    # Paper Fig. 7 caption: CPU sleeps ~93% of the time under Batching.
    assert asleep / result.duration_s > 0.8


def test_batching_saves_energy_vs_baseline():
    baseline = run_apps(["A2"], Scheme.BASELINE)
    batching = run_apps(["A2"], Scheme.BATCHING)
    savings = batching.energy.savings_vs(baseline.energy)
    assert 0.4 < savings < 0.7  # paper: 52% avg / 63% for the step counter


def test_batching_same_functional_results_as_baseline():
    baseline = run_apps(["A2"], Scheme.BASELINE)
    batching = run_apps(["A2"], Scheme.BATCHING)
    assert (
        baseline.result_payloads("stepcounter")[0]["steps"]
        == batching.result_payloads("stepcounter")[0]["steps"]
    )


def test_batching_multi_window_reuses_buffer():
    result = run_apps(["A2"], Scheme.BATCHING, windows=2)
    assert result.interrupt_count == 2
    assert result.hub.mcu.ram.used_bytes == 0  # all batches flushed


# ----------------------------------------------------------------------
# COM semantics
# ----------------------------------------------------------------------
def test_com_eliminates_sample_interrupts():
    result = run_apps(["A2"], Scheme.COM)
    assert result.interrupt_count == 1  # only the result crosses
    assert result.bus_bytes <= 64  # output payload, not 12 KB of samples


def test_com_saves_most_energy():
    baseline = run_apps(["A2"], Scheme.BASELINE)
    com = run_apps(["A2"], Scheme.COM)
    savings = com.energy.savings_vs(baseline.energy)
    assert 0.8 < savings < 0.95  # paper: 85% average


def test_com_cpu_deep_sleeps():
    result = run_apps(["A2"], Scheme.COM)
    recorder = result.hub.recorder
    deep = recorder.time_in_state("cpu", CpuState.DEEP_SLEEP, result.duration_s)
    assert deep / result.duration_s > 0.8


def test_com_functional_results_identical_to_baseline():
    baseline = run_apps(["A2"], Scheme.BASELINE)
    com = run_apps(["A2"], Scheme.COM)
    assert (
        baseline.result_payloads("stepcounter")[0]["steps"]
        == com.result_payloads("stepcounter")[0]["steps"]
    )


def test_com_rejects_heavy_app():
    with pytest.raises(OffloadError):
        run_apps(["A11"], Scheme.COM)


def test_com_meets_qos():
    result = run_apps(["A2"], Scheme.COM, windows=2)
    assert result.qos_violations == []


def test_com_offload_report_attached():
    result = run_apps(["A2"], Scheme.COM)
    assert result.offload_reports["stepcounter"].offloadable


# ----------------------------------------------------------------------
# BEAM semantics
# ----------------------------------------------------------------------
def test_beam_shares_common_sensor_stream():
    baseline = run_apps(["A2", "A7"], Scheme.BASELINE)
    beam = run_apps(["A2", "A7"], Scheme.BEAM)
    # Both apps read S4 at 1 kHz: baseline polls twice, BEAM once.
    assert baseline.interrupt_count == 2000
    assert beam.interrupt_count == 1000
    assert beam.results_ok


def test_beam_saves_energy_only_with_sharing():
    baseline = run_apps(["A2", "A7"], Scheme.BASELINE)
    beam = run_apps(["A2", "A7"], Scheme.BEAM)
    savings = beam.energy.savings_vs(baseline.energy)
    # A2+A7 is BEAM's best case (fully shared sensor).  The paper reports
    # 48.2% there; our baseline charges most energy to the always-awake
    # CPU, which BEAM cannot reduce, so the saving is smaller but must
    # clearly exceed the no-sharing case (see EXPERIMENTS.md).
    assert savings > 0.08


def test_beam_no_sharing_no_benefit():
    baseline = run_apps(["A2", "A8"], Scheme.BASELINE)
    beam = run_apps(["A2", "A8"], Scheme.BEAM)
    assert beam.interrupt_count == baseline.interrupt_count
    assert abs(beam.energy.savings_vs(baseline.energy)) < 0.05


def test_beam_delivers_every_subscriber_full_windows():
    beam = run_apps(["A2", "A7"], Scheme.BEAM)
    assert beam.result_payloads("stepcounter")[0]["samples"] == 1000
    assert beam.result_payloads("earthquake")[0]["peak_ratio"] > 0


# ----------------------------------------------------------------------
# BCOM semantics
# ----------------------------------------------------------------------
def test_bcom_partitions_heavy_and_light():
    result = run_apps(["A11", "A6"], Scheme.BCOM)
    assert result.offload_reports["dropbox"].offloadable
    assert not result.offload_reports["speech2text"].offloadable
    assert result.results_ok


def test_bcom_beats_batching_with_mixed_apps():
    baseline = run_apps(["A11", "A6"], Scheme.BASELINE)
    batching = run_apps(["A11", "A6"], Scheme.BATCHING)
    bcom = run_apps(["A11", "A6"], Scheme.BCOM)
    batching_savings = batching.energy.savings_vs(baseline.energy)
    bcom_savings = bcom.energy.savings_vs(baseline.energy)
    assert bcom_savings > batching_savings > 0


def test_bcom_all_light_apps_acts_like_com():
    bcom = run_apps(["A2"], Scheme.BCOM)
    com = run_apps(["A2"], Scheme.COM)
    assert bcom.interrupt_count == com.interrupt_count == 1


# ----------------------------------------------------------------------
# cross-scheme invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme", [Scheme.BASELINE, Scheme.BATCHING, Scheme.COM, Scheme.BCOM]
)
def test_every_scheme_is_functionally_equivalent(scheme):
    result = run_apps(["A7"], scheme)
    payload = result.result_payloads("earthquake")[0]
    assert "triggered" in payload
    assert result.results_ok


def test_energy_conservation_full_run():
    result = run_apps(["A2", "A4"], Scheme.BASELINE)
    by_routine = sum(result.energy.by_routine.values())
    by_component = sum(result.energy.by_component.values())
    assert by_routine == pytest.approx(result.energy.total_j)
    assert by_component == pytest.approx(result.energy.total_j)


def test_deterministic_reruns():
    first = run_apps(["A2"], Scheme.BATCHING)
    second = run_apps(["A2"], Scheme.BATCHING)
    assert first.energy.total_j == pytest.approx(second.energy.total_j, rel=1e-12)
    assert first.duration_s == second.duration_s
