"""Unit tests for energy integration and reports."""

import pytest

from repro.energy import EnergyReport, PowerLedger, integrate
from repro.hw.power import Routine


def record(ledger, time, component, state, power, routine):
    ledger.timeline(component).changes.append((time, state, power, routine))


def measure(ledger, end_time, idle_floor_power_w):
    energy, _ = integrate(ledger.timelines(), end_time)
    return EnergyReport(
        duration_s=end_time,
        idle_floor_power_w=idle_floor_power_w,
        by_component_routine=energy,
    )


def test_integration_is_power_times_time():
    ledger = PowerLedger()
    record(ledger, 0.0, "cpu", "busy", 5.0, Routine.APP_COMPUTE)
    report = measure(ledger, end_time=2.0, idle_floor_power_w=0.5)
    assert report.total_j == pytest.approx(10.0)
    assert report.routine_j(Routine.APP_COMPUTE) == pytest.approx(10.0)


def test_routine_attribution_splits():
    ledger = PowerLedger()
    record(ledger, 0.0, "cpu", "busy", 5.0, Routine.INTERRUPT)
    record(ledger, 1.0, "cpu", "busy", 5.0, Routine.DATA_TRANSFER)
    record(ledger, 3.0, "cpu", "idle", 2.5, Routine.DATA_TRANSFER)
    report = measure(ledger, end_time=4.0, idle_floor_power_w=0.0)
    assert report.routine_j(Routine.INTERRUPT) == pytest.approx(5.0)
    assert report.routine_j(Routine.DATA_TRANSFER) == pytest.approx(12.5)
    assert report.total_j == pytest.approx(17.5)


def test_energy_conservation_across_views():
    ledger = PowerLedger()
    record(ledger, 0.0, "cpu", "busy", 5.0, Routine.APP_COMPUTE)
    record(ledger, 0.5, "cpu", "idle", 2.5, Routine.IDLE)
    record(ledger, 0.0, "mcu", "busy", 0.35, Routine.DATA_COLLECTION)
    report = measure(ledger, end_time=2.0, idle_floor_power_w=0.1)
    assert sum(report.by_routine.values()) == pytest.approx(report.total_j)
    assert sum(report.by_component.values()) == pytest.approx(report.total_j)


def test_marginal_subtracts_idle_floor():
    report = EnergyReport(duration_s=2.0, idle_floor_power_w=0.5)
    report.by_component_routine[("cpu", Routine.APP_COMPUTE)] = 10.0
    assert report.idle_floor_j == pytest.approx(1.0)
    assert report.marginal_j == pytest.approx(9.0)


def test_marginal_never_negative():
    report = EnergyReport(duration_s=10.0, idle_floor_power_w=1.0)
    report.by_component_routine[("cpu", Routine.IDLE)] = 2.0
    assert report.marginal_j == 0.0


def test_savings_vs_baseline():
    baseline = EnergyReport(duration_s=1.0, idle_floor_power_w=0.0)
    baseline.by_component_routine[("cpu", Routine.DATA_TRANSFER)] = 10.0
    optimized = EnergyReport(duration_s=1.0, idle_floor_power_w=0.0)
    optimized.by_component_routine[("cpu", Routine.DATA_TRANSFER)] = 4.0
    assert optimized.savings_vs(baseline) == pytest.approx(0.6)
    assert optimized.normalized_to(baseline) == pytest.approx(0.4)


def test_routine_fractions_exclude_idle_by_default():
    report = EnergyReport(duration_s=1.0, idle_floor_power_w=0.0)
    report.by_component_routine[("cpu", Routine.DATA_TRANSFER)] = 8.0
    report.by_component_routine[("cpu", Routine.IDLE)] = 2.0
    fractions = report.routine_fractions()
    assert fractions[Routine.DATA_TRANSFER] == pytest.approx(1.0)
    with_idle = report.routine_fractions(include_idle=True)
    assert with_idle[Routine.IDLE] == pytest.approx(0.2)


def test_scaled_routine_bars_sum_to_normalized_total():
    baseline = EnergyReport(duration_s=1.0, idle_floor_power_w=0.1)
    baseline.by_component_routine[("cpu", Routine.DATA_TRANSFER)] = 8.0
    baseline.by_component_routine[("cpu", Routine.INTERRUPT)] = 2.0
    optimized = EnergyReport(duration_s=1.0, idle_floor_power_w=0.1)
    optimized.by_component_routine[("cpu", Routine.DATA_TRANSFER)] = 3.0
    optimized.by_component_routine[("cpu", Routine.INTERRUPT)] = 1.0
    bars = optimized.scaled_routine_bars(baseline)
    assert sum(bars.values()) == pytest.approx(optimized.normalized_to(baseline))


def test_sample_trace_matches_instantaneous_power():
    ledger = PowerLedger()
    record(ledger, 0.0, "cpu", "idle", 2.5, Routine.IDLE)
    record(ledger, 1.0, "cpu", "busy", 5.0, Routine.APP_COMPUTE)
    record(ledger, 0.0, "mcu", "sleep", 0.01, Routine.IDLE)
    samples = ledger.sample_trace(end_time=2.0, sample_interval_s=0.5)
    assert samples[0] == (0.0, pytest.approx(2.51))
    assert samples[-1] == (2.0, pytest.approx(5.01))
