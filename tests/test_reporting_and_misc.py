"""Coverage for reporting helpers, units, calibration and comparisons."""

import pytest

from repro.apps import create_app
from repro.apps.offline import collect_window
from repro.calibration import default_calibration
from repro.core import Scenario, Scheme, compare_schemes, savings_table
from repro.core.compare import average_savings
from repro.energy.report import ROUTINE_LABELS, format_breakdown_table, format_series
from repro.errors import WorkloadError
from repro.hw.power import Routine
from repro.units import (
    kib,
    khz,
    mhz,
    mj,
    ms,
    mw,
    ns,
    to_kib,
    to_mj,
    to_ms,
    to_mw,
    us,
)
from repro.workloads import table1_rows, table2_rows


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
def test_unit_roundtrips():
    assert to_ms(ms(2.5)) == pytest.approx(2.5)
    assert to_mw(mw(13.5)) == pytest.approx(13.5)
    assert to_mj(mj(42.0)) == pytest.approx(42.0)
    assert to_kib(kib(36.3)) == pytest.approx(36.3, rel=1e-3)


def test_unit_scales():
    assert us(1000) == pytest.approx(ms(1))
    assert ns(1e6) == pytest.approx(ms(1))
    assert khz(1) == 1000.0
    assert mhz(80) == 80e6


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def test_calibration_paper_constants():
    cal = default_calibration()
    assert cal.cpu.active_power_w == 5.0
    assert cal.cpu.sleep_power_w == 1.5
    assert cal.cpu.wake_energy_j == pytest.approx(4e-3)
    assert cal.mcu.ram_bytes == 80 * 1024
    assert cal.idle_hub_power_w == pytest.approx(0.5, abs=0.05)


def test_calibration_with_cpu_is_a_copy():
    cal = default_calibration()
    tweaked = cal.with_cpu(active_power_w=7.0)
    assert tweaked.cpu.active_power_w == 7.0
    assert cal.cpu.active_power_w == 5.0  # original untouched


def test_calibration_uniform_slowdown():
    cal = default_calibration().with_uniform_mcu_slowdown(10.0)
    assert cal.mcu_slowdown("stepcounter") == pytest.approx(10.0)
    assert cal.mcu_slowdown("anything") == pytest.approx(10.0)
    with pytest.raises(ValueError):
        default_calibration().with_uniform_mcu_slowdown(0.0)


def test_calibration_per_app_overrides_apply():
    cal = default_calibration()
    assert cal.mcu_slowdown("stepcounter") == pytest.approx(9.8)
    assert cal.mcu_slowdown("unknown-app") == pytest.approx(19.0)


# ----------------------------------------------------------------------
# report formatting
# ----------------------------------------------------------------------
def test_routine_labels_cover_all_routines():
    assert set(ROUTINE_LABELS) == set(Routine.ORDER)


def test_format_breakdown_table_structure():
    results = compare_schemes(["A2"], [Scheme.BASELINE, Scheme.COM])
    table = format_breakdown_table(
        {name: result.energy for name, result in results.items()},
        baseline_key=Scheme.BASELINE,
        title="demo",
    )
    lines = table.splitlines()
    assert lines[0] == "demo"
    assert "Savings %" in lines[1]
    assert len(lines) == 2 + 2  # title + header + two scheme rows


def test_format_breakdown_table_rejects_missing_baseline():
    results = compare_schemes(["A2"], [Scheme.BASELINE])
    with pytest.raises(WorkloadError):
        format_breakdown_table(
            {name: result.energy for name, result in results.items()},
            baseline_key="nonexistent",
        )


def test_format_series():
    text = format_series(["a", "b"], [1.0, 2.5], unit="J")
    assert "a" in text and "2.500 J" in text


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def test_table1_rows_cover_all_sensors():
    rows = table1_rows()
    assert len(rows) == 12  # header + 11 sensors
    text = "\n".join(rows)
    for sensor in ("Barometer", "Fingerprint", "HighResImage"):
        assert sensor in text


def test_table2_rows_cover_all_apps():
    rows = table2_rows()
    assert len(rows) == 12  # header + 11 apps
    text = "\n".join(rows)
    assert "Speech-To-Text" in text
    assert "11.72" in text  # the repeated sensor-data KB of A1/A2/A6/A7


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------
def test_savings_table_excludes_baseline():
    results = compare_schemes(["A2"], [Scheme.BASELINE, Scheme.BATCHING, Scheme.COM])
    table = savings_table(results)
    assert set(table) == {Scheme.BATCHING, Scheme.COM}
    assert table[Scheme.COM] > table[Scheme.BATCHING] > 0


def test_average_savings_over_apps():
    per_app = {
        app_id: compare_schemes([app_id], [Scheme.BASELINE, Scheme.BATCHING])
        for app_id in ("A2", "A3")
    }
    value = average_savings(per_app, Scheme.BATCHING)
    assert 0.0 < value < 1.0
    assert average_savings({}, Scheme.BATCHING) == 0.0


# ----------------------------------------------------------------------
# scenario / offline helpers
# ----------------------------------------------------------------------
def test_scenario_autoname_and_horizon():
    scenario = Scenario.of(["A2", "A8"], scheme=Scheme.BASELINE, windows=2)
    assert scenario.name == "A2+A8:baseline"
    assert scenario.horizon_s == pytest.approx(10.0)  # A8's 5 s window x 2


def test_collect_window_counts_and_times():
    app = create_app("A4")
    window = collect_window(app, start_s=3.0)
    assert window.total_count == 2220
    times = window.times("S4")
    assert times[0] == pytest.approx(3.0)
    assert times[-1] == pytest.approx(3.999)
    assert window.count("S1") == 10
    assert window.values("S1").shape == (10, 1)


def test_sample_window_empty_sensor_queries():
    app = create_app("A2")
    window = app.build_window(0, 0.0)
    assert window.count("S4") == 0
    assert window.values("S4").size == 0
    assert window.scalar_series("S4").size == 0
