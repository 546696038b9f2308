"""Tests that the app profiles reproduce Table II's derived columns."""

import pytest

from repro.apps import all_ids, create_app, light_weight_ids
from repro.apps.registry import APP_PROFILES
from repro.calibration import default_calibration
from repro.errors import WorkloadError
from repro.units import to_kib

#: Table II ground truth: (interrupts, sensor-data KB) per app.
TABLE_II = {
    "A1": (2000, 11.72),
    "A2": (1000, 11.72),
    "A3": (20, 0.16),
    "A4": (2220, 20.47),
    "A5": (1221, 36.91),
    "A6": (2000, 11.72),
    "A7": (1000, 11.72),
    "A8": (1000, 3.91),
    "A9": (1, 23.81),
    "A10": (1, 0.50),
    "A11": (1000, 5.86),
}


def test_registry_has_eleven_apps():
    assert all_ids() == [f"A{i}" for i in range(1, 12)]


@pytest.mark.parametrize("table2_id", list(TABLE_II))
def test_interrupt_counts_match_table2(table2_id):
    app = create_app(table2_id)
    expected_interrupts, _ = TABLE_II[table2_id]
    assert app.profile.interrupts_per_window == expected_interrupts


@pytest.mark.parametrize("table2_id", list(TABLE_II))
def test_sensor_data_matches_table2(table2_id):
    app = create_app(table2_id)
    _, expected_kb = TABLE_II[table2_id]
    assert to_kib(app.profile.sensor_data_bytes) == pytest.approx(
        expected_kb, rel=0.03
    )


def test_create_app_by_machine_name():
    assert create_app("stepcounter").table2_id == "A2"
    assert create_app("m2x").table2_id == "A4"


def test_registered_profiles_are_the_apps_own():
    """Name and weight lookups read ``APP_PROFILES``; each entry is the
    profile its app is built with, under its own id."""
    assert list(APP_PROFILES) == all_ids()
    for table2_id, profile in APP_PROFILES.items():
        app = create_app(table2_id)
        assert app.profile is profile
        assert create_app(profile.name).table2_id == table2_id


def test_create_app_rejects_unknown():
    with pytest.raises(WorkloadError):
        create_app("A99")


def test_light_weight_excludes_a11():
    ids = light_weight_ids()
    assert "A11" not in ids
    assert len(ids) == 10


def test_only_a11_is_heavy():
    heavy = [i for i in all_ids() if create_app(i).profile.heavy]
    assert heavy == ["A11"]


def test_fig6_mips_average():
    mips = [create_app(i).profile.mips for i in light_weight_ids()]
    assert sum(mips) / len(mips) == pytest.approx(47.45, rel=0.01)


def test_fig6_mips_extremes():
    mips = {i: create_app(i).profile.mips for i in light_weight_ids()}
    assert min(mips, key=mips.get) == "A2"  # step counter, 3.94
    assert max(mips, key=mips.get) == "A8"  # heartbeat, 108.8
    assert mips["A2"] == pytest.approx(3.94)
    assert mips["A8"] == pytest.approx(108.8)


def test_fig6_memory_average_and_extremes():
    totals = {
        i: to_kib(create_app(i).profile.memory_bytes) for i in light_weight_ids()
    }
    average = sum(totals.values()) / len(totals)
    assert average == pytest.approx(26.2, rel=0.01)
    assert min(totals, key=totals.get) == "A7"  # earthquake, 16.8 KB
    assert max(totals, key=totals.get) == "A9"  # JPEG, 36.3 KB
    assert totals["A7"] == pytest.approx(16.8, rel=0.01)
    assert totals["A9"] == pytest.approx(36.3, rel=0.01)


def test_stepcounter_cpu_time_matches_fig8():
    app = create_app("A2")
    # Fig. 8: 2.21 ms of app-specific computing on the CPU.
    assert app.profile.cpu_compute_time_s() == pytest.approx(2.21e-3, rel=0.01)


def test_stepcounter_mcu_time_matches_fig8():
    app = create_app("A2")
    # Fig. 8: 21.7 ms on the MCU.
    assert app.profile.mcu_compute_time_s() == pytest.approx(21.7e-3, rel=0.01)


def test_arduinojson_mcu_time_matches_paper():
    app = create_app("A3")
    cal = default_calibration()
    # §IV-F: ~7 ms on the MCU vs 0.45 ms on the main board (we match the
    # ratio via the per-app slowdown override).
    ratio = app.profile.mcu_compute_time_s(cal) / app.profile.cpu_compute_time_s(cal)
    assert ratio == pytest.approx(15.6, rel=0.01)


def test_a11_cannot_fit_mcu_ram():
    app = create_app("A11")
    cal = default_calibration()
    assert app.profile.memory_bytes > cal.mcu.ram_bytes


def test_a11_is_slower_than_real_time():
    app = create_app("A11")
    # 4683 M instructions single-threaded at ~1783 MIPS: ~2.6 s per 1 s of
    # audio — the reason the compute routine dominates Fig. 12a.
    assert app.profile.cpu_compute_time_s() == pytest.approx(2.63, rel=0.01)
    assert app.profile.cpu_compute_time_s() > app.profile.window_s


def test_profile_validation():
    from repro.apps.base import AppProfile

    with pytest.raises(WorkloadError):
        AppProfile(
            table2_id="X", name="x", title="x", category="c",
            user_task="t", sensor_ids=(),
        )
    with pytest.raises(WorkloadError):
        AppProfile(
            table2_id="X", name="x", title="x", category="c",
            user_task="t", sensor_ids=("S4",), window_s=0.0,
        )
    with pytest.raises(WorkloadError):
        AppProfile(
            table2_id="X", name="x", title="x", category="c",
            user_task="t", sensor_ids=("S99",),
        )
