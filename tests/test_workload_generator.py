"""Tests for the synthetic workload generator and BEAM rate coalescing."""

import pytest

from repro.apps import create_app
from repro.core import Scenario, Scheme, run_scenario
from repro.errors import WorkloadError
from repro.workloads import FIG11_COMBOS, make_synthetic_app, shared_sensors


def test_synthetic_app_profile_derivation():
    app = make_synthetic_app("syn", sensor_ids=("S4",), rate_hz=100.0)
    assert app.profile.samples_per_window("S4") == 100
    assert app.profile.interrupts_per_window == 100
    assert app.profile.sensor_data_bytes == 100 * 12


def test_synthetic_app_computes_real_aggregates():
    from repro.apps.offline import collect_window
    from repro.sensors import ConstantWaveform

    app = make_synthetic_app("syn", rate_hz=50.0)
    window = collect_window(app, waveforms={"S4": ConstantWaveform(7.0)})
    result = app.compute(window)
    stats = result.payload["stats"]["S4"]
    assert stats["n"] == 50
    assert stats["mean"] == pytest.approx(7.0)
    assert stats["min"] == stats["max"] == pytest.approx(7.0)


def test_synthetic_app_runs_under_every_scheme():
    for scheme in (Scheme.BASELINE, Scheme.BATCHING, Scheme.COM):
        app = make_synthetic_app("syn", rate_hz=200.0, mips=5.0)
        result = run_scenario(Scenario(apps=[app], scheme=scheme))
        assert result.results_ok, scheme


def test_synthetic_heavy_app_rejected_by_com():
    from repro.errors import OffloadError

    app = make_synthetic_app("bigsyn", rate_hz=10.0, heavy=True)
    with pytest.raises(OffloadError):
        run_scenario(Scenario(apps=[app], scheme=Scheme.COM))


# ----------------------------------------------------------------------
# BEAM rate coalescing
# ----------------------------------------------------------------------
def test_beam_decimates_slower_subscriber():
    fast = create_app("A2")  # S4 @ 1 kHz
    slow = make_synthetic_app("slow", sensor_ids=("S4",), rate_hz=100.0)
    result = run_scenario(Scenario(apps=[fast, slow], scheme=Scheme.BEAM))
    # One shared stream at the fast rate.
    assert result.interrupt_count == 1000
    assert result.result_payloads("stepcounter")[0]["samples"] == 1000
    assert result.result_payloads("slow")[0]["stats"]["S4"]["n"] == 100


def test_beam_rejects_non_divisible_rates():
    fast = create_app("A2")  # 1 kHz
    odd = make_synthetic_app("odd", sensor_ids=("S4",), rate_hz=300.0)
    with pytest.raises(WorkloadError):
        run_scenario(Scenario(apps=[fast, odd], scheme=Scheme.BEAM))


def test_beam_rejects_mismatched_windows():
    a2 = create_app("A2")
    long_window = make_synthetic_app(
        "longwin", sensor_ids=("S4",), rate_hz=1000.0, window_s=2.0
    )
    with pytest.raises(WorkloadError):
        run_scenario(Scenario(apps=[a2, long_window], scheme=Scheme.BEAM))


def test_beam_equal_rate_sharing_unchanged():
    result = run_scenario(
        Scenario(
            apps=[create_app("A2"), create_app("A7")], scheme=Scheme.BEAM
        )
    )
    assert result.interrupt_count == 1000


# ----------------------------------------------------------------------
# combos table
# ----------------------------------------------------------------------
def test_fig11_combos_are_valid():
    """Each Fig. 11 combo shares a sensor (BEAM's precondition) and
    repeats no app."""
    for combo in FIG11_COMBOS:
        assert shared_sensors(combo), combo
        assert len(set(combo)) == len(combo), combo
