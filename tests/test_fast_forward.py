"""Parity and fallback tests for steady-state fast-forward.

The contract (docs/performance.md): with ``fast_forward=True`` energy
and duration match the full simulation at rtol 1e-9, integer counters
(interrupts, wakes, bus bytes, per-app result counts) match exactly,
and scenarios without a verified steady state transparently fall back
to the full event-driven run, bit-identical to ``fast_forward=False``.
"""

import dataclasses
import random

import pytest

from repro.core import Scenario, run_apps, run_scenario
from repro.core.analytic import model as analytic
from repro.core.fastforward import MIN_WINDOWS, TRUNCATED_WINDOWS
from repro.obs import TraceRecorder
from repro.sim import hyperperiod
from repro.sim.steadystate import dicts_close

RTOL = 1e-9
ALL_SCHEMES = ["baseline", "batching", "com", "beam", "bcom", "polling"]


def run_both(apps, scheme, windows, **kwargs):
    """One full run and one fast-forward run of the same scenario."""
    full = run_apps(apps, scheme, windows=windows, **kwargs)
    recorder = TraceRecorder()
    fast = run_apps(
        apps, scheme, windows=windows, obs=recorder,
        fast_forward=True, **kwargs,
    )
    return full, fast, recorder


def assert_parity(full, fast):
    """The ISSUE acceptance bars: rtol 1e-9 floats, exact counters."""
    assert fast.energy.total_j == pytest.approx(full.energy.total_j, rel=RTOL)
    assert fast.duration_s == pytest.approx(full.duration_s, rel=RTOL)
    assert fast.energy.duration_s == pytest.approx(
        full.energy.duration_s, rel=RTOL
    )
    assert set(fast.energy.by_component_routine) == set(
        full.energy.by_component_routine
    )
    for key, joules in full.energy.by_component_routine.items():
        assert fast.energy.by_component_routine[key] == pytest.approx(
            joules, rel=RTOL, abs=1e-12
        ), key
    assert set(fast.busy_times) == set(full.busy_times)
    for routine, seconds in full.busy_times.items():
        assert fast.busy_times[routine] == pytest.approx(
            seconds, rel=RTOL, abs=1e-12
        ), routine
    # Integer counters are exact, not approximate.
    assert fast.interrupt_count == full.interrupt_count
    assert fast.cpu_wake_count == full.cpu_wake_count
    assert fast.bus_bytes == full.bus_bytes
    assert fast.windows == full.windows
    assert fast.qos_violations == full.qos_violations
    assert set(fast.app_results) == set(full.app_results)
    for name, results in full.app_results.items():
        replayed = fast.app_results[name]
        assert len(replayed) == len(results)
        assert [r.window_index for r in replayed] == [
            r.window_index for r in results
        ]
    for name, times in full.result_times.items():
        assert fast.result_times[name] == pytest.approx(
            times, rel=RTOL, abs=1e-9
        )
    assert fast.results_ok == full.results_ok


def assert_exact_fallback(full, fast, recorder, reason):
    """Fallback runs the normal path: results must be bit-identical."""
    assert recorder.counters.get("sim.ff.fallbacks") == 1
    assert recorder.counters.get(f"sim.ff.fallback.{reason}") == 1
    assert "sim.ff.cycles_skipped" not in recorder.counters
    assert fast.energy.by_component_routine == full.energy.by_component_routine
    assert fast.duration_s == full.duration_s
    assert fast.busy_times == full.busy_times
    assert fast.result_times == full.result_times
    assert fast.interrupt_count == full.interrupt_count


# ----------------------------------------------------------------------
# parity across schemes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_parity_across_all_schemes(scheme):
    full, fast, recorder = run_both(["A3"], scheme, windows=20)
    assert_parity(full, fast)
    assert full.results_ok
    skipped = recorder.counters.get("sim.ff.cycles_skipped")
    assert skipped == 20 - TRUNCATED_WINDOWS
    assert recorder.counters.get("sim.ff.events_saved", 0) > 0


def test_parity_multi_app_shared_sensors():
    """Two apps sharing S1/S2 streams still reach a steady state."""
    full, fast, _ = run_both(["A3", "A5"], "batching", windows=12)
    assert_parity(full, fast)


def test_parity_high_rate_stream():
    """A 1000 Hz stream: thousands of events per cycle extrapolate."""
    full, fast, recorder = run_both(["A7"], "batching", windows=14)
    assert_parity(full, fast)
    assert recorder.counters["sim.ff.events_saved"] > 5_000


def test_fast_forward_executes_fewer_events():
    recorder_full = TraceRecorder()
    run_apps(["A3"], "batching", windows=40, obs=recorder_full)
    recorder_fast = TraceRecorder()
    run_apps(
        ["A3"], "batching", windows=40,
        obs=recorder_fast, fast_forward=True,
    )
    full_events = recorder_full.counters["sim.events"]
    fast_events = recorder_fast.counters["sim.events"]
    assert fast_events < full_events / 4
    assert (
        recorder_fast.counters["sim.ff.events_saved"]
        == full_events - fast_events
    )


def test_randomized_scenario_sample():
    """Seeded random scenarios: parity when fast-forwarded, exact
    equality when the engine falls back."""
    rng = random.Random(0x5EED)
    pool = ["A1", "A3", "A4", "A5", "A7"]
    for _ in range(6):
        apps = rng.sample(pool, rng.choice([1, 1, 2]))
        scheme = rng.choice(["baseline", "batching", "beam", "polling"])
        windows = rng.randrange(MIN_WINDOWS, 16)
        full, fast, recorder = run_both(sorted(apps), scheme, windows)
        if "sim.ff.cycles_skipped" in recorder.counters:
            assert_parity(full, fast)
        else:
            reasons = [
                key for key in recorder.counters
                if key.startswith("sim.ff.fallback.")
            ]
            assert len(reasons) == 1
            assert fast.energy.by_component_routine == (
                full.energy.by_component_routine
            )
            assert fast.duration_s == full.duration_s


# ----------------------------------------------------------------------
# fallbacks
# ----------------------------------------------------------------------
def test_fallback_too_short():
    full, fast, recorder = run_both(["A3"], "baseline", windows=MIN_WINDOWS - 1)
    assert_exact_fallback(full, fast, recorder, "too_short")


def test_fallback_mixed_windows():
    """A3 (1 s windows) + A8 (5 s windows): no uniform cycle to skip."""
    full, fast, recorder = run_both(
        ["A3", "A8"], "baseline", windows=MIN_WINDOWS
    )
    assert_exact_fallback(full, fast, recorder, "mixed_windows")


def test_fallback_failure_injection():
    """Failure draws are keyed to absolute read counts — aperiodic."""
    scenario = dataclasses.replace(
        Scenario.of(["A3"], scheme="baseline", windows=12),
        sensor_failure_rates={"S1": 0.05},
    )
    full = run_scenario(scenario)
    recorder = TraceRecorder()
    fast = run_scenario(scenario, obs=recorder, fast_forward=True)
    assert_exact_fallback(full, fast, recorder, "failure_injection")


def test_fallback_no_steady_state():
    """A2+A4 batching drifts across cycles; verification must refuse
    to extrapolate and rerun the full simulation."""
    full, fast, recorder = run_both(["A2", "A4"], "batching", windows=10)
    assert_exact_fallback(full, fast, recorder, "no_steady_state")
    assert_parity(full, fast)  # exact equality implies parity too


def test_flag_off_is_untouched():
    """Without the flag no fast-forward counters ever appear."""
    recorder = TraceRecorder()
    run_apps(["A3"], "batching", windows=12, obs=recorder)
    assert not any(key.startswith("sim.ff") for key in recorder.counters)


# ----------------------------------------------------------------------
# steady-state helpers
# ----------------------------------------------------------------------
def test_hyperperiod_integers_and_fractions():
    assert hyperperiod([1.0, 5.0]) == pytest.approx(5.0)
    assert hyperperiod([0.5, 0.75]) == pytest.approx(1.5)
    assert hyperperiod([2.0]) == pytest.approx(2.0)
    assert hyperperiod([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_hyperperiod_rejects_degenerate_inputs():
    assert hyperperiod([]) is None
    assert hyperperiod([0.0, 1.0]) is None
    assert hyperperiod([-2.0]) is None


def test_dicts_close_requires_matching_keys():
    assert dicts_close({"a": 1.0}, {"a": 1.0 + 1e-15})
    assert not dicts_close({"a": 1.0}, {"a": 1.0 + 1e-6})
    assert not dicts_close({"a": 1.0}, {"a": 1.0, "b": 0.0})


# ----------------------------------------------------------------------
# overlap with the analytic tier's cycle extrapolation
# ----------------------------------------------------------------------
FIG10_APPS = tuple(f"A{index}" for index in range(1, 11))
FIG11_COMBOS = (
    ("A2", "A5"), ("A5", "A7"), ("A4", "A5"), ("A3", "A5"), ("A2", "A7"),
    ("A2", "A4"), ("A4", "A7"), ("A3", "A4"), ("A2", "A5", "A7"),
    ("A2", "A4", "A5"), ("A5", "A7", "A4"), ("A3", "A4", "A5"),
    ("A2", "A4", "A7"), ("A2", "A4", "A5", "A7"),
)

#: Every scenario fast-forward accelerates in this file's corpus and on
#: the Figure 10/11 app sets at 12 windows, as measured for the overlap
#: table in docs/performance.md.  Fast-forward's verdicts are data here:
#: each costs a truncated DES run, minutes over the whole corpus.
FAST_FORWARDED = sorted(
    set(
        [(("A3",), scheme) for scheme in ALL_SCHEMES]
        + [
            (("A3", "A5"), "batching"),
            (("A7",), "batching"),
            (("A7",), "polling"),
            (("A5", "A7"), "beam"),
            (("A3", "A4"), "baseline"),
        ]
        # Figure 10: every point but A5 under COM (no steady state).
        + [
            ((app,), scheme)
            for app in FIG10_APPS
            for scheme in ("baseline", "batching", "com")
            if (app, scheme) != ("A5", "com")
        ]
        # Figure 11: every combination under BEAM, two under baseline.
        + [(combo, "beam") for combo in FIG11_COMBOS]
        + [(("A3", "A5"), "baseline")]
    )
)

#: Fast-forwarded scenarios the analytic tier does not extrapolate.
NOT_EXTRAPOLATED = {
    (("A3", "A4"), "baseline"): "A3's result phase shifts in windows 2-3",
    (("A3", "A5"), "baseline"): "A3's result phase shifts in windows 2-3",
}


@pytest.mark.parametrize(
    "apps, scheme", FAST_FORWARDED,
    ids=["+".join(apps) + "-" + scheme for apps, scheme in FAST_FORWARDED],
)
def test_fast_forwarded_scenarios_extrapolate(apps, scheme):
    """Whatever fast-forward accelerates, the analytic tier extrapolates,
    or the scenario is a named exception (the steady state starts later
    than a truncated analytic scan can verify)."""
    scenario = Scenario.of(list(apps), scheme=scheme, windows=12)
    recorder = TraceRecorder()
    extrapolated = analytic._extrapolated(
        scenario, *analytic._plan_for(scenario), recorder
    )
    if (apps, scheme) in NOT_EXTRAPOLATED:
        assert extrapolated is None
        assert recorder.counters == {
            "analytic.extrapolation.fallback.no_steady_state": 1
        }
    else:
        assert extrapolated is not None
        assert recorder.counters == {"analytic.cycles_skipped": 6}
