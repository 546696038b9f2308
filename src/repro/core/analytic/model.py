"""The analytic tier's entry point: scenario -> closed-form RunResult.

:func:`analytic_scenario_result` mirrors
:func:`~repro.core.schemes.base.execute_scenario` — same scheme
declaration (:class:`~repro.core.schemes.base.SchemePlan`), same
feasibility errors, same result shape — but interprets the plan's family
arithmetically instead of running the event kernel.
:func:`supports_analytic` is the planner's gate: scenarios outside the
validated envelope (failure injection, partial-batch flushes, RAM-overflow
risk) fall back to the DES.
Long scenarios are scanned as a truncated copy whose verified steady
cycle is multiplied out, so they cost a few windows, not the horizon.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

from ...errors import AnalyticUnsupported, OffloadError, WorkloadError
from ...energy.meter import EnergyReport
from ...obs.recorder import NULL_RECORDER, NullRecorder
from ..results import RunResult
from ..schemes.base import SchemePlan
from ..schemes.registry import get_scheme
from .buffered import run_buffered
from .context import AnalyticRun
from .cpu_polling import run_cpu_polling
from .interrupting import run_interrupting
from .ledger import CycleTally, integrate

#: Validated agreement band of the analytic tier against the DES (see
#: ``tests/test_analytic.py``): every energy/duration figure lands
#: within this relative tolerance across the Figure 11 grid and seeded
#: random app mixes.  Integer counters (interrupts, wakes, bus bytes)
#: match exactly.
ANALYTIC_RTOL = 1e-9

#: ``fidelity="auto"``'s confirmation band: grid points where two
#: schemes' marginal energies land within this relative gap cannot be
#: ranked by the analytic tier alone and are re-run through the DES.
AUTO_CONFIRM_BAND = 2.0 * max(ANALYTIC_RTOL, 1e-3)

#: Truncated-scan layout, in window-length cycles: one warm-up cycle,
#: four verification cycles and a tail cycle, so end-of-scenario
#: behavior (the final hand-offs and drain) is always scanned.  With
#: 1-s windows the fourth verification cycle starts at 4 s, where the
#: spacing of doubles doubles: a schedule whose near-simultaneous
#: operations reorder with that rounding (A6+A1 under batching swaps
#: its two hand-offs for windows 4-7, in the DES too) fails the checks
#: there instead of being multiplied out.
WARMUP_CYCLES = 1
VERIFY_CYCLES = 4
TAIL_CYCLES = 1
TRUNCATED_WINDOWS = WARMUP_CYCLES + VERIFY_CYCLES + TAIL_CYCLES
#: Scenarios shorter than this have no cycle left to skip.
MIN_WINDOWS = TRUNCATED_WINDOWS + 1
_VERIFY = tuple(range(WARMUP_CYCLES, WARMUP_CYCLES + VERIFY_CYCLES))
#: The cycle multiplied out: the last verification cycle.
_TEMPLATE = _VERIFY[-1]
#: Per-cycle energy/busy keys must agree within this share of the
#: cycle's total.  Absolute-time float arithmetic leaves steady cycles
#: up to ~5e-12 J apart on a key: under 1e-12 of the cycle's total, but
#: up to 4e-11 of a small key, so a per-key relative bound would reject
#: them.  Real drift is orders of magnitude larger.
_CYCLE_RTOL = 1e-11
#: Result phases (delivery time minus window start) must agree this
#: closely across the verification windows: float noise reaches ~3e-13 s,
#: while a real shift is a queueing delay of whole operations.
_PHASE_ATOL_S = 1e-11


#: The closed-form interpreter of each :attr:`SchemePlan.family`.
_SCANS: Dict[str, Callable[[AnalyticRun, SchemePlan], None]] = {
    "interrupting": run_interrupting,
    "cpu_polling": run_cpu_polling,
    "buffered": run_buffered,
}


def _plan_for(scenario) -> SchemePlan:
    """Resolve the scheme's plan (feasibility errors propagate)."""
    return get_scheme(scenario.scheme)().plan(scenario)


def supports_analytic(scenario) -> Tuple[bool, str]:
    """Whether the closed-form tier covers ``scenario`` (and why not).

    A scheme whose feasibility check fails (e.g. COM's
    :class:`~repro.errors.OffloadError`) *is* supported: the analytic
    tier raises the identical error, so no DES fallback is needed.
    """
    if any(rate > 0 for rate in scenario.sensor_failure_rates.values()):
        return False, "sensor failure injection is stochastic (DES only)"
    if scenario.batch_size is not None:
        return False, "partial-batch flushes are not modelled (DES only)"
    try:
        plan = _plan_for(scenario)
    except OffloadError:
        return True, ""
    if plan.family == "buffered":
        cal = scenario.calibration
        resident = sum(
            app.profile.mcu_footprint_bytes for app in plan.com_apps
        )
        peak = sum(
            app.profile.samples_per_window(sensor_id)
            * app.profile.sample_bytes(sensor_id)
            for app in plan.batch_apps
            for sensor_id in app.profile.sensor_ids
        )
        if resident + peak > cal.mcu.ram_bytes:
            return False, (
                "MCU RAM may overflow (dropped samples); DES required"
            )
    return True, ""


def _scan(run: AnalyticRun, plan: SchemePlan) -> Tuple[dict, dict, float]:
    """Scan ``run``'s scenario; returns (energy, busy, end time)."""
    _SCANS[plan.family](run, plan)
    end_time = max(run.last_activity, run.scenario.horizon_s)
    energy, busy = integrate(run, end_time)
    return energy, busy, end_time


def _result(
    scenario,
    plan: SchemePlan,
    run: AnalyticRun,
    energy: dict,
    busy: dict,
    end_time: float,
) -> RunResult:
    """Assemble the :class:`RunResult` of a (possibly extrapolated) scan."""
    missing = [
        app.name
        for app in scenario.apps
        if len(run.app_results[app.name]) != scenario.windows
    ]
    if missing:  # pragma: no cover - defensive parity with ctx.collect
        raise WorkloadError(
            f"scenario {scenario.name}: apps without complete "
            f"results: {missing}"
        )
    return RunResult(
        scenario_name=scenario.name,
        scheme=scenario.scheme,
        app_ids=[app.table2_id for app in scenario.apps],
        windows=scenario.windows,
        duration_s=end_time,
        energy=EnergyReport(
            duration_s=end_time,
            idle_floor_power_w=scenario.calibration.idle_hub_power_w,
            by_component_routine=energy,
        ),
        busy_times=busy,
        app_results=dict(run.app_results),
        result_times=dict(run.result_times),
        qos_violations=list(run.qos_violations),
        interrupt_count=run.interrupt_count,
        cpu_wake_count=run.cpu_wake_count,
        bus_bytes=run.bus_bytes,
        offload_reports=dict(plan.offload_reports),
        hub=None,
        fidelity="analytic",
    )


def _full_scan(scenario, plan: SchemePlan) -> RunResult:
    """Scan the whole horizon: the fallback, and the reference the
    extrapolated results are tested against."""
    run = AnalyticRun(scenario, plan)
    return _result(scenario, plan, run, *_scan(run, plan))


def _extrapolation_gate(scenario) -> Optional[str]:
    """Why ``scenario`` cannot be extrapolated, or ``None`` if it may."""
    if scenario.windows < MIN_WINDOWS:
        return "too_short"
    if len({app.profile.window_s for app in scenario.apps}) != 1:
        # ``windows`` counts per app: with unequal window lengths no
        # single cycle repeats for every app.
        return "mixed_windows"
    return None


def _steady(run: AnalyticRun) -> bool:
    """The cycle-repeat checks over the verification cycles.

    Consecutive verification cycles must count the same interrupts, CPU
    wakes and bus bytes, and agree on every energy and busy-time key
    within :data:`_CYCLE_RTOL` of the cycle's total; every app must
    deliver the results of the verification windows at equal phases.
    """
    cycles = run.cycles
    for previous, current in zip(_VERIFY[:-1], _VERIFY[1:]):
        for counts in (cycles.interrupts, cycles.cpu_wakes, cycles.bus_bytes):
            if counts[previous] != counts[current]:
                return False
        for buckets in (cycles.energy, cycles.busy):
            old, new = buckets[previous], buckets[current]
            tolerance = _CYCLE_RTOL * sum(new.values())
            if any(
                abs(new.get(key, 0.0) - old.get(key, 0.0)) > tolerance
                for key in set(old) | set(new)
            ):
                return False
    for times in run.result_times.values():
        phases = [times[window] - window * cycles.cycle_s for window in _VERIFY]
        if any(abs(phase - phases[0]) > _PHASE_ATOL_S for phase in phases):
            return False
    return True


def _extrapolate(
    run: AnalyticRun, energy: dict, busy: dict, end_time: float, skipped: int
) -> float:
    """Insert ``skipped`` copies of the template cycle into ``run``.

    Energy, busy time and counters grow by ``skipped`` times the
    template cycle's; each app's results split after the template
    window: the head stays, the template window's result is replicated
    once per skipped cycle, and the tail shifts by ``skipped`` windows
    and cycles.  Returns the extrapolated end time.
    """
    cycles = run.cycles
    cycle_s = cycles.cycle_s
    for key, joules in cycles.energy[_TEMPLATE].items():
        energy[key] = energy.get(key, 0.0) + skipped * joules
    for routine, seconds in cycles.busy[_TEMPLATE].items():
        busy[routine] = busy.get(routine, 0.0) + skipped * seconds
    run.interrupt_count += skipped * cycles.interrupts[_TEMPLATE]
    run.cpu_wake_count += skipped * cycles.cpu_wakes[_TEMPLATE]
    run.bus_bytes += skipped * cycles.bus_bytes[_TEMPLATE]
    shift_s = skipped * cycle_s
    head = _TEMPLATE + 1
    for name, times in run.result_times.items():
        results = run.app_results[name]
        template, template_time = results[_TEMPLATE], times[_TEMPLATE]
        run.app_results[name] = (
            results[:head]
            + [
                dataclasses.replace(
                    template, window_index=template.window_index + extra
                )
                for extra in range(1, skipped + 1)
            ]
            + [
                dataclasses.replace(
                    entry, window_index=entry.window_index + skipped
                )
                for entry in results[head:]
            ]
        )
        run.result_times[name] = (
            times[:head]
            + [template_time + extra * cycle_s
               for extra in range(1, skipped + 1)]
            + [t + shift_s for t in times[head:]]
        )
    return end_time + shift_s


def _extrapolated(
    scenario, plan: SchemePlan, recorder: NullRecorder
) -> Optional[RunResult]:
    """Scan a truncated copy and multiply its template cycle out.

    Returns ``None``, after counting the reason on ``recorder``, when
    the scenario is gated out or its cycles do not repeat; the caller
    then scans the whole horizon.
    """
    reason = _extrapolation_gate(scenario)
    if reason is None:
        run = AnalyticRun(
            dataclasses.replace(scenario, windows=TRUNCATED_WINDOWS), plan
        )
        run.cycles = CycleTally(
            scenario.apps[0].profile.window_s, TRUNCATED_WINDOWS
        )
        energy, busy, end_time = _scan(run, plan)
        if run.qos_violations:
            reason = "qos_violation"
        elif not _steady(run):
            reason = "no_steady_state"
        else:
            skipped = scenario.windows - TRUNCATED_WINDOWS
            end_time = _extrapolate(run, energy, busy, end_time, skipped)
            recorder.count("analytic.cycles_skipped", skipped)
            return _result(scenario, plan, run, energy, busy, end_time)
    recorder.count(f"analytic.extrapolation.fallback.{reason}", 1)
    return None


def analytic_scenario_result(
    scenario, obs: Optional[NullRecorder] = None
) -> RunResult:
    """Closed-form counterpart of :func:`execute_scenario`.

    Raises :class:`~repro.errors.AnalyticUnsupported` when the scenario
    is outside the tier's envelope; scheme feasibility errors
    (:class:`~repro.errors.OffloadError`, workload errors from stream
    construction) propagate exactly as the DES would raise them.

    A scenario of at least :data:`MIN_WINDOWS` windows sharing one
    window length is first scanned as a :data:`TRUNCATED_WINDOWS`-window
    copy; when its cycles repeat (see :func:`_steady`) the template
    cycle is multiplied out over the other ``windows -
    TRUNCATED_WINDOWS`` cycles, otherwise the whole horizon is scanned.
    ``obs`` attaches an instrumentation recorder: it counts
    ``analytic.cycles_skipped`` or one
    ``analytic.extrapolation.fallback.<reason>``, and since the
    analytic tier has no event-granular schedule to trace, it gets one
    span per evaluation (category ``"analytic"``) plus one per app's
    result window — enough for profiles to show which tier answered
    and when.
    """
    supported, reason = supports_analytic(scenario)
    if not supported:
        raise AnalyticUnsupported(reason)
    plan = _plan_for(scenario)
    recorder = obs if obs is not None else NULL_RECORDER
    result = _extrapolated(scenario, plan, recorder)
    if result is None:
        result = _full_scan(scenario, plan)
    if recorder.enabled:
        recorder.span("analytic", scenario.scheme, 0.0, result.duration_s)
        window_by_app = {
            app.name: app.profile.window_s for app in scenario.apps
        }
        for app_name, times in sorted(result.result_times.items()):
            window_s = window_by_app[app_name]
            for w, t in enumerate(times):
                recorder.span(
                    "analytic", f"result:{app_name}", w * window_s, t
                )
    return result
