"""Infrastructure health: simulator throughput and sweep fan-out.

Not a paper figure — this tracks the kernel's events-per-second, the
scenario engine's parallel-sweep behavior, and how much of a long
horizon the DES executes and the analytic tier's cycle extrapolation
scans, so regressions in the hot path (event heap, process resume,
power-state recording, pool fan-out) show up in benchmark history.
"""

import gc
import json
import os
import platform
import statistics
import time

import pytest
from conftest import run_once
from test_fig11_multi_app import fig11_factory, fig11_grid

from repro.core import (
    Scenario,
    Scheme,
    analytic_scenario_result,
    run_apps,
    run_sweep,
)
from repro.core.analytic import model as analytic_model
from repro.core.analytic import scan as analytic_scan
from repro.core.analytic.context import AnalyticRun
from repro.energy.ledger import SLEEP_STATES, Schedule, _Walk
from repro.obs import Metrics, TraceRecorder
from repro.sim import Delay, Simulator
from repro.workloads import FIG11_COMBOS

#: Committed throughput/instrumentation baseline (see the bench below).
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_sim_throughput.json"
)

#: The canonical instrumented scenario: two apps, mixed offload/batching.
CANONICAL_APPS = ["A2", "A4"]
CANONICAL_SCHEME = Scheme.BCOM

#: The long-horizon scenario: 600 s of virtual time, so the analytic
#: tier's steady-cycle skip dominates (see docs/performance.md).
LONG_HORIZON_APPS = ["A3"]
LONG_HORIZON_SCHEME = Scheme.BATCHING
LONG_HORIZON_WINDOWS = 600

#: The 18 points of the repository benchmark's ``long-horizon`` workload
#: (``bench/workloads.py``), at its 30 windows.
LONG_HORIZON_GRID = [
    ((app,), scheme)
    for app in ("A2", "A3", "A4")
    for scheme in ("baseline", "batching", "com")
] + [
    (combo, scheme)
    for combo in (("A2", "A4"), ("A2", "A7"), ("A4", "A5"))
    for scheme in ("baseline", "beam", "bcom")
]
LONG_HORIZON_GRID_WINDOWS = 30

#: The 72 points of the repository benchmark's ``analytic-grid``
#: workload (``bench/workloads.py``), at one window: Figure 10's ten
#: apps under three schemes and Figure 11's fourteen combinations under
#: three more.
ANALYTIC_GRID = [
    ((f"A{index}",), scheme)
    for index in range(1, 11)
    for scheme in ("baseline", "batching", "com")
] + [
    (combo, scheme)
    for combo in FIG11_COMBOS
    for scheme in ("baseline", "beam", "bcom")
]


def _load_baseline() -> dict:
    with open(BASELINE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _update_baseline(section: str, payload: dict) -> None:
    """Rewrite one section of the committed baseline document.

    Sections are updated independently so the baseline tests can each
    regenerate their own numbers under ``REPRO_BENCH_UPDATE=1``
    without clobbering the other's.
    """
    try:
        document = _load_baseline()
    except (OSError, ValueError):
        document = {}
    document["version"] = 2
    document[section] = payload
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _host() -> str:
    """The host a wall-clock figure was measured on."""
    return (
        f"{platform.machine()}, {os.cpu_count()} vCPU, "
        f"CPython {platform.python_version()}"
    )


def test_kernel_event_throughput(benchmark):
    """Raw kernel: a ping-pong of bare Delay events."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(20_000):
                yield Delay(0.0001)

        sim.spawn(ticker())
        sim.run()
        return sim.now

    final = benchmark(run)
    assert final > 1.9


def test_full_stack_scenario_rate(benchmark):
    """End-to-end: the step-counter baseline (1000 samples, ~6k events)."""
    result = benchmark(lambda: run_apps(["A2"], Scheme.BASELINE))
    assert result.results_ok


def test_fig11_sweep_parallel_wallclock(benchmark, figure_printer):
    """Fan-out check: workers=4 on the Figure 11 grid must return records
    bit-identical to workers=1, and beat it on wall-clock whenever the
    host actually has more than one core to fan out over."""

    def measure():
        start = time.perf_counter()
        serial = run_sweep(fig11_grid(), fig11_factory, workers=1)
        mid = time.perf_counter()
        parallel = run_sweep(fig11_grid(), fig11_factory, workers=4)
        end = time.perf_counter()
        return serial, parallel, mid - start, end - mid

    serial, parallel, t_serial, t_parallel = run_once(benchmark, measure)

    def extract(result):
        return {
            "total_j": result.energy.total_j,
            "duration_s": result.duration_s,
            "interrupts": result.interrupt_count,
        }

    assert not serial.failed and not parallel.failed
    assert serial.records(extract) == parallel.records(extract)
    cores = os.cpu_count() or 1
    figure_printer(
        "Engine — Figure 11 grid fan-out",
        f"{len(serial)} points  serial {t_serial:.2f} s  "
        f"parallel(4) {t_parallel:.2f} s  "
        f"speedup {t_serial / t_parallel:.2f}x on {cores} core(s)",
    )
    if cores >= 2:
        # On a multi-core host the pool must win; on a single core the
        # fork overhead makes a speedup physically impossible, so only
        # the bit-identical records are asserted there.
        assert t_parallel < t_serial


class _CallCountingRecorder(TraceRecorder):
    """A trace recorder that also counts the calls made to each hook."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        super().__init__()
        self.calls = {"count": 0, "gauge_max": 0, "span": 0}

    def span(self, *args, **kwargs) -> None:
        self.calls["span"] += 1
        super().span(*args, **kwargs)

    def count(self, *args, **kwargs) -> None:
        self.calls["count"] += 1
        super().count(*args, **kwargs)

    def gauge_max(self, *args, **kwargs) -> None:
        self.calls["gauge_max"] += 1
        super().gauge_max(*args, **kwargs)


def _canonical_run(obs=None):
    """One canonical instrumented scenario execution."""
    return run_apps(CANONICAL_APPS, CANONICAL_SCHEME, obs=obs)


def _paired_overhead(first, second, rounds=15):
    """Relative cost of ``second`` over ``first``, measured pairwise.

    Runs the two workloads back to back ``rounds`` times and takes the
    median of the per-pair differences — pairing cancels slow host drift
    (thermal throttling, noisy neighbors) and the median discards
    per-run jitter, which min-of-N over separate blocks does not.  The
    order within each pair alternates so cache warm-up does not always
    favor the same side, and the collector is paused while timing (as
    pyperf does) so a gen-0 sweep landing mid-run is not charged to
    whichever workload happened to trip the threshold.
    Returns ``(first_median_s, second_median_s, overhead_fraction)``.
    """
    firsts, diffs = [], []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(rounds):
            a, b = (first, second) if index % 2 == 0 else (second, first)
            gc.collect()
            started = time.perf_counter()
            a()
            elapsed_a = time.perf_counter() - started
            started = time.perf_counter()
            b()
            elapsed_b = time.perf_counter() - started
            if index % 2 == 0:
                elapsed_first, elapsed_second = elapsed_a, elapsed_b
            else:
                elapsed_first, elapsed_second = elapsed_b, elapsed_a
            firsts.append(elapsed_first)
            diffs.append(elapsed_second - elapsed_first)
    finally:
        if gc_was_enabled:
            gc.enable()
    base = statistics.median(firsts)
    diff = statistics.median(diffs)
    return base, base + diff, diff / base


def test_observability_overhead(benchmark, figure_printer):
    """Attaching a TraceRecorder must not perturb results and must cost
    under 5% wall time on the canonical scenario."""

    def measure():
        _canonical_run()  # warm caches before timing
        plain_s, observed_s, overhead = _paired_overhead(
            _canonical_run, lambda: _canonical_run(obs=TraceRecorder())
        )
        plain = _canonical_run()
        recorder = TraceRecorder()
        observed = _canonical_run(obs=recorder)
        return plain, observed, recorder, plain_s, observed_s, overhead

    plain, observed, recorder, plain_s, observed_s, overhead = run_once(
        benchmark, measure
    )
    # Golden parity: bit-identical, not approximately equal.
    assert observed.energy.total_j == plain.energy.total_j
    assert observed.duration_s == plain.duration_s
    assert observed.interrupt_count == plain.interrupt_count
    events = recorder.counters["sim.events"]
    figure_printer(
        "Infra — observability overhead",
        f"{'+'.join(CANONICAL_APPS)} {CANONICAL_SCHEME}: "
        f"off {plain_s * 1000:.1f} ms, on {observed_s * 1000:.1f} ms "
        f"({overhead:+.1%}); {events} events, "
        f"{len(recorder.spans)} spans, "
        f"{events / observed_s:,.0f} events/s instrumented",
    )
    assert overhead < 0.05


def test_sim_metrics_baseline(benchmark, figure_printer):
    """The canonical scenario's instrumentation snapshot matches the
    committed ``BENCH_sim_throughput.json`` baseline exactly.

    The simulator is deterministic, so event counts, heap depth,
    virtual-time span totals and the number of calls the run makes to
    each recorder hook are stable across hosts; any drift means the
    simulation or its instrumentation changed and the baseline must be
    regenerated (run with ``REPRO_BENCH_UPDATE=1``) and reviewed.
    """

    def measure():
        recorder = _CallCountingRecorder()
        started = time.perf_counter()
        _canonical_run(obs=recorder)
        return recorder, time.perf_counter() - started

    recorder, wall_s = run_once(benchmark, measure)
    snapshot = Metrics.from_recorder(recorder).snapshot()
    snapshot["recorder_calls"] = dict(
        recorder.calls, total=sum(recorder.calls.values())
    )
    events = recorder.counters["sim.events"]
    if os.environ.get("REPRO_BENCH_UPDATE"):
        _update_baseline(
            "canonical",
            {
                "scenario": {
                    "apps": CANONICAL_APPS,
                    "scheme": str(CANONICAL_SCHEME),
                    "windows": 1,
                },
                "deterministic": snapshot,
                "wall_informational": {
                    "generated_on": time.strftime("%Y-%m-%d"),
                    "host": _host(),
                    "sim_wall_s": round(wall_s, 4),
                    "events_per_sec": round(events / wall_s),
                },
            },
        )
    baseline = _load_baseline()["canonical"]
    figure_printer(
        "Infra — sim throughput baseline",
        f"{events} events in {wall_s:.3f} s "
        f"({events / wall_s:,.0f}/s); baseline generated "
        f"{baseline['wall_informational']['generated_on']}",
    )
    assert baseline["scenario"] == {
        "apps": CANONICAL_APPS,
        "scheme": str(CANONICAL_SCHEME),
        "windows": 1,
    }
    assert snapshot == baseline["deterministic"]


def _median_wall_s(fn, rounds=5):
    """Median host seconds of ``rounds`` calls of ``fn``."""
    walls = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def _segments(now, replays) -> int:
    """The segments a schedule's walk bounded: a reference count over
    the entries its replays took, from the walk's first replay state."""
    state, _, _, since = now
    segments = 0
    for entries in replays:
        for t, new_state, _, _, mode in entries:
            if mode is not None and state not in SLEEP_STATES:
                continue
            if t > since:
                segments += 1
                since = t
            state = new_state
    return segments


def _count_scans(patch):
    """Record every analytic scan's work, wrapping the tier's ``_scan``.

    Returns the list each scan appends one record to: the windows
    scanned, the ``Schedule`` entries emitted (those each flush drops,
    plus those ``integrate`` finds left), the segments the ledger
    walked, the most entries the scan held unflushed at once (read as
    each flush and ``integrate`` starts), its heap pops, and the host
    seconds of the scan proper and of ``integrate``.  The wrappers only
    count and keep each replay's entry list; segments are counted from
    those lists after the scan returns, so the scan runs unchanged.
    """
    scans = []
    scan, integrate = analytic_model._scan, analytic_model.integrate
    run_flush, heappop = AnalyticRun.flush, analytic_scan.heappop
    flush, fold, replay = Schedule.flush, Schedule.fold, _Walk.replay
    integrate_s = []
    work = {}
    replays = {}

    def hold(schedules):
        held = sum(len(schedule._events) for schedule in schedules)
        work["held"] = max(work["held"], held)

    def counting_run_flush(run, watermark):
        hold(run.timelines())
        run_flush(run, watermark)

    def counting_flush(schedule, *args):
        emitted = len(schedule._events)
        flush(schedule, *args)
        work["entries"] += emitted - len(schedule._events)

    def counting_fold(schedule, *args):
        work["entries"] += len(schedule._events)
        fold(schedule, *args)

    def keeping_replay(walk, entries):
        replays.setdefault(walk, (walk.now, []))[1].append(entries)
        replay(walk, entries)

    def counting_heappop(heap):
        work["pops"] += 1
        return heappop(heap)

    def timed_integrate(timelines, *args):
        hold(timelines)
        started = time.perf_counter()
        try:
            return integrate(timelines, *args)
        finally:
            integrate_s.append(time.perf_counter() - started)

    def counting_scan(run, plan):
        work.update(held=0, pops=0, entries=0)
        replays.clear()
        started = time.perf_counter()
        energy, busy, end_time = scan(run, plan)
        wall_s = time.perf_counter() - started
        scans.append({
            "windows": run.scenario.windows,
            "segments": sum(
                _segments(*walk) for walk in replays.values()
            ),
            **work,
            "scan_s": wall_s - integrate_s[-1],
            "integrate_s": integrate_s[-1],
        })
        return energy, busy, end_time

    patch.setattr(analytic_model, "integrate", timed_integrate)
    patch.setattr(analytic_model, "_scan", counting_scan)
    patch.setattr(AnalyticRun, "flush", counting_run_flush)
    patch.setattr(Schedule, "flush", counting_flush)
    patch.setattr(Schedule, "fold", counting_fold)
    patch.setattr(_Walk, "replay", keeping_replay)
    patch.setattr(analytic_scan, "heappop", counting_heappop)
    return scans


@pytest.fixture(scope="module")
def long_horizon_grid():
    """The long-horizon benchmark's 18 points, each evaluated once for
    every test that reads them: each point's ``analytic.*`` counters,
    and the record of every scan they made (see :func:`_count_scans`)."""
    with pytest.MonkeyPatch.context() as patch:
        scans = _count_scans(patch)
        counters = []
        for apps, scheme in LONG_HORIZON_GRID:
            point = TraceRecorder()
            analytic_scenario_result(
                Scenario.of(
                    list(apps), scheme=scheme,
                    windows=LONG_HORIZON_GRID_WINDOWS,
                ),
                obs=point,
            )
            counters.append(point.counters)
    return counters, scans


def test_analytic_long_horizon(
    benchmark, figure_printer, monkeypatch, long_horizon_grid
):
    """Analytic cycle extrapolation: a 600-window scenario scans 6
    windows where the DES executes every one of its events, and 14 of
    the long-horizon benchmark's 18 points are extrapolated.

    Windows scanned are counted at the tier's scan function, the
    skip/fallback counts come from the ``analytic.*`` counters and the
    DES event count from ``sim.events``; all are deterministic and
    asserted exactly.  Wall times are informational.
    """
    scans = _count_scans(monkeypatch)

    def scenario():
        return Scenario.of(
            LONG_HORIZON_APPS,
            scheme=LONG_HORIZON_SCHEME,
            windows=LONG_HORIZON_WINDOWS,
        )

    def measure():
        recorder = TraceRecorder()
        fast = analytic_scenario_result(scenario(), obs=recorder)
        long_run = {
            "windows_scanned": sum(scan["windows"] for scan in scans),
            "cycles_skipped": recorder.counters["analytic.cycles_skipped"],
        }
        full = analytic_model._full_scan(
            scenario(), analytic_model._plan_for(scenario())
        )
        monkeypatch.undo()
        des_recorder = TraceRecorder()
        run_apps(
            LONG_HORIZON_APPS,
            LONG_HORIZON_SCHEME,
            windows=LONG_HORIZON_WINDOWS,
            obs=des_recorder,
        )
        grid = {"extrapolated": 0, "fallbacks": {}}
        point_counters, grid_scans = long_horizon_grid
        for counters in point_counters:
            for key in counters:
                if key == "analytic.cycles_skipped":
                    grid["extrapolated"] += 1
                elif key.startswith("analytic.extrapolation.fallback."):
                    reason = key.rsplit(".", 1)[1]
                    grid["fallbacks"][reason] = (
                        grid["fallbacks"].get(reason, 0) + 1
                    )
        grid["points"] = len(LONG_HORIZON_GRID)
        grid["windows_scanned"] = sum(scan["windows"] for scan in grid_scans)
        walls = {
            "full_scan_wall_s": _median_wall_s(
                lambda: analytic_model._full_scan(
                    scenario(), analytic_model._plan_for(scenario())
                )
            ),
            "extrapolated_scan_wall_s": _median_wall_s(
                lambda: analytic_scenario_result(scenario())
            ),
            "des_wall_s": _median_wall_s(
                lambda: run_apps(
                    LONG_HORIZON_APPS,
                    LONG_HORIZON_SCHEME,
                    windows=LONG_HORIZON_WINDOWS,
                ),
                rounds=3,
            ),
        }
        des_events = des_recorder.counters["sim.events"]
        return fast, full, long_run, grid, des_events, walls

    fast, full, long_run, grid, des_events, walls = run_once(
        benchmark, measure
    )
    deterministic = {
        "long_run": long_run,
        "grid": grid,
        "des_events": des_events,
    }
    if os.environ.get("REPRO_BENCH_UPDATE"):
        _update_baseline(
            "analytic_long_horizon",
            {
                "scenario": {
                    "apps": LONG_HORIZON_APPS,
                    "scheme": str(LONG_HORIZON_SCHEME),
                    "windows": LONG_HORIZON_WINDOWS,
                    "grid_windows": LONG_HORIZON_GRID_WINDOWS,
                },
                "deterministic": deterministic,
                "wall_informational": {
                    "generated_on": time.strftime("%Y-%m-%d"),
                    "host": _host(),
                    **{key: round(value, 4) for key, value in walls.items()},
                },
            },
        )
    figure_printer(
        "Infra — analytic long horizon",
        f"{'+'.join(LONG_HORIZON_APPS)} {LONG_HORIZON_SCHEME} "
        f"windows={LONG_HORIZON_WINDOWS}: {long_run['windows_scanned']} "
        f"windows scanned, {long_run['cycles_skipped']} cycles skipped "
        f"(DES: {des_events} events); wall full scan "
        f"{walls['full_scan_wall_s']:.4f} s, extrapolated "
        f"{walls['extrapolated_scan_wall_s']:.4f} s, DES "
        f"{walls['des_wall_s']:.4f} s\n"
        f"long-horizon grid: {grid['extrapolated']} of {grid['points']} "
        f"points extrapolated, fallbacks {grid['fallbacks']}, "
        f"{grid['windows_scanned']} windows scanned",
    )
    assert fast.energy.total_j == pytest.approx(
        full.energy.total_j, rel=1e-9
    )
    assert fast.duration_s == pytest.approx(full.duration_s, rel=1e-9)
    assert fast.interrupt_count == full.interrupt_count
    assert fast.cpu_wake_count == full.cpu_wake_count
    assert fast.bus_bytes == full.bus_bytes
    # Counts are deterministic: drift means the analytic models or the
    # extrapolation changed and the baseline needs review.
    assert (
        deterministic
        == _load_baseline()["analytic_long_horizon"]["deterministic"]
    )


def test_analytic_scan_work(
    benchmark, figure_printer, monkeypatch, long_horizon_grid
):
    """The analytic tier's work: scans, ``Schedule`` entries,
    integrated segments, heap pops and the most entries one scan holds
    unflushed at once, over the 72 ``analytic-grid`` points at one
    window and the 18 ``long-horizon`` points at 30 windows.

    The counts are deterministic and asserted exactly, so a faster scan
    must emit and integrate the same entries as the one it replaces, and
    a change that holds more of a scan's history fails on ``held``.
    Scan and ``integrate`` seconds are informational; the flushed share
    of the ledger's walk counts as scanning.
    """

    def measure():
        scans = _count_scans(monkeypatch)
        for apps, scheme in ANALYTIC_GRID:
            analytic_scenario_result(Scenario.of(list(apps), scheme=scheme))
        return scans

    workloads = {
        "analytic_grid": (len(ANALYTIC_GRID), run_once(benchmark, measure)),
        "long_horizon": (len(LONG_HORIZON_GRID), long_horizon_grid[1]),
    }
    deterministic = {
        name: {
            "points": points,
            "scans": len(scans),
            "entries": sum(scan["entries"] for scan in scans),
            "segments": sum(scan["segments"] for scan in scans),
            "held": max(scan["held"] for scan in scans),
            "pops": sum(scan["pops"] for scan in scans),
        }
        for name, (points, scans) in workloads.items()
    }
    walls = {
        name: {
            key: round(sum(scan[key] for scan in scans), 4)
            for key in ("scan_s", "integrate_s")
        }
        for name, (_, scans) in workloads.items()
    }
    if os.environ.get("REPRO_BENCH_UPDATE"):
        _update_baseline(
            "analytic_scan",
            {
                "scenario": {
                    "analytic_grid_windows": 1,
                    "long_horizon_windows": LONG_HORIZON_GRID_WINDOWS,
                },
                "deterministic": deterministic,
                "wall_informational": {
                    "generated_on": time.strftime("%Y-%m-%d"),
                    "host": _host(),
                    **walls,
                },
            },
        )
    figure_printer(
        "Infra — analytic scan work",
        "\n".join(
            f"{name}: {counts['points']} points, {counts['scans']} scans, "
            f"{counts['entries']:,} entries, {counts['segments']:,} "
            f"segments, {counts['pops']:,} heap pops, at most "
            f"{counts['held']:,} entries held; scan "
            f"{walls[name]['scan_s']:.3f} s, integrate "
            f"{walls[name]['integrate_s']:.3f} s"
            for name, counts in deterministic.items()
        ),
    )
    assert (
        deterministic == _load_baseline()["analytic_scan"]["deterministic"]
    )
