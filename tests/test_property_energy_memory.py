"""Property-based tests: energy integration and memory accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyReport
from repro.energy.ledger import (
    SLEEP_STATES,
    CycleTally,
    PowerLedger,
    Schedule,
    integrate,
)
from repro.errors import CapacityError
from repro.hw.memory import MemoryRegion
from repro.hw.power import Routine

routines = st.sampled_from([r for r in Routine.ORDER])


@st.composite
def power_traces(draw):
    """A per-component piecewise-constant power trace."""
    count = draw(st.integers(1, 12))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
                min_size=count,
                max_size=count,
            )
        )
    )
    return [
        (
            time,
            draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
            draw(routines),
        )
        for time in times
    ]


@settings(max_examples=100)
@given(
    st.dictionaries(
        st.sampled_from(["cpu", "mcu", "bus"]), power_traces(), min_size=1
    ),
    st.floats(min_value=0.25, max_value=20.0),
)
def test_integration_matches_manual_sum(traces, cycle_s):
    ledger = PowerLedger()
    end_time = 10.0
    expected = 0.0
    for component, trace in traces.items():
        for index, (time, power, routine) in enumerate(trace):
            # Odd changes enter a busy state, so busy time is exercised too.
            state = "busy" if index % 2 else f"s{index}"
            ledger.timeline(component).changes.append(
                (time, state, power, routine)
            )
        for (time, power, _), nxt in zip(trace, trace[1:] + [None]):
            next_time = nxt[0] if nxt else end_time
            expected += power * max(0.0, next_time - time)
    energy, busy = integrate(ledger.timelines(), end_time)
    report = EnergyReport(
        duration_s=end_time, idle_floor_power_w=0.0, by_component_routine=energy
    )
    assert report.total_j == pytest.approx(expected, rel=1e-9, abs=1e-9)
    # Conservation across both views.
    assert sum(report.by_routine.values()) == pytest.approx(report.total_j)
    assert sum(report.by_component.values()) == pytest.approx(report.total_j)
    # Splitting the same walk into cycles only regroups it: the tallied
    # buckets sum back to the untallied totals.
    tally = CycleTally(cycle_s, int(end_time // cycle_s))
    integrate(ledger.timelines(), end_time, tally)
    for key, joules in energy.items():
        tallied = sum(bucket.get(key, 0.0) for bucket in tally.energy)
        assert tallied == pytest.approx(joules, rel=1e-9, abs=1e-9)
    for routine, seconds in busy.items():
        tallied = sum(bucket.get(routine, 0.0) for bucket in tally.busy)
        assert tallied == pytest.approx(seconds, rel=1e-9, abs=1e-9)
    assert {key for bucket in tally.energy for key in bucket} == set(energy)


def _reference_replay(initial, emissions, end_time):
    """Replay ``(t, state, power_w, routine, mode)`` emissions in
    ``(t, emission index)`` order: a ``"wake"`` is dropped unless the
    replayed state sleeps."""
    state, power, routine = initial
    since = 0.0
    segments = []
    ordered = sorted(enumerate(emissions), key=lambda item: (item[1][0], item[0]))
    for _, (t, new_state, new_power, new_routine, mode) in ordered:
        if mode == "wake" and state not in SLEEP_STATES:
            continue
        if t > end_time:
            break
        if t > since:
            segments.append((since, t, state, power, routine))
            since = t
        state, power = new_state, new_power
        if new_routine is not None:
            routine = new_routine
    if end_time > since:
        segments.append((since, end_time, state, power, routine))
    return segments


def _ordered(result):
    """An ``integrate`` result as lists of items, so key order counts."""
    return [list(totals.items()) for totals in result]


def _buckets(cycles):
    """A tally's energy and busy buckets as lists of items."""
    return [
        [list(bucket.items()) for bucket in buckets]
        for buckets in (cycles.energy, cycles.busy)
    ]


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
            st.sampled_from(["busy", "idle", "sleep", "deep_sleep"]),
            st.one_of(st.none(), routines),
            st.sampled_from(["set", "wake"]),
        ),
        max_size=25,
    ),
    st.sampled_from(["busy", "idle", "sleep"]),
    st.sampled_from([0.75, 1.5, 3.0]),
)
def test_schedule_replays_ties_in_emission_order(draws, initial_state, end_time):
    # Each emission gets its own power, so a swapped tie shows up.  The
    # reference segments, as a DES timeline, must integrate to the same
    # numbers, whole and per cycle.
    schedule = Schedule("cpu", initial_state, -1.0)
    emissions = []
    for index, (t, state, routine, mode) in enumerate(draws):
        getattr(schedule, mode)(t, state, float(index), routine)
        emissions.append((t, state, float(index), routine, mode))
    reference = _reference_replay(
        (initial_state, -1.0, Routine.IDLE), emissions, end_time
    )
    timeline = PowerLedger().timeline("cpu")
    timeline.changes.extend(
        (t0, state, power, routine)
        for t0, _, state, power, routine in reference
    )
    tallies = CycleTally(0.5, 3), CycleTally(0.5, 3)
    assert _ordered(integrate([schedule], end_time, tallies[0])) == _ordered(
        integrate([timeline], end_time, tallies[1])
    )
    assert _buckets(tallies[0]) == _buckets(tallies[1])


#: Emission times of the flush tests: ties, cycle edges and watermarks
#: coincide on this grid, and its spans round, so a reordered sum shows.
_GRID = (0.0, 0.1, 0.5, 0.7, 1.0, 1.3, 1.5, 2.1, 2.5, 3.0)


def _emissions(floor):
    """Entries ``(component, t, state, routine, mode)`` at or after
    ``floor``; mostly busy, on few routines, so busy spans share sums."""
    return st.lists(
        st.tuples(
            st.sampled_from(["cpu", "mcu"]),
            st.sampled_from([t for t in _GRID if t >= floor]),
            st.sampled_from(["busy", "busy", "idle", "sleep", "deep_sleep"]),
            st.sampled_from([None, Routine.INTERRUPT, Routine.APP_COMPUTE]),
            st.sampled_from(["set", "set", "wake"]),
        ),
        max_size=12,
    )


@settings(max_examples=200)
@given(
    st.data(),
    st.sampled_from(["busy", "idle", "sleep"]),
    st.sampled_from([1.5, 3.0]),
    st.sampled_from([None, 0.5, 1.0]),
)
def test_flushed_schedules_integrate_as_one_walk(
    data, initial_state, end_time, cycle_s
):
    """Flushing at legal watermarks — no later entry precedes one, and
    none passes the end — changes no number or key order, with or
    without a tally.  Busy time spans both components, and all three
    match DES timelines of the reference replay."""
    watermarks = sorted(data.draw(st.lists(
        st.sampled_from([t for t in _GRID if t <= end_time]), max_size=4
    )))
    names = ("cpu", "mcu")
    flushed, whole = (
        {name: Schedule(name, initial_state, -1.0) for name in names}
        for _ in range(2)
    )
    emissions = {name: [] for name in names}
    tallies = [
        None if cycle_s is None
        else CycleTally(cycle_s, int(end_time // cycle_s))
        for _ in range(3)
    ]
    for floor, watermark in zip([0.0] + watermarks, watermarks + [None]):
        for name, t, state, routine, mode in data.draw(_emissions(floor)):
            power = 1 / (sum(map(len, emissions.values())) + 3)
            for schedules in (flushed, whole):
                getattr(schedules[name], mode)(t, state, power, routine)
            emissions[name].append((t, state, power, routine, mode))
        if watermark is not None:
            for schedule in flushed.values():
                schedule.flush(watermark, tallies[0])
    ledger = PowerLedger()
    for name in names:
        ledger.timeline(name).changes.extend(
            (t0, state, power, routine)
            for t0, _, state, power, routine in _reference_replay(
                (initial_state, -1.0, Routine.IDLE), emissions[name], end_time
            )
        )
    results = [
        _ordered(integrate(timelines, end_time, tally))
        for timelines, tally in zip(
            (flushed.values(), whole.values(), ledger.timelines()), tallies
        )
    ]
    assert results[0] == results[1] == results[2]
    if cycle_s is not None:
        assert _buckets(tallies[0]) == _buckets(tallies[1]) == _buckets(
            tallies[2]
        )


def test_busy_time_adds_each_span_in_component_order():
    # The cpu's busy 0.1 s, then the mcu's 0.2 s and 0.3 s, one by one:
    # (0.1 + 0.2) + 0.3 is 0.6000000000000001, while adding the mcu's
    # own subtotal, 0.1 + (0.2 + 0.3), would give 0.6.
    cpu, mcu = Schedule("cpu", "idle", 1.0), Schedule("mcu", "idle", 1.0)
    for schedule, busy in ((cpu, [(0.0, 0.1)]), (mcu, [(0.0, 0.2), (0.7, 1.0)])):
        for start, end in busy:
            schedule.set(start, "busy", 2.0)
            schedule.set(end, "idle", 1.0)
        schedule.flush(0.5, None)
    _, busy = integrate([mcu, cpu], 1.5)
    assert busy[Routine.IDLE] == (0.1 + 0.2) + (1.0 - 0.7)
    assert busy[Routine.IDLE] != 0.1 + (0.2 + (1.0 - 0.7))


def test_entry_behind_a_flushed_watermark_raises():
    schedule = Schedule("cpu", "idle", 1.0)
    schedule.set(0.5, "busy", 2.0)
    schedule.set(1.0, "idle", 1.0)
    schedule.set(0.25, "busy", 3.0)
    schedule.flush(1.0, None)
    # The list was sorted and trimmed; the last emission is still known.
    assert schedule.last() == (0.25, "busy", 3.0, None, None)
    schedule.set(1.0, "busy", 2.0)  # at the watermark: still in order
    schedule.flush(1.5, None)
    schedule.set(1.25, "idle", 1.0)
    with pytest.raises(ValueError, match="out-of-order entry for cpu"):
        integrate([schedule], 2.0)


def test_a_schedule_is_integrated_once():
    schedule = Schedule("cpu", "idle", 1.0)
    schedule.set(0.5, "busy", 2.0)
    integrate([schedule], 1.0)
    with pytest.raises(ValueError, match="already integrated"):
        integrate([schedule], 1.0)


@settings(max_examples=100)
@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_marginal_bounds(total_power, floor_power, duration):
    report = EnergyReport(duration_s=duration, idle_floor_power_w=floor_power)
    report.by_component_routine[("cpu", Routine.DATA_TRANSFER)] = (
        total_power * duration
    )
    assert 0.0 <= report.marginal_j <= report.total_j + 1e-12


@settings(max_examples=60)
@given(
    st.dictionaries(
        routines,
        st.floats(min_value=0.0, max_value=50.0),
        min_size=1,
    ),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_scaled_bars_sum_to_normalized_total(routine_energy, floor):
    baseline = EnergyReport(duration_s=1.0, idle_floor_power_w=floor)
    report = EnergyReport(duration_s=1.0, idle_floor_power_w=floor)
    for routine, joules in routine_energy.items():
        baseline.by_component_routine[("cpu", routine)] = joules * 2 + 1.0
        report.by_component_routine[("cpu", routine)] = joules
    bars = report.scaled_routine_bars(baseline)
    assert sum(bars.values()) == pytest.approx(
        report.normalized_to(baseline), abs=1e-9
    )


# ----------------------------------------------------------------------
# memory region: random alloc/free sequences never corrupt accounting
# ----------------------------------------------------------------------
@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=0, max_value=600),
        ),
        max_size=30,
    )
)
def test_memory_region_invariants(operations):
    region = MemoryRegion("ram", 1024)
    shadow = {}
    for op, label, nbytes in operations:
        if op == "alloc":
            if nbytes <= region.free_bytes:
                region.allocate(label, nbytes)
                shadow[label] = shadow.get(label, 0) + nbytes
            else:
                with pytest.raises(CapacityError):
                    region.allocate(label, nbytes)
        else:
            freed = region.free(label)
            assert freed == shadow.pop(label, 0)
        assert region.used_bytes == sum(shadow.values())
        assert 0 <= region.used_bytes <= region.capacity_bytes
        assert region.peak_bytes >= region.used_bytes
