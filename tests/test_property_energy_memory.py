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
    # Each emission gets its own power, so a swapped tie shows up.
    schedule = Schedule("cpu", initial_state, -1.0)
    emissions = []
    for index, (t, state, routine, mode) in enumerate(draws):
        getattr(schedule, mode)(t, state, float(index), routine)
        emissions.append((t, state, float(index), routine, mode))
    assert list(schedule.segments(end_time)) == _reference_replay(
        (initial_state, -1.0, Routine.IDLE), emissions, end_time
    )


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
