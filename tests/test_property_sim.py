"""Property-based tests for the simulation kernel."""

from heapq import heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Delay, Simulator
from repro.sim.events import EventQueue
from repro.sim.resources import Resource

delays = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
#: Few distinct times, so most lists push several entries at one instant.
tied_times = st.sampled_from((0.0, 0.5, 1.0, 2.5))


@settings(max_examples=100)
@given(st.lists(tied_times, min_size=1, max_size=50))
def test_events_always_fire_in_time_order(times):
    """Entries run in ``(time, push index)`` order: by time, FIFO at ties."""
    queue = EventQueue()
    fired = []
    for index, time in enumerate(times):
        queue.push(time, fired.append, (time, index))
    while queue.heap:
        _time, _seq, fn, arg = heappop(queue.heap)
        fn(arg)
    assert fired == sorted((time, index) for index, time in enumerate(times))


@settings(max_examples=100)
@given(st.lists(delays, min_size=1, max_size=30))
def test_clock_is_monotone(delay_list):
    sim = Simulator()
    observed = []

    def proc():
        for delay in delay_list:
            yield Delay(delay)
            observed.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == pytest.approx(sum(delay_list))


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(delays, st.floats(min_value=0.0, max_value=5.0)),
        min_size=1,
        max_size=12,
    )
)
def test_resource_is_never_double_held(jobs):
    """Workers with random arrival/hold times: exclusion always holds."""
    sim = Simulator()
    resource = Resource("core")
    inside = {"count": 0, "max": 0}
    completions = []

    def worker(arrival, hold):
        yield Delay(arrival)
        yield from resource.acquire()
        inside["count"] += 1
        inside["max"] = max(inside["max"], inside["count"])
        yield Delay(hold)
        inside["count"] -= 1
        resource.release()
        completions.append(sim.now)

    for arrival, hold in jobs:
        sim.spawn(worker(arrival, hold))
    sim.run()
    assert inside["max"] == 1
    assert inside["count"] == 0
    assert len(completions) == len(jobs)
    assert not resource.busy
    # Total serialized hold time is a lower bound on the finish time.
    assert sim.now >= max(0.0, max(a for a, _ in jobs))


@settings(max_examples=50)
@given(st.integers(1, 20))
def test_fifo_handoff_order(count):
    sim = Simulator()
    resource = Resource()
    order = []

    def worker(tag):
        yield Delay(tag * 0.001)  # distinct arrival order
        yield from resource.acquire()
        yield Delay(1.0)
        order.append(tag)
        resource.release()

    for tag in range(count):
        sim.spawn(worker(tag))
    sim.run()
    assert order == list(range(count))
