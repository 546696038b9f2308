"""Unit tests for the simulation kernel."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Delay, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_schedule_negative_delay_rejected():
    with pytest.raises(SchedulingError):
        Simulator().schedule(-0.1, lambda: None)


def test_run_until_stops_clock_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(sim.now))
    end = sim.run(until=3.0)
    assert end == 3.0
    assert not fired
    # The parked event is still queued: a second run fires it.
    assert sim.run() == 10.0
    assert fired == [10.0]


def test_nested_scheduling():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.schedule(2.0, inner)

    def inner():
        times.append(sim.now)

    sim.schedule(1.0, outer)
    sim.run()
    assert times == [1.0, 3.0]


def test_spawn_runs_generator_to_completion():
    sim = Simulator()
    marks = []

    def proc():
        marks.append(("start", sim.now))
        yield Delay(0.25)
        marks.append(("mid", sim.now))
        yield Delay(0.25)
        marks.append(("end", sim.now))
        return "done"

    process = sim.spawn(proc())
    sim.run()
    assert process.finished
    assert process.result == "done"
    assert marks == [("start", 0.0), ("mid", 0.25), ("end", 0.5)]


def test_runaway_guard():
    sim = Simulator()

    def forever():
        while True:
            yield Delay(0.001)

    sim.spawn(forever())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_deterministic_ordering_between_processes():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Delay(1.0)
        order.append(tag)

    sim.spawn(proc("first"))
    sim.spawn(proc("second"))
    sim.run()
    assert order == ["first", "second"]
