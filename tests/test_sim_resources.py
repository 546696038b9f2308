"""Unit tests for FIFO resource locks."""

import pytest

from repro.errors import SimulationError
from repro.sim import Delay, Simulator
from repro.sim.resources import Resource


def run_workers(count, hold_time):
    """Spawn ``count`` workers contending for one resource; return the log."""
    sim = Simulator()
    resource = Resource("core")
    log = []

    def worker(tag):
        yield from resource.acquire()
        log.append((tag, "in", sim.now))
        yield Delay(hold_time)
        log.append((tag, "out", sim.now))
        resource.release()

    for tag in range(count):
        sim.spawn(worker(tag))
    sim.run()
    return log, resource


def test_mutual_exclusion_and_fifo_order():
    log, resource = run_workers(3, hold_time=1.0)
    entries = [item for item in log if item[1] == "in"]
    exits = [item for item in log if item[1] == "out"]
    assert [tag for tag, _, _ in entries] == [0, 1, 2]
    # Each worker enters exactly when the previous one exits.
    assert [time for _, _, time in entries] == [0.0, 1.0, 2.0]
    assert [time for _, _, time in exits] == [1.0, 2.0, 3.0]
    assert not resource.busy
    assert resource.contention_count == 2


def test_uncontended_acquire_is_immediate():
    log, resource = run_workers(1, hold_time=0.5)
    assert log == [(0, "in", 0.0), (0, "out", 0.5)]
    assert resource.contention_count == 0


def test_release_without_acquire_raises():
    with pytest.raises(SimulationError):
        Resource().release()
