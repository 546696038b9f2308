"""Unit tests for processes, signals and joins."""

import pytest

from repro.errors import SimulationError
from repro.obs import TraceRecorder
from repro.sim import Delay, Join, Signal, Simulator, Wait


def test_signal_delivers_payload():
    sim = Simulator()
    received = []
    gate = Signal("gate")

    def waiter():
        payload = yield Wait(gate)
        received.append((sim.now, payload))

    def firer():
        yield Delay(2.0)
        gate.fire("hello")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert received == [(2.0, "hello")]


def test_signal_wakes_all_waiters():
    sim = Simulator()
    woken = []
    gate = Signal()

    def waiter(tag):
        yield Wait(gate)
        woken.append(tag)

    for tag in range(3):
        sim.spawn(waiter(tag))

    def firer():
        yield Delay(1.0)
        count = gate.fire()
        woken.append(("count", count))

    sim.spawn(firer())
    sim.run()
    assert set(woken) == {0, 1, 2, ("count", 3)}


def test_fire_before_wait_is_not_remembered():
    sim = Simulator()
    gate = Signal()
    gate.fire("lost")
    state = {"woken": False}

    def waiter():
        yield Wait(gate)
        state["woken"] = True

    sim.spawn(waiter())
    sim.run(until=5.0)
    assert not state["woken"]


def test_join_waits_for_result():
    sim = Simulator()
    results = []

    def worker():
        yield Delay(3.0)
        return 42

    def parent():
        child = sim.spawn(worker())
        value = yield Join(child)
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(3.0, 42)]


def test_join_on_finished_process_returns_immediately():
    sim = Simulator()
    results = []

    def worker():
        yield Delay(1.0)
        return "early"

    worker_proc = sim.spawn(worker())

    def late_parent():
        yield Delay(5.0)
        value = yield Join(worker_proc)
        results.append((sim.now, value))

    sim.spawn(late_parent())
    sim.run()
    assert results == [(5.0, "early")]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Delay(-1.0)


def test_unsupported_yield_raises():
    sim = Simulator()

    def bad():
        yield "what is this"

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_cancels_waiting_process():
    sim = Simulator()
    gate = Signal()
    log = []

    def waiter():
        yield Wait(gate)
        log.append("should not happen")

    process = sim.spawn(waiter())

    def killer():
        yield Delay(1.0)
        process.interrupt()

    sim.spawn(killer())
    sim.run()
    assert process.finished
    assert log == []
    assert gate.fire() == 0  # waiter was removed from the signal


def test_interrupt_during_delay_drops_the_pending_resume():
    sim = Simulator()
    log = []

    def sleeper():
        yield Delay(5.0)
        log.append("should not happen")

    process = sim.spawn(sleeper())

    def killer():
        yield Delay(1.0)
        process.interrupt()

    sim.spawn(killer())
    sim.run()
    assert process.finished and process.interrupted
    assert process.finish_time == 1.0
    assert log == []


def test_interrupt_during_join_leaves_the_target():
    sim = Simulator()
    log = []

    def worker():
        yield Delay(3.0)
        return 42

    child = sim.spawn(worker())

    def joiner():
        value = yield Join(child)
        log.append(value)

    process = sim.spawn(joiner())

    def killer():
        yield Delay(1.0)
        process.interrupt()

    sim.spawn(killer())
    sim.run()
    assert process.finished and process.interrupted
    assert child.finished and child.result == 42
    assert log == []


def test_unnamed_processes_are_numbered_per_simulator():
    """Two identical runs in one interpreter name and count alike."""

    def run():
        recorder = TraceRecorder()
        sim = Simulator(obs=recorder)
        gate = Signal()

        def waiter():
            yield Wait(gate)

        def firer():
            yield Delay(1.0)
            gate.fire()

        sim.spawn(waiter())
        sim.spawn(firer(), name="firer")
        sim.spawn(waiter())
        sim.run()
        return recorder.counters, [process.name for process in sim.processes]

    first = run()
    assert first == run()
    counters, names = first
    assert names == ["process-1", "firer", "process-3"]
    assert counters["sim.wait.process-1"] == counters["sim.wait.process-3"] == 1


def test_process_finish_time_recorded():
    sim = Simulator()

    def worker():
        yield Delay(2.5)

    process = sim.spawn(worker())
    sim.run()
    assert process.finish_time == 2.5
