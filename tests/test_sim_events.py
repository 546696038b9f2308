"""Unit tests for the event queue."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventQueue


def ignore(_arg):
    """A callback that does nothing."""


def drain(queue):
    """Pop and run every entry, as the kernel does."""
    while queue:
        _time, _seq, fn, arg = queue.pop()
        fn(arg)


def test_pop_orders_by_time():
    queue = EventQueue()
    order = []
    queue.push(2.0, order.append, "late")
    queue.push(1.0, order.append, "early")
    queue.push(1.5, order.append, "mid")
    drain(queue)
    assert order == ["early", "mid", "late"]


def test_same_time_events_are_fifo():
    queue = EventQueue()
    order = []
    for tag in ("a", "b", "c"):
        queue.push(1.0, order.append, tag)
    drain(queue)
    assert order == ["a", "b", "c"]


def test_peek_time_skips_cancelled():
    """``peek_time`` follows the earliest entry still queued."""
    queue = EventQueue()
    queue.push(1.0, ignore)
    queue.push(3.0, ignore)
    assert queue.peek_time() == 1.0
    assert queue.pop()[0] == 1.0
    assert queue.peek_time() == 3.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_pop_empty_raises():
    with pytest.raises(SchedulingError):
        EventQueue().pop()


def test_nan_time_rejected():
    with pytest.raises(SchedulingError):
        EventQueue().push(float("nan"), ignore)


def test_len_counts_only_live_events():
    """``len()`` and truth-testing count the entries still queued."""
    queue = EventQueue()
    for index in range(5):
        queue.push(float(index), ignore)
    assert len(queue) == 5
    queue.pop()
    queue.pop()
    assert len(queue) == 3
    assert bool(queue)
