"""Unit tests for the event queue."""

from heapq import heappop

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventQueue


def ignore(_arg):
    """A callback that does nothing."""


def drain(queue):
    """Pop and run every entry, as the kernel's run loop does."""
    heap = queue.heap
    while heap:
        _time, _seq, fn, arg = heappop(heap)
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


def test_nan_time_rejected():
    with pytest.raises(SchedulingError):
        EventQueue().push(float("nan"), ignore)
