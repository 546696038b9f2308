"""The time-ordered event queue."""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

from ..errors import SchedulingError

#: One scheduled call, ``(time, seq, fn, arg)``: at virtual ``time`` the
#: kernel calls ``fn(arg)``.
Entry = Tuple[float, int, Callable[[Any], None], Any]


class EventQueue:
    """Min-heap of :data:`Entry` tuples, popped in ``(time, seq)`` order.

    ``seq`` is unique per queue and increases with every push, so
    same-time entries pop FIFO in scheduling order — which keeps
    simulations reproducible — and tuple comparison, done in C, never
    reaches ``fn`` or ``arg``.  Once pushed, an entry always runs.
    """

    __slots__ = ("heap", "_seq")

    def __init__(self) -> None:
        #: The heap list itself; the kernel's run loop pops it directly.
        self.heap: List[Entry] = []
        self._seq = itertools.count()

    def push(self, time: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at absolute virtual ``time``."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        heapq.heappush(self.heap, (time, next(self._seq), fn, arg))
