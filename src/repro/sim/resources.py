"""FIFO resource locks for mutually-exclusive hardware (CPU core, MCU core).

Processes acquire a resource with ``yield from resource.acquire()`` and must
release it afterwards.  Ownership is handed over in FIFO order, which keeps
multi-app scenarios deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, Optional

from ..errors import SimulationError
from .process import Signal, Wait


#: What the owner slot holds while a process owns the resource; during a
#: hand-off it holds the waiter's gate instead.
_HELD = object()


class Resource:
    """A single-owner lock with FIFO hand-off."""

    def __init__(self, name: str = "resource") -> None:
        self.name = name
        self._owner: Optional[object] = None
        self._waiters: Deque[Signal] = deque()
        self.contention_count = 0

    @property
    def busy(self) -> bool:
        """Whether some process currently owns the resource."""
        return self._owner is not None

    def acquire(self) -> Generator:
        """Generator: blocks until the caller owns the resource."""
        if self._owner is None:
            self._owner = _HELD
            return
        self.contention_count += 1
        gate = Signal(f"{self.name}.gate")
        self._waiters.append(gate)
        yield Wait(gate)
        # release() below set _owner to this gate; claim it.
        if self._owner is not gate:
            raise SimulationError(f"{self.name}: hand-off raced")
        self._owner = _HELD

    def release(self) -> None:
        """Release the resource, handing it to the next waiter if any."""
        if self._owner is None:
            raise SimulationError(f"release of idle resource {self.name}")
        if self._waiters:
            gate = self._waiters.popleft()
            self._owner = gate
            gate.fire()
        else:
            self._owner = None
