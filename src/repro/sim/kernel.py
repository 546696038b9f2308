"""The simulation kernel: virtual clock + event loop + process spawning."""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Generator, Optional

from ..errors import SchedulingError, SimulationError
from ..obs.recorder import NULL_RECORDER, NullRecorder
from .events import EventQueue
from .process import Process


def _call(callback: Callable[[], None]) -> None:
    """Run a zero-argument :meth:`Simulator.schedule` callback as ``fn(arg)``."""
    callback()


class Simulator:
    """Owns virtual time and executes events in order.

    Typical use::

        sim = Simulator()

        def blinker():
            while True:
                yield Delay(0.5)
                toggle_led()

        sim.spawn(blinker())
        sim.run(until=10.0)

    Pass ``obs=TraceRecorder()`` to collect kernel metrics (events
    dispatched, heap depth, per-process signal waits); the default
    :data:`~repro.obs.recorder.NULL_RECORDER` makes every hook a no-op.
    """

    def __init__(self, obs: Optional[NullRecorder] = None) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._processes: list[Process] = []
        #: Total events executed over the simulator's lifetime, across
        #: all :meth:`run` calls (segmented runs accumulate).
        self.events_executed = 0
        #: Instrumentation sink shared by the kernel and its processes.
        self.obs = obs if obs is not None else NULL_RECORDER

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule {delay:g}s in the past")
        self._queue.push(self._now + delay, _call, callback)

    def spawn(
        self,
        generator: Generator[Any, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a generator-based process at the current time.

        An unnamed process is called ``process-N``, ``N`` counting
        every process this simulator has spawned, this one included.
        """
        processes = self._processes
        process = Process(self, generator, name or f"process-{len(processes) + 1}")
        processes.append(process)
        process.start()
        return process

    @property
    def processes(self) -> tuple:
        """Every process ever spawned, finished ones included."""
        return tuple(self._processes)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or virtual time reaches ``until``.

        Returns the final virtual time.  ``max_events`` is a runaway guard; a
        well-formed scenario never approaches it.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        obs = self.obs
        observing = obs.enabled
        started_at = self._now
        max_depth = 0
        heap = self._queue.heap
        horizon = float("inf") if until is None else until
        now = self._now
        executed = 0
        try:
            while heap:
                if heap[0][0] > horizon:
                    # Events remain beyond the horizon: park the clock
                    # at ``until`` exactly.
                    self._now = until
                    break
                if observing:
                    depth = len(heap)
                    if depth > max_depth:
                        max_depth = depth
                time, _, fn, arg = heappop(heap)
                if time < now:
                    raise SimulationError(
                        "event queue returned an event in the past"
                    )
                self._now = now = time
                fn(arg)
                executed += 1
                if executed > max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; runaway simulation?"
                    )
        finally:
            self._running = False
            self.events_executed += executed
            if observing:
                obs.count("sim.events", executed)
                obs.gauge_max("sim.heap_depth", max_depth)
                obs.span("kernel", "run", started_at, self._now)
        return self._now
