"""Generator-based processes and their synchronization primitives.

A process is a generator that yields *commands*:

* ``yield Delay(dt)``      — resume after ``dt`` seconds of virtual time.
* ``yield Wait(signal)``   — block until ``signal.fire(payload)``; the
  ``yield`` expression evaluates to the payload.
* ``yield Join(process)``  — block until another process finishes; evaluates
  to that process's return value.

Processes may also ``return`` a value, retrievable via :attr:`Process.result`
once :attr:`Process.finished` is true.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator


class Delay:
    """Command: suspend the process for ``duration`` seconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise SimulationError(f"negative delay: {duration!r}")
        self.duration = duration


class Signal:
    """A broadcast wake-up channel.

    Processes block on it with ``yield Wait(signal)``; ``fire(payload)``
    wakes every current waiter and hands each the payload.  Waiters that
    subscribe after a fire do not see past payloads (it is a pure event, not
    a mailbox — see :class:`repro.hw.interrupt.InterruptController` for a
    queued flavour built on top).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List["Process"] = []
        self.fire_count = 0

    def add_waiter(self, process: "Process") -> None:
        """Enqueue a process to be woken by the next :meth:`fire`."""
        self._waiters.append(process)

    def remove_waiter(self, process: "Process") -> None:
        """Forget a queued waiter (no-op if it is not waiting here)."""
        if process in self._waiters:
            self._waiters.remove(process)

    def fire(self, payload: Any = None) -> int:
        """Wake all waiters; returns how many processes were woken."""
        self.fire_count += 1
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process.wake(payload)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class Wait:
    """Command: block until the given :class:`Signal` fires."""

    __slots__ = ("signal",)

    def __init__(self, signal: Signal):
        self.signal = signal


class Join:
    """Command: block until ``process`` finishes; evaluates to its result."""

    __slots__ = ("process",)

    def __init__(self, process: "Process"):
        self.process = process


class Process:
    """Driver for one generator coroutine inside a :class:`Simulator`.

    Every event a process schedules for itself is the entry
    ``(time, seq, resume, value)``, where ``resume`` is the bound
    :meth:`_advance` cached at construction, so no resume allocates a
    closure.
    """

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str,
    ):
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        #: Set by :meth:`interrupt`; a resume entry still queued for an
        #: interrupted process is dropped when it comes due.
        self.interrupted = False
        self.result: Any = None
        self.finish_time: Optional[float] = None
        self._completion = Signal(f"{self.name}.done")
        #: The signal this process is blocked on, if any (a ``Wait``'s
        #: signal or a joined process's completion); :meth:`interrupt`
        #: unhooks the process from it.
        self._waiting_on: Optional[Signal] = None
        #: Counter label cached so waits don't rebuild the f-string.
        self._wait_label: Optional[str] = None
        self._resume = self._advance

    def start(self) -> None:
        """Schedule the first step of the generator at the current time."""
        self.sim._queue.push(self.sim.now, self._resume)

    def wake(self, payload: Any = None) -> None:
        """Resume a process blocked on a signal, delivering ``payload``."""
        self._waiting_on = None
        self._advance(payload)

    def _advance(self, value: Any) -> None:
        """Send ``value`` into the generator and act on the command it yields."""
        if self.finished:
            if self.interrupted:
                return
            raise SimulationError(f"{self.name} resumed after finishing")
        try:
            command = self.generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if isinstance(command, Delay):
            sim = self.sim
            sim._queue.push(sim._now + command.duration, self._resume)
        elif isinstance(command, Wait):
            obs = self.sim.obs
            if obs.enabled:
                label = self._wait_label
                if label is None:
                    label = self._wait_label = f"sim.wait.{self.name}"
                obs.count(label)
            self._waiting_on = command.signal
            command.signal.add_waiter(self)
        elif isinstance(command, Join):
            target = command.process
            if target.finished:
                self.sim._queue.push(self.sim._now, self._resume, target.result)
            else:
                self._waiting_on = target._completion
                target._completion.add_waiter(self)
        else:
            raise SimulationError(
                f"{self.name} yielded unsupported command {command!r}"
            )

    def _finish(self, result: Any) -> None:
        self.finished = True
        self.result = result
        self.finish_time = self.sim.now
        self._completion.fire(result)

    def interrupt(self) -> None:
        """Abandon the process (used by failure-injection tests).

        A process blocked in ``Wait`` or ``Join`` leaves its signal; one
        sleeping in ``Delay`` (or not yet started) keeps its queued
        resume entry, which then does nothing when it comes due.
        """
        if self.finished:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_waiter(self)
            self._waiting_on = None
        self.interrupted = True
        self.generator.close()
        self._finish(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"
