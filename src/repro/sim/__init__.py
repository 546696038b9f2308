"""Discrete-event simulation kernel.

A small, dependency-free DES: a :class:`~repro.sim.kernel.Simulator` owns a
virtual clock and an event heap; generator-based
:class:`~repro.sim.process.Process` coroutines ``yield`` :class:`Delay` /
:class:`Wait` commands to advance time or block on :class:`Signal` objects.

The hardware models in :mod:`repro.hw` are plain objects driven by these
processes; the kernel knows nothing about power or energy.
"""

from .events import Event, EventQueue
from .kernel import Simulator
from .process import Delay, Join, Process, Signal, Wait
from .trace import StateChange, TimelineRecorder

__all__ = [
    "Delay",
    "Event",
    "EventQueue",
    "Join",
    "Process",
    "Signal",
    "Simulator",
    "StateChange",
    "TimelineRecorder",
    "Wait",
]
