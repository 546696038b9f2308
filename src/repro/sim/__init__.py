"""Discrete-event simulation kernel.

A small, dependency-free DES: a :class:`~repro.sim.kernel.Simulator` owns a
virtual clock and an :class:`EventQueue`, a heap of plain
``(time, seq, fn, arg)`` tuples popped in ``(time, seq)`` order, FIFO at
ties; once pushed, an entry always runs.  Generator-based
:class:`~repro.sim.process.Process` coroutines ``yield`` :class:`Delay` /
:class:`Wait` / :class:`Join` commands to advance time, block on
:class:`Signal` objects or wait for another process.

The hardware models in :mod:`repro.hw` are plain objects driven by these
processes; the kernel knows nothing about power or energy.
"""

from .events import EventQueue
from .kernel import Simulator
from .process import Delay, Join, Process, Signal, Wait

__all__ = [
    "Delay",
    "EventQueue",
    "Join",
    "Process",
    "Signal",
    "Simulator",
    "Wait",
]
