"""How fast this host runs right now, sampled from inside the work.

The benchmark's machine is shared.  Each of its cores flips, every few
seconds, between running at full speed and running up to about 2x
slower while a neighbour loads the same physical core, and the two
cores flip independently.  Raw host times of one commit then drift between runs by
more than any useful regression bound.

A :class:`Sampler` therefore times a tiny fixed loop (heap, dict and
float work, the operations the simulator leans on) every
:data:`INTERVAL_S`, from a timer signal.  Python runs the handler in the
main thread between bytecodes, so a grid session samples the very core
its simulation runs on, while it runs.  The served workload runs in
other processes on every core, so :class:`CoreSamplers` runs one
sampler process pinned to each core instead.  Woken on an otherwise
busy core, its loop starts with cold caches and reads slower than in
the work's own thread, so served reference seconds sit below host
seconds; they still follow the host's speed.  A request's time is
reported in *reference seconds*: host seconds divided by the mean
slowdown the samples around it show.  The loop is the benchmark's own code, so a
change to the program cannot move it; only the host's speed does.
:data:`REFERENCE_S` is the loop's time on a quiet core of the reference
host (x86-64, 2 vCPUs, CPython 3.11), so there, unloaded, reference
seconds equal host seconds.
"""

from __future__ import annotations

import heapq
import json
import os
import signal
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: Seconds between two samples.
INTERVAL_S = 0.05
#: The sample loop's time on a quiet core of the reference host.
REFERENCE_S = 1.2e-4
#: A loaded core runs up to about 2x slower; a sample slower than this
#: was held up by something else (a page fault, an interrupt): clipped.
MAX_SLOWDOWN = 4.0
_ITEMS = 200


def _loop() -> None:
    heap: list = []
    table: dict = {}
    for value in range(_ITEMS):
        heapq.heappush(heap, (value * 7919 % 1009, value))
        key = value % 97
        table[key] = table.get(key, 0.0) + value * 0.5
    while heap:
        heapq.heappop(heap)


class Sampler:
    """Samples the host's speed from ``SIGALRM`` until :meth:`stop`.

    Only one sampler may run in a process, from its main thread.  Blocking
    calls interrupted by the signal are retried by Python (PEP 475).
    """

    def __init__(self) -> None:
        #: (time the sample ended, its slowdown against the reference).
        self.samples: List[Tuple[float, float]] = []
        for _ in range(20):  # a cold loop would read as a slow host
            _loop()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        _loop()
        ended = time.perf_counter()
        slow = min((ended - started) / REFERENCE_S, MAX_SLOWDOWN)
        self.samples.append((ended, slow))

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown over ``[start, end]`` (``perf_counter`` times)."""
        return mean_slowdown(self.samples, start, end)


class CoreSamplers:
    """One sampler process pinned to each core this process may use.

    Their samples are read back by :meth:`stop`, which also waits for
    the processes to end.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._processes = [
            subprocess.Popen(
                [sys.executable, __file__, str(cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def stop(self) -> None:
        """End the sampler processes and collect their samples."""
        for process in self._processes:
            if not process.stdin.closed:
                process.stdin.close()
        for process in self._processes:
            output = process.stdout.read()
            process.stdout.close()
            process.wait()
            if output:
                self.samples += [tuple(sample) for sample in json.loads(output)]
        self._processes = []
        self.samples.sort()

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of every core over ``[start, end]``."""
        return mean_slowdown(self.samples, start, end)


def mean_slowdown(
    samples: Sequence[Tuple[float, float]], start: float, end: float
) -> float:
    """Mean of the samples taken in ``[start, end]`` (``perf_counter`` times).

    The window is widened by one interval on each side, so even a
    request shorter than the interval has samples around it.
    """
    around = [
        slow for at, slow in samples
        if start - INTERVAL_S <= at <= end + INTERVAL_S
    ]
    if not around:
        around = [slow for _at, slow in samples] or [1.0]
    return sum(around) / len(around)


def _sample_core(cpu: int) -> None:
    """Sample one core until standard input closes; print the samples."""
    os.sched_setaffinity(0, {cpu})
    sampler = Sampler()
    try:
        sys.stdin.buffer.read()
    finally:
        sampler.stop()
    json.dump(sampler.samples, sys.stdout)


if __name__ == "__main__":
    _sample_core(int(sys.argv[1]))
