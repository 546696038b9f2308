"""The local process-pool backend.

``concurrent.futures.ProcessPoolExecutor`` is the right local fan-out
primitive, but the seed engine paid for it badly: every batch forked a
fresh pool (worker startup dominating short sweeps) and shipped one
pickled scenario per task (one IPC round-trip per grid point).  This
backend fixes both:

* **Persistence** — the executor is spawned lazily on the first batch
  and reused for every later one, across
  ``run_sweep``/``compare_schemes``/CLI calls on the same engine.
  ``spawns`` counts executor creations, so tests can assert the pool
  was built exactly once.
* **Chunked dispatch** — tasks are grouped into chunks sized by
  :func:`~repro.core.backends.base.adaptive_chunk_size` (a few chunks
  per worker: large enough to amortize IPC, small enough to
  load-balance), and each chunk is one ``submit`` call.

The backend is deliberately dumb about *what* it runs: the engine hands
it a picklable per-item function.  Results come back in item order.
One exception: the engine dispatches only DES points, so under the fork
start method the pool imports the DES's numeric stack
(:func:`~repro.core.schemes.base.preload_des`) before its workers fork;
they share it instead of each importing numpy at its first point.

Workers forked from a long-lived service inherit its open sockets; a
client connection the service closes would stay open in every worker,
so a streamed response would never reach end-of-file.  Under the fork
start method each worker therefore points its inherited sockets at
``/dev/null`` first (the pool's own channels are pipes).
"""

from __future__ import annotations

import multiprocessing
import os
import stat
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

from .base import (
    ExecutionBackend,
    ItemT,
    ResultT,
    adaptive_chunk_size,
    run_chunk,
)
from .registry import register_backend


def _release_inherited_sockets() -> None:
    """Pool initializer: point every inherited socket at ``/dev/null``.

    ``dup2`` keeps each descriptor number taken, so a later close of a
    stale socket object in the worker closes ``/dev/null`` rather than
    whatever file reused the number.
    """
    try:
        names = os.listdir("/dev/fd")
    except OSError:
        return  # no descriptor listing on this platform
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in names:
            fd = int(name)
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                continue  # the listing's own descriptor, closed by now
    finally:
        os.close(null)


@register_backend("process")
class ProcessPoolBackend(ExecutionBackend):
    """A lazily-spawned, reusable process pool with chunked dispatch.

    Use as a context manager, or call :meth:`close` explicitly; a
    closed backend respawns transparently on the next
    :meth:`submit_batch` (counted in ``spawns``).
    """

    parallel = True

    def __init__(self, max_workers: int) -> None:
        super().__init__()
        if max_workers < 1:
            raise ValueError(f"need at least one worker, got {max_workers}")
        self.max_workers = int(max_workers)
        self._executor: Optional[ProcessPoolExecutor] = None

    @classmethod
    def create(cls, workers: int = 1) -> "ProcessPoolBackend":
        """Build a pool sized by the engine's ``workers`` option."""
        return cls(max_workers=workers)

    @property
    def alive(self) -> bool:
        """Whether an executor is currently running."""
        return self._executor is not None

    def open(self) -> "ProcessPoolBackend":
        """Spawn the executor now instead of on the first batch."""
        self._ensure_executor()
        return self

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            forked = multiprocessing.get_start_method() == "fork"
            if forked:
                from ..schemes.base import preload_des

                preload_des()
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_release_inherited_sockets if forked else None,
            )
            self.spawns += 1
        return self._executor

    def submit_batch(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Sequence[ItemT],
        chunk_size: Optional[int] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[ResultT]:
        """Run ``fn`` over ``items`` on the pool; results in item order.

        ``fn`` and every item must be picklable.  ``chunk_size``
        defaults to :func:`adaptive_chunk_size` for the batch.
        """
        if not items:
            return []
        executor = self._ensure_executor()
        size = chunk_size or adaptive_chunk_size(
            len(items), self.max_workers
        )
        futures: List["Future[List[ResultT]]"] = []
        for base_index, chunk, chunk_labels in self._plan_chunks(
            items, size, labels
        ):
            futures.append(
                executor.submit(
                    run_chunk, fn, chunk, base_index, chunk_labels
                )
            )
            self.dispatches += 1
            self.tasks += len(chunk)
        results: List[ResultT] = []
        for future in futures:
            results.extend(future.result())
        return results

    def close(self) -> None:
        """Shut the executor down (idempotent); workers exit cleanly."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
