"""The execution-backend protocol behind the scenario engine.

The engine's job is *what* to run (fingerprints, dedup, the two-tier
cache); a backend's job is *where* to run it.  The seam between them is
one method:

``submit_batch(fn, items, chunk_size=None, labels=None)``
    Apply a picklable ``fn`` to every item and return the results **in
    item order**.  Items travel in chunks (each chunk one dispatch), so
    thousands of tiny tasks don't pay one round-trip each.

plus a uniform lifecycle (``open``/``close``/context manager, both
idempotent), one capability flag the engine consults
(:attr:`ExecutionBackend.parallel`) and four counters every backend
maintains identically (``spawns``/``dispatches``/``tasks``/``retries``)
so tests and the perf-guard can assert scheduling behavior exactly.

Backends register by name in :mod:`repro.core.backends.registry` —
one module, one ``@register_backend`` class, mirroring the scheme
registry — and are then addressable everywhere a backend is chosen
(``ScenarioEngine(backend="...")``, ``run_sweep``, the CLI's
``--backend`` flag).

Error attribution: a task that raises inside a dispatched chunk is
re-raised as :class:`~repro.errors.ChunkTaskError` carrying the
batch-global item index and the caller's label for that item, so a
failure in point 713 of a grid names the scenario instead of an
anonymous chunk.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

from ...errors import ChunkTaskError

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Target number of chunks each worker should receive: >1 so a slow
#: chunk cannot serialize the whole batch behind one worker, small so
#: thousands of tiny scenarios still travel in few dispatches.
CHUNKS_PER_WORKER = 4


def adaptive_chunk_size(
    task_count: int, workers: int, chunks_per_worker: int = CHUNKS_PER_WORKER
) -> int:
    """Chunk size giving each worker about ``chunks_per_worker`` chunks.

    Grows with the batch (1000 tasks on 4 workers -> 63-task chunks, 16
    dispatches instead of 1000) and degrades gracefully for small
    batches (fewer tasks than workers -> one task per chunk).
    """
    if task_count <= 0:
        return 1
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    return max(1, math.ceil(task_count / (workers * chunks_per_worker)))


def run_chunk(
    fn: Callable[[Any], Any],
    chunk: Sequence[Any],
    base_index: int = 0,
    labels: Optional[Sequence[str]] = None,
) -> List[Any]:
    """Worker-side loop: apply ``fn`` to every item of one chunk.

    A task that raises is re-raised as :class:`ChunkTaskError` naming
    the batch-global item index (``base_index`` + chunk offset) and the
    caller's label for it, so the parent can report *which* item failed
    instead of losing it inside an anonymous chunk.  Library errors a
    caller wants per-item must be captured inside ``fn`` itself (the
    engine's ``_run_task`` does exactly that); anything escaping here
    is treated as a batch-aborting failure.
    """
    results: List[Any] = []
    for offset, item in enumerate(chunk):
        try:
            results.append(fn(item))
        except ChunkTaskError:
            raise  # already attributed by a nested dispatch layer
        except Exception as exc:
            index = base_index + offset
            label = ""
            if labels is not None and offset < len(labels):
                label = labels[offset]
            described = f" ({label})" if label else ""
            raise ChunkTaskError(
                f"task {index}{described} failed: {exc!r}",
                index=index,
                label=label,
            ) from exc
    return results


#: One planned dispatch: (batch-global base index, items, their labels).
ChunkPlan = Tuple[int, Sequence[Any], Optional[Sequence[str]]]


class ExecutionBackend:
    """Base class and protocol for execution backends.

    Subclass in its own module under ``core/backends/``, register with
    ``@register_backend("<name>")``, implement :meth:`submit_batch`
    (and, when the backend owns external resources, :meth:`open` /
    :meth:`close`), and set :attr:`parallel`.  The four counters are
    part of the contract — ``tests/test_backends_contract.py`` asserts
    them for every registered backend.
    """

    #: Registry name; assigned by ``@register_backend``.
    name: str = ""
    #: Whether chunks run concurrently in other processes.  Everything
    #: then crosses a process boundary and must pickle, so the engine
    #: strips live hubs before dispatch.
    parallel: bool = False

    def __init__(self) -> None:
        #: Worker processes brought up (1 == perfect reuse).
        self.spawns = 0
        #: Chunks dispatched (each one round-trip to a worker).
        self.dispatches = 0
        #: Individual tasks shipped inside those chunks.
        self.tasks = 0
        #: Chunks re-dispatched after a lost worker (no stock backend
        #: retries, so it stays 0; kept for the metric consumers).
        self.retries = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, workers: int = 1) -> "ExecutionBackend":
        """Build an instance from the engine's ``workers`` option.

        Backends without local fan-out ignore it.
        """
        return cls()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the backend currently holds live execution resources."""
        return False

    def open(self) -> "ExecutionBackend":
        """Bring up execution resources (idempotent; lazy by default)."""
        return self

    def close(self) -> None:
        """Release execution resources.

        Must be idempotent and must never raise — double-close in
        CLI/``atexit`` paths, or a close after a failed spawn, has to be
        safe.  The next :meth:`submit_batch` reopens transparently.
        """

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Sequence[ItemT],
        chunk_size: Optional[int] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[ResultT]:
        """Run ``fn`` over ``items``; results in item order.

        ``labels`` (optional, one per item) feed failure attribution:
        a task that raises surfaces as :class:`ChunkTaskError` naming
        its index and label.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared plumbing for implementations
    # ------------------------------------------------------------------
    def _plan_chunks(
        self,
        items: Sequence[Any],
        chunk_size: int,
        labels: Optional[Sequence[str]],
    ) -> List[ChunkPlan]:
        """Split a batch into (base_index, chunk, labels) dispatch units."""
        plans: List[ChunkPlan] = []
        for start in range(0, len(items), chunk_size):
            stop = start + chunk_size
            plans.append(
                (
                    start,
                    items[start:stop],
                    labels[start:stop] if labels is not None else None,
                )
            )
        return plans
