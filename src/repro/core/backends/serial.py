"""The inline backend: zero overhead, the debug/CI default.

Tasks run in the calling process, in order, with no pickling, no
spawned workers and no IPC — results keep any unpicklable state
(`~repro.core.engine.ScenarioEngine` relies on this to hand back live
hubs).  Chunking is honored purely for the counters, so the scheduling
contract (``dispatches``/``tasks``) stays assertable; by default the
whole batch is one chunk, because splitting an inline loop buys
nothing.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .base import ExecutionBackend, ItemT, ResultT, run_chunk
from .registry import register_backend


@register_backend("serial")
class SerialBackend(ExecutionBackend):
    """Run every task inline in the calling process."""

    parallel = False

    def submit_batch(
        self,
        fn: Callable[[ItemT], ResultT],
        items: Sequence[ItemT],
        chunk_size: Optional[int] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> List[ResultT]:
        """Apply ``fn`` to every item, in order, in this process."""
        if not items:
            return []
        size = chunk_size or len(items)
        results: List[ResultT] = []
        for base_index, chunk, chunk_labels in self._plan_chunks(
            items, size, labels
        ):
            self.dispatches += 1
            self.tasks += len(chunk)
            results.extend(run_chunk(fn, chunk, base_index, chunk_labels))
        return results
