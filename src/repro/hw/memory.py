"""Capacity-tracked memory regions (MCU SRAM, main-board DRAM buffers)."""

from __future__ import annotations

from typing import Dict

from ..errors import CapacityError


class MemoryRegion:
    """A byte-accounted allocator with a hard capacity and peak tracking.

    This is what limits batching (the ESP8266 has 80 KB of user RAM) and
    what rejects heavy-weight apps from COM (§IV-E3: speech-to-text needs a
    1.43 GB footprint).
    """

    def __init__(self, name: str, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise CapacityError(f"{name}: non-positive capacity")
        self.name = name
        self.capacity_bytes = int(capacity_bytes)
        self._allocations: Dict[str, int] = {}
        #: Bytes currently allocated: a running total of the labels, so
        #: each allocation costs the same however many labels are held.
        self.used_bytes = 0
        self.peak_bytes = 0

    @property
    def free_bytes(self) -> int:
        """Bytes still available."""
        return self.capacity_bytes - self.used_bytes

    def allocate(self, label: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``label`` (labels accumulate)."""
        if nbytes < 0:
            raise CapacityError(f"{self.name}: negative allocation {nbytes}")
        if nbytes > self.free_bytes:
            raise CapacityError(
                f"{self.name}: allocating {nbytes} B for {label!r} exceeds "
                f"capacity ({self.used_bytes}/{self.capacity_bytes} B used)"
            )
        self._allocations[label] = self._allocations.get(label, 0) + nbytes
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def free(self, label: str) -> int:
        """Release everything held under ``label``; returns bytes freed."""
        freed = self._allocations.pop(label, 0)
        self.used_bytes -= freed
        return freed

    def usage(self) -> Dict[str, int]:
        """Snapshot of current allocations by label."""
        return dict(self._allocations)
