"""A6 — Dropbox manager (Web Control).

Appends each window's sound/distance readings to an in-memory log file,
then syncs the file upstream with the chunk/rolling-hash delta protocol:
only changed chunks are uploaded, exactly like the real sync client.
"""

from __future__ import annotations

from ..protocols import ChunkStore, compute_delta
from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

PROFILE = AppProfile(
    table2_id="A6",
    name="dropbox",
    title="Dropbox Manager",
    category="Web Control",
    user_task="File Sync, Upload, etc.",
    sensor_ids=("S8", "S9"),
    mips=18.0,
    heap_bytes=kib(24.6),
    stack_bytes=kib(0.4),
    output_bytes=600,
)

#: Keep the log bounded like a rotating sensor journal.
MAX_LOG_BYTES = 64 * 1024


class DropboxApp(IoTApp):
    """Maintains and syncs a rolling sensor log."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self._log = bytearray()
        self._store = ChunkStore()
        self.bytes_uploaded = 0

    def _append_window(self, window: SampleWindow) -> None:
        sound = window.scalar_series("S8")
        distance = window.scalar_series("S9")
        count = min(len(sound), len(distance))
        lines = []
        for index in range(count):
            lines.append(
                f"{window.start_s + index / 1000.0:.3f},"
                f"{sound[index]:.4f},{distance[index]:.2f}\n"
            )
        self._log += "".join(lines).encode("utf-8")
        if len(self._log) > MAX_LOG_BYTES:
            del self._log[: len(self._log) - MAX_LOG_BYTES]

    def compute(self, window: SampleWindow) -> AppResult:
        """Append the window to the log and sync only the changed chunks."""
        import numpy as np

        self._append_window(window)
        snapshot = bytes(self._log)
        delta = compute_delta(snapshot, self._store.signatures())
        self._store.accept(snapshot)
        self.bytes_uploaded += delta.upload_bytes
        sound = window.scalar_series("S8")
        return self.make_result(
            window,
            {
                "log_bytes": len(snapshot),
                "chunks": delta.total_chunks,
                "chunks_uploaded": len(delta.changed_indices),
                "chunks_skipped": delta.unchanged_chunks,
                "upload_bytes": delta.upload_bytes,
                "sound_rms": float(np.sqrt(np.mean(sound**2)))
                if sound.size
                else 0.0,
                "bytes_uploaded_total": self.bytes_uploaded,
            },
        )
