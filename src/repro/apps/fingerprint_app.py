"""A10 — Fingerprint register (Security).

Enrolls fingerprint signatures and identifies incoming scans against the
enrolled database with a byte-distance matcher: a scan matches a template
when fewer than a threshold fraction of bytes differ (tolerating the
sensor's per-scan jitter), otherwise it can be enrolled as a new identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..errors import WorkloadError
from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

if TYPE_CHECKING:
    import numpy as np

PROFILE = AppProfile(
    table2_id="A10",
    name="fingerprint",
    title="Fingerprint Register",
    category="Security",
    user_task="Fingerprint Enroll, Identify, etc",
    sensor_ids=("S3",),
    mips=53.8,
    heap_bytes=kib(31.6),
    stack_bytes=kib(0.4),
    output_bytes=80,
)

#: Scans differing in at most this fraction of bytes match a template.
MATCH_THRESHOLD = 0.10


def byte_distance(scan_a: np.ndarray, scan_b: np.ndarray) -> float:
    """Fraction of differing bytes between two signatures."""
    if scan_a.shape != scan_b.shape:
        raise WorkloadError("signature length mismatch")
    return float((scan_a != scan_b).mean())


class FingerprintApp(IoTApp):
    """Enroll-or-identify loop over fingerprint scans."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self._database: Dict[int, np.ndarray] = {}
        self.identified = 0
        self.enrolled = 0

    def match(self, scan: np.ndarray) -> Optional[int]:
        """Identity of the best-matching enrolled template, or None."""
        best_id, best_distance = None, 1.0
        for identity, template in self._database.items():
            distance = byte_distance(scan, template)
            if distance < best_distance:
                best_id, best_distance = identity, distance
        if best_id is not None and best_distance <= MATCH_THRESHOLD:
            return best_id
        return None

    def compute(self, window: SampleWindow) -> AppResult:
        """Match the window's scan against the database, enrolling misses."""
        reader = window.sources.get("S3")
        if reader is None:
            raise WorkloadError("fingerprint: window carries no scanner source")
        samples = window.samples("S3")
        if not samples:
            raise WorkloadError("fingerprint: no scan captured this window")
        scan_time = samples[-1].time
        scan = reader.scan_at(scan_time)
        identity = self.match(scan)
        action = "identified"
        if identity is None:
            identity = len(self._database)
            self._database[identity] = scan.copy()
            self.enrolled += 1
            action = "enrolled"
        else:
            self.identified += 1
        return self.make_result(
            window,
            {
                "action": action,
                "identity": identity,
                "database_size": len(self._database),
                "identified_total": self.identified,
                "enrolled_total": self.enrolled,
            },
        )
