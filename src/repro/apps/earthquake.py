"""A7 — Earthquake detection (Smart City).

Runs an STA/LTA trigger over the accelerometer magnitude.  On a trigger
the app, like the paper's version, prepares a verification request against
a public earthquake API (we build the request; the NIC model sends it).
"""

from __future__ import annotations

from ..protocols import dumps
from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

#: STA/LTA windows at the 1 kHz QoS rate.
STA_SAMPLES = 50
LTA_SAMPLES = 500
#: Trigger ratio.  Set above the ~3-4x excursions rhythmic human activity
#: (walking impacts) produces so only genuine onsets fire.
TRIGGER_RATIO = 6.0

PROFILE = AppProfile(
    table2_id="A7",
    name="earthquake",
    title="Earthquake Detection",
    category="Smart City",
    user_task="Earthquake Predicting Algorithm",
    sensor_ids=("S4",),
    mips=95.0,  # Fig. 6 / §IV-E1: among the heaviest of the ten light apps
    heap_bytes=kib(16.4),  # Fig. 6: minimum memory usage (16.8 KB total)
    stack_bytes=kib(0.4),
    output_bytes=160,
)


class EarthquakeApp(IoTApp):
    """Detects seismic onsets and prepares verification queries."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self.detections = 0

    def compute(self, window: SampleWindow) -> AppResult:
        """Run STA/LTA tremor detection over the accelerometer window."""
        from ..dsp import magnitude, sta_lta
        from ..sensors.accelerometer import GRAVITY

        vectors = window.values("S4")
        shaking = magnitude(vectors) - GRAVITY
        ratio = sta_lta(shaking, STA_SAMPLES, LTA_SAMPLES)
        above = ratio >= TRIGGER_RATIO
        triggered = bool(above.any())
        onset_index = int(above.argmax()) if triggered else -1
        verification_query = None
        if triggered:
            self.detections += 1
            rate = self.profile.rate_hz("S4")
            onset_time = window.start_s + onset_index / rate
            verification_query = dumps(
                {
                    "event": "tremor",
                    "onset_s": round(onset_time, 3),
                    "peak_ratio": round(float(ratio.max()), 2),
                    "station": "hub-01",
                }
            )
        return self.make_result(
            window,
            {
                "triggered": triggered,
                "onset_index": onset_index,
                "peak_ratio": float(ratio.max()),
                "verification_query": verification_query,
                "detections": self.detections,
            },
        )
