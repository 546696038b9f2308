"""A2 — Step counter (Health Care): the paper's running example (§II-B).

1000 accelerometer samples per 1-second window; the step-detection
algorithm [33] smooths the magnitude, thresholds it adaptively and counts
peaks at a plausible human cadence.
"""

from __future__ import annotations

from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

#: Smoothing window in samples at the 1 kHz QoS rate.
SMOOTHING_SAMPLES = 51
#: Two steps can be at most ~3.3 Hz apart for a human; at 1 kHz that is
#: 300 samples minimum peak spacing.
MIN_STEP_SPACING_SAMPLES = 300

PROFILE = AppProfile(
    table2_id="A2",
    name="stepcounter",
    title="Step counter",
    category="Health Care",
    user_task="Step-detection Algorithm",
    sensor_ids=("S4",),
    mips=3.94,  # Fig. 6: the lightest compute of the ten apps
    heap_bytes=kib(19.6),
    stack_bytes=kib(0.4),
    output_bytes=32,
)


class StepCounterApp(IoTApp):
    """Counts steps in each accelerometer window."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self.total_steps = 0

    def compute(self, window: SampleWindow) -> AppResult:
        """Count steps as threshold-crossing peaks in the magnitude."""
        from ..dsp import adaptive_threshold, find_peaks, magnitude, moving_average
        from ..sensors.accelerometer import GRAVITY

        vectors = window.values("S4")
        series = magnitude(vectors) - GRAVITY
        smoothed = moving_average(series, SMOOTHING_SAMPLES)
        threshold = adaptive_threshold(smoothed, factor=0.6)
        # Quiet windows: the threshold hugs the noise floor; require real
        # activity before counting anything.
        if smoothed.max() - smoothed.min() < 0.5:
            steps = 0
        else:
            steps = len(
                find_peaks(
                    smoothed,
                    threshold=threshold,
                    min_distance=MIN_STEP_SPACING_SAMPLES,
                )
            )
        self.total_steps += steps
        return self.make_result(
            window,
            {
                "steps": steps,
                "total_steps": self.total_steps,
                "samples": int(len(series)),
            },
        )
