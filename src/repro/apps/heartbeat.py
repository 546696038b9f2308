"""A8 — Heartbeat irregularity detection (Health Care).

ECG-style feature extraction on the pulse sensor: smooth, find R-peaks,
derive RR intervals, and threshold the RMSSD variability measure to flag
arrhythmia.  This is the heaviest *offloadable* computation in Fig. 6
(108.8 MIPS) and one of the two apps that regress under COM (Fig. 13).
"""

from __future__ import annotations

from ..units import kib
from .base import AppProfile, AppResult, IoTApp, SampleWindow

#: Smoothing width at the 1 kHz QoS rate.
SMOOTHING_SAMPLES = 15
#: Refractory period between beats (physiological limit ~200 bpm).
MIN_BEAT_SPACING_SAMPLES = 300
#: RMSSD above this (seconds) is flagged as irregular.
IRREGULARITY_THRESHOLD_S = 0.12

PROFILE = AppProfile(
    table2_id="A8",
    name="heartbeat",
    title="Heartbeat Irregularity Detection",
    category="Health Care",
    user_task="ECG Feature-extraction",
    sensor_ids=("S6",),
    window_s=5.0,  # needs several beats to judge rhythm
    rate_overrides={"S6": 200.0},  # 1000 samples per 5 s window
    mips=108.8,  # Fig. 6 maximum
    heap_bytes=kib(26.6),
    stack_bytes=kib(0.4),
    output_bytes=48,
)
#: Beat spacing adjusted for the 200 Hz window rate.
_MIN_SPACING = 60


class HeartbeatApp(IoTApp):
    """Flags irregular heart rhythm from pulse-sensor windows."""

    def __init__(self) -> None:
        super().__init__(PROFILE)
        self.irregular_windows = 0

    def compute(self, window: SampleWindow) -> AppResult:
        """Detect beats in the ECG window and score rhythm regularity."""
        from ..dsp import (
            adaptive_threshold,
            find_peaks,
            moving_average,
            rmssd,
            rr_intervals,
        )

        series = window.scalar_series("S6")
        rate = self.profile.rate_hz("S6")
        smoothed = moving_average(series, SMOOTHING_SAMPLES)
        threshold = adaptive_threshold(smoothed, factor=1.2)
        peaks = find_peaks(smoothed, threshold, min_distance=_MIN_SPACING)
        intervals = rr_intervals(peaks, rate)
        variability = rmssd(intervals)
        irregular = bool(
            intervals.size >= 3 and variability > IRREGULARITY_THRESHOLD_S
        )
        if irregular:
            self.irregular_windows += 1
        bpm = 0.0
        if intervals.size:
            bpm = 60.0 / float(intervals.mean())
        return self.make_result(
            window,
            {
                "beats": len(peaks),
                "bpm": bpm,
                "rmssd_s": variability,
                "irregular": irregular,
                "irregular_windows": self.irregular_windows,
            },
        )
