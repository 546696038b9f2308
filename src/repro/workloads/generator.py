"""Synthetic workload generator for parameter sweeps.

Real apps pin their rates and compute to Table II; sweeps over sampling
rate, instruction count or sensor mix need a configurable app.  A
:class:`SyntheticApp` computes honest per-sensor aggregates so every
scheme still produces verifiable results.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..apps.base import AppProfile, AppResult, IoTApp, SampleWindow
from ..errors import WorkloadError
from ..units import kib


class SyntheticApp(IoTApp):
    """A parameterized aggregation workload."""

    def __init__(self, profile: AppProfile):
        super().__init__(profile)
        self.windows_computed = 0

    def compute(self, window: SampleWindow) -> AppResult:
        """Reduce every subscribed stream to min/mean/max statistics."""
        import numpy as np

        stats: Dict[str, Dict[str, float]] = {}
        for sensor_id in self.profile.sensor_ids:
            series = window.scalar_series(sensor_id)
            if series.size == 0:
                raise WorkloadError(
                    f"{self.name}: no samples for {sensor_id} in window "
                    f"{window.window_index}"
                )
            stats[sensor_id] = {
                "n": int(series.size),
                "mean": float(np.mean(series)),
                "min": float(np.min(series)),
                "max": float(np.max(series)),
            }
        self.windows_computed += 1
        return self.make_result(
            window,
            {"stats": stats, "windows_computed": self.windows_computed},
        )


def make_synthetic_app(
    name: str,
    sensor_ids: Sequence[str] = ("S4",),
    rate_hz: Optional[float] = None,
    mips: float = 10.0,
    window_s: float = 1.0,
    heap_kb: float = 20.0,
    output_bytes: int = 64,
    heavy: bool = False,
) -> SyntheticApp:
    """Build a synthetic app; ``rate_hz`` overrides every sensor's QoS."""
    rate_overrides = (
        {sensor_id: rate_hz for sensor_id in sensor_ids} if rate_hz else {}
    )
    profile = AppProfile(
        table2_id="SYN",
        name=name,
        title=f"Synthetic {name}",
        category="Synthetic",
        user_task="Per-sensor aggregation",
        sensor_ids=tuple(sensor_ids),
        window_s=window_s,
        mips=mips,
        heap_bytes=kib(heap_kb),
        stack_bytes=kib(0.4),
        output_bytes=output_bytes,
        heavy=heavy,
        rate_overrides=rate_overrides,
    )
    return SyntheticApp(profile)
