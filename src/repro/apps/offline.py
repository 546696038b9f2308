"""Offline window synthesis: run app computations without the simulator.

Used by the app unit tests, the Fig. 6 characterizer and the examples'
"dry-run" modes.  It produces exactly the :class:`SampleWindow` an
executor would deliver, minus the hardware timing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..sensors.base import SensorSample, default_waveform
from .base import IoTApp, SampleWindow

if TYPE_CHECKING:
    from ..sensors.synthetic import Waveform


def collect_window(
    app: IoTApp,
    window_index: int = 0,
    start_s: float = 0.0,
    waveforms: Optional[Mapping[str, Waveform]] = None,
) -> SampleWindow:
    """Synthesize one full sample window for ``app``.

    ``waveforms`` overrides the default signal per sensor id (e.g. inject a
    quake trace into the earthquake app).
    """
    overrides = dict(waveforms or {})
    sources = {
        sensor_id: overrides.get(sensor_id, default_waveform(sensor_id))
        for sensor_id in app.profile.sensor_ids
    }
    window = app.build_window(window_index, start_s, sources=sources)
    for sensor_id in app.profile.sensor_ids:
        waveform = sources[sensor_id]
        rate = app.profile.rate_hz(sensor_id)
        count = app.profile.samples_per_window(sensor_id)
        nbytes = app.profile.sample_bytes(sensor_id)
        for seq in range(count):
            time = start_s + seq / rate
            window.add(
                SensorSample(
                    time=time,
                    sensor_id=sensor_id,
                    value=waveform.sample(time),
                    nbytes=nbytes,
                    seq=seq + 1,
                )
            )
    return window
