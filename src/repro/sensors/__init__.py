"""Sensor models: Table I specifications, devices, synthetic waveforms.

The waveform modules import numpy, which only a sensor read needs, so
the names :mod:`.synthetic` defines load with it on first access.
"""

from typing import TYPE_CHECKING, Any

from .base import DEFAULT_WAVEFORMS, SensorDevice, SensorSample, default_waveform
from .specs import A11_SOUND_SAMPLE_BYTES, TABLE_I, SensorSpec, get_spec

if TYPE_CHECKING:
    from .synthetic import (
        ConstantWaveform,
        SlowDriftWaveform,
        Waveform,
        pseudo_noise,
        pseudo_noise_array,
    )

__all__ = [
    "A11_SOUND_SAMPLE_BYTES",
    "ConstantWaveform",
    "DEFAULT_WAVEFORMS",
    "SensorDevice",
    "SensorSample",
    "SensorSpec",
    "SlowDriftWaveform",
    "TABLE_I",
    "Waveform",
    "default_waveform",
    "get_spec",
    "pseudo_noise",
    "pseudo_noise_array",
]


def __getattr__(name: str) -> Any:
    # Only called for a name not bound yet: the public ones left are
    # synthetic's.
    if name in __all__:
        from . import synthetic

        return getattr(synthetic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
