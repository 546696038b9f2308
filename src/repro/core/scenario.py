"""Scenario definitions: which apps, which scheme, how many windows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..apps.base import IoTApp
from ..apps.registry import create_app
from ..calibration import Calibration, default_calibration
from ..errors import WorkloadError
from ..sensors.base import validate_failure_rate

if TYPE_CHECKING:
    from ..sensors.synthetic import Waveform


class Scheme:
    """The execution schemes under study.

    ``POLLING`` is §II-A's main-board-attached configuration: most sensors
    have no interrupt logic, so the CPU blocks on every read.  It is the
    setup whose inefficiency motivates the MCU board, and serves as the
    pre-baseline in the ablations.
    """

    POLLING = "polling"
    BASELINE = "baseline"
    BATCHING = "batching"
    COM = "com"
    BEAM = "beam"
    BCOM = "bcom"

    #: The paper's six schemes.  The authoritative set of *runnable*
    #: schemes is the registry (``repro.core.schemes.scheme_names()``),
    #: which also includes any plugin schemes registered at import time.
    ALL: Tuple[str, ...] = (POLLING, BASELINE, BATCHING, COM, BEAM, BCOM)


@dataclass
class Scenario:
    """One run: a set of apps executed under one scheme.

    ``waveforms`` injects signals per sensor id (e.g. a quake trace);
    sensors without an override use their Table I defaults.
    """

    apps: List[IoTApp]
    scheme: str = Scheme.BASELINE
    windows: int = 1
    calibration: Calibration = field(default_factory=default_calibration)
    waveforms: Dict[str, Waveform] = field(default_factory=dict)
    name: str = ""
    #: Batching granularity: flush the MCU buffer to the CPU after this
    #: many samples instead of once per window (None = whole window).
    #: Used by the batch-size ablation.
    batch_size: Optional[int] = None
    #: Availability-check failure rate per sensor id (failure injection;
    #: see :class:`repro.sensors.base.SensorDevice`).
    sensor_failure_rates: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.apps:
            raise WorkloadError("scenario has no apps")
        # Late import so schemes registered after this module loaded
        # (plugins) are honored at validation time.
        from .schemes.registry import scheme_names

        if self.scheme not in scheme_names():
            raise WorkloadError(f"unknown scheme {self.scheme!r}")
        if self.windows < 1:
            raise WorkloadError(f"need at least one window, got {self.windows}")
        if self.batch_size is not None and self.batch_size < 1:
            raise WorkloadError(f"batch size must be >= 1, got {self.batch_size}")
        for rate in self.sensor_failure_rates.values():
            validate_failure_rate(rate)
        names = [app.name for app in self.apps]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate apps in scenario: {names}")
        if not self.name:
            ids = "+".join(app.table2_id for app in self.apps)
            self.name = f"{ids}:{self.scheme}"

    @classmethod
    def of(
        cls,
        app_ids: Sequence[str],
        scheme: str = Scheme.BASELINE,
        windows: int = 1,
        calibration: Optional[Calibration] = None,
        waveforms: Optional[Dict[str, Waveform]] = None,
        batch_size: Optional[int] = None,
        sensor_failure_rates: Optional[Dict[str, float]] = None,
    ) -> "Scenario":
        """Build a scenario from Table II ids (``["A2", "A4"]``)."""
        return cls(
            apps=[create_app(app_id) for app_id in app_ids],
            scheme=scheme,
            windows=windows,
            calibration=calibration or default_calibration(),
            waveforms=dict(waveforms or {}),
            batch_size=batch_size,
            sensor_failure_rates=dict(sensor_failure_rates or {}),
        )

    @property
    def sensor_ids(self) -> List[str]:
        """Union of sensors across apps, in first-use order."""
        seen: List[str] = []
        for app in self.apps:
            for sensor_id in app.profile.sensor_ids:
                if sensor_id not in seen:
                    seen.append(sensor_id)
        return seen

    @property
    def horizon_s(self) -> float:
        """Nominal sensing horizon: the longest app window times windows."""
        return self.windows * max(app.profile.window_s for app in self.apps)
