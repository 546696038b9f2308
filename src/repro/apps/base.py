"""The app framework: profiles, sample windows and the app base class.

An :class:`IoTApp` bundles two things:

* an :class:`AppProfile` — the *costs* of the app (which sensors at which
  rates, instructions per window from Fig. 6, memory footprint, output
  size).  The simulator charges time and energy from the profile.
* a real ``compute()`` implementation — the *function* of the app,
  executed on the collected samples so results (step counts, decoded
  frames, recognized words...) are genuine and testable.  Schemes run the
  same ``compute()`` whether it is placed on the CPU or offloaded to the
  MCU, which is exactly the paper's "no loss in functionality" claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..calibration import Calibration, default_calibration
from ..errors import SensorError, WorkloadError
from ..sensors.base import SensorSample
from ..sensors.specs import get_spec
from ..units import kib

if TYPE_CHECKING:
    import numpy as np

    from ..sensors.synthetic import Waveform


@dataclass(frozen=True)
class AppProfile:
    """Static cost model of one Table II workload."""

    #: Table II identifier ("A1" ... "A11").
    table2_id: str
    #: Machine name used in registries and calibration overrides.
    name: str
    #: Human title from Table II.
    title: str
    #: Table II category (Health Care, Smart City, ...).
    category: str
    #: Table II user-level task description.
    user_task: str
    #: Sensor ids read each window.
    sensor_ids: Tuple[str, ...]
    #: User-level computation window (the step counter's "1000 samples in
    #: 1 second").
    window_s: float = 1.0
    #: Instructions per window in millions — Figure 6's MIPS bar.
    mips: float = 10.0
    #: Heap footprint (Fig. 6 left axis).
    heap_bytes: int = kib(25.8)
    #: Stack footprint (Fig. 6 left axis).
    stack_bytes: int = kib(0.4)
    #: Result payload published upstream after each window.
    output_bytes: int = 64
    #: Cores the computation can use on the CPU (A11's decoder threads).
    parallel_cores: int = 1
    #: Heavy-weight apps cannot be offloaded (A11).
    heavy: bool = False
    #: Per-sensor sampling-rate overrides; defaults to each sensor's QoS.
    rate_overrides: Mapping[str, float] = field(default_factory=dict)
    #: Per-sensor sample-size overrides in bytes (A11 ships 16-bit audio
    #: plus timestamps).
    sample_bytes_overrides: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.sensor_ids:
            raise WorkloadError(f"{self.table2_id}: app uses no sensors")
        if self.window_s <= 0:
            raise WorkloadError(f"{self.table2_id}: non-positive window")
        if self.mips <= 0:
            raise WorkloadError(f"{self.table2_id}: non-positive MIPS")
        for sensor_id in self.sensor_ids:
            try:
                get_spec(sensor_id)
            except SensorError as exc:
                raise WorkloadError(
                    f"{self.table2_id}: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    # derived Table II columns
    # ------------------------------------------------------------------
    def rate_hz(self, sensor_id: str) -> float:
        """Sampling rate used for one sensor (override or Table I QoS)."""
        if sensor_id in self.rate_overrides:
            return self.rate_overrides[sensor_id]
        return get_spec(sensor_id).effective_qos_hz

    def sample_bytes(self, sensor_id: str) -> int:
        """Bytes per sample moved for one sensor."""
        if sensor_id in self.sample_bytes_overrides:
            return self.sample_bytes_overrides[sensor_id]
        return get_spec(sensor_id).sample_bytes

    def samples_per_window(self, sensor_id: str) -> int:
        """Acquisitions of one sensor per window."""
        return max(1, int(round(self.rate_hz(sensor_id) * self.window_s)))

    @property
    def interrupts_per_window(self) -> int:
        """Table II's '# Interrupts' column (baseline scheme)."""
        return sum(
            self.samples_per_window(sensor_id) for sensor_id in self.sensor_ids
        )

    @property
    def sensor_data_bytes(self) -> int:
        """Table II's 'Sensor Data (KB)' column, in bytes."""
        return sum(
            self.samples_per_window(sensor_id) * self.sample_bytes(sensor_id)
            for sensor_id in self.sensor_ids
        )

    @property
    def memory_bytes(self) -> int:
        """Total heap + stack footprint."""
        return self.heap_bytes + self.stack_bytes

    #: Figure 6's heaps are measured on the Linux main board, whose
    #: allocator arenas inflate them; the MCU firmware build of the same
    #: app is leaner by roughly this factor (the paper offloads four apps
    #: onto one 80 KB ESP8266 concurrently, so the real footprints must
    #: fit — §IV-E2).
    MCU_HEAP_DIVISOR = 3

    #: Ring-buffer size an offloaded app keeps per window for streaming
    #: consumption of its samples.
    MCU_STREAM_BUFFER_BYTES = 4096

    @property
    def mcu_buffer_bytes(self) -> int:
        """Sample buffer an offloaded (COM) app needs resident on the MCU.

        Streamable inputs are consumed incrementally through a small ring;
        an app whose largest single reading exceeds the ring (a camera
        frame) must hold that reading whole.
        """
        largest_sample = max(
            self.sample_bytes(sensor_id) for sensor_id in self.sensor_ids
        )
        ring = min(self.sensor_data_bytes, self.MCU_STREAM_BUFFER_BYTES)
        return max(ring, largest_sample)

    @property
    def mcu_footprint_bytes(self) -> int:
        """Total MCU RAM an offloaded app occupies (code/heap + buffer)."""
        return (
            self.heap_bytes // self.MCU_HEAP_DIVISOR
            + self.stack_bytes
            + self.mcu_buffer_bytes
        )

    @property
    def instructions(self) -> float:
        """Instructions retired per window."""
        return self.mips * 1e6

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def cpu_compute_time_s(self, cal: Optional[Calibration] = None) -> float:
        """Wall time of the window computation on the hub CPU."""
        cal = cal or default_calibration()
        effective = cal.cpu.app_mips * 1e6 * max(1, self.parallel_cores)
        return self.instructions / effective

    def mcu_compute_time_s(self, cal: Optional[Calibration] = None) -> float:
        """Wall time of the window computation offloaded to the MCU."""
        cal = cal or default_calibration()
        single_core = self.instructions / (cal.cpu.app_mips * 1e6)
        return single_core * cal.mcu_slowdown(self.name)


class SampleWindow:
    """All samples one app collected over one window, plus their sources.

    ``sources`` maps a sensor id to the waveform behind it so rich-payload
    apps (camera frames, fingerprint scans) can fetch the full reading by
    timestamp — the scalar in each :class:`SensorSample` is the PIO-sized
    value the hardware moved.
    """

    def __init__(
        self,
        window_index: int,
        start_s: float,
        duration_s: float,
        sources: Optional[Mapping[str, Waveform]] = None,
    ):
        self.window_index = window_index
        self.start_s = start_s
        self.duration_s = duration_s
        self.sources: Dict[str, Waveform] = dict(sources or {})
        self._samples: Dict[str, List[SensorSample]] = {}

    def add(self, sample: SensorSample) -> None:
        """Record one collected sample."""
        self._samples.setdefault(sample.sensor_id, []).append(sample)

    def samples(self, sensor_id: str) -> List[SensorSample]:
        """All samples of one sensor, in collection order."""
        return self._samples.get(sensor_id, [])

    def count(self, sensor_id: str) -> int:
        """Number of samples collected for one sensor."""
        return len(self._samples.get(sensor_id, []))

    @property
    def total_count(self) -> int:
        """Samples across all sensors."""
        return sum(len(samples) for samples in self._samples.values())

    def values(self, sensor_id: str) -> np.ndarray:
        """Sample values stacked into an array (rows = samples)."""
        import numpy as np

        samples = self.samples(sensor_id)
        if not samples:
            return np.empty((0,))
        return np.vstack([np.atleast_1d(sample.value) for sample in samples])

    def scalar_series(self, sensor_id: str) -> np.ndarray:
        """First channel of each sample as a 1-D series."""
        import numpy as np

        values = self.values(sensor_id)
        if values.size == 0:
            return np.empty(0)
        return values[:, 0]

    def times(self, sensor_id: str) -> np.ndarray:
        """Acquisition timestamps of one sensor's samples."""
        import numpy as np

        return np.array([sample.time for sample in self.samples(sensor_id)])


@dataclass
class AppResult:
    """Output of one window computation."""

    app_name: str
    window_index: int
    payload: Dict[str, Any]
    output_bytes: int

    def __post_init__(self) -> None:
        if self.output_bytes <= 0:
            raise WorkloadError(
                f"{self.app_name}: window {self.window_index} produced no output"
            )


class IoTApp:
    """Base class for the eleven Table II workloads."""

    profile: AppProfile

    def __init__(self, profile: AppProfile):
        self.profile = profile

    @property
    def name(self) -> str:
        """Machine name (profile shortcut)."""
        return self.profile.name

    @property
    def table2_id(self) -> str:
        """Table II identifier (profile shortcut)."""
        return self.profile.table2_id

    def build_window(
        self,
        window_index: int,
        start_s: float,
        sources: Optional[Mapping[str, Waveform]] = None,
    ) -> SampleWindow:
        """Create an empty window for the executor to fill."""
        return SampleWindow(
            window_index=window_index,
            start_s=start_s,
            duration_s=self.profile.window_s,
            sources=sources,
        )

    def compute(self, window: SampleWindow) -> AppResult:
        """The app-specific computation on one window of samples."""
        raise NotImplementedError

    def make_result(
        self, window: SampleWindow, payload: Dict[str, Any]
    ) -> AppResult:
        """Convenience: wrap a payload with the profile's output size."""
        return AppResult(
            app_name=self.name,
            window_index=window.window_index,
            payload=payload,
            output_bytes=self.profile.output_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.table2_id} {self.name}>"
