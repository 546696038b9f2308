"""Sensor device model: the hardware side of Table I rows.

A :class:`SensorDevice` is a Table I spec bound to a hub and a waveform.
Reading it is the paper's §II-B Task I-II (availability check + register
read): the device's rail goes to its read-burst power for ``read_time``;
the driver's decode step (Task III) runs afterwards on the MCU core and is
modelled by the firmware layer, not here.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional

from ..errors import SensorError
from ..hw.board import IoTHub
from ..hw.power import Routine
from ..sim.process import Delay
from ..sim.resources import Resource
from .specs import SensorSpec, get_spec

if TYPE_CHECKING:
    from .synthetic import Waveform


@dataclass(frozen=True)
class SensorSample:
    """One acquired sensor reading.

    ``ok`` is False when the availability checks kept failing and the
    driver fell back to the last good value (a stale reading).
    """

    time: float
    sensor_id: str
    value: Any
    nbytes: int
    seq: int
    ok: bool = True


def _construct(module: str, factory: str) -> Waveform:
    """Call ``factory`` of the waveform module ``repro.sensors.<module>``,
    importing the module (and numpy) on the first call."""
    return getattr(import_module(f"{__package__}.{module}"), factory)()


#: Default waveform per Table I sensor, used when a scenario does not
#: inject its own.  Each factory imports its waveform module when called,
#: so only a sensor read loads the waveform code.
DEFAULT_WAVEFORMS: Dict[str, Callable[[], Waveform]] = {
    "S1": partial(_construct, "environment", "barometer_waveform"),
    "S2": partial(_construct, "environment", "temperature_waveform"),
    "S3": partial(_construct, "fingerprint", "FingerprintWaveform"),
    "S4": partial(_construct, "accelerometer", "WalkingWaveform"),
    "S5": partial(_construct, "environment", "air_quality_waveform"),
    "S6": partial(_construct, "pulse", "EcgWaveform"),
    "S7": partial(_construct, "environment", "light_waveform"),
    "S8": partial(_construct, "sound", "AmbientSoundWaveform"),
    "S9": partial(_construct, "environment", "distance_waveform"),
    "S10": partial(_construct, "camera", "CameraWaveform"),
    "S10H": partial(_construct, "camera", "highres_camera_waveform"),
}


#: Driver retry budget per acquisition.
MAX_RETRIES = 3
#: An availability check costs this fraction of a full read.
CHECK_TIME_FRACTION = 0.1


def validate_failure_rate(rate: float) -> None:
    """Raise :class:`SensorError` unless ``rate`` is a valid
    availability-check failure rate, in ``[0, 1)``."""
    if not 0.0 <= rate < 1.0:
        raise SensorError(f"failure rate must be in [0, 1), got {rate}")


def failed_check_count(sensor_id: str, failure_rate: float, read_count: int) -> int:
    """How many availability checks read number ``read_count`` (counted
    from 0) of ``sensor_id`` fails before one passes, at ``failure_rate``.

    A pure function of its arguments, so both fidelity tiers draw the
    same failures.  ``MAX_RETRIES + 1`` means every check failed and the
    driver falls back to the last good value.
    """
    from .synthetic import pseudo_noise

    # A stable digest, not hash(): str hashes are salted per process.
    seed = zlib.crc32(sensor_id.encode()) % 997
    for attempt in range(MAX_RETRIES + 1):
        noise = pseudo_noise(read_count + attempt * 0.137, seed=seed)
        if not (noise + 1.0) / 2.0 < failure_rate:
            return attempt
    return MAX_RETRIES + 1


def default_waveform(sensor_id: str) -> Waveform:
    """Construct the default waveform for a Table I sensor."""
    try:
        factory = DEFAULT_WAVEFORMS[sensor_id]
    except KeyError:
        raise SensorError(f"no default waveform for {sensor_id!r}") from None
    return factory()


class SensorDevice:
    """A physical sensor attached to the MCU board of a hub.

    ``failure_rate`` injects §II-B Task-I availability-check failures: a
    deterministic pseudo-random fraction of reads fails its checks, costs
    a check-length burst, and is retried up to :data:`MAX_RETRIES` times
    before the driver falls back to the last good value
    (:func:`failed_check_count`).
    """

    STANDBY = "standby"
    READ = "read"

    def __init__(
        self,
        hub: IoTHub,
        spec: SensorSpec,
        waveform: Optional[Waveform] = None,
        failure_rate: float = 0.0,
    ):
        validate_failure_rate(failure_rate)
        self.hub = hub
        self.spec = spec
        self.waveform = waveform or default_waveform(spec.sensor_id)
        self.failure_rate = failure_rate
        self.rail = Resource(f"sensor:{spec.sensor_id}.rail")
        read_power = (
            spec.typical_power_w + hub.calibration.mcu.sensor_read_power_w
        )
        self.psm = hub.add_component(
            f"sensor:{spec.sensor_id}",
            states={self.STANDBY: spec.min_power_w, self.READ: read_power},
            initial_state=self.STANDBY,
        )
        self.read_count = 0
        self.failed_checks = 0
        self.stale_samples = 0
        self._last_good_value: Any = None

    @classmethod
    def attach(
        cls,
        hub: IoTHub,
        sensor_id: str,
        waveform: Optional[Waveform] = None,
        failure_rate: float = 0.0,
    ) -> "SensorDevice":
        """Attach a Table I sensor to ``hub`` by id."""
        return cls(hub, get_spec(sensor_id), waveform, failure_rate)

    def acquire(self, routine: str = Routine.DATA_COLLECTION) -> Generator:
        """Generator: availability checks + one register read.

        Occupies the sensor rail; concurrent readers (two apps polling the
        same sensor without BEAM) serialize here.  Failed availability
        checks cost a check-length burst each and are retried; after the
        retry budget the driver returns the last good value marked stale.
        Returns a :class:`SensorSample`.
        """
        yield from self.rail.acquire()
        failed = 0
        if self.failure_rate > 0.0:
            failed = failed_check_count(
                self.spec.sensor_id, self.failure_rate, self.read_count
            )
            for _ in range(failed):
                self.failed_checks += 1
                self.psm.set_state(self.READ, routine)
                yield Delay(self.spec.read_time_s * CHECK_TIME_FRACTION)
                self.psm.set_state(self.STANDBY, Routine.IDLE)
        ok = failed <= MAX_RETRIES
        self.psm.set_state(self.READ, routine)
        yield Delay(self.spec.read_time_s)
        now = self.hub.sim.now
        self.read_count += 1
        if ok:
            value = self.waveform.sample(now)
            self._last_good_value = value
        else:
            self.stale_samples += 1
            value = (
                self._last_good_value
                if self._last_good_value is not None
                else self.waveform.sample(now)
            )
        sample = SensorSample(
            time=now,
            sensor_id=self.spec.sensor_id,
            value=value,
            nbytes=self.spec.sample_bytes,
            seq=self.read_count,
            ok=ok,
        )
        self.psm.set_state(self.STANDBY, Routine.IDLE)
        self.rail.release()
        return sample
