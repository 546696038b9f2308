"""Tests for sensor availability-check failure injection (§II-B Task I)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import Scenario, Scheme, run_scenario
from repro.apps import create_app
from repro.errors import SensorError
from repro.hw import IoTHub
from repro.sensors import ConstantWaveform, SensorDevice


def run_reads(device, hub, count):
    samples = []

    def reader():
        for _ in range(count):
            sample = yield from device.acquire()
            samples.append(sample)

    hub.sim.spawn(reader())
    hub.run()
    return samples


def test_zero_failure_rate_never_fails():
    hub = IoTHub()
    device = SensorDevice.attach(hub, "S4", ConstantWaveform(1.0))
    samples = run_reads(device, hub, 50)
    assert device.failed_checks == 0
    assert all(sample.ok for sample in samples)


def test_failures_cost_extra_rail_time():
    hub_clean = IoTHub()
    clean = SensorDevice.attach(hub_clean, "S4", ConstantWaveform(1.0))
    run_reads(clean, hub_clean, 100)
    clean_time = hub_clean.sim.now

    hub_flaky = IoTHub()
    flaky = SensorDevice.attach(
        hub_flaky, "S4", ConstantWaveform(1.0), failure_rate=0.4
    )
    run_reads(flaky, hub_flaky, 100)
    assert flaky.failed_checks > 10
    assert hub_flaky.sim.now > clean_time


def test_exhausted_retries_return_stale_sample():
    hub = IoTHub()
    device = SensorDevice.attach(
        hub, "S4", ConstantWaveform(1.0), failure_rate=0.9
    )
    samples = run_reads(device, hub, 60)
    assert device.stale_samples > 0
    stale = [sample for sample in samples if not sample.ok]
    assert stale
    # A stale sample still carries a usable (last-good) value.
    assert all(sample.value is not None for sample in samples)


def test_moderate_failure_rate_mostly_recovers_via_retry():
    hub = IoTHub()
    device = SensorDevice.attach(
        hub, "S4", ConstantWaveform(1.0), failure_rate=0.2
    )
    samples = run_reads(device, hub, 100)
    ok_fraction = sum(1 for sample in samples if sample.ok) / len(samples)
    assert ok_fraction > 0.9  # retries absorb most transient failures


def test_invalid_failure_rate_rejected():
    hub = IoTHub()
    with pytest.raises(SensorError):
        SensorDevice.attach(hub, "S4", ConstantWaveform(1.0), failure_rate=1.5)


def test_scenario_level_failure_injection_runs_end_to_end():
    scenario = Scenario(
        apps=[create_app("A2")],
        scheme=Scheme.BASELINE,
        sensor_failure_rates={"S4": 0.15},
    )
    result = run_scenario(scenario)
    assert result.results_ok
    device = None
    # The runner's device registry is internal; recover stats via hub.
    # Failed checks show up as extra read-state rail time.
    read_time = result.hub.recorder.time_in_state(
        "sensor:S4", "read", result.duration_s
    )
    assert read_time > 0.5  # more than 1000 x 0.5 ms of clean reads


def test_failure_injection_is_deterministic():
    def run():
        hub = IoTHub()
        device = SensorDevice.attach(
            hub, "S4", ConstantWaveform(1.0), failure_rate=0.3
        )
        run_reads(device, hub, 50)
        return device.failed_checks, device.stale_samples

    assert run() == run()


#: Runs one failure-injection scenario and prints its total energy and
#: S4 read time as ``float.hex``.
_FAILURE_RUN = """
from repro.core import Scenario, run_scenario
result = run_scenario(
    Scenario.of(["A2"], scheme="baseline", sensor_failure_rates={"S4": 0.15})
)
read_s = result.hub.recorder.time_in_state("sensor:S4", "read", result.duration_s)
print(result.energy.total_j.hex(), read_s.hex())
"""


def test_failure_injection_is_identical_across_hash_seeds():
    """Failure noise must not depend on the interpreter's string-hash
    salt: a disk-cache entry written by one process is served to others."""
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-c", _FAILURE_RUN],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    assert run("1") == run("2")
