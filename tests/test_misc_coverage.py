"""Coverage for remaining corners: exports, firmware details, windows."""

import pytest

import repro
from repro.apps import create_app
from repro.core import Scenario, Scheme
from repro.errors import WorkloadError
from repro.firmware.driver import McuOp, mcu_transfer_time, run_ops
from repro.hw import InterruptController, IoTHub
from repro.sim import Delay, Simulator


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_scenario_of_validates_batch_size():
    with pytest.raises(WorkloadError):
        Scenario.of(["A2"], scheme=Scheme.BATCHING, batch_size=0)


def test_scenario_of_accepts_failure_rates():
    scenario = Scenario.of(
        ["A2"], sensor_failure_rates={"S4": 0.1}
    )
    assert scenario.sensor_failure_rates == {"S4": 0.1}


def test_irq_concurrent_waiters_each_get_one_request():
    sim = Simulator()
    irq = InterruptController(sim)
    received = []

    def waiter(tag):
        request = yield from irq.wait()
        received.append((tag, request.payload))

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))

    def device():
        yield Delay(1.0)
        irq.raise_irq("mcu", "v", payload=1)
        yield Delay(1.0)
        irq.raise_irq("mcu", "v", payload=2)

    sim.spawn(device())
    sim.run()
    assert sorted(payload for _, payload in received) == [1, 2]
    assert len({tag for tag, _ in received}) == 2


def test_mcu_bulk_transfer_is_cheaper_per_sample():
    def measure(bulk):
        hub = IoTHub()
        hub.mcu.set_idle("data_collection")

        def mover():
            duration = mcu_transfer_time(hub.calibration.mcu, 100, bulk)
            yield from run_ops(hub, (McuOp(duration, "data_transfer"),), None)

        hub.sim.spawn(mover())
        hub.run()
        return hub.sim.now

    assert measure(bulk=True) < measure(bulk=False)


def test_app_mcu_buffer_bytes_rules():
    # Streamable kHz app: capped at the ring size.
    stepcounter = create_app("A2").profile
    assert stepcounter.mcu_buffer_bytes == 4096
    # Single-large-reading app: must hold the whole frame.
    jpeg = create_app("A9").profile
    assert jpeg.mcu_buffer_bytes == jpeg.sample_bytes("S10")
    # Tiny-data app: just its window's bytes.
    arduinojson = create_app("A3").profile
    assert arduinojson.mcu_buffer_bytes == max(
        arduinojson.sensor_data_bytes, 8
    )


def test_hub_components_registry():
    hub = IoTHub()
    psm = hub.add_component("widget", {"on": 1.0, "off": 0.0}, "off")
    assert hub.component("widget") is psm
    with pytest.raises(KeyError):
        hub.component("missing")


def test_run_until_horizon_even_if_events_remain():
    hub = IoTHub()

    def slow():
        yield Delay(100.0)

    hub.sim.spawn(slow())
    end = hub.run(until=2.0)
    assert end == 2.0


def test_result_summary_mentions_violations():
    from repro.core import run_scenario
    from repro.calibration import default_calibration

    tight = default_calibration().with_mcu(ram_bytes=2048)
    result = run_scenario(
        Scenario(apps=[create_app("A2")], scheme=Scheme.BATCHING,
                 calibration=tight)
    )
    assert "QoS violations" in result.summary()
