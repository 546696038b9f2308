#!/usr/bin/env python3
"""Field-deployment study: a constrained hub with a flaky sensor.

A budget build of the hub has only 16 KB of usable MCU RAM and an
accelerometer whose availability checks fail 20% of the time.  The M2X
cloud app's 20.5 KB windows cannot be whole-window batched in that RAM.
This example
finds a batch size that fits the RAM, verifies the retry logic rides out
the flakiness, and prints a Monsoon-style power sparkline:

    python examples/field_deployment.py
"""

from repro import Scenario, Scheme, create_app, run_scenario
from repro.calibration import default_calibration
from repro.core import grid_of, run_sweep
from repro.energy import power_sparkline
from repro.units import to_mj

TIGHT_RAM = default_calibration().with_mcu(ram_bytes=16 * 1024)


def scenario(batch_size):
    return Scenario(
        apps=[create_app("A4")],  # M2X: 20.47 KB per window (Table II)
        scheme=Scheme.BATCHING,
        batch_size=batch_size,
        calibration=TIGHT_RAM,
        sensor_failure_rates={"S4": 0.2},
    )


def main() -> None:
    print("Constrained hub: 16 KB MCU RAM, 20% flaky accelerometer.\n")
    baseline = run_scenario(
        Scenario(
            apps=[create_app("A4")],
            scheme=Scheme.BASELINE,
            calibration=TIGHT_RAM,
            sensor_failure_rates={"S4": 0.2},
        )
    )

    sweep = run_sweep(
        grid_of(batch_size=[None, 500, 100]), scenario
    )
    print(f"{'Batch size':>12}{'Violations':>12}{'IRQs':>7}{'Energy':>11}{'Saving':>9}")
    chosen = None
    for point in sweep.succeeded:
        result = point.result
        label = point.params["batch_size"] or "window"
        saving = result.energy.savings_vs(baseline.energy)
        print(
            f"{str(label):>12}{len(result.qos_violations):>12}"
            f"{result.interrupt_count:>7}{to_mj(result.energy.marginal_j):>8.0f} mJ"
            f"{saving * 100:>8.1f}%"
        )
        if not result.qos_violations and chosen is None:
            chosen = point

    assert chosen is not None, "no batch size fits 16 KB!"
    result = chosen.result
    print(
        f"\nDeployed configuration: batch_size={chosen.params['batch_size']}"
        f" ({result.interrupt_count} interrupts per window)."
    )
    m2x = result.result_payloads("m2x")[0]
    print(
        f"Cloud upload intact despite the flaky sensor: "
        f"{m2x['points']} points across {m2x['streams']} streams, "
        f"{m2x['payload_bytes']} payload bytes"
    )

    strip, low, high = power_sparkline(result.hub.recorder, result.duration_s)
    print(f"\nhub power, {low:.1f}..{high:.1f} W over the window:")
    print(strip)


if __name__ == "__main__":
    main()
