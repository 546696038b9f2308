"""Ablation: main-board polling vs the MCU-board baseline (§II-A).

With sensors on the main board the CPU blocks on every read — for the
slow SPI/I2C sensors that is hundreds of busy milliseconds per window.
This is the configuration whose cost justifies adding the MCU board, and
the starting point of the paper's architecture story.
"""

from conftest import run_once

from repro.core import Scheme, run_apps

#: arduinoJSON reads the two slowest sensors (37.5 ms / 18.75 ms reads).
APPS = ["A3", "A2"]


def _measure():
    return {
        Scheme.POLLING: run_apps(APPS, Scheme.POLLING),
        Scheme.BASELINE: run_apps(APPS, Scheme.BASELINE),
        Scheme.COM: run_apps(APPS, Scheme.COM),
    }


def test_ablation_polling(benchmark, figure_printer):
    results = run_once(benchmark, _measure)
    polling = results[Scheme.POLLING]
    baseline = results[Scheme.BASELINE]
    com = results[Scheme.COM]

    def cpu_busy(result):
        return result.hub.recorder.time_in_state(
            "cpu", "busy", result.duration_s
        )

    lines = [
        f"{'Scheme':<10}{'CPU busy(ms)':>13}{'IRQs':>6}{'Energy(mJ)':>12}",
    ]
    for scheme, result in results.items():
        lines.append(
            f"{scheme:<10}{cpu_busy(result) * 1e3:>13.1f}"
            f"{result.interrupt_count:>6}"
            f"{result.energy.marginal_j * 1e3:>12.0f}"
        )
    figure_printer(
        "Ablation — main-board polling vs MCU-board execution (A3+A2)",
        "\n".join(lines),
    )

    # Polling blocks the CPU for the slow sensors' reads: well over half a
    # second of busy time per window vs the MCU-attached baseline.
    assert cpu_busy(polling) > cpu_busy(baseline) + 0.4
    # No interrupts and no MCU activity under polling.
    assert polling.interrupt_count == 0
    assert polling.energy.component_j("mcu") < 0.02
    # The architecture ladder: polling >= baseline > COM in energy.
    assert polling.energy.marginal_j > 0.95 * baseline.energy.marginal_j
    assert com.energy.marginal_j < 0.4 * baseline.energy.marginal_j
    # Functionality is identical in all three placements.
    for result in results.values():
        assert result.results_ok
