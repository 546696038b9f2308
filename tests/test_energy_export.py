"""Tests for trace export: CSV dumps and sparklines."""

import io

import pytest

from repro.core import Scheme, run_apps
from repro.energy import (
    power_csv_string,
    power_sparkline,
    sparkline,
    write_power_csv,
    write_state_csv,
)
from repro.cli import main


@pytest.fixture(scope="module")
def measured():
    result = run_apps(["A2"], Scheme.BATCHING)
    return result, result.hub.recorder


def test_power_csv_rows_and_header(measured):
    result, ledger = measured
    buffer = io.StringIO()
    rows = write_power_csv(ledger, result.duration_s, 0.01, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "time_s,power_w"
    assert len(lines) == rows + 1
    assert rows == int(result.duration_s / 0.01) + 1
    # Every row parses as two floats.
    for line in lines[1:]:
        time_s, power_w = line.split(",")
        assert float(time_s) >= 0.0
        assert float(power_w) > 0.0


def test_power_csv_integrates_to_total_energy(measured):
    """Riemann sum of the CSV approximates the meter's total.

    The interval must not be commensurate with the 1 kHz poll rate or the
    samples alias onto the read bursts (a real measurement pitfall — the
    Monsoon avoids it by sampling at 10 MHz).
    """
    result, ledger = measured
    interval = 0.000317
    text = power_csv_string(ledger, result.duration_s, interval)
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    powers = [float(power) for _, power in rows]
    approx_energy = sum(powers) * interval
    assert approx_energy == pytest.approx(result.energy.total_j, rel=0.05)


def test_state_csv_covers_all_components(measured):
    result, ledger = measured
    buffer = io.StringIO()
    rows = write_state_csv(ledger, result.duration_s, buffer)
    text = buffer.getvalue()
    assert rows > 10
    for component in ("cpu", "mcu", "sensor:S4", "board"):
        assert component in text


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    strip = sparkline([0, 1, 2, 3, 4, 5, 6, 7], width=8)
    assert strip[0] == "▁"
    assert strip[-1] == "█"
    # Long series are downsampled to the requested width.
    assert len(sparkline(list(range(1000)), width=40)) == 40


def test_power_sparkline_bounds(measured):
    result, ledger = measured
    strip, low, high = power_sparkline(ledger, result.duration_s, width=32)
    assert len(strip) == 32
    assert 0.0 < low < high < 20.0


def test_cli_trace_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "trace.csv"
    assert main(["trace", "A2", "--scheme", "batching", "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert "hub power over" in printed
    assert out_file.exists()
    content = out_file.read_text()
    assert content.startswith("time_s,power_w")
    assert len(content.splitlines()) > 100


def test_cli_trace_sparkline_only(capsys):
    assert main(["trace", "A2"]) == 0
    printed = capsys.readouterr().out
    assert "hub power over" in printed
    assert "wrote" not in printed
