"""Unit tests for the hub's power ledger: recording and its queries."""

import pytest

from repro.energy.ledger import PowerLedger, integrate


def change(ledger, time, component="cpu", state="busy", power=5.0, routine="idle"):
    ledger.timeline(component).changes.append((time, state, power, routine))


def test_intervals_close_at_end_time():
    ledger = PowerLedger()
    change(ledger, 0.0, state="idle", power=2.5)
    change(ledger, 1.0, state="busy", power=5.0)
    intervals = list(ledger.intervals("cpu", end_time=3.0))
    assert [(state, t1 - t0) for t0, t1, state, _, _ in intervals] == [
        ("idle", 1.0),
        ("busy", 2.0),
    ]


def test_zero_length_intervals_skipped():
    ledger = PowerLedger()
    change(ledger, 0.0, state="idle")
    change(ledger, 1.0, state="busy")
    change(ledger, 1.0, state="sleep", power=1.5)
    intervals = list(ledger.intervals("cpu", end_time=2.0))
    assert [state for _, _, state, _, _ in intervals] == ["idle", "sleep"]


def test_out_of_order_record_rejected():
    ledger = PowerLedger()
    change(ledger, 2.0)
    change(ledger, 1.0)
    with pytest.raises(ValueError):
        integrate(ledger.timelines(), 3.0)
    with pytest.raises(ValueError):
        ledger.changes("cpu")


def test_state_at_returns_latest_change():
    ledger = PowerLedger()
    change(ledger, 0.0, state="sleep")
    change(ledger, 5.0, state="busy")
    assert ledger.state_at("cpu", 2.0)[1] == "sleep"
    assert ledger.state_at("cpu", 5.0)[1] == "busy"
    assert ledger.state_at("cpu", 9.0)[1] == "busy"
    assert ledger.state_at("mcu", 1.0) is None


def test_time_in_state():
    ledger = PowerLedger()
    change(ledger, 0.0, state="sleep")
    change(ledger, 4.0, state="busy")
    change(ledger, 6.0, state="sleep")
    assert ledger.time_in_state("cpu", "sleep", end_time=10.0) == pytest.approx(8.0)
    assert ledger.time_in_state("cpu", "busy", end_time=10.0) == pytest.approx(2.0)


def test_components_sorted():
    ledger = PowerLedger()
    change(ledger, 0.0, component="mcu")
    change(ledger, 0.0, component="cpu")
    assert ledger.components == ("cpu", "mcu")


def test_render_ascii_strip():
    ledger = PowerLedger()
    change(ledger, 0.0, state="sleep")
    change(ledger, 0.5, state="busy")
    strip = ledger.render_ascii(
        "cpu", end_time=1.0, width=10, state_chars={"sleep": ".", "busy": "#"}
    )
    assert strip == "....." + "#####"
