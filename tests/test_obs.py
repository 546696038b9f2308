"""Observability layer: recorders, exporters, metrics and the CLI.

The two load-bearing invariants from ``docs/observability.md``:

* zero-cost-when-off — the default :class:`NullRecorder` allocates
  nothing on the hot path, and attaching a :class:`TraceRecorder` does
  not change a single simulated number (golden parity);
* deterministic content — the JSONL and Chrome exports contain only
  virtual-time quantities, so the same scenario always produces the
  same bytes.
"""

import io
import json
import os
import tracemalloc

import pytest

from repro.core import Scenario, ScenarioEngine
from repro.core.schemes.base import execute_scenario
from repro.obs import (
    Metrics,
    NULL_RECORDER,
    NullRecorder,
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    chrome_trace_events,
    read_jsonl,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.export import TraceFormatError
from repro.obs.metrics import EngineMetrics, Metrics
from repro.obs.recorder import SIM_TRACK, WALL_TRACK
from repro.units import ms


def small_scenario(scheme="batching", apps=("A2",), windows=1):
    """One cheap, deterministic scenario for exporter tests."""
    return Scenario.of(list(apps), scheme=scheme, windows=windows)


def recorded_run(scheme="batching", apps=("A2",), windows=1):
    """Run a small scenario with a TraceRecorder attached."""
    recorder = TraceRecorder()
    result = execute_scenario(small_scenario(scheme, apps, windows), obs=recorder)
    return recorder, result


# ----------------------------------------------------------------------
# recorder basics
# ----------------------------------------------------------------------
class TestRecorders:
    def test_null_recorder_is_disabled_and_silent(self):
        assert NullRecorder.enabled is False
        assert NULL_RECORDER.span("cat", "name", 0.0, 1.0) is None
        assert NULL_RECORDER.count("x") is None
        assert NULL_RECORDER.gauge_max("x", 3.0) is None

    def test_null_recorder_hot_path_allocates_nothing(self):
        obs = NULL_RECORDER
        # Warm up so the guard itself isn't charged for byte-code caches.
        for _ in range(3):
            if obs.enabled:
                obs.count("sim.events")
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(10_000):
            if obs.enabled:
                obs.count("sim.events")
                obs.span("cat", "name", 0.0, 1.0)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        # Nothing may be charged to the recorder module itself; the test
        # harness is allowed its own bookkeeping allocations.
        grown = [
            stat
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
            and stat.traceback[0].filename.endswith("recorder.py")
        ]
        assert grown == []

    def test_null_recorder_canonical_run_allocates_nothing(self):
        """The canonical A2+A4 BCOM run under the default recorder charges
        no allocation to ``obs/recorder.py``: every instrumented hot path
        checks ``enabled`` before it reaches a hook.  Deterministic,
        unlike the benchmarks' wall-clock overhead gate."""
        scenario = Scenario.of(["A2", "A4"], scheme="bcom")
        # Warm up so the guard isn't charged for first-run caches.
        execute_scenario(scenario, obs=NULL_RECORDER)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        result = execute_scenario(scenario, obs=NULL_RECORDER)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        assert result.results_ok
        grown = [
            stat
            for stat in after.compare_to(before, "filename")
            if stat.size_diff > 0
            and stat.traceback[0].filename.endswith(
                os.path.join("obs", "recorder.py")
            )
        ]
        assert grown == []

    def test_trace_recorder_collects(self):
        recorder = TraceRecorder()
        assert recorder.enabled is True
        recorder.span("sense", "s1", 0.0, ms(2.0))
        recorder.span("engine", "run", 0.0, 1.0, track=WALL_TRACK)
        recorder.count("sim.events", 3)
        recorder.count("sim.events")
        recorder.gauge_max("depth", 2)
        recorder.gauge_max("depth", 7)
        recorder.gauge_max("depth", 4)
        assert recorder.counters == {"sim.events": 4}
        assert recorder.gauges == {"depth": 7}
        assert [span.track for span in recorder.spans] == [
            SIM_TRACK,
            WALL_TRACK,
        ]
        assert [span.cat for span in recorder.sim_spans()] == ["sense"]

    def test_metrics_aggregation(self):
        recorder = TraceRecorder()
        recorder.span("sense", "s1", 0.0, 1.0)
        recorder.span("sense", "s1", 1.0, 3.0)
        recorder.span("sense", "s2", 0.0, 4.0)
        recorder.span("engine", "run", 0.0, 100.0, track=WALL_TRACK)
        metrics = Metrics.from_recorder(recorder)
        assert metrics.by_name[("sense", "s1")].count == 2
        assert metrics.by_name[("sense", "s1")].total_s == pytest.approx(3.0)
        assert metrics.by_name[("sense", "s1")].mean_s == pytest.approx(1.5)
        assert metrics.by_cat["sense"].count == 3
        assert metrics.by_cat["sense"].total_s == pytest.approx(7.0)
        # The wall track stays out of sim aggregates.
        assert "engine" not in metrics.by_cat
        snapshot = metrics.snapshot()
        assert snapshot["spans"]["sense"]["by_name"]["s2"]["count"] == 1


# ----------------------------------------------------------------------
# instrumented simulation
# ----------------------------------------------------------------------
class TestInstrumentedRun:
    def test_sim_counters_and_spans_are_populated(self):
        recorder, result = recorded_run()
        assert result.energy.total_j > 0
        assert recorder.counters["sim.events"] > 0
        assert recorder.gauges["sim.heap_depth"] >= 1
        cats = {span.cat for span in recorder.sim_spans()}
        assert "kernel" in cats
        assert "sense" in cats

    def test_bcom_multi_app_covers_the_span_taxonomy(self):
        recorder, _ = recorded_run(scheme="bcom", apps=("A2", "A4"))
        cats = {span.cat for span in recorder.sim_spans()}
        assert {"sense", "irq", "transfer", "compute", "kernel"} <= cats

    @pytest.mark.parametrize(
        "scheme", ["baseline", "batching", "com", "bcom"]
    )
    def test_golden_parity_with_observability_on_and_off(self, scheme):
        plain = execute_scenario(small_scenario(scheme, ("A2", "A4")))
        recorder = TraceRecorder()
        observed = execute_scenario(
            small_scenario(scheme, ("A2", "A4")), obs=recorder
        )
        # Bit-identical, not approximately equal: the instrumentation
        # must never perturb the simulation.
        assert observed.energy.total_j == plain.energy.total_j
        assert observed.duration_s == plain.duration_s
        assert observed.interrupt_count == plain.interrupt_count
        assert observed.cpu_wake_count == plain.cpu_wake_count
        assert observed.bus_bytes == plain.bus_bytes
        assert observed.busy_times == plain.busy_times
        assert recorder.counters["sim.events"] > 0

    def test_recorder_content_is_deterministic_across_runs(self):
        first, _ = recorded_run(scheme="bcom", apps=("A2", "A4"))
        second, _ = recorded_run(scheme="bcom", apps=("A2", "A4"))
        assert first.spans == second.spans
        assert first.counters == second.counters
        assert first.gauges == second.gauges


#: Per-family sim-span pins: (app set, scheme, batch size) -> (cat, name)
#: -> (count, ``float.hex`` total seconds).  One scenario per wiring
#: family and hand-off (per-sample interrupts, shared streams, final and
#: partial batches, main-board polling, MCU compute); a reordered or
#: re-timed operation moves a count or the last bit of a total.
SPAN_TOTALS = {
    ('A2+A7', 'baseline', None): {
        ('compute', 'cpu:earthquake'): (1, '0x1.b4868600ef860p-5'),
        ('compute', 'cpu:stepcounter'): (1, '0x1.21ab4b72c5100p-9'),
        ('irq', 'sample'): (2000, '0x1.47ae147ae48bep-7'),
        ('irq', 'service:sample'): (2000, '0x1.c6ae0d7d4fe84p-3'),
        ('kernel', 'run'): (1, '0x1.0e44a867a0282p+0'),
        ('sense', 'S4@earthquake'): (1000, '0x1.ee1f9f01b86adp-1'),
        ('sense', 'S4@stepcounter'): (1000, '0x1.1999999999bbbp-1'),
        ('transfer', 'cpu:sample'): (2000, '0x1.8888888888a61p-2'),
        ('transfer', 'mcu:sample'): (2000, '0x1.eb851eb8509b3p-5'),
    },
    ('A4+A5', 'beam', None): {
        ('compute', 'cpu:blynk'): (1, '0x1.9d8ceabd84980p-6'),
        ('compute', 'cpu:m2x'): (1, '0x1.0151fe2647220p-6'),
        ('irq', 'sample'): (2221, '0x1.7de939eae0fbcp-7'),
        ('irq', 'service:sample'): (2221, '0x1.f458cd20b028cp-3'),
        ('kernel', 'run'): (1, '0x1.0a93a4d6d5f4fp+0'),
        ('sense', 'S10@blynk'): (1, '0x1.78327674d1633p-3'),
        ('sense', 'S1@m2x+blynk'): (10, '0x1.809d495182a93p-2'),
        ('sense', 'S2@m2x+blynk'): (10, '0x1.810624dd2f1afp-3'),
        ('sense', 'S4@m2x+blynk'): (1000, '0x1.19ce075f6fbfep-1'),
        ('sense', 'S5@m2x+blynk'): (200, '0x1.9db22d0e55fa5p-3'),
        ('sense', 'S7@m2x'): (1000, '0x1.333333333312ap-3'),
        ('transfer', 'cpu:sample'): (2221, '0x1.f65e63d9f40d8p-2'),
        ('transfer', 'mcu:sample'): (2221, '0x1.12599ed7c6413p-4'),
    },
    ('A3', 'batching', 50): {
        ('compute', 'cpu:arduinojson'): (1, '0x1.b91ed8419e800p-8'),
        ('irq', 'batch'): (1, '0x1.4f8b588e40000p-18'),
        ('irq', 'service:batch'): (1, '0x1.c044284dfd000p-10'),
        ('kernel', 'run'): (1, '0x1.e563dcf468e68p-1'),
        ('sense', 'S1@arduinojson'): (10, '0x1.8083126e978d2p-2'),
        ('sense', 'S2@arduinojson'): (10, '0x1.810624dd2f1afp-3'),
        ('transfer', 'cpu:batch'): (1, '0x1.d173842c61e00p-10'),
        ('transfer', 'mcu:batch'): (1, '0x1.3a92a30553000p-13'),
    },
    ('A2', 'batching', 50): {
        ('compute', 'cpu:stepcounter'): (1, '0x1.21ab4b72c5200p-9'),
        ('irq', 'batch'): (20, '0x1.a36e2eb1c8600p-14'),
        ('irq', 'service:batch'): (20, '0x1.182a9930be177p-5'),
        ('kernel', 'run'): (1, '0x1.02333cfc98fbap+0'),
        ('sense', 'S4@stepcounter'): (1000, '0x1.1999999999876p-1'),
        ('transfer', 'cpu:batch'): (20, '0x1.a210a83585652p-4'),
        ('transfer', 'mcu:batch'): (20, '0x1.eb851eb851f80p-8'),
    },
    ('A2', 'polling', None): {
        ('compute', 'cpu:stepcounter'): (1, '0x1.21ab4b72c5200p-9'),
        ('kernel', 'run'): (1, '0x1.00726d04e618dp+0'),
        ('sense', 'S4@stepcounter'): (1000, '0x1.0a3d70a3d7030p-1'),
    },
    ('A2', 'com', None): {
        ('compute', 'mcu:stepcounter'): (1, '0x1.62d83c6c97d80p-6'),
        ('irq', 'result'): (1, '0x1.4f8b588e40000p-18'),
        ('irq', 'service:result'): (1, '0x1.4b48d3ae68600p-7'),
        ('kernel', 'run'): (1, '0x1.0816f1e3c5ae2p+0'),
        ('sense', 'S4@stepcounter'): (1000, '0x1.1999999999876p-1'),
        ('transfer', 'cpu:result'): (1, '0x1.11cb7aecee000p-12'),
        ('transfer', 'mcu:result'): (1, '0x1.f75104d550000p-16'),
    },
}


@pytest.mark.parametrize(
    "label,scheme,batch_size",
    list(SPAN_TOTALS),
    ids=[f"{label}-{scheme}-b{size}" for label, scheme, size in SPAN_TOTALS],
)
def test_sim_span_totals_are_pinned(label, scheme, batch_size):
    recorder = TraceRecorder()
    execute_scenario(
        Scenario.of(label.split("+"), scheme=scheme, batch_size=batch_size),
        obs=recorder,
    )
    metrics = Metrics.from_recorder(recorder)
    totals = {
        key: (stat.count, stat.total_s.hex())
        for key, stat in metrics.by_name.items()
    }
    assert totals == SPAN_TOTALS[(label, scheme, batch_size)]

# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestJsonlExport:
    def test_round_trip_preserves_everything(self):
        recorder, _ = recorded_run()
        buffer = io.StringIO()
        written = write_jsonl(recorder, buffer)
        lines = buffer.getvalue().splitlines()
        assert written == len(lines)
        assert json.loads(lines[0]) == {
            "type": "header",
            "version": TRACE_SCHEMA_VERSION,
        }
        loaded = read_jsonl(lines)
        assert loaded.counters == recorder.counters
        assert loaded.gauges == recorder.gauges
        assert len(loaded.spans) == len(recorder.spans)
        for original, restored in zip(recorder.spans, loaded.spans):
            assert restored.cat == original.cat
            assert restored.name == original.name
            assert restored.track == original.track
            assert restored.t0_s == pytest.approx(original.t0_s, abs=1e-12)
            assert restored.t1_s == pytest.approx(original.t1_s, abs=1e-12)

    def test_identical_runs_export_identical_bytes(self):
        first, second = io.StringIO(), io.StringIO()
        write_jsonl(recorded_run()[0], first)
        write_jsonl(recorded_run()[0], second)
        assert first.getvalue() == second.getvalue()

    def test_missing_header_is_rejected(self):
        with pytest.raises(TraceFormatError):
            read_jsonl(['{"type": "span"}'])
        with pytest.raises(TraceFormatError):
            read_jsonl([])

    def test_wrong_version_is_rejected(self):
        with pytest.raises(TraceFormatError):
            read_jsonl(['{"type": "header", "version": 999}'])

    def test_garbage_line_is_rejected(self):
        header = json.dumps(
            {"type": "header", "version": TRACE_SCHEMA_VERSION}
        )
        with pytest.raises(TraceFormatError):
            read_jsonl([header, "not json"])
        with pytest.raises(TraceFormatError):
            read_jsonl([header, '{"type": "mystery"}'])
        with pytest.raises(TraceFormatError):
            read_jsonl([header, '{"type": "span", "cat": "only"}'])


class TestChromeExport:
    def test_events_follow_the_trace_event_schema(self):
        recorder, _ = recorded_run(scheme="bcom", apps=("A2", "A4"))
        events = chrome_trace_events(recorder)
        metadata = [e for e in events if e["ph"] == "M"]
        timed = [e for e in events if e["ph"] == "X"]
        assert len(timed) == len(recorder.sim_spans())
        names = {e["name"] for e in metadata}
        assert "process_name" in names and "thread_name" in names
        # One tid lane per category, consistently assigned.
        lanes = {
            e["args"]["name"]: e["tid"]
            for e in metadata
            if e["name"] == "thread_name"
        }
        for event in timed:
            assert event["tid"] == lanes[event["cat"]]
            assert event["dur"] >= 0.0
            assert event["pid"] == 0
        # Sorted by timestamp for viewer friendliness.
        stamps = [e["ts"] for e in timed]
        assert stamps == sorted(stamps)

    def test_written_document_is_valid_json(self):
        recorder, _ = recorded_run()
        buffer = io.StringIO()
        count = write_chrome_trace(recorder, buffer)
        document = json.loads(buffer.getvalue())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == count

    def test_wall_spans_never_reach_the_chrome_trace(self):
        recorder = TraceRecorder()
        recorder.span("sense", "s1", 0.0, 1.0)
        recorder.span("engine", "run", 0.0, 9.0, track=WALL_TRACK)
        events = chrome_trace_events(recorder)
        assert all(e.get("cat") != "engine" for e in events)


class TestSummaryExport:
    def test_summary_mentions_counters_gauges_and_spans(self):
        recorder, _ = recorded_run()
        text = render_summary(recorder)
        assert "sim.events" in text
        assert "sim.heap_depth" in text
        assert "kernel:run" in text

    def test_summary_includes_engine_metrics_when_given(self):
        recorder, _ = recorded_run()
        engine = EngineMetrics(cache_hits=2, cache_misses=1)
        text = render_summary(recorder, engine_metrics=engine)
        assert "engine" in text
        assert "2 hit(s)" in text


# ----------------------------------------------------------------------
# engine metrics
# ----------------------------------------------------------------------
class TestEngineMetrics:
    def test_serial_run_populates_metrics(self):
        engine = ScenarioEngine()
        engine.run(small_scenario())
        metrics = engine.metrics
        assert metrics.scenarios_run == 1
        assert metrics.run_wall_s > 0.0
        assert metrics.scenarios_per_sec > 0.0
        assert list(metrics.worker_wall_s) == ["w0"]
        assert metrics.worker_wall_s["w0"] > 0.0

    def test_cache_traffic_is_counted(self, tmp_path):
        engine = ScenarioEngine(cache_dir=tmp_path)
        engine.run(small_scenario())
        engine.run(small_scenario())
        assert engine.cache_misses == 1
        assert engine.cache_hits == 1
        assert engine.metrics.fingerprint_wall_s > 0.0
        assert engine.metrics.scenarios_run == 1

    def test_snapshot_and_summary_lines(self):
        metrics = EngineMetrics(
            cache_hits=1, cache_misses=2, scenarios_run=2, run_wall_s=0.5
        )
        metrics.note_worker("w0", 0.25)
        metrics.note_worker("w0", 0.25)
        snapshot = metrics.snapshot()
        assert snapshot["scenarios_per_sec"] == pytest.approx(4.0)
        assert snapshot["worker_wall_s"] == {"w0": 0.5}
        lines = metrics.summary_lines()
        assert any("1 hit(s)" in line for line in lines)
        assert any("w0=0.500s" in line for line in lines)

    def test_zero_wall_time_has_zero_rate(self):
        assert EngineMetrics().scenarios_per_sec == 0.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestProfileCli:
    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr().out

    def test_summary_format(self, capsys):
        code, out = self.run_cli(
            ["profile", "A2", "--scheme", "batching"], capsys
        )
        assert code == 0
        assert "instrumentation summary" in out
        assert "sim.events" in out

    def test_jsonl_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code, out = self.run_cli(
            ["profile", "A2", "--format", "jsonl", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        assert "record(s)" in out
        loaded = read_jsonl(out_path.read_text().splitlines())
        assert loaded.counters["sim.events"] > 0

    def test_chrome_to_file_is_perfetto_loadable(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code, out = self.run_cli(
            [
                "profile",
                "A2",
                "A4",
                "--scheme",
                "bcom",
                "--format",
                "chrome",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert "trace event(s)" in out
        document = json.loads(out_path.read_text())
        assert document["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in document["traceEvents"]}
        assert phases == {"M", "X"}

    def test_jsonl_to_stdout(self, capsys):
        code, out = self.run_cli(["profile", "A2", "--format", "jsonl"], capsys)
        assert code == 0
        assert json.loads(out.splitlines()[0])["type"] == "header"
