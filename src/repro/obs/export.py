"""Exporters: text summary, JSONL and Chrome ``trace_event`` output.

Three renderings of one :class:`~repro.obs.recorder.TraceRecorder`:

* :func:`render_summary` — the ``repro profile`` terminal view:
  counters, gauges and a per-phase span table.
* :func:`write_jsonl` / :func:`read_jsonl` — one self-describing JSON
  record per line (schema pinned by :data:`TRACE_SCHEMA_VERSION`), easy
  to grep and to post-process.
* :func:`write_chrome_trace` — the Trace Event Format understood by
  ``chrome://tracing`` and https://ui.perfetto.dev: complete (``"X"``)
  events in microseconds of *virtual* time, one lane per span category.

Only the deterministic ``sim`` track reaches the Chrome export; wall
spans appear in JSONL with ``"track": "wall"`` so consumers can filter.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Optional

from ..errors import ReproError
from ..units import to_ms, to_us, us
from .metrics import EngineMetrics, Metrics
from .recorder import SIM_TRACK, TraceRecorder

#: Bump when the JSONL record layout changes.
TRACE_SCHEMA_VERSION = 1


class TraceFormatError(ReproError):
    """A trace file/stream does not match the expected schema."""


# ----------------------------------------------------------------------
# text summary
# ----------------------------------------------------------------------
def render_summary(
    recorder: TraceRecorder,
    engine_metrics: Optional[EngineMetrics] = None,
) -> str:
    """Human-readable profile: counters, gauges, per-phase span table."""
    metrics = Metrics.from_recorder(recorder)
    lines: List[str] = ["instrumentation summary"]
    for name, value in sorted(metrics.counters.items()):
        lines.append(f"  counter {name:<28}{value:>12}")
    for name, value in sorted(metrics.gauges.items()):
        lines.append(f"  gauge   {name:<28}{value:>12g}")
    if metrics.by_name:
        lines.append(
            f"  {'span':<30}{'count':>8}{'total ms':>12}{'mean ms':>10}"
        )
        rows = sorted(
            metrics.by_name.items(),
            key=lambda item: (-item[1].total_s, item[0]),
        )
        for (cat, name), stat in rows:
            lines.append(
                f"  {cat + ':' + name:<30}{stat.count:>8}"
                f"{to_ms(stat.total_s):>12.3f}"
                f"{to_ms(stat.mean_s):>10.4f}"
            )
    wall_spans = [
        span for span in recorder.spans if span.track != SIM_TRACK
    ]
    if wall_spans:
        lines.append(f"  ({len(wall_spans)} wall-clock span(s) not shown)")
    if engine_metrics is not None:
        lines.append("engine")
        lines.extend(f"  {row}" for row in engine_metrics.summary_lines())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(recorder: TraceRecorder, handle: IO[str]) -> int:
    """Write every span/counter/gauge as one JSON record per line.

    Returns the number of records written (including the header).  The
    record order is deterministic: header, spans in recording order,
    then counters and gauges sorted by name.
    """
    records: List[Dict[str, Any]] = [
        {"type": "header", "version": TRACE_SCHEMA_VERSION}
    ]
    for span in recorder.spans:
        records.append(
            {
                "type": "span",
                "cat": span.cat,
                "name": span.name,
                "track": span.track,
                "t0_us": to_us(span.t0_s),
                "t1_us": to_us(span.t1_s),
            }
        )
    for name, count in sorted(recorder.counters.items()):
        records.append({"type": "counter", "name": name, "value": count})
    for name, value in sorted(recorder.gauges.items()):
        records.append({"type": "gauge", "name": name, "value": value})
    for record in records:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(lines: Iterable[str]) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from :func:`write_jsonl` output.

    Raises :class:`TraceFormatError` on a missing/mismatched header or a
    malformed record — schema drift should fail loudly, not decode into
    garbage.
    """
    recorder = TraceRecorder()
    saw_header = False
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"line {lineno}: not JSON ({exc.msg})"
            ) from exc
        kind = record.get("type")
        if not saw_header:
            if kind != "header" or record.get("version") != (
                TRACE_SCHEMA_VERSION
            ):
                raise TraceFormatError(
                    f"line {lineno}: expected header with version "
                    f"{TRACE_SCHEMA_VERSION}, got {record!r}"
                )
            saw_header = True
            continue
        try:
            if kind == "span":
                recorder.span(
                    record["cat"],
                    record["name"],
                    us_field(record, "t0_us"),
                    us_field(record, "t1_us"),
                    track=record["track"],
                )
            elif kind == "counter":
                recorder.count(record["name"], record["value"])
            elif kind == "gauge":
                recorder.gauge_max(record["name"], record["value"])
            else:
                raise TraceFormatError(
                    f"line {lineno}: unknown record type {kind!r}"
                )
        except KeyError as exc:
            raise TraceFormatError(
                f"line {lineno}: record missing field {exc}"
            ) from exc
    if not saw_header:
        raise TraceFormatError("empty trace: no header record")
    return recorder


def us_field(record: Dict[str, Any], key: str) -> float:
    """Read a microsecond field back into base seconds."""
    return us(float(record[key]))


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace_events(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """Trace Event Format dicts for the deterministic ``sim`` track.

    One ``tid`` lane per span category (named via ``thread_name``
    metadata) so a batching window reads as parallel sense/transfer/
    compute tracks in the viewer.  Timestamps are virtual microseconds.
    """
    spans = recorder.sim_spans()
    cats = sorted({span.cat for span in spans})
    tids = {cat: index for index, cat in enumerate(cats)}
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro simulation (virtual time)"},
        }
    ]
    for cat in cats:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tids[cat],
                "args": {"name": cat},
            }
        )
    timed = [
        {
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "ts": to_us(span.t0_s),
            "dur": to_us(span.duration_s),
            "pid": 0,
            "tid": tids[span.cat],
        }
        for span in spans
    ]
    timed.sort(key=lambda event: (event["ts"], event["tid"], event["name"]))
    events.extend(timed)
    return events


def write_chrome_trace(recorder: TraceRecorder, handle: IO[str]) -> int:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON document.

    Returns the number of trace events written (metadata included).
    """
    events = chrome_trace_events(recorder)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    json.dump(document, handle, sort_keys=True)
    handle.write("\n")
    return len(events)
