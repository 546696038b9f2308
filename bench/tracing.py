"""Host-time spans around the program's layer boundaries, for traced runs.

A traced run wraps the public functions each layer exposes, at the
module attribute its callers look up, so no file of the program is
touched.  Every call records a span (name, start, end, parent span,
thread) in memory; the spans are written out when the run ends, as a
Chrome-trace JSON that Perfetto loads, and folded into the per-layer
metrics named in ``BENCHMARK.json``.

Spans use ``time.perf_counter``, which on Linux reads the system-wide
monotonic clock, so spans from the service process and from the client
process line up in one trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: (span name, module, attribute path) of every wrapped function.  The
#: engine-level names are patched on ``repro.core.engine`` because that
#: is where the engine looks them up; the rest live on their own module
#: or class.
WRAP_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("engine.run_batch", "repro.core.engine", "ScenarioEngine.run_batch"),
    ("engine.fingerprint", "repro.core.engine", "scenario_fingerprint"),
    ("engine.execute_scenario", "repro.core.engine", "execute_scenario"),
    ("analytic.eval", "repro.core.engine", "analytic_scenario_result"),
    ("analytic.ledger", "repro.core.analytic.model", "integrate"),
    ("schemes.build", "repro.core.schemes.base", "build_context"),
    ("sim.run", "repro.sim.kernel", "Simulator.run"),
    ("energy.collect", "repro.core.schemes.base", "SchemeContext.collect"),
    ("cache.get", "repro.core.cache", "TieredResultCache.get"),
    ("cache.put", "repro.core.cache", "TieredResultCache.put"),
)
#: Every registered execution backend's ``submit_batch`` is wrapped too,
#: found through this registry function.
BACKEND_REGISTRY = ("repro.core.backends.registry", "iter_backends")

#: Counters read before and after a call; the span keeps the difference.
SPAN_COUNTERS: Dict[str, Callable[[tuple], int]] = {
    "sim.run": lambda args: args[0].events_executed,
}

#: One exported span: name, start, end, parent index (-1 for a root),
#: thread id, counter delta (or None) and the error class it raised.
SpanRow = List[Any]


class SpanRecorder:
    """Wraps the layer functions and keeps their spans in memory.

    Only the process that installed the wrappers records: worker
    processes forked from it call straight through.  Appending to a
    list is atomic under the interpreter lock, so threads need no lock.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Wrap points that do not exist at this commit, by name.
        self.missing: List[str] = []
        #: Span names that at least one wrapper records.
        self.installed: set = set()
        self.recording = True
        self._local = threading.local()
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "SpanRecorder":
        """Patch every wrap point; note the ones that cannot be found."""
        for name, module, path in WRAP_POINTS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{name} ({module}.{path})")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self.installed.add(name)
        module, function = BACKEND_REGISTRY
        try:
            backends = getattr(importlib.import_module(module), function)()
        except (ImportError, AttributeError):
            backends = ()
        for _name, cls in backends:
            original = cls.__dict__.get("submit_batch")
            if original is not None:
                cls.submit_batch = self._wrap("backend.submit", original)
                self.installed.add("backend.submit")
        if "backend.submit" not in self.installed:
            self.missing.append(f"backend.submit ({module}.{function})")
        return self

    def _wrap(self, name: str, original: Callable) -> Callable:
        counter = SPAN_COUNTERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.recording or os.getpid() != self._pid:
                return original(*args, **kwargs)
            span = self._open(name)
            before = counter(args) if counter else 0
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                if counter:
                    span[5] = counter(args) - before
                self._close(span)

        return wrapper

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around the benchmark's own code."""
        if not self.recording:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                threading.get_native_id(), None, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        self._local.stack.pop()
        span[2] = time.perf_counter()

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def export(self) -> List[SpanRow]:
        """The recorded spans, with parents as indices into the list."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        return [
            [name, start, end, -1 if parent is None else index[id(parent)],
             tid, count, error]
            for name, start, end, parent, tid, count, error in self.spans
        ]

    def dump(self, path: str) -> None:
        """Write the spans and the missing wrap points as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"missing": self.missing, "installed": sorted(self.installed),
                 "spans": self.export()},
                handle,
            )


def select(rows: Sequence[SpanRow], start: float, end: float) -> List[SpanRow]:
    """The spans that start inside ``[start, end]``, parents re-indexed."""
    kept = [index for index, row in enumerate(rows) if start <= row[1] <= end]
    position = {old: new for new, old in enumerate(kept)}
    selected = []
    for old in kept:
        row = list(rows[old])
        row[3] = position.get(row[3], -1)
        selected.append(row)
    return selected


def layer_stats(rows: Sequence[SpanRow]) -> Dict[str, Dict[str, Any]]:
    """Calls, total and self seconds, counter sum and errors per span name.

    A span's self time is its duration minus its direct children's;
    children run on the parent's thread inside its interval, so they
    never overlap each other.
    """
    children = [0.0] * len(rows)
    for _name, start, end, parent, *_rest in rows:
        if parent >= 0:
            children[parent] += end - start
    stats: Dict[str, Dict[str, Any]] = {}
    for index, (name, start, end, _parent, _tid, count, error) in enumerate(rows):
        entry = stats.setdefault(
            name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "errors": {}},
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - children[index]
        entry["count"] += count or 0
        if error:
            entry["errors"][error] = entry["errors"].get(error, 0) + 1
    return stats


def layer_table(stats: Dict[str, Dict[str, Any]], wall_s: float) -> str:
    """Text table of every span name: calls, total, self and wall share."""
    lines = [
        f"{'span':<26}{'calls':>8}{'total_s':>11}{'self_s':>11}{'self share':>12}",
    ]
    for name, entry in sorted(stats.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:<26}{entry['calls']:>8}{entry['total_s']:>11.4f}"
            f"{entry['self_s']:>11.4f}{entry['self_s'] / wall_s:>11.1%}"
        )
    lines.append(f"{'workload wall':<26}{'':>8}{wall_s:>11.4f}")
    return "\n".join(lines)


def chrome_trace(
    processes: Sequence[Tuple[str, int, Sequence[SpanRow]]],
) -> Dict[str, Any]:
    """A Chrome-trace (Perfetto-loadable) document of several processes."""
    starts = [row[1] for _label, _pid, rows in processes for row in rows]
    origin = min(starts) if starts else 0.0
    events: List[Dict[str, Any]] = []
    for label, pid, rows in processes:
        events.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        for name, start, end, parent, tid, count, error in rows:
            args: Dict[str, Any] = {}
            if parent >= 0:
                args["parent"] = rows[parent][0]
            if count is not None:
                args["count"] = count
            if error:
                args["error"] = error
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric, with its unit, in ``BENCHMARK.json`` order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("schemes.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("energy.collect_s", "s"),
    ("analytic.eval_s", "s"),
    ("analytic.ledger_s", "s"),
    ("analytic.scan_s", "s"),
    ("analytic.evals", "count"),
    ("analytic.fallbacks", "count"),
    ("analytic.cost_vs_des", "ratio"),
    ("engine.run_batch_self_s", "s"),
    ("engine.fingerprint_s", "s"),
    ("engine.fingerprints", "count"),
    ("engine.dedup_hits", "count"),
    ("engine.scenarios_run", "count"),
    ("cache.get_s", "s"),
    ("cache.put_s", "s"),
    ("cache.hits_memory", "count"),
    ("cache.hits_disk", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("backend.submit_s", "s"),
    ("backend.worker_busy_s", "s"),
    ("backend.utilization", "ratio"),
    ("backend.dispatches", "count"),
    ("backend.tasks", "count"),
    ("backend.retries", "count"),
    ("serve.queue_wait_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.client_overhead_s", "s"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
)

#: Span-derived metrics: (span name, statistic).
SPAN_METRICS = {
    "schemes.build_s": ("schemes.build", "total_s"),
    "sim.run_s": ("sim.run", "total_s"),
    "sim.events": ("sim.run", "count"),
    "energy.collect_s": ("energy.collect", "total_s"),
    "analytic.eval_s": ("analytic.eval", "total_s"),
    "analytic.ledger_s": ("analytic.ledger", "total_s"),
    "analytic.scan_s": ("analytic.eval", "self_s"),
    "analytic.evals": ("analytic.eval", "calls"),
    "engine.run_batch_self_s": ("engine.run_batch", "self_s"),
    "engine.fingerprint_s": ("engine.fingerprint", "total_s"),
    "engine.fingerprints": ("engine.fingerprint", "calls"),
    "cache.get_s": ("cache.get", "total_s"),
    "cache.put_s": ("cache.put", "total_s"),
    "backend.submit_s": ("backend.submit", "total_s"),
}
#: Counter-derived metrics: ``EngineMetrics.snapshot()`` key.
ENGINE_METRICS = {
    "engine.dedup_hits": "dedup_hits",
    "engine.scenarios_run": "scenarios_run",
    "cache.hits_memory": "cache_memory_hits",
    "cache.hits_disk": "cache_disk_hits",
    "cache.misses": "cache_misses",
    "backend.dispatches": "backend_dispatches",
    "backend.tasks": "backend_tasks",
    "backend.retries": "backend_retries",
}


def engine_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Counter growth between two ``EngineMetrics`` snapshots.

    ``worker_wall_s`` (per-worker seconds) is summed into ``worker_busy_s``.
    """
    delta = {
        key: after[key] - before.get(key, 0)
        for key in ENGINE_METRICS.values()
        if key in after
    }
    if "worker_wall_s" in after:
        busy_before = sum(before.get("worker_wall_s", {}).values())
        delta["worker_busy_s"] = sum(after["worker_wall_s"].values()) - busy_before
    return delta


def median_or_zero(values: Sequence[float]) -> float:
    """The median, or 0 when the layer saw no samples on this workload."""
    return statistics.median(values) if values else 0.0


def layer_metrics(
    stats: Dict[str, Dict[str, Any]],
    installed: set,
    engine: Dict[str, float],
    workers: int,
    extra: Dict[str, float],
) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric that can be measured, and the ones that cannot.

    A metric whose span was never wrapped (missing at this commit) or
    whose engine counter does not exist is left out and named in the
    second list; it is never reported as zero.  A metric whose layer
    simply did no work on this workload is a true zero.
    """
    values: Dict[str, float] = dict(extra)
    for metric, (span, field) in SPAN_METRICS.items():
        if span in installed:
            values[metric] = float(stats.get(span, {}).get(field, 0.0))
    for metric, key in ENGINE_METRICS.items():
        if key in engine:
            values[metric] = float(engine[key])
    if "worker_busy_s" in engine:
        values["backend.worker_busy_s"] = engine["worker_busy_s"]
    if "analytic.eval" in installed:
        errors = stats.get("analytic.eval", {}).get("errors", {})
        values["analytic.fallbacks"] = float(errors.get("AnalyticUnsupported", 0))
    if {"sim.events", "sim.run_s"} <= values.keys():
        values["sim.events_per_s"] = _ratio(values["sim.events"], values["sim.run_s"])
    if {"cache.hits_memory", "cache.hits_disk", "cache.misses"} <= values.keys():
        hits = values["cache.hits_memory"] + values["cache.hits_disk"]
        values["cache.hit_ratio"] = _ratio(hits, hits + values["cache.misses"])
    if {"backend.worker_busy_s", "backend.submit_s"} <= values.keys():
        values["backend.utilization"] = _ratio(
            values["backend.worker_busy_s"], values["backend.submit_s"] * workers
        )
    measured = {name: values[name] for name, _unit in PER_LAYER if name in values}
    unmeasured = [name for name, _unit in PER_LAYER if name not in values]
    return measured, unmeasured


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
