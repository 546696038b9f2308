"""One workload session in a fresh interpreter: set up, measure, check.

``run.py`` starts this file for every cold start and for every measured
session, so each one pays the program's real start-up cost.  It drives
the program only through its public API: ``ScenarioEngine.run_batch``
for the grid workloads and ``repro serve`` over HTTP for served-whatif.
It talks back to ``run.py`` on standard output with two lines::

    READY {"setup_s": ...}     once set-up is done
    RESULT {...}               measured metrics, checks and trace data

Usage (normally through ``run.py``)::

    python bench/session.py --workload des-grid --seed 1 --seconds 20
    python bench/session.py --write-reference
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Served set-up: two points on schemes no measured job uses, so the
#: warm-up spawns the worker pool without warming the measured cache.
SERVED_WARMUP_POINTS = [
    {"apps": ["A1"], "scheme": "com"},
    {"apps": ["A6"], "scheme": "com"},
]
SERVED_CLIENTS = 2
SERVED_WORKERS = 2
#: Served points recomputed in-process after timing.
SERVED_SAMPLED_POINTS = 10
SERVER_STOP_TIMEOUT_S = 60.0


def emit(tag: str, payload: Dict[str, Any]) -> None:
    """One protocol line for ``run.py``."""
    print(f"{tag} {json.dumps(payload)}", flush=True)


def ready(host_s: float, slowdown: float) -> None:
    """Report the set-up time, in reference seconds."""
    emit("READY", {"setup_s": host_s / slowdown})


def peak_rss_kib(pid: str = "self") -> int:
    """A process's peak resident set (``VmHWM``) in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def tree_peak_rss_kib(pid: int) -> int:
    """Summed peak resident set of a process and its direct children."""
    children: List[str] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        children += (task / "children").read_text().split()
    return peak_rss_kib(str(pid)) + sum(peak_rss_kib(child) for child in children)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_metrics(samples: Sequence[float]) -> Dict[str, float]:
    """Median and 95th percentile of request latencies, in seconds."""
    return {
        "request_p50_s": statistics.median(samples),
        "request_p95_s": percentile(samples, 0.95),
    }


# ----------------------------------------------------------------------
# grid workloads
# ----------------------------------------------------------------------
def timed_rows(passes, deadline: float):
    """Every row of the first pass, then rows of later passes until the deadline.

    The workload metrics take each row's latency as the median over its
    repeats, so a partial last pass does not tilt the mix toward the
    rows it happened to reach.
    """
    yield from next(passes)
    for rows in passes:
        for row in rows:
            if time.perf_counter() >= deadline:
                return
            yield row


def run_grid(
    args: argparse.Namespace, sampler: probe.Sampler
) -> Optional[Dict[str, Any]]:
    """des-grid, analytic-grid, long-horizon: rows through ``run_batch``."""
    from repro.core import Scenario, ScenarioEngine

    fidelity, windows = workloads.GRID_SETTINGS[args.workload]
    engine = ScenarioEngine()
    engine.run_batch(
        [Scenario.of(list(workloads.WARMUP_APPS), windows=windows)],
        fidelity=fidelity,
    )
    host_s = time.monotonic() - args.t0
    now = time.perf_counter()
    ready(host_s, sampler.slowdown(now - host_s, now))
    if args.setup_only:
        return None
    refs = reference.load(args.workload)
    recorder = tracing.SpanRecorder().install() if args.trace_out else None
    before = engine.metrics.snapshot()
    failures: List[str] = []
    seen: Dict[str, Dict[str, Any]] = {}
    slowdowns: List[float] = []

    def run_row(
        row: workloads.Row, tier: str, latencies: Dict[str, List[float]]
    ) -> int:
        """Run one row; keep its latency in reference seconds and check it."""
        scenarios = [
            Scenario.of(list(row.apps), scheme=scheme, windows=row.windows)
            for scheme in row.schemes
        ]
        with recorder.span("bench.request") if recorder else contextlib.nullcontext():
            started = time.perf_counter()
            outcomes = engine.run_batch(scenarios, fidelity=tier)
            elapsed = time.perf_counter() - started
            answers = [reference.physics(outcome) for outcome in outcomes]
            # DES results keep their hub, a large reference cycle.  Each
            # request pays for collecting its own garbage, instead of a
            # later request paying for it at random.
            del outcomes
            collect_started = time.perf_counter()
            gc.collect()
            ended = time.perf_counter()
        elapsed += ended - collect_started
        slowdowns.append(sampler.slowdown(started, ended))
        latencies.setdefault(row.key, []).append(elapsed / slowdowns[-1])
        for key, actual in zip(row.point_keys(), answers):
            seen.setdefault(key, actual)
            failures.extend(
                f"{key} [{tier}]: {problem}"
                for problem in reference.mismatches(refs[key], actual)
            )
        return len(answers)

    latencies: Dict[str, List[float]] = {}
    attempted = 0
    started = time.perf_counter()
    passes = workloads.grid_passes(args.workload, args.seed, args.smoke)
    for row in timed_rows(passes, started + args.seconds):
        attempted += run_row(row, fidelity, latencies)
    wall_s = time.perf_counter() - started
    rss_kib = peak_rss_kib()

    rows = workloads.grid_rows(args.workload, args.smoke)
    row_seconds = [statistics.median(samples) for samples in latencies.values()]
    result: Dict[str, Any] = {
        "metrics": {
            "points_per_s": sum(len(row.schemes) for row in rows) / sum(row_seconds),
            **latency_metrics(row_seconds),
            "peak_rss_mb": rss_kib / 1024.0,
        },
        "wall_s": wall_s,
        "slowdown": statistics.mean(slowdowns),
        "samples": {
            "rows": len(row_seconds),
            "requests": sum(map(len, latencies.values())),
        },
    }
    if args.workload != "long-horizon" and not args.smoke:
        measured = reference.paper_error_pp(seen)
        expected = reference.paper_error_pp(refs)
        result["paper_err_pp"] = measured
        if abs(measured - expected) > 1e-9:
            failures.append(f"paper_err_pp {measured!r} (reference {expected!r})")

    if recorder is not None:
        recorder.recording = False
        after = engine.metrics.snapshot()
        cost_vs_des = 0.0
        if args.workload != "long-horizon":
            # One pass of the other tier over the same points gives the
            # analytic tier's cost relative to the DES.
            other = "analytic" if fidelity == "des" else "des"
            other_latencies: Dict[str, List[float]] = {}
            for row in rows:
                attempted += run_row(row, other, other_latencies)
            seconds = {
                fidelity: sum(row_seconds),
                other: sum(statistics.median(v) for v in other_latencies.values()),
            }
            cost_vs_des = seconds["analytic"] / seconds["des"]
        spans = recorder.export()
        result.update(trace_result(
            args.trace_out, [("session", spans)], spans, wall_s,
            recorder.installed, recorder.missing,
            tracing.engine_delta(before, after), workers=1,
            extra={"analytic.cost_vs_des": cost_vs_des, **SERVE_NOT_APPLICABLE},
        ))
    result.update(attempted=attempted, failed=len(failures), failures=failures[:20])
    return result


#: Service-layer metrics are zero on the in-process grid workloads.
SERVE_NOT_APPLICABLE = {
    "serve.queue_wait_s": 0.0,
    "serve.exec_s": 0.0,
    "serve.client_overhead_s": 0.0,
    "serve.coalesced": 0.0,
    "serve.rejected": 0.0,
}


def trace_result(
    trace_out: str,
    processes: Sequence[Tuple[str, Sequence]],
    layer_spans: Sequence,
    wall_s: float,
    installed: set,
    missing: List[str],
    engine: Dict[str, float],
    workers: int,
    extra: Dict[str, float],
) -> Dict[str, Any]:
    """Per-layer metrics, the layer table and the Chrome trace file."""
    stats = tracing.layer_stats(layer_spans)
    layers, unmeasured = tracing.layer_metrics(stats, installed, engine, workers, extra)
    document = tracing.chrome_trace(
        [(label, index, spans) for index, (label, spans) in enumerate(processes, 1)]
    )
    Path(trace_out).write_text(json.dumps(document), encoding="utf-8")
    return {
        "layers": layers,
        "unmeasured": unmeasured,
        "missing": missing,
        "table": tracing.layer_table(stats, wall_s),
    }


# ----------------------------------------------------------------------
# served-whatif
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` process on the process backend, in its own dir."""

    def __init__(self, scratch: Path, spans_out: Optional[Path]) -> None:
        command = [
            "serve", "--backend", "process", "--workers", str(SERVED_WORKERS),
            "--cache-dir", str(scratch / "cache"),
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *command]
        else:
            command = [
                sys.executable, str(BENCH / "serve_launcher.py"),
                "--spans-out", str(spans_out), *command,
            ]
        self.log_path = scratch / "server.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.process.stdout.readline()
        prefix = "repro serve listening on "
        if not line.startswith(prefix):
            self.stop()
            raise RuntimeError(
                f"repro serve did not start: {line!r}\n{self.log_path.read_text()}"
            )
        self.url = line[len(prefix):].strip()

    def stop(self) -> None:
        """Drain and stop the service; kill it if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def follow(client, job_id: str) -> List[Dict[str, Any]]:
    """A job's event records up to and including its terminal state.

    Reading stops at the terminal ``state`` record instead of waiting
    for the stream to end: worker processes forked while a stream is
    open inherit its socket, so that stream may never reach EOF (see
    ``bench/README.md``).
    """
    from repro.serve.client import TERMINAL_STATES

    records = []
    stream = client.events(job_id)
    try:
        for record in stream:
            records.append(record)
            if record.get("record") == "state" and record["state"] in TERMINAL_STATES:
                break
    finally:
        stream.close()
    return records


def run_job(client, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Submit one job, follow it to its end and download its result."""
    summary = client.submit(spec)
    events = follow(client, summary["id"])
    return {"events": events, "result": client.result(summary["id"])}


def run_served(
    args: argparse.Namespace, sampler: probe.CoreSamplers
) -> Optional[Dict[str, Any]]:
    """served-whatif: two closed-loop clients against ``repro serve``.

    Set-up is a cold service start: spawn it, check ``/healthz`` and run
    one warm-up job that spawns the worker pool.  The per-core samples
    are read only once the samplers stop, so READY comes at the end.
    """
    from repro.serve.client import ServeClient

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="served-", dir=OUT))
    spans_out = scratch / "server-spans.json" if args.trace_out else None
    try:
        setup_started = time.perf_counter()
        server = Server(scratch, spans_out)
        try:
            client = ServeClient(server.url)
            client.health()
            run_job(client, {"kind": "sweep", "client": "warmup",
                             "points": SERVED_WARMUP_POINTS})
            setup_ended = time.perf_counter()
            result = None
            if not args.setup_only:
                result = measure_served(args, sampler, server, client, spans_out)
        finally:
            server.stop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sampler.stop()
    ready(setup_ended - setup_started, sampler.slowdown(setup_started, setup_ended))
    return result


def measure_served(
    args, sampler: probe.CoreSamplers, server: Server, client, spans_out: Optional[Path]
) -> Dict[str, Any]:
    from repro.errors import QuotaError, ServeError
    from repro.serve.client import ServeClient

    jobs = workloads.served_jobs(
        args.seed, workloads.served_blocks(args.seconds), args.smoke
    )
    recorder = tracing.SpanRecorder() if args.trace_out else None
    records: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
    pending = iter(enumerate(jobs))
    lock = threading.Lock()
    stats_before = client.stats()
    started = time.perf_counter()

    def client_loop(label: str) -> None:
        own = ServeClient(server.url, timeout_s=120.0)
        while True:
            with lock:
                index, job = next(pending, (None, None))
            if job is None:
                return
            spec = {"kind": "sweep", "client": label, "points": job.points()}
            with recorder.span("bench.job") if recorder else contextlib.nullcontext():
                sent = time.perf_counter()
                try:
                    record = run_job(own, spec)
                except QuotaError:
                    record = {"error": "rejected with HTTP 429"}
                except ServeError as exc:
                    record = {"error": str(exc)}
                record["done_at"] = time.perf_counter()
                record["latency_s"] = record["done_at"] - sent
            records[index] = record

    threads = [
        threading.Thread(target=client_loop, args=(f"client{n}",))
        for n in range(SERVED_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if None in records:
        raise RuntimeError("a client thread crashed; see its traceback above")
    finished = max(record["done_at"] for record in records)
    wall_s = finished - started
    stats_after = client.stats()
    rss_kib = tree_peak_rss_kib(server.process.pid)
    server.stop()
    sampler.stop()

    failures: List[Tuple[int, str]] = []
    answered: Dict[int, Dict[str, Any]] = {}
    for index, record in enumerate(records):
        problem = job_problem(record)
        if problem:
            failures.append((index, problem))
        else:
            answered[index] = record
    for index, record in answered.items():
        original = answered.get(jobs[index].repeat_of)
        if original is not None and physics_fields(record) != physics_fields(original):
            failures.append(
                (index, f"differs from job {jobs[index].repeat_of}, which it repeats")
            )
    failures += recompute_sample(args, jobs, answered)

    latencies = [
        record["latency_s"]
        / sampler.slowdown(record["done_at"] - record["latency_s"], record["done_at"])
        for record in answered.values()
    ]
    points = sum(len(jobs[index].points()) for index in answered)
    result: Dict[str, Any] = {
        "metrics": {
            # Closed loop: the clients were busy for the summed latencies.
            "points_per_s": points * SERVED_CLIENTS / sum(latencies),
            **latency_metrics(latencies),
            "peak_rss_mb": rss_kib / 1024.0,
        },
        "wall_s": wall_s,
        "slowdown": sampler.slowdown(started, finished),
        "samples": {
            "jobs": len(answered),
            "repeats": sum(jobs[index].repeat_of is not None for index in answered),
        },
        "attempted": len(jobs),
        "failed": len({index for index, _problem in failures}),
        "failures": [f"job {index}: {problem}" for index, problem in failures[:20]],
    }
    if recorder is not None:
        result.update(served_trace(
            args, recorder, spans_out, started, finished, answered,
            stats_before, stats_after,
        ))
    return result


def job_problem(record: Dict[str, Any]) -> Optional[str]:
    """Why a served job did not answer correctly, or None."""
    if "error" in record:
        return record["error"]
    state = record["events"][-1].get("state")
    points = record["result"]["points"]
    if state != "done" or len(points) != len(workloads.SERVED_SCHEMES):
        return f"state {state} with {len(points)} points"
    errors = [point["error"]["type"] for point in points if "error" in point]
    return f"point errors {errors}" if errors else None


def physics_fields(record: Dict[str, Any]) -> List[Any]:
    """Every physics field of a job's answer (presentation excluded)."""
    return [
        (point["metrics"], point["result_times"])
        for point in record["result"]["points"]
    ]


def recompute_sample(
    args, jobs, answered: Dict[int, Dict[str, Any]]
) -> List[Tuple[int, str]]:
    """Recompute a seeded sample of served points in-process via the DES."""
    from repro.core import Scenario, ScenarioEngine

    points = {}
    for index in sorted(answered):
        for key, spec, artifact in zip(
            jobs[index].point_keys(), jobs[index].points(),
            answered[index]["result"]["points"],
        ):
            points.setdefault(key, (index, spec, artifact))
    count = 3 if args.smoke else SERVED_SAMPLED_POINTS
    sample = random.Random(f"served-check:{args.seed}").sample(
        sorted(points), min(count, len(points))
    )
    scenarios = [
        Scenario.of(
            points[key][1]["apps"], scheme=points[key][1]["scheme"],
            windows=points[key][1]["windows"],
            batch_size=points[key][1].get("batch_size"),
        )
        for key in sample
    ]
    with ScenarioEngine() as engine:
        outcomes = engine.run_batch(scenarios, fidelity="des")
    failures = []
    for key, outcome in zip(sample, outcomes):
        index, _spec, artifact = points[key]
        for problem in reference.mismatches(
            reference.physics(outcome), reference.artifact_physics(artifact)
        ):
            failures.append((index, f"{key} vs in-process DES: {problem}"))
    return failures


def served_trace(args, recorder, spans_out, started, finished, answered,
                 stats_before, stats_after) -> Dict[str, Any]:
    """Per-layer metrics of served-whatif from the service's spans."""
    with open(spans_out, encoding="utf-8") as handle:
        server = json.load(handle)
    server_spans = tracing.select(server["spans"], started, finished)
    queue_wait, execute, overhead = [], [], []
    for record in answered.values():
        events = record["events"]
        created, done = events[0]["t"], events[-1]["t"]
        running = [event["t"] for event in events if event.get("state") == "running"]
        if running:
            queue_wait.append(running[0] - created)
            execute.append(done - running[0])
        overhead.append(record["latency_s"] - (done - created))
    extra = {
        "analytic.cost_vs_des": 0.0,
        "serve.queue_wait_s": tracing.median_or_zero(queue_wait),
        "serve.exec_s": tracing.median_or_zero(execute),
        "serve.client_overhead_s": tracing.median_or_zero(overhead),
        "serve.coalesced": float(
            stats_after["coalescer"]["coalesced"]
            - stats_before["coalescer"]["coalesced"]
        ),
        "serve.rejected": float(
            stats_after["quota"]["rejections"] - stats_before["quota"]["rejections"]
        ),
    }
    return trace_result(
        args.trace_out,
        [("repro serve", server_spans), ("bench clients", recorder.export())],
        server_spans, finished - started,
        set(server["installed"]), server["missing"],
        tracing.engine_delta(stats_before["engine"], stats_after["engine"]),
        workers=SERVED_WORKERS, extra=extra,
    )


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def write_references() -> None:
    """Recompute the DES oracle for every grid point and write it."""
    from repro.core import Scenario, ScenarioEngine

    files = (
        ("grid.json", "des-grid",
         "DES results of the Fig. 10 and Fig. 11 points at 1 window"),
        ("long_horizon.json", "long-horizon",
         "DES results of the long-horizon points at 30 windows"),
    )
    with ScenarioEngine() as engine:
        for name, workload, description in files:
            points = {}
            for row in workloads.grid_rows(workload):
                scenarios = [
                    Scenario.of(list(row.apps), scheme=scheme, windows=row.windows)
                    for scheme in row.schemes
                ]
                outcomes = engine.run_batch(scenarios, fidelity="des")
                for key, outcome in zip(row.point_keys(), outcomes):
                    points[key] = reference.physics(outcome)
            path = reference.write(name, description, points)
            print(f"wrote {len(points)} points to {path.relative_to(ROOT)}", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent spawned this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out", default=None,
                        help="write a Chrome trace here and report per-layer metrics")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.t0 is None:
        args.t0 = time.monotonic()
    if args.workload == workloads.SERVED_WORKLOAD:
        run, sampler = run_served, probe.CoreSamplers()
    else:
        run, sampler = run_grid, probe.Sampler()
    try:
        result = run(args, sampler)
    finally:
        sampler.stop()
    if result is not None:
        emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
