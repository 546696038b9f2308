"""Self-tests of the benchmark: ``python -m pytest bench -q``.

The repository's own suite collects only ``tests/``, so these run on
their own.  They cover the benchmark's contract rather than the
program: smoke sizes finish quickly, inputs follow the seed, a wrong
answer is counted, and the printed metrics match ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_quickly_and_prints_every_metric():
    started = time.monotonic()
    done = bench("--smoke")
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 60
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    for workload in workloads.WORKLOADS:
        printed = [
            key.split(":", 1)[1]
            for key in result["metrics"]
            if key.startswith(workload + ":")
        ]
        assert printed == names, workload


@pytest.mark.parametrize("workload", ["analytic-grid", "served-whatif"])
def test_traced_smoke_reports_every_layer_metric(workload):
    done = bench("--smoke", "--workload", workload, "--trace")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert list(result["metrics"]) == [metric["name"] for metric in SPEC["per_layer"]]
    assert "MISSING" not in done.stdout and "UNMEASURED" not in done.stdout
    assert "tracing overhead: points_per_s" in done.stdout
    trace = json.loads((BENCH / "out" / f"{workload}.trace.json").read_text())
    names = {event["name"] for event in trace["traceEvents"] if event["ph"] == "X"}
    assert "engine.run_batch" in names


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_benchmark_json_keeps_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"] and SPEC["command"][1] == "bench/run.py"
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert float(SPEC["run_seconds"]) == run.DEFAULT_SECONDS


def test_same_seed_gives_same_inputs():
    for workload in workloads.GRID_WORKLOADS:
        first, second = (workloads.grid_passes(workload, 7) for _ in range(2))
        assert [next(first) for _ in range(3)] == [next(second) for _ in range(3)]
    assert workloads.served_jobs(7, 6) == workloads.served_jobs(7, 6)
    assert workloads.served_jobs(7, 6) != workloads.served_jobs(8, 6)


def test_seeds_share_the_unique_point_set():
    for workload in workloads.GRID_WORKLOADS:
        refs = reference.load(workload)
        point_sets = []
        for seed in range(1, 6):
            rows = next(workloads.grid_passes(workload, seed))
            point_sets.append({key for row in rows for key in row.point_keys()})
        assert all(points == point_sets[0] for points in point_sets)
        assert point_sets[0] == set(refs)
    blocks = workloads.served_blocks(run.DEFAULT_SECONDS)
    served = [
        {key for job in workloads.served_jobs(seed, blocks) for key in job.point_keys()}
        for seed in range(1, 6)
    ]
    assert all(points == served[0] for points in served)
    # Unique points overflow the service's 256-entry memory tier.
    assert len(served[0]) > 256


def test_perturbed_result_is_counted_as_failed(monkeypatch):
    refs = reference.load("des-grid")
    key = "A3:batching:w1"
    perturbed = {name: dict(point) for name, point in refs.items()}
    perturbed[key]["total_j"] *= 1 + 1e-6
    perturbed[key]["bus_bytes"] += 1
    monkeypatch.setattr(reference, "load", lambda workload: perturbed)
    args = argparse.Namespace(
        workload="des-grid", seed=1, seconds=0.0, t0=time.monotonic(),
        setup_only=False, smoke=True, trace_out=None,
    )
    sampler = probe.Sampler()
    try:
        result = session.run_grid(args, sampler)
    finally:
        sampler.stop()
    assert result["failed"] == 2
    assert all(failure.startswith(key) for failure in result["failures"])


def test_mismatch_rules():
    point = reference.load("des-grid")["A2:baseline:w1"]
    assert reference.mismatches(point, dict(point)) == []
    close = dict(point, total_j=point["total_j"] * (1 + 1e-12))
    assert reference.mismatches(point, close) == []
    assert reference.mismatches(point, dict(point, interrupts=point["interrupts"] + 1))
    assert reference.mismatches(point, {"error": "OffloadError"})
    rejected = {"error": "OffloadError"}
    assert reference.mismatches(rejected, dict(rejected)) == []


def test_layer_self_time_subtracts_direct_children():
    rows = [
        ["engine.run_batch", 0.0, 10.0, -1, 1, None, None],
        ["engine.execute_scenario", 1.0, 9.0, 0, 1, None, None],
        ["sim.run", 2.0, 6.0, 1, 1, 40, None],
    ]
    stats = tracing.layer_stats(rows)
    assert stats["engine.run_batch"]["self_s"] == 2.0
    assert stats["engine.execute_scenario"]["self_s"] == 4.0
    assert stats["sim.run"]["count"] == 40
    assert [row[3] for row in tracing.select(rows, 1.0, 10.0)] == [-1, 0]


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = bench("--workload", "des-grid", "--seed", "1", "--seconds", "20",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
