"""Job-manager tests: lifecycle, coalescing, quotas, cancel, drain."""

import asyncio
import hashlib
import threading

import pytest

import repro.core.engine as engine_module
from repro.core.compare import compare_grid
from repro.core.engine import ScenarioEngine
from repro.errors import (
    JobSpecError,
    QuotaError,
    ServiceClosedError,
    UnknownJobError,
)
from repro.serve import (
    JobManager,
    JobState,
    canonical_json,
    result_artifact,
    scenarios_from_spec,
    spec_fidelity,
)
from repro.serve.app import status_for

GRID_SPEC = {
    "kind": "grid",
    "app_sets": [["A1"], ["A2", "A4"]],
    "schemes": ["baseline", "batching"],
    "windows": 1,
}


def run_async(coro):
    """Drive one async test body to completion."""
    return asyncio.run(coro)


class Gate:
    """A two-event latch blocking the engine thread inside a job."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, job):
        """Executor hook: signal entry, then hold until released."""
        self.entered.set()
        self.release.wait(timeout=30)


async def wait_for(predicate, timeout_s=10.0):
    """Poll an async-loop-friendly predicate until true."""
    for _ in range(int(timeout_s / 0.02)):
        if predicate():
            return
        await asyncio.sleep(0.02)
    raise AssertionError("condition never became true")


def test_spec_parsing_kinds():
    kind, scenarios, grid = scenarios_from_spec(GRID_SPEC)
    assert kind == "grid"
    assert len(scenarios) == 4
    assert grid["schemes"] == ["baseline", "batching"]
    # compare_grid order: app sets outer, schemes inner.
    assert [s.scheme for s in scenarios] == [
        "baseline", "batching", "baseline", "batching",
    ]
    kind, scenarios, grid = scenarios_from_spec(
        {"kind": "run", "apps": ["A1"], "scheme": "com"}
    )
    assert (kind, len(scenarios), grid) == ("run", 1, None)
    kind, scenarios, _ = scenarios_from_spec(
        {"kind": "sweep", "points": [{"apps": ["A1"]}, {"apps": ["A3"]}]}
    )
    assert (kind, len(scenarios)) == ("sweep", 2)


@pytest.mark.parametrize(
    "spec",
    [
        "not a dict",
        {"kind": "warp"},
        {"kind": "run", "apps": []},
        {"kind": "run", "apps": [1, 2]},
        {"kind": "grid", "app_sets": [], "schemes": ["baseline"]},
        {"kind": "grid", "app_sets": [["A1"]], "schemes": []},
        {"kind": "sweep", "points": []},
        {"kind": "sweep", "points": [1]},
        {"kind": "run", "apps": ["A2"], "windows": "abc"},
        {"kind": "run", "apps": ["A2"], "windows": 1.7},
        {"kind": "run", "apps": ["A2"], "windows": float("inf")},
        {"kind": "run", "apps": ["A2"], "windows": True},
        {"kind": "run", "apps": ["A2"], "batch_size": "x"},
        {"kind": "run", "apps": ["A2"], "batch_size": 2.5},
        {"kind": "grid", "app_sets": [5], "schemes": ["baseline"]},
        {"kind": "grid", "app_sets": ["A2"], "schemes": ["baseline"]},
        {"kind": "grid", "app_sets": [["A2", 7]], "schemes": ["baseline"]},
        {"kind": "grid", "app_sets": [["A2"]], "schemes": ["baseline"],
         "windows": "abc"},
    ],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(JobSpecError):
        scenarios_from_spec(spec)


def test_run_job_completes_with_artifacts():
    async def body():
        with ScenarioEngine() as engine:
            manager = JobManager(engine, close_engine=False).start()
            job = manager.submit(
                {"kind": "run", "apps": ["A1"], "scheme": "baseline"}
            )
            await manager.wait(job.id)
            assert job.state == JobState.DONE
            payload = job.result_payload()
            assert payload["points_done"] == 1
            point = payload["points"][0]
            assert point["artifact_version"] == 2
            assert point["fidelity"] == "des"
            assert point["scenario"]["apps"] == ["A1"]
            assert point["fingerprint"] == job.fingerprints[0]
            await manager.close()

    run_async(body())


def test_fidelity_spec_threads_through_job():
    async def body():
        with ScenarioEngine() as engine:
            manager = JobManager(engine, close_engine=False).start()
            job = manager.submit(
                {"kind": "run", "apps": ["A1"], "scheme": "baseline",
                 "fidelity": "analytic"}
            )
            await manager.wait(job.id)
            assert job.state == JobState.DONE
            assert job.fidelity == "analytic"
            assert job.describe()["fidelity"] == "analytic"
            point = job.result_payload()["points"][0]
            assert point["fidelity"] == "analytic"
            # The closed form answered: no DES simulation ran.
            assert engine.metrics.scenarios_run == 0
            assert engine.metrics.analytic_evals == 1
            await manager.close()

    run_async(body())


def test_bad_fidelity_rejected():
    # "auto" included: only the two tiers are accepted.
    for fidelity in ("warp", "auto"):
        with pytest.raises(JobSpecError) as exc:
            spec_fidelity({"kind": "run", "apps": ["A1"], "fidelity": fidelity})
        assert status_for(exc.value) == 400
        assert "('des', 'analytic')" in str(exc.value)


def test_grid_job_bit_identical_to_compare_grid():
    async def body():
        with ScenarioEngine() as engine:
            manager = JobManager(engine, close_engine=False).start()
            job = manager.submit(GRID_SPEC)
            await manager.wait(job.id)
            served = job.result_payload()["points"]
            await manager.close()
        grid = compare_grid(
            GRID_SPEC["app_sets"], GRID_SPEC["schemes"], windows=1
        )
        direct = [
            result_artifact(grid[tuple(apps)][scheme])
            for apps in GRID_SPEC["app_sets"]
            for scheme in GRID_SPEC["schemes"]
        ]
        assert len(served) == len(direct)
        for ours, theirs in zip(direct, served):
            theirs = dict(theirs)
            theirs["fingerprint"] = None
            assert canonical_json(ours) == canonical_json(theirs)

    run_async(body())


def test_submit_fingerprints_each_point_once(monkeypatch):
    """Submission keys a job from the fingerprints it keeps for the
    artifacts: one fingerprint per point, and the key is the engine's
    batch key, byte for byte."""
    calls = []
    fingerprint = engine_module.scenario_fingerprint

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fingerprint(*args, **kwargs)

    async def body():
        with ScenarioEngine() as engine:
            manager = JobManager(engine, close_engine=False).start()
            for fidelity, prefix in (("des", ""), ("analytic", "fidelity:analytic\n")):
                monkeypatch.setattr(engine_module, "scenario_fingerprint", counted)
                del calls[:]
                job = manager.submit(dict(GRID_SPEC, fidelity=fidelity))
                submitted = len(calls)
                monkeypatch.undo()
                assert submitted == len(job.scenarios) == 4
                joined = prefix + "\n".join(job.fingerprints)
                assert job.key == hashlib.sha256(joined.encode("ascii")).hexdigest()
                assert job.key == engine.batch_key(job.scenarios, fidelity)
                await manager.wait(job.id)
            await manager.close()

    run_async(body())


def test_identical_concurrent_submissions_execute_once():
    async def body():
        gate = Gate()
        engine = ScenarioEngine()
        manager = JobManager(engine, executor_hook=gate).start()
        primary = manager.submit(dict(GRID_SPEC, client="c0"))
        await asyncio.get_running_loop().run_in_executor(
            None, gate.entered.wait, 10
        )
        # Primary is now held mid-execution; identical submissions
        # from other clients must coalesce, not re-execute.
        waiters = [
            manager.submit(dict(GRID_SPEC, client=f"c{n}"))
            for n in range(1, 4)
        ]
        assert all(w.coalesced_into == primary.id for w in waiters)
        assert primary.waiters == [w.id for w in waiters]
        gate.release.set()
        for job in [primary, *waiters]:
            await manager.wait(job.id)
            assert job.state == JobState.DONE
            assert len(job.outcomes) == 4
        # The load-bearing assertion: one execution for k submissions.
        assert engine.metrics.scenarios_run == 4
        assert manager.coalescer.snapshot()["coalesced"] == 3
        fan_events = [
            e for w in waiters for e in w.events
            if e.get("fanned_out_from") == primary.id
        ]
        assert len(fan_events) == 3
        await manager.close()

    run_async(body())


def test_cancel_pending_job_and_waiter_promotion():
    async def body():
        gate = Gate()
        engine = ScenarioEngine()
        manager = JobManager(engine, executor_hook=gate).start()
        blocker = manager.submit(
            {"kind": "run", "apps": ["A1"], "client": "x"}
        )
        await asyncio.get_running_loop().run_in_executor(
            None, gate.entered.wait, 10
        )
        # While the engine is held, queue a different job + a waiter.
        primary = manager.submit(dict(GRID_SPEC, client="a"))
        waiter = manager.submit(dict(GRID_SPEC, client="b"))
        assert waiter.coalesced_into == primary.id
        cancelled = manager.cancel(primary.id)
        assert cancelled.state == JobState.CANCELLED
        # The waiter took over as primary and will execute.
        assert waiter.coalesced_into is None
        assert any(
            e["record"] == "promoted" for e in waiter.events
        )
        gate.release.set()
        await manager.wait(blocker.id)
        await manager.wait(waiter.id)
        assert waiter.state == JobState.DONE
        assert len(waiter.outcomes) == 4
        await manager.close()

    run_async(body())


def test_cancel_while_running_stops_at_chunk_boundary():
    async def body():
        gate = Gate()
        engine = ScenarioEngine()
        manager = JobManager(
            engine, chunk_points=1, executor_hook=gate
        ).start()
        job = manager.submit(GRID_SPEC)
        await asyncio.get_running_loop().run_in_executor(
            None, gate.entered.wait, 10
        )
        assert job.state == JobState.RUNNING
        manager.cancel(job.id)
        assert job.cancel_requested
        gate.release.set()
        await manager.wait(job.id)
        assert job.state == JobState.CANCELLED
        # Partial results: at least the first chunk, not the whole job.
        assert 0 < job.points_done < job.points_total
        assert len(job.outcomes) == job.points_done
        # Cancelling a terminal job is a no-op.
        assert manager.cancel(job.id).state == JobState.CANCELLED
        await manager.close()

    run_async(body())


def test_quota_rejects_and_releases():
    async def body():
        gate = Gate()
        engine = ScenarioEngine()
        manager = JobManager(
            engine, max_jobs_per_client=1, executor_hook=gate
        ).start()
        first = manager.submit(
            {"kind": "run", "apps": ["A1"], "client": "greedy"}
        )
        with pytest.raises(QuotaError):
            manager.submit(
                {"kind": "run", "apps": ["A3"], "client": "greedy"}
            )
        # Another client label is unaffected by greedy's quota.
        other = manager.submit(
            {"kind": "run", "apps": ["A3"], "client": "polite"}
        )
        assert manager.quota.snapshot()["rejections"] == 1
        gate.release.set()
        await manager.wait(first.id)
        await manager.wait(other.id)
        # Terminal jobs release their slot: the resubmit now fits.
        retry = manager.submit(
            {"kind": "run", "apps": ["A3"], "client": "greedy"}
        )
        await manager.wait(retry.id)
        assert retry.state == JobState.DONE
        await manager.close()

    run_async(body())


def test_event_stream_lifecycle_and_follow():
    async def body():
        engine = ScenarioEngine()
        manager = JobManager(engine, chunk_points=1).start()
        job = manager.submit(GRID_SPEC)
        records = [
            record
            async for record in manager.follow_events(job.id, follow=True)
        ]
        assert job.terminal
        states = [
            r["state"] for r in records if r["record"] == "state"
        ]
        assert states[0] == JobState.PENDING
        assert states[1] == JobState.RUNNING
        assert states[-1] == JobState.DONE
        progress = [
            r["points_done"] for r in records if r["record"] == "progress"
        ]
        assert progress == [1, 2, 3, 4]
        assert [r["seq"] for r in records] == list(range(len(records)))
        await manager.close()

    run_async(body())


def test_unknown_job_and_closed_service():
    async def body():
        engine = ScenarioEngine()
        manager = JobManager(engine).start()
        with pytest.raises(UnknownJobError):
            manager.get("j999")
        with pytest.raises(UnknownJobError):
            manager.cancel("j999")
        job = manager.submit({"kind": "run", "apps": ["A1"]})
        await manager.drain()
        assert job.state == JobState.DONE
        with pytest.raises(ServiceClosedError):
            manager.submit({"kind": "run", "apps": ["A1"]})
        await manager.close()

    run_async(body())


def test_close_without_drain_cancels_pending():
    async def body():
        gate = Gate()
        engine = ScenarioEngine()
        manager = JobManager(engine, executor_hook=gate).start()
        running = manager.submit({"kind": "run", "apps": ["A1"]})
        await asyncio.get_running_loop().run_in_executor(
            None, gate.entered.wait, 10
        )
        queued = manager.submit({"kind": "run", "apps": ["A3"]})
        gate.release.set()
        await manager.close(drain=False)
        assert running.terminal
        assert queued.state == JobState.CANCELLED

    run_async(body())


def test_stats_shape():
    async def body():
        engine = ScenarioEngine(memory_cache=8)
        manager = JobManager(engine).start()
        job = manager.submit(dict(GRID_SPEC, client="ci"))
        await manager.wait(job.id)
        stats = manager.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["engine"]["scenarios_run"] == 4
        assert "ci" in stats["cache_clients"]
        assert stats["cache_clients"]["ci"]["stores"] == 4
        assert stats["quota"]["active"] == {}
        await manager.close()

    run_async(body())
