"""The job manager: queue, states, quotas, coalescing, cancellation.

``repro serve`` accepts jobs from many concurrent clients but owns a
single :class:`~repro.core.engine.ScenarioEngine` (and its persistent
execution backend).  The :class:`JobManager` bridges the two worlds:

* **Submission** (event loop) — a JSON spec is parsed into scenarios,
  checked against the client's quota, fingerprinted once and keyed from
  those fingerprints with the engine's
  :meth:`~repro.core.engine.ScenarioEngine.fingerprints_key`, and either
  enqueued or *coalesced* onto an identical in-flight job.
* **Execution** (one engine thread) — a scheduler task drains the queue
  and runs each job's scenarios through ``engine.run_batch`` in chunks,
  so a cancel request takes effect at the next chunk boundary and
  progress/metric snapshots stream between chunks.  The engine is not
  thread-safe, so a single-worker executor serializes all access; the
  engine's own backend (the process pool) provides the parallelism
  *within* each chunk.
* **Completion** (event loop) — results are published to the job, its
  waiters receive copies (coalescing fan-out), quotas are released and
  followers of ``GET /jobs/{id}/events`` observe the terminal state.

Job lifecycle::

    pending ──▶ running ──▶ done
        │           │  └──▶ failed
        └───────────┴─────▶ cancelled

Cancelling a pending job dequeues it; cancelling a running job stops it
at the next chunk boundary (partial results are kept).  Cancelling a
primary with coalesced waiters promotes the first live waiter to a
fresh primary so the other clients still get their results.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.engine import FIDELITIES, Outcome, ScenarioEngine
from ..core.scenario import Scenario
from ..errors import (
    JobSpecError,
    ReproError,
    ServeError,
    ServiceClosedError,
    UnknownJobError,
)
from ..obs.stream import SnapshotStreamer
from .artifacts import error_artifact, result_artifact, scenario_descriptor
from .coalesce import RequestCoalescer
from .quota import ClientQuota

#: Client label applied when a submission names none.
DEFAULT_CLIENT = "anonymous"

#: Job kinds accepted by :func:`scenarios_from_spec`.
JOB_KINDS = ("run", "grid", "sweep")


class JobState:
    """The five job states and the terminal subset."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job can never leave.
    TERMINAL = frozenset({DONE, FAILED, CANCELLED})
    #: Every state, in lifecycle order (for displays).
    ORDER = (PENDING, RUNNING, DONE, FAILED, CANCELLED)


def _spec_int(
    spec: Dict[str, Any], key: str, default: Optional[int]
) -> Optional[int]:
    """``spec[key]`` as a JSON integer, or ``default`` when absent/null.

    A float, string or bool (JSON ``true`` is a Python ``int``) raises
    :class:`~repro.errors.JobSpecError` instead of being truncated or
    failing later.
    """
    value = spec.get(key)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise JobSpecError(f"{key!r} must be an integer, got {value!r}")
    return value


def _point_scenario(point: Any) -> Scenario:
    """One scenario from a point spec (``apps`` + knobs)."""
    if not isinstance(point, dict):
        raise JobSpecError(f"a point must be a JSON object, got {point!r}")
    apps = point.get("apps")
    if not isinstance(apps, list) or not all(
        isinstance(app, str) for app in apps
    ) or not apps:
        raise JobSpecError(
            f"point needs a non-empty 'apps' list of Table II ids, "
            f"got {apps!r}"
        )
    return Scenario.of(
        apps,
        scheme=point.get("scheme", "baseline"),
        windows=_spec_int(point, "windows", 1),
        batch_size=_spec_int(point, "batch_size", None),
    )


def scenarios_from_spec(
    spec: Dict[str, Any],
) -> Tuple[str, List[Scenario], Optional[Dict[str, Any]]]:
    """Parse a job spec into ``(kind, scenarios, grid_descriptor)``.

    ``run`` is a single point, ``sweep`` an explicit point list, and
    ``grid`` the cross product of ``app_sets`` × ``schemes`` in the same
    order :func:`~repro.core.compare.compare_grid` uses, so a grid job's
    points map back onto the grid positionally.  Malformed specs (a
    point that is no object, an app set that is no list of ids, a
    ``windows`` or ``batch_size`` that is no integer) raise
    :class:`~repro.errors.JobSpecError`; invalid scenario contents
    (unknown app/scheme) surface as the library's usual
    :class:`~repro.errors.WorkloadError`.
    """
    if not isinstance(spec, dict):
        raise JobSpecError(f"job spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind", "run")
    if kind not in JOB_KINDS:
        raise JobSpecError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    if kind == "run":
        return kind, [_point_scenario(spec)], None
    if kind == "sweep":
        points = spec.get("points")
        if not isinstance(points, list) or not points:
            raise JobSpecError("sweep spec needs a non-empty 'points' list")
        return kind, [_point_scenario(point) for point in points], None
    app_sets = spec.get("app_sets")
    schemes = spec.get("schemes")
    if not isinstance(app_sets, list) or not app_sets:
        raise JobSpecError("grid spec needs a non-empty 'app_sets' list")
    if not isinstance(schemes, list) or not schemes:
        raise JobSpecError("grid spec needs a non-empty 'schemes' list")
    windows = _spec_int(spec, "windows", 1)
    scenarios = [
        _point_scenario({"apps": apps, "scheme": scheme, "windows": windows})
        for apps in app_sets
        for scheme in schemes
    ]
    grid = {"app_sets": [list(apps) for apps in app_sets],
            "schemes": list(schemes), "windows": windows}
    return kind, scenarios, grid


def spec_fidelity(spec: Dict[str, Any]) -> Optional[str]:
    """A job spec's validated ``fidelity``, or None for the service default.

    Any job kind may carry ``"fidelity": "des" | "analytic"``;
    unknown tiers raise :class:`~repro.errors.JobSpecError` at submission
    time (not mid-execution).
    """
    fidelity = spec.get("fidelity") if isinstance(spec, dict) else None
    if fidelity is None:
        return None
    if fidelity not in FIDELITIES:
        raise JobSpecError(
            f"unknown fidelity {fidelity!r}; expected one of {FIDELITIES}"
        )
    return fidelity


@dataclass
class Job:
    """One submitted unit of work and everything observed about it."""

    id: str
    client: str
    kind: str
    scenarios: List[Scenario]
    fingerprints: List[str]
    key: str
    grid: Optional[Dict[str, Any]] = None
    #: Execution tier the spec requested (None = the service engine's).
    fidelity: Optional[str] = None
    state: str = JobState.PENDING
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    points_done: int = 0
    outcomes: List[Outcome] = field(default_factory=list)
    error: Optional[str] = None
    #: Primary job this one coalesced onto (waiters only).
    coalesced_into: Optional[str] = None
    #: Waiter job ids attached to this primary over its lifetime.
    waiters: List[str] = field(default_factory=list)
    cancel_requested: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def points_total(self) -> int:
        """How many scenario points this job covers."""
        return len(self.scenarios)

    @property
    def terminal(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in JobState.TERMINAL

    def describe(self) -> Dict[str, Any]:
        """Summary JSON (``GET /jobs/{id}`` without the results)."""
        return {
            "id": self.id,
            "client": self.client,
            "kind": self.kind,
            "state": self.state,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "fidelity": self.fidelity,
            "coalesced_into": self.coalesced_into,
            "waiters": list(self.waiters),
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "events": len(self.events),
            "scenarios": [scenario_descriptor(s) for s in self.scenarios],
            "grid": self.grid,
        }

    def result_payload(self) -> Dict[str, Any]:
        """Result JSON: one artifact per completed point, in order."""
        points: List[Dict[str, Any]] = []
        for index, outcome in enumerate(self.outcomes):
            if isinstance(outcome, ReproError):
                points.append(error_artifact(outcome))
            else:
                points.append(
                    result_artifact(outcome, self.fingerprints[index])
                )
        return {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
            "points_total": self.points_total,
            "points_done": self.points_done,
            "grid": self.grid,
            "points": points,
        }


class JobManager:
    """Schedules submitted jobs onto one shared scenario engine.

    Construct it, then :meth:`start` it from inside a running event
    loop.  All public methods except :meth:`wait`/:meth:`drain`/
    :meth:`close` are synchronous and must be called from the loop
    thread (the HTTP handlers do).  ``executor_hook`` is a testing seam:
    it runs in the engine thread before every chunk, letting tests hold
    the engine mid-job deterministically.
    """

    def __init__(
        self,
        engine: ScenarioEngine,
        max_jobs_per_client: int = 8,
        chunk_points: Optional[int] = None,
        snapshot_interval_s: float = 0.25,
        executor_hook: Optional[Callable[["Job"], None]] = None,
        close_engine: bool = True,
    ) -> None:
        if chunk_points is not None and chunk_points < 1:
            raise ValueError(
                f"chunk_points must be >= 1, got {chunk_points}"
            )
        self.engine = engine
        self.chunk_points = chunk_points
        self.snapshot_interval_s = snapshot_interval_s
        self.quota = ClientQuota(max_jobs_per_client)
        self.coalescer = RequestCoalescer()
        self._hook = executor_hook
        self._close_engine = close_engine
        self._jobs: Dict[str, Job] = {}
        self._next_id = 1
        self._closing = False
        self._queue: "asyncio.Queue[Optional[str]]" = asyncio.Queue()
        self._scheduler_task: Optional["asyncio.Task[None]"] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        #: Jobs that reached a terminal state since construction.
        self.jobs_finished = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "JobManager":
        """Spawn the scheduler task on the running event loop."""
        if self._scheduler_task is None:
            self._scheduler_task = asyncio.get_running_loop().create_task(
                self._scheduler()
            )
        return self

    @property
    def closing(self) -> bool:
        """Whether the manager stopped accepting new jobs."""
        return self._closing

    async def drain(self) -> None:
        """Refuse new jobs and wait for every job to reach a terminal state."""
        self._closing = True
        while any(not job.terminal for job in self._jobs.values()):
            await asyncio.sleep(0.02)

    async def close(self, drain: bool = True) -> None:
        """Shut down: optionally drain, stop the scheduler, close the engine.

        With ``drain=False`` pending jobs are cancelled and the running
        one is asked to stop at its next chunk boundary; either way the
        engine's backend is only closed after the engine thread is idle.
        """
        self._closing = True
        if not drain:
            for job in list(self._jobs.values()):
                if not job.terminal:
                    self.cancel(job.id)
        await self.drain()
        if self._scheduler_task is not None:
            await self._queue.put(None)
            await self._scheduler_task
            self._scheduler_task = None
        self._executor.shutdown(wait=True)
        if self._close_engine:
            self.engine.close()

    # ------------------------------------------------------------------
    # submission / lookup / cancellation (event-loop thread)
    # ------------------------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Job:
        """Accept one job spec; returns the (possibly coalesced) job.

        Raises :class:`~repro.errors.ServiceClosedError` while draining,
        :class:`~repro.errors.QuotaError` when the client is at its
        concurrency limit, and :class:`~repro.errors.JobSpecError` (or
        :class:`~repro.errors.WorkloadError`) for malformed specs.
        """
        if self._closing:
            raise ServiceClosedError(
                "the service is draining and accepts no new jobs"
            )
        kind, scenarios, grid = scenarios_from_spec(spec)
        fidelity = spec_fidelity(spec)
        client = str(spec.get("client") or DEFAULT_CLIENT)
        self.quota.acquire(client)
        try:
            fingerprints = self.engine.fingerprints(
                scenarios, fidelity=fidelity
            )
            key = self.engine.fingerprints_key(fingerprints, fidelity)
            job = Job(
                id=f"j{self._next_id}",
                client=client,
                kind=kind,
                scenarios=scenarios,
                fingerprints=fingerprints,
                key=key,
                grid=grid,
                fidelity=fidelity,
            )
            self._next_id += 1
            self._jobs[job.id] = job
            primary_id = self.coalescer.lookup(key)
            if primary_id is not None:
                primary = self._jobs[primary_id]
                job.coalesced_into = primary.id
                primary.waiters.append(job.id)
                self.coalescer.note_coalesced()
                self._record(
                    job,
                    {
                        "record": "state",
                        "state": JobState.PENDING,
                        "coalesced_into": primary.id,
                    },
                )
            else:
                self.coalescer.register(key, job.id)
                self._record(
                    job, {"record": "state", "state": JobState.PENDING}
                )
                self._queue.put_nowait(job.id)
        except BaseException:
            self.quota.release(client)
            raise
        return job

    def get(self, job_id: str) -> Job:
        """The job with that id, or :class:`UnknownJobError`."""
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job: {job_id!r}")
        return job

    def jobs(self, client: Optional[str] = None) -> List[Job]:
        """Jobs in submission order, optionally filtered by client."""
        return [
            job
            for job in self._jobs.values()
            if client is None or job.client == client
        ]

    def counts(self) -> Dict[str, int]:
        """Job count per state, every state present."""
        counts = {state: 0 for state in JobState.ORDER}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts

    def cancel(self, job_id: str) -> Job:
        """Cancel a job; idempotent, terminal jobs are left untouched.

        Pending jobs go straight to ``cancelled``; running jobs get a
        cancel flag honored at the next chunk boundary.  Cancelling a
        primary promotes its first live waiter so coalesced clients
        still get results.
        """
        job = self.get(job_id)
        if job.terminal:
            return job
        if job.state == JobState.RUNNING:
            if not job.cancel_requested:
                job.cancel_requested = True
                self._record(job, {"record": "cancel_requested"})
            return job
        job.state = JobState.CANCELLED
        job.finished_at = time.time()
        self._record(job, {"record": "state", "state": JobState.CANCELLED})
        self.quota.release(job.client)
        self.jobs_finished += 1
        if job.coalesced_into is None:
            self.coalescer.clear(job.key, job.id)
            self._promote_waiters(job)
        return job

    # ------------------------------------------------------------------
    # waiting / events (async helpers)
    # ------------------------------------------------------------------
    async def wait(self, job_id: str, timeout_s: float = 120.0) -> Job:
        """Block until the job is terminal (poll loop); returns it."""
        deadline = time.monotonic() + timeout_s
        job = self.get(job_id)
        while not job.terminal:
            if time.monotonic() > deadline:
                raise ServeError(
                    f"timed out after {timeout_s:.0f}s waiting for "
                    f"job {job_id}"
                )
            await asyncio.sleep(0.02)
        return job

    async def follow_events(
        self, job_id: str, follow: bool = True
    ):
        """Yield the job's event records; with ``follow``, until terminal.

        An async generator: already-recorded events replay first, then
        (when following) new ones stream as they are recorded.  The
        stream ends once the job is terminal and fully replayed.
        """
        job = self.get(job_id)
        cursor = 0
        while True:
            while cursor < len(job.events):
                yield job.events[cursor]
                cursor += 1
            if not follow or job.terminal:
                return
            await asyncio.sleep(0.02)

    # ------------------------------------------------------------------
    # execution (scheduler task + engine thread)
    # ------------------------------------------------------------------
    def _record(self, job: Job, record: Dict[str, Any]) -> None:
        """Append one event to a job's stream, stamping seq + wall time."""
        record = dict(record)
        record["job"] = job.id
        record["seq"] = len(job.events)
        record["t"] = time.time()
        job.events.append(record)

    def _run_chunk(
        self, job: Job, chunk: Sequence[Scenario]
    ) -> List[Outcome]:
        """Engine-thread body: the test hook, then one engine batch."""
        if self._hook is not None:
            self._hook(job)
        return self.engine.run_batch(
            chunk, client=job.client, fidelity=job.fidelity
        )

    async def _scheduler(self) -> None:
        """Drain the queue forever; ``None`` is the shutdown sentinel."""
        while True:
            job_id = await self._queue.get()
            if job_id is None:
                return
            job = self._jobs[job_id]
            if job.state != JobState.PENDING:
                continue  # cancelled while queued
            await self._execute(job)

    async def _execute(self, job: Job) -> None:
        """Run one job chunk by chunk, streaming snapshots between waits."""
        loop = asyncio.get_running_loop()
        job.state = JobState.RUNNING
        job.started_at = time.time()
        self._record(job, {"record": "state", "state": JobState.RUNNING})
        streamer = SnapshotStreamer(self.engine.metrics.snapshot)
        total = job.points_total
        size = self.chunk_points or total
        error: Optional[ReproError] = None
        try:
            for start in range(0, total, size):
                if job.cancel_requested:
                    break
                chunk = job.scenarios[start:start + size]
                future = loop.run_in_executor(
                    self._executor, self._run_chunk, job, chunk
                )
                while True:
                    done, _pending = await asyncio.wait(
                        {future}, timeout=self.snapshot_interval_s
                    )
                    record = streamer.poll()
                    if record is not None:
                        self._record(job, record)
                    if done:
                        break
                job.outcomes.extend(future.result())
                job.points_done += len(chunk)
                self._record(
                    job,
                    {
                        "record": "progress",
                        "points_done": job.points_done,
                        "points_total": total,
                    },
                )
        except ReproError as exc:
            error = exc
        record = streamer.poll()
        if record is not None:
            self._record(job, record)
        if error is not None:
            job.error = str(error)
            job.state = JobState.FAILED
        elif job.cancel_requested and job.points_done < total:
            job.state = JobState.CANCELLED
        else:
            failures = [
                outcome
                for outcome in job.outcomes
                if isinstance(outcome, ReproError)
            ]
            if failures:
                job.error = str(failures[0])
                job.state = JobState.FAILED
            else:
                job.state = JobState.DONE
        self._finish(job)

    def _finish(self, job: Job) -> None:
        """Terminal bookkeeping: quotas, coalescer, waiter fan-out."""
        job.finished_at = time.time()
        self._record(job, {"record": "state", "state": job.state})
        self.quota.release(job.client)
        self.jobs_finished += 1
        self.coalescer.clear(job.key, job.id)
        if job.state == JobState.CANCELLED:
            self._promote_waiters(job)
        else:
            self._fan_out(job)

    def _fan_out(self, primary: Job) -> None:
        """Deliver a finished primary's outcome to its live waiters."""
        for waiter_id in primary.waiters:
            waiter = self._jobs[waiter_id]
            if waiter.state != JobState.PENDING:
                continue
            waiter.started_at = primary.started_at
            waiter.outcomes = list(primary.outcomes)
            waiter.points_done = primary.points_done
            waiter.error = primary.error
            waiter.state = primary.state
            waiter.finished_at = time.time()
            self._record(
                waiter,
                {
                    "record": "state",
                    "state": waiter.state,
                    "fanned_out_from": primary.id,
                },
            )
            self.quota.release(waiter.client)
            self.jobs_finished += 1

    def _promote_waiters(self, cancelled: Job) -> None:
        """Re-dispatch a cancelled primary's waiters under a new primary."""
        alive = [
            self._jobs[waiter_id]
            for waiter_id in cancelled.waiters
            if self._jobs[waiter_id].state == JobState.PENDING
        ]
        if not alive:
            return
        primary = alive[0]
        primary.coalesced_into = None
        primary.waiters = [job.id for job in alive[1:]]
        for waiter in alive[1:]:
            waiter.coalesced_into = primary.id
        self.coalescer.register(cancelled.key, primary.id)
        self._record(
            primary,
            {"record": "promoted", "from_primary": cancelled.id},
        )
        self._queue.put_nowait(primary.id)

    # ------------------------------------------------------------------
    # service stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-able service snapshot: jobs, quotas, coalescer, engine."""
        return {
            "jobs": self.counts(),
            "jobs_finished": self.jobs_finished,
            "closing": self._closing,
            "quota": self.quota.snapshot(),
            "coalescer": self.coalescer.snapshot(),
            "engine": self.engine.metrics.snapshot(),
            "cache_clients": self.engine.cache_accounting,
        }
