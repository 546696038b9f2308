"""The scenario engine: fingerprinted, cached, deduplicated, pooled.

Sweep grids and scheme comparisons re-simulate the same scenarios over
and over; the :class:`ScenarioEngine` makes that cheap in three
orthogonal ways:

* **Memoization** — every scenario has a deterministic *fingerprint*
  (scheme + apps + windows + calibration constants + waveforms + failure
  injection).  Because the simulator itself is deterministic (no wall
  clock, no RNG), a fingerprint fully determines the
  :class:`~repro.core.results.RunResult`, so results are cached in a
  two-tier store (:mod:`repro.core.cache`): an in-memory LRU over a
  sharded on-disk layout shared across processes.
* **Dedup** — grid points that are *permutations* of each other (same
  apps listed in a different order) canonicalize to one fingerprint,
  simulate once, and fan the result back out to every requesting point.
  The engine executes the canonical ordering, so deduplicated, cached
  and serial runs of the same point are bit-identical.  Failure
  injection disables canonicalization (availability draws key off read
  order), so those scenarios always run as given.
* **Fan-out** — independent scenarios run through a pluggable
  :class:`~repro.core.backends.ExecutionBackend` chosen by name
  (``backend="serial" | "process"``, or the
  ``REPRO_BACKEND`` environment variable; the default follows the
  historical heuristic — a persistent process pool when ``workers>1``,
  inline execution otherwise).  Backends own *where* tasks run; the
  engine keeps *what* runs (fingerprints, dedup, the two-tier cache)
  backend-independent, so grid results are bit-identical across
  backends.

All three are one batch pipeline that both fidelity tiers and
:meth:`ScenarioEngine.run` share; a tier supplies only its evaluate
step.  Cache and process-backend paths strip the live
:class:`~repro.hw.board.IoTHub` from the result (it holds running
generators and is neither picklable nor meaningful outside the run);
in-process serial runs keep it attached, preserving the historical
behavior of ``run_scenario``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union, cast

from ..errors import ReproError
from ..obs.metrics import EngineMetrics
from .analytic import analytic_scenario_result
from .backends import ExecutionBackend, create_backend, run_chunk
from .cache import DiskResultCache, LRUResultCache, TieredResultCache
from .results import RunResult
from .scenario import Scenario
from .schemes.base import execute_scenario

#: Bump when the fingerprint payload layout changes, so stale cache
#: entries from older library versions can never be returned.
#: v2: payload gained the ``fast_forward`` flag.
#: v3: the presentational ``name`` left the payload (it cannot change
#: the simulation), app ids are canonicalized (sorted) for
#: dedup-eligible scenarios, and ndarray waveform attributes hash their
#: full buffer instead of a (truncating) ``repr``.
#: v4: payload gained the ``fidelity`` tier ("des" | "analytic"), so
#: closed-form and event-simulation entries can never collide in the
#: cache; analytic entries pin ``fast_forward`` to False (the closed
#: form has no steady-state skipping to toggle).
#: v5: long analytic scenarios extrapolate a verified steady cycle, so
#: their results match v4 full-scan entries within ``ANALYTIC_RTOL``
#: but not bit for bit.
#: v6: the ``fast_forward`` flag left the payload (DES fast-forward was
#: removed; the DES always simulates every event).
#: v7: failure injection seeds its noise from ``zlib.crc32`` of the
#: sensor id instead of the per-process salted ``hash()``, so v6 entries
#: for scenarios with ``sensor_failure_rates`` hold other numbers.
#: v8: the CPU governor expects a batch app's partial batches every
#: ``batch_size`` samples of each window, not of the whole horizon, so
#: v7 entries of multi-window scenarios with a ``batch_size`` hold other
#: numbers.
FINGERPRINT_VERSION = 8

#: Fidelity tiers an engine can run at.  ``"des"`` is the discrete-event
#: simulation (the authoritative tier), ``"analytic"`` the closed-form
#: models in :mod:`repro.core.analytic`, which answer every point the DES
#: does.
FIDELITIES = ("des", "analytic")

#: Default in-memory LRU capacity when disk caching is enabled.
DEFAULT_MEMORY_CACHE_ENTRIES = 256


def _waveform_payload(waveform: Any) -> Any:
    """Canonical description of a waveform for fingerprinting.

    Waveforms are pure functions of time plus their constructor
    parameters, so class identity + instance attributes pin them down.
    ndarray attributes are digested over their full buffer (``repr``
    would silently truncate long traces into colliding payloads).
    Custom waveforms with other unhashable internals can override this
    by providing a ``cache_key()`` method.
    """
    cache_key = getattr(waveform, "cache_key", None)
    if callable(cache_key):
        return cache_key()
    state = {
        key: _attribute_payload(value)
        for key, value in sorted(vars(waveform).items())
    }
    return [
        f"{type(waveform).__module__}.{type(waveform).__qualname__}",
        state,
    ]


def _attribute_payload(value: Any) -> str:
    """Stable string form of one waveform attribute."""
    tobytes = getattr(value, "tobytes", None)
    if callable(tobytes):  # ndarray-like: digest the full buffer
        digest = hashlib.sha256(tobytes()).hexdigest()
        dtype = getattr(value, "dtype", "")
        shape = getattr(value, "shape", "")
        return f"ndarray:{shape}:{dtype}:{digest}"
    return repr(value)


def dedup_eligible(scenario: Scenario) -> bool:
    """Whether a scenario may be canonicalized for dedup.

    Failure injection draws availability failures keyed off absolute
    read order, so permuting the app list can change which reads fail;
    those scenarios must simulate exactly as given.
    """
    return not scenario.sensor_failure_rates


def canonicalize_scenario(scenario: Scenario) -> Scenario:
    """The scenario with its apps in canonical (sorted-by-id) order.

    Returns the *same* object when the order is already canonical or the
    scenario is not :func:`dedup_eligible`; otherwise a copy sharing the
    app instances.  The copy keeps the scenario's (presentational) name.
    """
    if not dedup_eligible(scenario):
        return scenario
    ordered = sorted(scenario.apps, key=lambda app: app.table2_id)
    if ordered == scenario.apps:
        return scenario
    return dataclasses.replace(scenario, apps=ordered)


def _fields_payload(value: Any) -> Any:
    """``dataclasses.asdict`` of a frozen dataclass, without its deep copy.

    The calibration is immutable, so its leaf values (and its one dict
    of per-app overrides) go into the payload as they are; the JSON is
    the same, and fingerprinting skips a copy per point.
    """
    if not dataclasses.is_dataclass(value):
        return value
    return {
        field.name: _fields_payload(getattr(value, field.name))
        for field in dataclasses.fields(value)
    }


def _fingerprint_payload(
    scenario: Scenario, canonical: bool, fidelity: str
) -> Dict[str, Any]:
    """The JSON payload behind :func:`scenario_fingerprint`."""
    if fidelity not in ("des", "analytic"):
        raise ValueError(
            f"fingerprints carry a concrete tier ('des' | 'analytic'), "
            f"got {fidelity!r}"
        )
    app_ids = [app.table2_id for app in scenario.apps]
    if canonical and dedup_eligible(scenario):
        app_ids = sorted(app_ids)
    return {
        "version": FINGERPRINT_VERSION,
        "fidelity": fidelity,
        "scheme": scenario.scheme,
        "apps": app_ids,
        "windows": scenario.windows,
        "batch_size": scenario.batch_size,
        "failure_rates": sorted(scenario.sensor_failure_rates.items()),
        "calibration": _fields_payload(scenario.calibration),
        "waveforms": {
            sensor_id: _waveform_payload(waveform)
            for sensor_id, waveform in sorted(scenario.waveforms.items())
        },
    }


def _digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def scenario_fingerprint(
    scenario: Scenario,
    canonical: bool = True,
    fidelity: str = "des",
) -> str:
    """Deterministic hex digest identifying a scenario's full behavior.

    Two scenarios with equal fingerprints produce bit-identical
    :class:`RunResult` metrics (up to the presentational name/app-id
    order); anything that can change the simulation (scheme, apps,
    windows, batch size, calibration constants, waveform overrides,
    failure injection) feeds the digest — as does the ``fidelity`` tier
    (``"des"`` | ``"analytic"``), so closed-form and event-simulation
    entries never collide.  With ``canonical=True`` (the engine's dedup
    mode) the app ids are sorted for dedup-eligible scenarios, so
    permutations of one app set collide on purpose; pass
    ``canonical=False`` to fingerprint the as-given ordering (an engine
    built with ``dedup=False`` executes that ordering, whose results can
    differ).
    """
    return _digest(_fingerprint_payload(scenario, canonical, fidelity))


def strip_hub(result: RunResult) -> RunResult:
    """Copy of a result without the live hub (picklable, cacheable)."""
    if result.hub is None:
        return result
    return dataclasses.replace(result, hub=None)


#: One batch outcome: a result, or the ReproError that stopped the point.
Outcome = Union[RunResult, ReproError]
#: One dispatched unit: the scenario, and whether to strip its hub.
_Task = Tuple[Scenario, bool]
#: One task's outcome with the (pid, wall_seconds) pair feeding the
#: engine's per-worker accounting.
_TaskOutcome = Tuple[Outcome, Tuple[int, float]]


def _run_task(item: _Task) -> _TaskOutcome:
    """Backend task: run one scenario, capturing library errors.

    A parallel backend's results cross a process boundary and must
    pickle, so the engine asks for the live hub to be stripped there;
    in-process runs keep it.  Unexpected exceptions propagate — as a
    :class:`~repro.errors.ChunkTaskError` naming the failing scenario —
    so real bugs surface in the caller instead of hiding in sweep
    output.
    """
    scenario, strip = item
    started = time.perf_counter()
    outcome: Outcome
    try:
        outcome = execute_scenario(scenario)
        if strip:
            outcome = strip_hub(outcome)
    except ReproError as exc:
        outcome = exc
    return outcome, (os.getpid(), time.perf_counter() - started)


def _scenario_label(scenario: Scenario) -> str:
    """Human-readable task label for backend failure attribution."""
    apps = "+".join(app.table2_id for app in scenario.apps)
    base = f"{scenario.scheme}[{apps}]"
    name = getattr(scenario, "name", "")
    return f"{name}: {base}" if name else base


class ScenarioEngine:
    """Runs scenarios through the two-tier cache, dedup and a backend.

    ``backend`` names the :class:`~repro.core.backends.ExecutionBackend`
    batches dispatch through (``"serial"``, ``"process"``, or any
    registered name).  When omitted, ``$REPRO_BACKEND`` applies, then the
    historical heuristic: ``workers=1`` executes in-process (results
    keep their hub attached); ``workers>1`` fans independent scenarios
    out over a persistent process pool (spawned lazily, reused across
    calls — use the engine as a context manager, or call :meth:`close`,
    to shut it down).  Grid results are bit-identical whatever the
    backend; only where the simulation runs changes.
    ``cache_dir`` enables the sharded on-disk result cache with an
    in-memory LRU in front of it (``memory_cache`` overrides the LRU
    capacity; pass a capacity without ``cache_dir`` for a memory-only
    cache, or ``0`` to disable the memory tier).  ``cache_max_bytes``
    arms an oldest-first eviction pass over the disk tier after each
    batch, at either tier.  ``dedup=True`` (default) canonicalizes app
    order so permuted grid points simulate once; see
    :func:`canonicalize_scenario` for when a scenario opts out.
    ``fidelity`` selects the default tier (any call can override it):
    ``"des"`` runs the event simulation; ``"analytic"`` answers from the
    closed-form models in :mod:`repro.core.analytic`.  Analytic and DES
    entries fingerprint — and therefore cache — separately.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, "os.PathLike[str]"]] = None,
        dedup: bool = True,
        memory_cache: Optional[int] = None,
        cache_max_bytes: Optional[int] = None,
        backend: Optional[str] = None,
        fidelity: str = "des",
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if fidelity not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES}, got {fidelity!r}"
            )
        #: Default fidelity tier for run()/run_batch()/run_many(); each
        #: call may override it.
        self.fidelity = fidelity
        # close() must be safe on a partially-constructed engine (a bad
        # backend name raises below), so the slot exists from the start.
        self._backend: Optional[ExecutionBackend] = None
        self.workers = int(workers)
        self.dedup = bool(dedup)
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        if memory_cache is None:
            memory_cache = (
                DEFAULT_MEMORY_CACHE_ENTRIES if self.cache_dir else 0
            )
        self._cache = TieredResultCache(
            memory=LRUResultCache(memory_cache) if memory_cache else None,
            disk=(
                DiskResultCache(self.cache_dir, max_bytes=cache_max_bytes)
                if self.cache_dir is not None
                else None
            ),
        )
        #: Wall-clock instrumentation: cache traffic per tier, dedup
        #: fan-outs, backend dispatch, fingerprint cost, per-worker time.
        self.metrics = EngineMetrics()
        #: Maps a worker's pid to its stable ``w<N>`` label.
        self._worker_labels: Dict[int, str] = {}
        self._backend = create_backend(backend, workers=self.workers)
        self.metrics.backend_name = self._backend.name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend batches dispatch through."""
        assert self._backend is not None
        return self._backend

    def close(self) -> None:
        """Release the backend's workers/connections.

        Idempotent, safe on a partially-constructed engine (failed
        backend spawn), and never raises — CLI/``atexit`` paths may
        double-close.  The backend reopens transparently on the next
        batch.
        """
        backend = getattr(self, "_backend", None)
        if backend is not None:
            backend.close()

    def __enter__(self) -> "ScenarioEngine":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    @property
    def cache_hits(self) -> int:
        """Results served from either cache tier so far."""
        return self.metrics.cache_hits

    @property
    def cache_misses(self) -> int:
        """Scenarios that had to be simulated (and were then cached)."""
        return self.metrics.cache_misses

    @property
    def dedup_hits(self) -> int:
        """Grid points served by fanning out another point's simulation."""
        return self.metrics.dedup_hits

    # ------------------------------------------------------------------
    # fingerprinting and rebinding
    # ------------------------------------------------------------------
    def _resolve_fidelity(self, fidelity: Optional[str]) -> str:
        """A call's effective tier: the override, or the engine default."""
        resolved = self.fidelity if fidelity is None else fidelity
        if resolved not in FIDELITIES:
            raise ValueError(
                f"fidelity must be one of {FIDELITIES}, got {resolved!r}"
            )
        return resolved

    def _execution_form(self, scenario: Scenario) -> Scenario:
        """What actually runs: the canonical ordering under dedup."""
        if not self.dedup:
            return scenario
        return canonicalize_scenario(scenario)

    def fingerprints(
        self,
        scenarios: Sequence[Scenario],
        fidelity: Optional[str] = None,
    ) -> List[str]:
        """Per-scenario fingerprints under this engine's configuration.

        The coalescing hook for service layers: fingerprints honor the
        engine's ``dedup`` setting, so two batches
        with equal fingerprints would execute identically through this
        engine.  ``fidelity="analytic"`` yields the closed-form tier's
        fingerprints, ``"des"`` the event simulation's.  The batch
        pipeline groups by these too; the time is charged to
        ``metrics.fingerprint_wall_s``.
        """
        tier = self._resolve_fidelity(fidelity)
        started = time.perf_counter()
        result = [
            scenario_fingerprint(scenario, canonical=self.dedup, fidelity=tier)
            for scenario in scenarios
        ]
        self.metrics.fingerprint_wall_s += time.perf_counter() - started
        return result

    def batch_key(
        self,
        scenarios: Sequence[Scenario],
        fidelity: Optional[str] = None,
    ) -> str:
        """Digest identifying a whole batch of scenarios.

        Batches with equal keys run the same points in the same order at
        the same fidelity, so an in-flight batch can serve every
        identical concurrent request (request coalescing in
        ``repro serve``): the batch executes once and the key's waiters
        all receive its results.
        """
        return self.fingerprints_key(
            self.fingerprints(scenarios, fidelity=fidelity), fidelity
        )

    def fingerprints_key(
        self, fingerprints: Sequence[str], fidelity: Optional[str] = None
    ) -> str:
        """:meth:`batch_key` of the batch whose :meth:`fingerprints` at
        ``fidelity`` are ``fingerprints``, without computing them again."""
        resolved = self._resolve_fidelity(fidelity)
        joined = "\n".join(fingerprints)
        if resolved != "des":
            # Prefixed only for the analytic tier so existing DES keys
            # (and any coalescing state keyed on them) are unchanged.
            joined = f"fidelity:{resolved}\n{joined}"
        return hashlib.sha256(joined.encode("ascii")).hexdigest()

    @property
    def cache_accounting(self) -> Dict[str, dict]:
        """Per-client cache traffic (labels passed via ``client=``)."""
        return self._cache.accounting()

    @staticmethod
    def _rebind(result: RunResult, scenario: Scenario) -> RunResult:
        """Present a result under the requesting scenario's identity.

        Cache hits and dedup fan-outs may carry another (permuted or
        renamed) requester's name/app-id order; the physics are
        identical, so only the presentational fields are rewritten.
        """
        app_ids = [app.table2_id for app in scenario.apps]
        if (
            result.scenario_name == scenario.name
            and result.app_ids == app_ids
        ):
            return result
        return dataclasses.replace(
            result, scenario_name=scenario.name, app_ids=app_ids
        )

    def _worker_label(self, pid: int) -> str:
        """Stable ``w<N>`` label for a worker pid, in first-seen order."""
        if pid not in self._worker_labels:
            self._worker_labels[pid] = f"w{len(self._worker_labels)}"
        return self._worker_labels[pid]

    def _note_cache_hit(self, tier: str, count: int) -> None:
        self.metrics.cache_hits += count
        if tier == "memory":
            self.metrics.cache_memory_hits += count
        else:
            self.metrics.cache_disk_hits += count

    def _sync_backend_metrics(self) -> None:
        backend = self._backend
        if backend is None:
            return
        self.metrics.backend_name = backend.name
        self.metrics.backend_spawns = backend.spawns
        self.metrics.backend_dispatches = backend.dispatches
        self.metrics.backend_tasks = backend.tasks
        self.metrics.backend_retries = backend.retries

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        scenario: Scenario,
        client: Optional[str] = None,
        fidelity: Optional[str] = None,
    ) -> RunResult:
        """Run one scenario: a one-point :meth:`run_batch`.

        The point's :class:`ReproError` raises.  ``client`` attributes
        the cache traffic to a per-client bucket (see
        :attr:`cache_accounting`); it never changes the result.
        ``fidelity`` overrides the engine's default tier for this call.
        """
        return self.run_many([scenario], client=client, fidelity=fidelity)[0]

    def run_batch(
        self,
        scenarios: Sequence[Scenario],
        client: Optional[str] = None,
        fidelity: Optional[str] = None,
    ) -> List[Outcome]:
        """Run many scenarios; per-point outcomes in input order.

        Each outcome is either a :class:`RunResult` or the
        :class:`ReproError` that stopped that point.  Non-library
        exceptions always propagate — a real bug in one point aborts the
        whole batch instead of disappearing into per-point errors.

        Points sharing a (canonical) fingerprint are grouped: the first
        cache lookup serves the whole group, or one evaluation of the
        canonical ordering fans out to every member (``dedup_hits``
        counts the members beyond the first).  ``client`` attributes the
        batch's cache traffic per client; it never changes results.

        ``fidelity`` overrides the engine's default tier for this call:
        ``"analytic"`` answers from the closed-form models.  Every
        outcome's ``fidelity`` field records the tier that produced it.
        """
        tier = self._resolve_fidelity(fidelity)
        started = time.perf_counter()
        outcomes = self._answer(scenarios, tier, client)
        self._cache.maybe_gc()
        self.metrics.run_wall_s += time.perf_counter() - started
        return outcomes

    def _answer(
        self,
        scenarios: Sequence[Scenario],
        tier: str,
        client: Optional[str],
    ) -> List[Outcome]:
        """The batch pipeline: every point's outcome at one tier.

        Groups the points by fingerprint, serves each group it can from
        the cache, evaluates each remaining group once (the tier's only
        contribution), then publishes every result and fans it out to
        the group's members.
        """
        # Group member indices by fingerprint (or by position when
        # neither caching nor dedup needs one — each its own group).
        if self._cache.enabled or self.dedup:
            keys = self.fingerprints(scenarios, tier)
        else:
            keys = [f"@{index}" for index in range(len(scenarios))]
        members: Dict[str, List[int]] = {}
        for index, key in enumerate(keys):
            members.setdefault(key, []).append(index)
        outcomes: List[Optional[Outcome]] = [None] * len(scenarios)
        # Cache pass: one lookup per group serves every member.
        pending: List[str] = []
        for key, group in members.items():
            hit = None
            if self._cache.enabled:
                hit = self._cache.get(key, client=client)
            if hit is None:
                pending.append(key)
                continue
            cache_tier, cached = hit
            self._note_cache_hit(cache_tier, count=len(group))
            for index in group:
                outcomes[index] = self._rebind(cached, scenarios[index])
        # Evaluation pass: the tier's step, once per pending group.
        evaluate = (
            self._evaluate_analytic
            if tier == "analytic"
            else self._evaluate_des
        )
        evaluated = evaluate(
            [
                self._execution_form(scenarios[members[key][0]])
                for key in pending
            ]
        )
        # Fan-out pass: publish to caches, deliver to every member.
        for key, outcome in zip(pending, evaluated):
            group = members[key]
            self.metrics.dedup_hits += len(group) - 1
            if isinstance(outcome, ReproError):
                for index in group:
                    outcomes[index] = outcome
                continue
            shared = strip_hub(outcome)
            if self._cache.enabled:
                self.metrics.cache_misses += 1
                self._cache.put(key, shared, client=client)
            for position, index in enumerate(group):
                # The first requester keeps the live result (with its
                # hub when this was an in-process DES run).
                result = outcome if position == 0 else shared
                outcomes[index] = self._rebind(result, scenarios[index])
        # Every index belongs to one group, which filled it.
        return cast(List[Outcome], outcomes)

    def _evaluate_des(self, scenarios: List[Scenario]) -> List[Outcome]:
        """The DES tier's step: one simulation per scenario, by backend.

        A parallel backend with a single scenario short-circuits inline
        (no dispatch is worth one task), which also keeps that result's
        live hub attached.
        """
        if not scenarios:
            return []
        backend = self.backend
        labels = [_scenario_label(scenario) for scenario in scenarios]
        ran: Sequence[_TaskOutcome]
        if backend.parallel and len(scenarios) == 1:
            # run_chunk keeps error attribution identical to the
            # dispatched path (task bugs surface as ChunkTaskError).
            ran = run_chunk(_run_task, [(scenarios[0], False)], 0, labels)
        else:
            ran = backend.submit_batch(
                _run_task,
                [(scenario, backend.parallel) for scenario in scenarios],
                labels=labels,
            )
        for _outcome, (pid, elapsed) in ran:
            self.metrics.note_worker(self._worker_label(pid), elapsed)
        self._sync_backend_metrics()
        self.metrics.scenarios_run += len(scenarios)
        return [outcome for outcome, _timing in ran]

    def _evaluate_analytic(self, scenarios: List[Scenario]) -> List[Outcome]:
        """The analytic tier's step: closed-form models, inline.

        Closed forms are far cheaper than any dispatch.  Scheme
        feasibility errors are outcomes as at the DES tier: the analytic
        tier raises them identically.
        """
        started = time.perf_counter()
        outcomes: List[Outcome] = []
        for scenario in scenarios:
            try:
                outcomes.append(analytic_scenario_result(scenario))
            except ReproError as exc:
                outcomes.append(exc)
            self.metrics.analytic_evals += 1
        self.metrics.analytic_wall_s += time.perf_counter() - started
        return outcomes

    def run_many(
        self,
        scenarios: Sequence[Scenario],
        client: Optional[str] = None,
        fidelity: Optional[str] = None,
    ) -> List[RunResult]:
        """Like :meth:`run_batch`, but library errors raise immediately."""
        results: List[RunResult] = []
        for outcome in self.run_batch(
            scenarios, client=client, fidelity=fidelity
        ):
            if isinstance(outcome, ReproError):
                raise outcome
            results.append(outcome)
        return results
