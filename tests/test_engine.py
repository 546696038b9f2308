"""Tests for the scenario engine: fingerprints, disk cache, fan-out."""

import dataclasses
import functools
import pickle
from collections import Counter

import pytest

import repro.core.engine as engine_module
from repro.calibration import default_calibration
from repro.core import (
    FIDELITIES,
    RunResult,
    Scenario,
    ScenarioEngine,
    Scheme,
    analytic_scenario_result,
    canonicalize_scenario,
    grid_of,
    run_scenario,
    run_sweep,
    scenario_fingerprint,
)
from repro.core.analytic import model as analytic_model
from repro.errors import OffloadError, ReproError
from repro.sensors.synthetic import ConstantWaveform
from repro.workloads import FIG11_COMBOS


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def test_fingerprint_deterministic_across_instances():
    a = Scenario.of(["A2", "A4"], scheme=Scheme.BATCHING, windows=2)
    b = Scenario.of(["A2", "A4"], scheme=Scheme.BATCHING, windows=2)
    assert scenario_fingerprint(a) == scenario_fingerprint(b)


@pytest.mark.parametrize(
    "variant",
    [
        lambda: Scenario.of(["A2"], scheme=Scheme.COM),
        lambda: Scenario.of(["A2"], scheme=Scheme.BATCHING, windows=2),
        lambda: Scenario.of(["A2"], scheme=Scheme.BATCHING, batch_size=100),
        lambda: Scenario.of(["A2", "A4"], scheme=Scheme.BATCHING),
        lambda: Scenario.of(
            ["A2"],
            scheme=Scheme.BATCHING,
            calibration=default_calibration().with_cpu(active_power_w=4.0),
        ),
        lambda: Scenario.of(
            ["A2"],
            scheme=Scheme.BATCHING,
            waveforms={"S4": ConstantWaveform(0.5)},
        ),
        lambda: Scenario.of(
            ["A2"], scheme=Scheme.BATCHING, sensor_failure_rates={"S4": 0.1}
        ),
    ],
    ids=[
        "scheme",
        "windows",
        "batch_size",
        "apps",
        "calibration",
        "waveform",
        "failure_rate",
    ],
)
def test_fingerprint_sensitive_to_every_simulation_input(variant):
    base = scenario_fingerprint(Scenario.of(["A2"], scheme=Scheme.BATCHING))
    assert scenario_fingerprint(variant()) != base


def test_fingerprint_equal_waveform_params_collide():
    a = Scenario.of(
        ["A2"], scheme=Scheme.BATCHING, waveforms={"S4": ConstantWaveform(0.5)}
    )
    b = Scenario.of(
        ["A2"], scheme=Scheme.BATCHING, waveforms={"S4": ConstantWaveform(0.5)}
    )
    assert scenario_fingerprint(a) == scenario_fingerprint(b)


def test_fingerprint_ignores_presentational_name():
    a = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    b = dataclasses.replace(a, name="my-study")
    assert scenario_fingerprint(a) == scenario_fingerprint(b)


def test_fingerprint_canonicalizes_app_permutations():
    fwd = Scenario.of(["A4", "A5"], scheme=Scheme.BEAM)
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    assert scenario_fingerprint(fwd) == scenario_fingerprint(rev)
    # The as-given ordering is a different execution; canonical=False
    # (the dedup=False engine's mode) must keep them apart.
    assert scenario_fingerprint(fwd, canonical=False) != scenario_fingerprint(
        rev, canonical=False
    )


def test_fingerprint_failure_injection_disables_canonicalization():
    fwd = Scenario.of(
        ["A4", "A5"], scheme=Scheme.BEAM, sensor_failure_rates={"S4": 0.1}
    )
    rev = Scenario.of(
        ["A5", "A4"], scheme=Scheme.BEAM, sensor_failure_rates={"S4": 0.1}
    )
    # Failure draws key off absolute read order, so permutations are
    # real behavioral variants and must never collide.
    assert scenario_fingerprint(fwd) != scenario_fingerprint(rev)
    assert canonicalize_scenario(rev) is rev


def test_fingerprint_payload_bytes_are_pinned():
    # Every cache entry is keyed by this digest: a payload that gains,
    # loses or reorders a byte must bump FINGERPRINT_VERSION and re-pin.
    assert scenario_fingerprint(Scenario.of(["A2"], scheme=Scheme.BATCHING)) == (
        "11bc4e8b51827d0f95c8bbe36749adcd0c461b39e839109359ff25c34887bf08"
    )


def test_canonicalize_scenario_sorts_apps_keeps_name():
    scenario = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    canonical = canonicalize_scenario(scenario)
    assert [app.table2_id for app in canonical.apps] == ["A4", "A5"]
    assert canonical.name == scenario.name
    # Already-canonical scenarios come back untouched (same object).
    assert canonicalize_scenario(canonical) is canonical


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------
def test_cache_survives_engine_instances(tmp_path):
    first = ScenarioEngine(cache_dir=tmp_path)
    cold = first.run(Scenario.of(["A2"], scheme=Scheme.COM))
    second = ScenarioEngine(cache_dir=tmp_path)
    hit = second.run(Scenario.of(["A2"], scheme=Scheme.COM))
    assert second.cache_hits == 1
    assert hit.energy.total_j == cold.energy.total_j


def test_corrupt_cache_entry_is_a_miss_not_an_error(tmp_path):
    engine = ScenarioEngine(cache_dir=tmp_path)
    scenario = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    engine.run(scenario)
    (entry,) = tmp_path.rglob("*.pkl")
    entry.write_bytes(b"not a pickle")
    # A second engine (no warm memory tier) must hit the corrupt disk
    # entry, treat it as a miss, re-simulate and replace it.
    rerun_engine = ScenarioEngine(cache_dir=tmp_path)
    rerun = rerun_engine.run(Scenario.of(["A2"], scheme=Scheme.BATCHING))
    assert rerun.results_ok
    assert rerun_engine.cache_misses == 1
    with open(entry, "rb") as handle:
        assert pickle.load(handle)["result"].results_ok


def test_engine_without_cache_never_touches_disk(tmp_path):
    engine = ScenarioEngine()
    engine.run(Scenario.of(["A2"], scheme=Scheme.BATCHING))
    assert engine.cache_hits == engine.cache_misses == 0
    assert list(tmp_path.iterdir()) == []


def test_engine_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ScenarioEngine(workers=0)


# ----------------------------------------------------------------------
# batch execution and fan-out
# ----------------------------------------------------------------------
def test_run_many_raises_library_errors():
    engine = ScenarioEngine()
    with pytest.raises(OffloadError):
        engine.run_many([Scenario.of(["A11"], scheme=Scheme.COM)])


def test_parallel_sweep_identical_to_serial(tmp_path):
    def factory(batch_size):
        return Scenario.of(
            ["A2"], scheme=Scheme.BATCHING, batch_size=batch_size
        )

    grid = grid_of(batch_size=[100, 1000])
    serial = run_sweep(grid, factory, workers=1)
    parallel = run_sweep(grid, factory, workers=2)
    assert len(serial) == len(parallel) == 2
    for one, two in zip(serial, parallel):
        assert one.params == two.params
        assert one.result.energy.total_j == two.result.energy.total_j
        assert one.result.duration_s == two.result.duration_s
        assert one.result.interrupt_count == two.result.interrupt_count
        assert one.result.busy_times == two.result.busy_times


def test_parallel_sweep_captures_library_errors():
    def factory(app_id):
        return Scenario.of([app_id], scheme=Scheme.COM)

    sweep = run_sweep(grid_of(app_id=["A11", "A2"]), factory, workers=2)
    assert len(sweep.failed) == 1
    assert "offloaded" in sweep.failed[0].error
    assert len(sweep.succeeded) == 1


def test_sweep_fills_from_cache(tmp_path):
    def factory(scheme):
        return Scenario.of(["A2"], scheme=scheme)

    grid = grid_of(scheme=[Scheme.BASELINE, Scheme.BATCHING])
    engine = ScenarioEngine(cache_dir=tmp_path)
    first = run_sweep(grid, factory, engine=engine)
    assert engine.cache_misses == 2
    second = run_sweep(grid, factory, engine=engine)
    assert engine.cache_hits == 2
    for one, two in zip(first, second):
        assert one.result.energy.total_j == two.result.energy.total_j


def test_second_engine_hits_disk_then_memory(tmp_path):
    scenario = Scenario.of(["A2"], scheme=Scheme.COM)
    ScenarioEngine(cache_dir=tmp_path).run(scenario)
    engine = ScenarioEngine(cache_dir=tmp_path)
    engine.run(scenario)  # disk hit, promoted into the memory LRU
    engine.run(scenario)  # memory hit
    assert engine.metrics.cache_disk_hits == 1
    assert engine.metrics.cache_memory_hits == 1
    assert engine.cache_hits == 2


# ----------------------------------------------------------------------
# dedup: permutation-equivalent points simulate once
# ----------------------------------------------------------------------
def test_batch_dedups_permuted_points_bit_identically():
    fwd = Scenario.of(["A4", "A5"], scheme=Scheme.BEAM)
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    engine = ScenarioEngine()
    first, second = engine.run_batch([fwd, rev])
    assert engine.dedup_hits == 1
    assert engine.metrics.scenarios_run == 1
    # Each point keeps its own presentational identity...
    assert first.scenario_name == fwd.name
    assert second.scenario_name == rev.name
    assert second.app_ids == ["A5", "A4"]
    # ...over physics bit-identical to a per-point serial run.
    reference = run_scenario(canonicalize_scenario(rev))
    for result in (first, second):
        assert result.energy.total_j == reference.energy.total_j
        assert result.duration_s == reference.duration_s
        assert result.interrupt_count == reference.interrupt_count
        assert result.busy_times == reference.busy_times


def test_single_run_executes_canonical_ordering():
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    result = ScenarioEngine().run(rev)
    reference = run_scenario(canonicalize_scenario(rev))
    assert result.energy.total_j == reference.energy.total_j
    assert result.app_ids == ["A5", "A4"]  # presentation is as requested


def test_dedup_disabled_runs_each_permutation():
    fwd = Scenario.of(["A4", "A5"], scheme=Scheme.BEAM)
    rev = Scenario.of(["A5", "A4"], scheme=Scheme.BEAM)
    engine = ScenarioEngine(dedup=False)
    first, second = engine.run_batch([fwd, rev])
    assert engine.dedup_hits == 0
    assert engine.metrics.scenarios_run == 2
    # As-given execution order: results legitimately differ from the
    # canonical ordering's (this is why dedup re-executes canonically).
    assert first.energy.total_j == run_scenario(fwd).energy.total_j
    assert second.energy.total_j == run_scenario(rev).energy.total_j


def test_failure_injection_points_never_dedup():
    fwd = Scenario.of(
        ["A4", "A5"], scheme=Scheme.BEAM, sensor_failure_rates={"S1": 0.2}
    )
    rev = Scenario.of(
        ["A5", "A4"], scheme=Scheme.BEAM, sensor_failure_rates={"S1": 0.2}
    )
    engine = ScenarioEngine()
    engine.run_batch([fwd, rev])
    assert engine.dedup_hits == 0
    assert engine.metrics.scenarios_run == 2


def test_dedup_error_fans_out_to_every_member():
    fwd = Scenario.of(["A11", "A2"], scheme=Scheme.COM)
    rev = Scenario.of(["A2", "A11"], scheme=Scheme.COM)
    engine = ScenarioEngine()
    outcomes = engine.run_batch([fwd, rev])
    assert all(isinstance(outcome, OffloadError) for outcome in outcomes)
    assert engine.metrics.scenarios_run == 1


# ----------------------------------------------------------------------
# persistent pool and engine-managed cache GC
# ----------------------------------------------------------------------
def test_pool_persists_across_batches():
    grid = [
        Scenario.of([app_id], scheme=Scheme.BASELINE)
        for app_id in ("A2", "A3")
    ]
    # Explicit backend: the assertion is about process-pool reuse, so it
    # must hold even when $REPRO_BACKEND selects another default.
    with ScenarioEngine(workers=2, backend="process") as engine:
        engine.run_batch(grid)
        assert engine.metrics.backend_name == "process"
        assert engine.metrics.backend_spawns == 1
        more = [
            Scenario.of([app_id], scheme=Scheme.BEAM)
            for app_id in ("A2", "A3")
        ]
        engine.run_batch(more)
        assert engine.metrics.backend_spawns == 1  # reused, not respawned
        assert engine.metrics.backend_tasks == 4
        assert engine.metrics.backend_dispatches >= 2


def test_memory_only_engine_caches_without_disk(tmp_path):
    engine = ScenarioEngine(memory_cache=8)
    scenario = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    engine.run(scenario)
    hit = engine.run(scenario)
    assert engine.metrics.cache_memory_hits == 1
    assert hit.hub is None  # cached results come back hub-stripped
    assert list(tmp_path.iterdir()) == []


def test_engine_cache_max_bytes_evicts_after_runs(tmp_path):
    scenario = Scenario.of(["A2"], scheme=Scheme.BATCHING)
    for fidelity in FIDELITIES:
        engine = ScenarioEngine(cache_dir=tmp_path, cache_max_bytes=0)
        engine.run(scenario, fidelity=fidelity)
        assert engine.cache_misses == 1
        # The post-run GC pass evicted everything (cap is zero bytes).
        assert list(tmp_path.rglob("*.pkl")) == [], fidelity


# ----------------------------------------------------------------------
# analytic tier accounting
# ----------------------------------------------------------------------
def test_analytic_tier_counts_failure_injection_as_an_eval():
    # The analytic tier answers failure injection itself.
    def scenario():
        return Scenario.of(
            ["A2"], scheme=Scheme.BASELINE, sensor_failure_rates={"S4": 0.5}
        )

    with ScenarioEngine() as engine:
        result = engine.run(scenario(), fidelity="analytic")
        assert engine.metrics.analytic_evals == 1
        assert engine.metrics.scenarios_run == 0
        assert any(
            line.startswith("analytic: 1 closed-form eval(s) in ")
            for line in engine.metrics.summary_lines()
        )
    assert result.fidelity == "analytic"
    reference = run_scenario(scenario())
    assert result.energy.total_j == reference.energy.total_j
    assert result.interrupt_count == reference.interrupt_count


# ----------------------------------------------------------------------
# one batch pipeline for both tiers
# ----------------------------------------------------------------------
def _contract_batch():
    """One batch exercising every branch of the pipeline."""
    return [
        Scenario.of(["A4", "A5"], scheme=Scheme.BEAM),
        Scenario.of(["A5", "A4"], scheme=Scheme.BEAM),  # permuted duplicate
        Scenario.of(["A4", "A5"], scheme=Scheme.BEAM),  # repeated point
        Scenario.of(["A11"], scheme=Scheme.COM),  # infeasible: OffloadError
        # Failure injection: never deduplicated (read order matters).
        Scenario.of(
            ["A2"], scheme=Scheme.BASELINE, sensor_failure_rates={"S4": 0.5}
        ),
    ]


def _contract_groups(dedup, cached):
    """The batch's fingerprint groups, as one key per point.

    Dedup groups the canonical orderings; a cache without dedup groups
    only identical as-given points; with neither, each point stands
    alone.
    """
    if dedup:
        return ["A4+A5", "A4+A5", "A4+A5", "A11", "A2"]
    if cached:
        return ["A4+A5", "A5+A4", "A4+A5", "A11", "A2"]
    return [0, 1, 2, 3, 4]


def _physics(outcome):
    """An outcome's deterministic content, bit for bit.

    The error for a failed point; otherwise every figure a result
    reports except its presentational name and app order and its live
    hub.
    """
    if isinstance(outcome, ReproError):
        return type(outcome).__name__, str(outcome)
    return (
        outcome.fidelity,
        outcome.duration_s,
        outcome.energy.by_component_routine,
        outcome.busy_times,
        outcome.result_times,
        outcome.qos_violations,
        outcome.interrupt_count,
        outcome.cpu_wake_count,
        outcome.bus_bytes,
    )


def _direct_answer(tier, scenario):
    """A tier's own answer for a scenario run exactly as given."""
    try:
        if tier == "analytic":
            return analytic_scenario_result(scenario)
        return run_scenario(scenario)
    except ReproError as exc:
        return exc


@functools.lru_cache(maxsize=None)
def _contract_expected(tier, dedup):
    """Direct answers for the contract batch, in the form dedup runs."""
    batch = _contract_batch()
    if dedup:
        batch = [canonicalize_scenario(s) for s in batch]
    return [_physics(_direct_answer(tier, s)) for s in batch]


_COUNTERS = (
    "scenarios_run",
    "analytic_evals",
    "dedup_hits",
    "cache_hits",
    "cache_memory_hits",
    "cache_disk_hits",
    "cache_misses",
)


def _counters(engine):
    snapshot = engine.metrics.snapshot()
    return Counter({name: snapshot[name] for name in _COUNTERS})


@pytest.mark.parametrize("dedup", [True, False], ids=["dedup", "as-given"])
@pytest.mark.parametrize("cache", ["none", "memory", "disk"])
@pytest.mark.parametrize("tier", FIDELITIES)
def test_batch_pipeline_contract(tier, cache, dedup, tmp_path):
    """Both tiers share one grouping, cache pass and fan-out."""
    options = {
        "none": {},
        "memory": {"memory_cache": 8},
        "disk": {"cache_dir": tmp_path, "memory_cache": 0},
    }[cache]
    cached = cache != "none"
    groups = _contract_groups(dedup, cached)
    pending = len(set(groups))
    # Each tier evaluates every group once; the infeasible point's error
    # is never cached.
    evaluations = "scenarios_run" if tier == "des" else "analytic_evals"
    first_pass = Counter({
        evaluations: pending,
        "dedup_hits": len(groups) - pending,
        "cache_misses": pending - 1 if cached else 0,
    })
    # A second pass hits the cache for every point but the infeasible
    # one, which is evaluated again.
    second_pass = first_pass
    if cached:
        second_pass = Counter({
            "cache_hits": 4, f"cache_{cache}_hits": 4, evaluations: 1
        })
    batch = _contract_batch()
    requested = [[app.table2_id for app in s.apps] for s in batch]
    expected = _contract_expected(tier, dedup)
    with ScenarioEngine(dedup=dedup, fidelity=tier, **options) as engine:
        for number, counts in enumerate((first_pass, second_pass)):
            before = _counters(engine)
            outcomes = engine.run_batch(batch)
            assert _counters(engine) - before == counts, number
            assert [_physics(o) for o in outcomes] == expected
            assert [
                o.app_ids if isinstance(o, RunResult) else ids
                for o, ids in zip(outcomes, requested)
            ] == requested
            if engine.backend.parallel:
                continue
            # On the serial DES only the first requester of each group
            # the DES evaluated keeps the live hub; other members, cache
            # hits and analytic answers come back bare.
            des_evaluated = [tier == "des"] * 3 + [False, tier == "des"]
            live = [
                index == groups.index(key)
                and des_evaluated[index]
                and not (cached and number == 1)
                for index, key in enumerate(groups)
            ]
            assert [
                isinstance(o, RunResult) and o.hub is not None
                for o in outcomes
            ] == live


def test_engine_calls_the_traced_layers_on_its_module(monkeypatch):
    """Traced benchmark runs wrap these names where the engine calls them.

    The traced benchmark patches ``ScenarioEngine.run_batch`` and three
    functions on ``repro.core.engine``; if the engine looked them up
    anywhere else, their per-layer time would read zero unnoticed.
    """
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in (
        "scenario_fingerprint",
        "execute_scenario",
        "analytic_scenario_result",
    ):
        count(engine_module, name)
    count(ScenarioEngine, "run_batch")
    with ScenarioEngine(backend="serial") as engine:
        # One fingerprint per point, one simulation per pending group.
        engine.run_batch(_contract_batch())
        assert calls == Counter(
            run_batch=1, scenario_fingerprint=5, execute_scenario=3
        )
        calls.clear()
        # The analytic tier evaluates each group once and never
        # simulates.
        engine.run_batch(_contract_batch(), fidelity="analytic")
        assert calls == Counter(
            run_batch=1, scenario_fingerprint=5, analytic_scenario_result=3
        )
        calls.clear()
        # run() is a one-point run_batch.
        engine.run(Scenario.of(["A2"], scheme=Scheme.BATCHING))
        assert calls == Counter(
            run_batch=1, scenario_fingerprint=1, execute_scenario=1
        )


def test_analytic_tier_closes_each_scan_with_one_traced_integrate(monkeypatch):
    """Traced benchmark runs time ``analytic.ledger`` by wrapping
    ``integrate`` on ``repro.core.analytic.model``; each scan must close
    its ledger walks with one call there, or that layer's time would
    read zero (or double) unnoticed.  A 7-window point scans once (a
    truncated copy, extrapolated), a drifting one twice (the truncated
    copy, then the full horizon) and a one-window point once."""
    calls = Counter()
    for name in ("integrate", "scan"):
        original = getattr(analytic_model, name)

        def wrapper(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(analytic_model, name, wrapper)
    for apps, scheme, windows, scans in (
        (["A3"], Scheme.BATCHING, 7, 1),
        (["A4", "A5"], Scheme.BASELINE, 7, 2),
        (["A2"], Scheme.BEAM, 1, 1),
    ):
        calls.clear()
        analytic_scenario_result(Scenario.of(apps, scheme=scheme, windows=windows))
        assert calls == Counter(scan=scans, integrate=scans), (apps, scheme)


#: Figure 11's sets of three and four apps, each listed in reverse.
_REVERSED_SETS = [
    list(reversed(combo)) for combo in FIG11_COMBOS if len(combo) >= 3
]
_ALL_SCHEMES = (
    Scheme.POLLING,
    Scheme.BASELINE,
    Scheme.BATCHING,
    Scheme.COM,
    Scheme.BEAM,
    Scheme.BCOM,
)


@pytest.mark.parametrize("tier", FIDELITIES)
def test_permuted_points_answer_as_their_canonical_order(tier):
    """Dedup answers a permuted point as its canonical order, bit for bit.

    Without dedup the engine answers the order as given.  App order
    moves the answer on most of these points, so the check fails if
    either tier stops canonicalizing.
    """
    points = [
        Scenario.of(apps, scheme=scheme)
        for apps in _REVERSED_SETS
        for scheme in _ALL_SCHEMES
    ]
    requested = [[app.table2_id for app in p.apps] for p in points]
    canonical = [
        _physics(_direct_answer(tier, canonicalize_scenario(p)))
        for p in points
    ]
    as_given = [_physics(_direct_answer(tier, p)) for p in points]
    assert canonical != as_given
    for dedup, expected in ((True, canonical), (False, as_given)):
        with ScenarioEngine(fidelity=tier, dedup=dedup) as engine:
            answers = engine.run_many(points)
        assert [_physics(r) for r in answers] == expected, dedup
        assert [r.app_ids for r in answers] == requested
