"""Cross-backend conformance suite for the execution-backend layer.

Every registered backend must honor the same contract: ordered results,
attributed error propagation, exact scheduling counters, an idempotent
close/reopen lifecycle — and, through the engine, grid results that are
bit-identical to an inline (serial) run.  The suite is parametrized
over every stock backend so a new implementation inherits the whole
checklist by adding one ``_BACKEND_FIXTURES`` entry.
"""

import pickle

import pytest

from repro.core import ScenarioEngine, Scheme, compare_grid
from repro.core.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    adaptive_chunk_size,
    backend_names,
    create_backend,
    default_backend_name,
    get_backend,
    register_backend,
    run_chunk,
    unregister_backend,
)
from repro.core.engine import strip_hub
from repro.errors import BackendError, ChunkTaskError


def _square(value):
    return value * value


def _boom_on_five(value):
    if value == 5:
        raise ValueError("boom")
    return value


# ----------------------------------------------------------------------
# backend construction, parametrized over the registry
# ----------------------------------------------------------------------
_BACKEND_FIXTURES = {
    "serial": SerialBackend,
    "process": lambda: ProcessPoolBackend(max_workers=2),
}


def test_suite_covers_every_registered_backend():
    """A new stock backend must join this conformance suite."""
    assert set(backend_names()) == set(_BACKEND_FIXTURES)


@pytest.fixture(params=sorted(_BACKEND_FIXTURES))
def backend(request):
    built = _BACKEND_FIXTURES[request.param]()
    yield built
    built.close()


# ----------------------------------------------------------------------
# chunk-size arithmetic
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("tasks", "workers", "expected"),
    [
        (0, 4, 1),
        (1, 4, 1),
        (16, 4, 1),  # exactly chunks_per_worker chunks each
        (42, 4, 3),  # the fig11+permutations batch: 14 dispatches
        (1000, 4, 63),
        (5, 8, 1),  # fewer tasks than workers: no starvation
    ],
)
def test_adaptive_chunk_size(tasks, workers, expected):
    assert adaptive_chunk_size(tasks, workers) == expected


def test_adaptive_chunk_size_rejects_bad_workers():
    with pytest.raises(ValueError):
        adaptive_chunk_size(10, 0)


def test_process_backend_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ProcessPoolBackend(0)


# ----------------------------------------------------------------------
# ordering and counters
# ----------------------------------------------------------------------
def test_results_come_back_in_item_order(backend):
    items = list(range(25))
    assert backend.submit_batch(_square, items, chunk_size=4) == [
        value * value for value in items
    ]
    # Counter exactness: 25 tasks in ceil(25/4) = 7 dispatched chunks.
    assert backend.tasks == 25
    assert backend.dispatches == 7
    assert backend.retries == 0
    if backend.parallel:
        assert backend.spawns >= 1
    else:
        assert backend.spawns == 0


def test_empty_batch_is_free(backend):
    assert backend.submit_batch(_square, []) == []
    assert backend.spawns == 0
    assert backend.tasks == 0
    assert backend.dispatches == 0


# ----------------------------------------------------------------------
# error propagation with attribution
# ----------------------------------------------------------------------
def test_task_errors_carry_index_and_label(backend):
    labels = [f"point-{value}" for value in range(8)]
    with pytest.raises(ChunkTaskError, match="boom") as excinfo:
        backend.submit_batch(
            _boom_on_five, list(range(8)), chunk_size=2, labels=labels
        )
    assert excinfo.value.index == 5
    assert excinfo.value.label == "point-5"
    # A genuine task failure is never retried, on any backend.
    assert backend.retries == 0


def test_backend_stays_usable_after_a_task_error(backend):
    with pytest.raises(ChunkTaskError):
        backend.submit_batch(_boom_on_five, list(range(8)), chunk_size=2)
    assert backend.submit_batch(_square, [3, 4]) == [9, 16]


def test_chunk_task_error_survives_pickling():
    error = ChunkTaskError("task 7 (pt) failed", index=7, label="pt")
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, ChunkTaskError)
    assert (clone.index, clone.label) == (7, "pt")
    assert str(clone) == str(error)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_reopens_transparently(backend):
    assert backend.submit_batch(_square, [2]) == [4]
    backend.close()
    backend.close()  # double-close must never raise
    assert not backend.alive or not backend.parallel
    assert backend.submit_batch(_square, [3]) == [9]  # transparent reopen


def test_close_before_any_batch_is_safe(backend):
    backend.close()  # nothing spawned yet
    assert backend.spawns == 0


def test_context_manager_closes(backend):
    with backend as entered:
        assert entered is backend
        assert backend.submit_batch(_square, [5]) == [25]
    if backend.parallel:
        assert not backend.alive


# ----------------------------------------------------------------------
# engine integration: bit-identical grids on every backend
# ----------------------------------------------------------------------
def _result_signature(result):
    """Every deterministic field of a result, hub stripped."""
    bare = strip_hub(result)
    return (
        bare.scenario_name,
        bare.scheme,
        bare.app_ids,
        bare.windows,
        bare.duration_s,
        bare.energy.total_j,
        bare.energy.marginal_j,
        bare.busy_times,
        bare.result_times,
        bare.qos_violations,
        bare.interrupt_count,
        bare.cpu_wake_count,
        bare.bus_bytes,
    )


_GRID_APP_SETS = [["A2"], ["A4", "A5"], ["A5", "A4"]]
_GRID_SCHEMES = [Scheme.BASELINE, Scheme.BATCHING]


def _grid_signatures(engine):
    grid = compare_grid(_GRID_APP_SETS, _GRID_SCHEMES, engine=engine)
    return {
        (key, scheme): _result_signature(result)
        for key, per_scheme in grid.items()
        for scheme, result in per_scheme.items()
    }


@pytest.fixture(scope="module")
def serial_grid_signatures():
    with ScenarioEngine(backend="serial") as engine:
        return _grid_signatures(engine)


def test_engine_grid_bit_identical_across_backends(
    backend, serial_grid_signatures
):
    with ScenarioEngine(workers=2, backend=backend.name) as engine:
        assert _grid_signatures(engine) == serial_grid_signatures
        assert engine.metrics.backend_name == backend.name


# ----------------------------------------------------------------------
# registry and default resolution
# ----------------------------------------------------------------------
def test_unknown_backend_name_is_an_error():
    with pytest.raises(BackendError, match="unknown backend"):
        create_backend("warp-drive")


def test_default_backend_follows_workers(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert default_backend_name(1) == "serial"
    assert default_backend_name(4) == "process"


def test_env_var_overrides_the_default(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    assert default_backend_name(8) == "serial"
    engine = ScenarioEngine(workers=8)
    try:
        assert engine.backend.name == "serial"
    finally:
        engine.close()


def test_explicit_backend_beats_the_env_var(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "process")
    engine = ScenarioEngine(backend="serial")
    try:
        assert engine.backend.name == "serial"
    finally:
        engine.close()


def test_third_party_backends_register_and_resolve():
    @register_backend("inline-twin")
    class InlineTwin(SerialBackend):
        pass

    try:
        backend = create_backend("inline-twin")
        assert isinstance(backend, InlineTwin)
        assert backend.name == "inline-twin"
        assert backend.submit_batch(_square, [4]) == [16]
    finally:
        unregister_backend("inline-twin")
    assert "inline-twin" not in backend_names()


def test_good_plugin_backend_registers_and_runs():
    """A direct ``ExecutionBackend`` subclass with its own
    ``submit_batch`` and a class attribute passes the decorator."""

    @register_backend("twin-test")
    class TwinBackend(ExecutionBackend):
        """A well-behaved backend plugin."""

        parallel = True

        def submit_batch(self, fn, items, chunk_size=None, labels=None):
            return run_chunk(fn, list(items), 0, labels)

    try:
        assert get_backend("twin-test") is TwinBackend
        backend = create_backend("twin-test")
        assert backend.parallel is True
        assert backend.submit_batch(_square, [2, 3]) == [4, 9]
    finally:
        unregister_backend("twin-test")
    assert "twin-test" not in backend_names()


def test_submit_inherited_from_concrete_backend_is_accepted():
    @register_backend("shared-test")
    class Shared(SerialBackend):
        """Inherits submit_batch() from the serial backend."""

        parallel = False

    try:
        assert Shared.submit_batch is SerialBackend.submit_batch
        assert get_backend("shared-test") is Shared
        backend = create_backend("shared-test")
        assert backend.submit_batch(_square, [5]) == [25]
        assert backend.dispatches == 1
    finally:
        unregister_backend("shared-test")
    assert "shared-test" not in backend_names()


def test_backend_without_base_class_rejected_at_registration():
    with pytest.raises(BackendError, match="Floating does not subclass"):

        @register_backend("floating-test")
        class Floating:
            def submit_batch(self, fn, items, chunk_size=None, labels=None):
                return [fn(item) for item in items]

    assert "floating-test" not in backend_names()


def test_backend_without_submit_batch_rejected_at_registration():
    with pytest.raises(
        BackendError, match="Broken neither defines submit_batch"
    ):

        @register_backend("broken-test")
        class Broken(ExecutionBackend):
            """Forgets the one required hook."""

            parallel = False

    assert "broken-test" not in backend_names()


def test_engine_close_safe_after_failed_backend_construction():
    engine = None
    try:
        engine = ScenarioEngine(backend="warp-drive")
    except BackendError:
        pass
    assert engine is None
    # Simulate the CLI/atexit double-close pattern on a real engine.
    engine = ScenarioEngine(backend="serial")
    engine.close()
    engine.close()


def test_base_class_requires_submit_batch():
    with pytest.raises(NotImplementedError):
        ExecutionBackend().submit_batch(_square, [1])
