"""Tests for the scheme registry and the plugin protocol."""

import pytest

from repro.core import (
    Scenario,
    Scheme,
    SchemeExecutor,
    SchemePlan,
    analytic_scenario_result,
    register_scheme,
    run_apps,
    run_scenario,
    scheme_names,
)
from repro.core.schemes import get_scheme, iter_schemes, unregister_scheme
from repro.core.schemes.base import build_context
from repro.core.schemes.baseline import BaselineScheme
from repro.errors import WorkloadError


def test_builtin_schemes_registered_in_paper_order():
    assert scheme_names() == Scheme.ALL


def test_every_builtin_scheme_has_a_docstring_summary():
    for name, cls in iter_schemes():
        assert cls.__doc__, name
        assert cls.__doc__.strip().splitlines()[0], name


def test_get_scheme_unknown_name_lists_known():
    with pytest.raises(WorkloadError, match="registered"):
        get_scheme("warp")


def test_reregistering_same_name_different_class_rejected():
    with pytest.raises(WorkloadError, match="already registered"):

        @register_scheme("baseline")
        class Impostor(SchemeExecutor):
            pass


def test_scheme_without_base_class_rejected_at_registration():
    with pytest.raises(WorkloadError, match="Floating does not subclass"):

        @register_scheme("floating-test")
        class Floating:
            def plan(self, scenario):
                return SchemePlan(family="buffered")

    assert "floating-test" not in scheme_names()


def test_scheme_without_plan_rejected_at_registration():
    with pytest.raises(WorkloadError, match="Broken neither defines plan"):

        @register_scheme("broken-test")
        class Broken(SchemeExecutor):
            """Declares nothing."""

    assert "broken-test" not in scheme_names()


def test_plan_inherited_from_concrete_scheme_is_accepted():
    @register_scheme("shared-test")
    class Shared(BaselineScheme):
        """Inherits plan() from baseline."""

    try:
        assert get_scheme("shared-test") is Shared
        result = run_scenario(Scenario.of(["A2"], scheme="shared-test"))
        reference = run_apps(["A2"], Scheme.BASELINE)
        assert result.energy.total_j == reference.energy.total_j
    finally:
        unregister_scheme("shared-test")


def test_stale_knob_rejected_at_registration():
    """Executors read no class attribute but ``name``: a leftover
    start-state knob would silently do nothing."""
    with pytest.raises(WorkloadError, match="Knobbed .*cpu_starts_awake"):

        @register_scheme("knob-test")
        class Knobbed(SchemeExecutor):
            cpu_starts_awake = True

            def plan(self, scenario):
                return SchemePlan(family="buffered")

    assert "knob-test" not in scheme_names()


def test_methods_and_properties_are_not_knobs():
    @register_scheme("helpers-test")
    class Helpers(SchemeExecutor):
        """Methods, properties and the docstring are not data."""

        @property
        def family(self):
            return "buffered"

        @staticmethod
        def apps(scenario):
            return list(scenario.apps)

        def plan(self, scenario):
            return SchemePlan(family=self.family, batch_apps=self.apps(scenario))

    try:
        assert get_scheme("helpers-test") is Helpers
    finally:
        unregister_scheme("helpers-test")


def test_plugin_scheme_runs_through_scenario(one_file_scheme):
    """A freshly registered scheme is accepted end to end by name
    (``one_file_scheme`` is the conftest's plan-only batching twin)."""
    result = run_scenario(Scenario.of(["A2"], scheme=one_file_scheme))
    assert result.scheme == one_file_scheme
    assert result.results_ok
    # Same wiring as batching -> bit-identical physics.
    reference = run_apps(["A2"], Scheme.BATCHING)
    assert result.energy.total_j == reference.energy.total_j
    assert result.interrupt_count == reference.interrupt_count


def test_unknown_scheme_rejected_at_scenario_creation():
    with pytest.raises(WorkloadError, match="unknown scheme"):
        Scenario.of(["A2"], scheme="batching-test")  # not registered here


def test_unknown_family_is_a_typed_error_in_both_tiers():
    @register_scheme("warp-test")
    class Warp(SchemeExecutor):
        """Test double: declares a family neither tier interprets."""

        def plan(self, scenario):
            return SchemePlan(family="warp")

    try:
        with pytest.raises(WorkloadError, match="unknown scheme family 'warp'"):
            run_scenario(Scenario.of(["A2"], scheme="warp-test"))
        with pytest.raises(WorkloadError, match="unknown scheme family 'warp'"):
            analytic_scenario_result(Scenario.of(["A2"], scheme="warp-test"))
    finally:
        unregister_scheme("warp-test")


#: Process names in spawn order, per (app set, scheme).  The kernel
#: breaks ties between simultaneous events by spawn order, so a wiring
#: change that reorders these can move numbers without failing a total.
SPAWN_ORDER = {
    ("A2+A7", "baseline"): [
        "poll:S4@stepcounter", "poll:S4@earthquake", "dispatcher",
        "compute:stepcounter", "compute:earthquake",
    ],
    ("A2+A7", "batching"): [
        "batch:S4@stepcounter", "compute:stepcounter",
        "batch:S4@earthquake", "compute:earthquake", "dispatcher",
    ],
    ("A2+A7", "com"): ["com:S4@stepcounter", "com:S4@earthquake", "dispatcher"],
    ("A2+A7", "beam"): [
        "poll:S4@stepcounter+earthquake", "dispatcher",
        "compute:stepcounter", "compute:earthquake",
    ],
    ("A2+A7", "bcom"): ["com:S4@earthquake", "com:S4@stepcounter", "dispatcher"],
    ("A2+A7", "polling"): [
        "cpupoll:S4@stepcounter", "cpupoll:S4@earthquake",
        "compute:stepcounter", "compute:earthquake",
    ],
    ("A2+A4+A5", "bcom"): [
        "com:S4@stepcounter", "com:S1@m2x", "com:S2@m2x", "com:S4@m2x",
        "com:S5@m2x", "com:S7@m2x", "com:S1@blynk", "com:S2@blynk",
        "com:S4@blynk", "com:S5@blynk", "com:S10@blynk", "dispatcher",
    ],
    ("A11+A6", "batching"): [
        "batch:S8@speech2text", "compute:speech2text", "batch:S8@dropbox",
        "batch:S9@dropbox", "compute:dropbox", "dispatcher",
    ],
}


@pytest.mark.parametrize(
    "label,scheme",
    sorted(SPAWN_ORDER),
    ids=[f"{label}-{scheme}" for label, scheme in sorted(SPAWN_ORDER)],
)
def test_spawn_order_is_pinned(label, scheme):
    ctx = build_context(Scenario.of(label.split("+"), scheme=scheme))
    assert [p.name for p in ctx.hub.sim.processes] == SPAWN_ORDER[(label, scheme)]
