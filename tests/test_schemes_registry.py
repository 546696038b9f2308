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
