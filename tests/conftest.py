"""Fixtures shared across test modules."""

import pytest
from hypothesis import settings

from repro.core import SchemeExecutor, SchemePlan, register_scheme
from repro.core.schemes import unregister_scheme

#: The CI fuzz job's profile (``pytest --hypothesis-profile=fuzz``): the
#: generated-scenario tests in test_analytic.py raise their example
#: budgets under it; every other test keeps its own.
settings.register_profile("fuzz")


@pytest.fixture
def one_file_scheme():
    """A new scheme in 'one file': batching's plan under a new name."""

    @register_scheme("batching-test")
    class BatchingTwin(SchemeExecutor):
        """Test double: batching's declaration under a new name."""

        def plan(self, scenario):
            return SchemePlan(family="buffered", batch_apps=list(scenario.apps))

    yield "batching-test"
    unregister_scheme("batching-test")
