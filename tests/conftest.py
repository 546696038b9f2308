"""Fixtures shared across test modules."""

import pytest

from repro.core import SchemeExecutor, SchemePlan, register_scheme
from repro.core.schemes import unregister_scheme


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
