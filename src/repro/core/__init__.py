"""The paper's contribution: Batching, COM, BEAM and BCOM executors.

Schemes are plugins (:mod:`repro.core.schemes`); the
:class:`ScenarioEngine` adds fingerprint caching and parallel sweep
fan-out on top of them.
"""

from ..firmware.capability import OffloadReport, check_offloadable
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    adaptive_chunk_size,
    backend_names,
    create_backend,
    register_backend,
)
from .cache import (
    CacheStats,
    DiskResultCache,
    GcResult,
    LRUResultCache,
    TieredResultCache,
)
from .analytic import (
    ANALYTIC_RTOL,
    AUTO_CONFIRM_BAND,
    analytic_scenario_result,
    supports_analytic,
)
from .compare import average_savings, compare_grid, compare_schemes, savings_table
from .engine import (
    FIDELITIES,
    ScenarioEngine,
    canonicalize_scenario,
    scenario_fingerprint,
    scenario_group_key,
)
from .executor import run_apps, run_scenario
from .results import RunResult, routine_busy_times
from .scenario import Scenario, Scheme
from .schemes import (
    SchemeContext,
    SchemeExecutor,
    SchemePlan,
    iter_schemes,
    register_scheme,
    scheme_names,
)
from .sweeps import Sweep, SweepPoint, grid_of, run_sweep

__all__ = [
    "ANALYTIC_RTOL",
    "AUTO_CONFIRM_BAND",
    "CacheStats",
    "DiskResultCache",
    "ExecutionBackend",
    "FIDELITIES",
    "GcResult",
    "LRUResultCache",
    "OffloadReport",
    "ProcessPoolBackend",
    "RunResult",
    "Scenario",
    "ScenarioEngine",
    "Scheme",
    "SchemeContext",
    "SchemeExecutor",
    "SchemePlan",
    "SerialBackend",
    "Sweep",
    "SweepPoint",
    "TieredResultCache",
    "adaptive_chunk_size",
    "analytic_scenario_result",
    "average_savings",
    "backend_names",
    "canonicalize_scenario",
    "check_offloadable",
    "create_backend",
    "compare_grid",
    "compare_schemes",
    "grid_of",
    "iter_schemes",
    "register_backend",
    "register_scheme",
    "routine_busy_times",
    "run_apps",
    "run_scenario",
    "run_sweep",
    "savings_table",
    "scenario_fingerprint",
    "scenario_group_key",
    "scheme_names",
    "supports_analytic",
]
