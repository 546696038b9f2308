"""repro — a reproduction of *Understanding Energy Efficiency in IoT App
Executions* (ICDCS 2019).

The library simulates a commodity IoT hub (Raspberry Pi 3B class CPU +
ESP8266 class MCU + Table I sensors), runs real implementations of the
paper's eleven workloads on it, and evaluates the paper's energy
optimizations — Batching, COM, BEAM and BCOM.

Quickstart::

    from repro import run_apps

    baseline = run_apps(["A2"], "baseline")   # the step counter
    batching = run_apps(["A2"], "batching")
    com = run_apps(["A2"], "com")
    print(batching.energy.savings_vs(baseline.energy))   # ~0.55
    print(com.energy.savings_vs(baseline.energy))        # ~0.88
"""

from .apps import all_ids, create_app, light_weight_ids
from .calibration import Calibration, default_calibration
from .core import (
    RunResult,
    Scenario,
    ScenarioEngine,
    Scheme,
    SchemeExecutor,
    SchemePlan,
    check_offloadable,
    compare_schemes,
    register_scheme,
    run_apps,
    run_scenario,
    savings_table,
)
from .energy import EnergyReport
from .hw import IoTHub, Routine

__version__ = "1.0.0"

__all__ = [
    "Calibration",
    "EnergyReport",
    "IoTHub",
    "Routine",
    "RunResult",
    "Scenario",
    "ScenarioEngine",
    "Scheme",
    "SchemeExecutor",
    "SchemePlan",
    "__version__",
    "all_ids",
    "check_offloadable",
    "compare_schemes",
    "create_app",
    "default_calibration",
    "light_weight_ids",
    "register_scheme",
    "run_apps",
    "run_scenario",
    "savings_table",
]
