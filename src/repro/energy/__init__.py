"""Energy metering: the power ledger and routine-level accounting.

This package replaces the paper's Monsoon power monitor.  The power
ledger (:mod:`.ledger`) keeps every component's piecewise-constant power
history for both tiers, and its one :func:`integrate` attributes every
joule to one of the paper's four routines (plus ``idle``); an
:class:`EnergyReport` aggregates the result.
"""

from .export import (
    power_csv_string,
    power_sparkline,
    sparkline,
    write_power_csv,
    write_state_csv,
)
from .ledger import PowerLedger, integrate
from .meter import EnergyReport
from .report import format_breakdown_table, format_energy_mj, normalized_stack

__all__ = [
    "EnergyReport",
    "PowerLedger",
    "format_breakdown_table",
    "format_energy_mj",
    "integrate",
    "normalized_stack",
    "power_csv_string",
    "power_sparkline",
    "sparkline",
    "write_power_csv",
    "write_state_csv",
]
