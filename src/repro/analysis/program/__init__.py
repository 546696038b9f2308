"""Whole-program analysis beneath ``repro lint``'s per-file rules.

One parse of each file yields a per-module summary (symbols, imports,
call sites, impurity sinks, unit facts).  A :class:`ProgramIndex`
assembles the summaries into a project symbol table and call graph,
over which two passes run:

* :func:`find_impure_reaches` — interprocedural determinism, reported
  with the full entry-to-sink call chain (``program-det-*``);
* :func:`find_unit_mismatches` — unit-of-measure dataflow across call
  sites, returns and assignments (``program-units-*``).

See ``docs/static-analysis.md`` ("Whole-program passes") for the
architecture and evidence formats.
"""

from .build import build_program
from .determinism import ImpureReach, find_impure_reaches
from .graph import ProgramIndex, module_name_for_path
from .summaries import ModuleSummary, summarize_module, summarize_source
from .unitsflow import UnitMismatch, find_unit_mismatches

__all__ = [
    "ImpureReach",
    "ModuleSummary",
    "ProgramIndex",
    "UnitMismatch",
    "build_program",
    "find_impure_reaches",
    "find_unit_mismatches",
    "module_name_for_path",
    "summarize_module",
    "summarize_source",
]
