"""Assembling the whole-program index from sources.

``build_program`` maps each file path to its module name, summarizes
the source and hands the summaries to
:class:`~repro.analysis.program.graph.ProgramIndex`.  ``repro lint``
does not go through it: ``lint_paths`` summarizes the tree its per-file
rules already parsed.  It is the entry point for callers that hold
sources but no trees, such as the whole-program tests.
"""

from __future__ import annotations

from typing import List, Mapping

from .graph import ProgramIndex, module_name_for_path
from .summaries import ModuleSummary, summarize_source


def build_program(sources: Mapping[str, str]) -> ProgramIndex:
    """Build a :class:`ProgramIndex` over ``{path: source}``.

    Files that fail to parse are skipped (the per-file layer already
    reports ``parse-error`` for them).
    """
    summaries: List[ModuleSummary] = []
    for path in sorted(sources):
        summary = summarize_source(
            sources[path], module_name_for_path(path), path
        )
        if summary is not None:
            summaries.append(summary)
    return ProgramIndex(summaries)
