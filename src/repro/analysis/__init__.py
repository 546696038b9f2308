"""Static analysis for the repro codebase: the ``repro lint`` engine.

The simulator's correctness rests on conventions no runtime check sees:
SI base units everywhere, a ReproError-only failure surface, a
deterministic core (the fingerprint cache depends on it) and docstrings
on the public API.  This package checks them from the AST — see
``docs/static-analysis.md`` for the rule catalogue and suppression
syntax (``# repro-lint: disable=<rule>``).  Plugin contracts are checked
where plugins register, not here.
"""

from .findings import Finding, Severity
from .framework import (
    FileContext,
    LintConfigError,
    ProgramRule,
    Rule,
    all_rules,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    register_rule,
    resolve_rules,
    tokens_cover,
)
from .program import build_program
from .reporters import (
    JSON_SCHEMA_VERSION,
    SARIF_VERSION,
    exit_code,
    list_rules,
    render_json,
    render_sarif,
    render_text,
)

__all__ = [
    "Finding",
    "Severity",
    "FileContext",
    "LintConfigError",
    "ProgramRule",
    "Rule",
    "all_rules",
    "build_program",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register_rule",
    "resolve_rules",
    "tokens_cover",
    "JSON_SCHEMA_VERSION",
    "SARIF_VERSION",
    "exit_code",
    "list_rules",
    "render_json",
    "render_sarif",
    "render_text",
]
