"""The finding model shared by every lint rule and reporter.

A :class:`Finding` is one diagnostic: *where* (file, line, column),
*what* (rule id + message) and *how bad* (:class:`Severity`).  Rules
produce findings; reporters render them; the CLI exit code is derived
from the worst severity present.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


class Severity(enum.Enum):
    """How strongly a finding should be treated.

    ``ERROR`` findings fail the lint run (non-zero exit); ``WARNING``
    findings are reported but do not affect the exit code.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str
    #: Free-form extra context (e.g. the offending literal's text).
    data: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable report order: path, then position, then rule id."""
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        """``path:line:col: rule-id [severity] message`` (text reporter row)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )

    def to_json(self) -> Dict[str, Any]:
        """Stable JSON payload for the ``--format json`` reporter."""
        payload: Dict[str, Any] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.data:
            payload["data"] = dict(self.data)
        return payload

