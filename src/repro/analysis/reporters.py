"""Reporters: render findings for humans (text) or machines (JSON/SARIF)."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from .findings import Finding, Severity

#: Bump when the JSON payload layout changes.
JSON_SCHEMA_VERSION = 2

#: The SARIF version/schema this reporter emits.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """Human-readable report: one row per finding plus a summary line."""
    lines = [finding.format() for finding in findings]
    errors = sum(
        1 for finding in findings if finding.severity is Severity.ERROR
    )
    warnings = len(findings) - errors
    noun = "file" if files_checked == 1 else "files"
    lines.append(
        f"{files_checked} {noun} checked: "
        f"{errors} error(s), {warnings} warning(s)"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    """Stable JSON document (see ``JSON_SCHEMA_VERSION``)."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    payload: Dict[str, Any] = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": files_checked,
        "findings": [finding.to_json() for finding in findings],
        "counts": dict(sorted(counts.items())),
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _sarif_level(severity: Severity) -> str:
    """SARIF ``level`` for a finding severity."""
    return "error" if severity is Severity.ERROR else "warning"


def render_sarif(
    findings: Sequence[Finding],
    files_checked: int,
) -> str:
    """SARIF 2.1.0 log for ``--format sarif`` (GitHub code scanning).

    One run, one ``repro-lint`` driver; every rule that produced a
    finding is declared in ``tool.driver.rules`` and referenced by
    index from its results, which is the shape
    ``github/codeql-action/upload-sarif`` expects for PR annotations.
    """
    from .framework import all_rules

    known = all_rules()
    fired = sorted({finding.rule_id for finding in findings})
    rule_index = {rule_id: position for position, rule_id in enumerate(fired)}
    rules_block: List[Dict[str, Any]] = []
    for rule_id in fired:
        cls = known.get(rule_id)
        description = cls.description if cls is not None else rule_id
        rules_block.append(
            {
                "id": rule_id,
                "shortDescription": {"text": description or rule_id},
            }
        )
    results: List[Dict[str, Any]] = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule_id,
            "ruleIndex": rule_index[finding.rule_id],
            "level": _sarif_level(finding.severity),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }
            ],
        }
        if finding.data:
            result["properties"] = {
                key: value for key, value in sorted(finding.data.items())
            }
        results.append(result)
    log = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/"
                            "static-analysis.md"
                        ),
                        "rules": rules_block,
                    }
                },
                "results": results,
                "properties": {"filesChecked": files_checked},
            }
        ],
    }
    return json.dumps(log, indent=2)


def exit_code(findings: Sequence[Finding]) -> int:
    """1 when any ERROR-severity finding is present, else 0."""
    return int(
        any(finding.severity is Severity.ERROR for finding in findings)
    )


def list_rules() -> List[str]:
    """``rule-id  description`` rows for ``repro lint --list-rules``."""
    from .framework import all_rules

    rows = []
    for rule_id, cls in all_rules().items():
        rows.append(f"{rule_id:<32}{cls.description}")
    return rows
