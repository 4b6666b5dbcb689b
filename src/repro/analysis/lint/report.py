"""Text and JSON reporters for lint results.

The text form is the human/console presentation; the JSON form is the
machine artifact the CI job uploads (``--json-report``), carrying enough
to reconstruct the run: findings, suppression counts, and per-rule
totals.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, Sequence

from repro.analysis.lint.core import LintResult, Rule


def render_text(result: LintResult, rules: Sequence[Rule]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in result.findings]
    summary = (
        f"{len(result.findings)} finding(s) in {result.files_checked} file(s)"
        f" [{result.suppressed_by_pragma} pragma-suppressed]"
    )
    lines.append(summary if lines else f"clean: {summary}")
    return "\n".join(lines)


def render_json(result: LintResult, rules: Sequence[Rule]) -> str:
    """Machine-readable report (the CI artifact)."""
    by_rule = Counter(finding.rule for finding in result.findings)
    payload: Dict[str, Any] = {
        "clean": result.clean,
        "files_checked": result.files_checked,
        "suppressed_by_pragma": result.suppressed_by_pragma,
        "rules": {rule.id: rule.description for rule in rules},
        "counts_by_rule": dict(sorted(by_rule.items())),
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "column": finding.column,
                "message": finding.message,
                "line_text": finding.line_text,
            }
            for finding in result.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
