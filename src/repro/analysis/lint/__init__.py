"""``repro.analysis.lint``: the repo-specific invariant linter.

Every fast path in this reproduction is pinned to the step-by-step oracle
by source-level disciplines that are documented (README, CHANGES.md, the
``SegmentPlan`` contract) but — before this package — unenforced:
``math.sqrt`` instead of ``** 0.5`` for numpy parity, sequential adds
instead of float ``sum()`` where ledgers must be bit-equal, additive
``time += dt`` accumulation, lambda-free ``RunSpec`` settings, and "a
corrupt cache entry is a miss, and it logs".  This package turns each
of those conventions into a machine-checked contract:

* :mod:`~repro.analysis.lint.core` — the rule framework: :class:`Rule`
  with AST-visitor dispatch, per-line justification-carrying disable
  pragmas, and the lint runner.
* :mod:`~repro.analysis.lint.rules` — the rules themselves.
* :mod:`~repro.analysis.lint.report` — text and JSON reporters.
* :mod:`~repro.analysis.lint.cli` — ``react-repro lint`` /
  ``python -m repro.analysis``.

The tree self-hosts: CI runs the linter as a blocking job, so the suite
of disciplines can only grow monotonically — a new fast path either
follows the contracts or carries a written justification.
"""

from repro.analysis.lint.core import (
    Finding,
    LintResult,
    Project,
    Rule,
    SourceFile,
    lint_paths,
    lint_sources,
)
from repro.analysis.lint.rules import ALL_RULES, rule_by_id

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "SourceFile",
    "lint_paths",
    "lint_sources",
    "rule_by_id",
]
