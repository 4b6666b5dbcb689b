"""Rule framework: findings, pragmas, source files, and the lint runner.

A :class:`Rule` owns one invariant.  Per-file rules implement
:meth:`Rule.check`; whole-tree rules (the kernel-conformance check needs
the class hierarchy and the ``KERNEL_BUILDERS`` registration from
different modules) implement :meth:`Rule.finalize` over the parsed
:class:`Project`.

Suppression has exactly one escape hatch, and it requires a written
justification: a per-line pragma —
``# repro-lint: disable=RULE[,RULE...] -- why`` — on the flagged line, or
alone on the line above it.  A pragma without a justification (or naming
an unknown rule) is itself a finding under the reserved ``pragma`` rule
id, so the escape hatch cannot silently widen.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Reserved rule id for malformed pragmas; never suppressible by pragma.
PRAGMA_RULE_ID = "pragma"

_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_\-, ]+?)"
    r"\s*(?:--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # package-relative posix path, e.g. "repro/sim/batch.py"
    line: int  # 1-based
    column: int  # 0-based
    message: str
    line_text: str = ""  # stripped source line, for the JSON report

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.column + 1}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int  # the line the pragma *suppresses* (not necessarily its own)
    rules: Tuple[str, ...]
    justification: str
    pragma_line: int  # where the comment physically lives


class SourceFile:
    """One parsed source file plus its pragma table.

    ``rel_path`` is the path rules match their scopes against — posix,
    rooted at the package parent (``repro/sim/batch.py``) so scope
    patterns are stable regardless of where the tree is checked out.
    """

    def __init__(self, rel_path: str, text: str, path: Optional[Path] = None) -> None:
        self.rel_path = rel_path.replace("\\", "/")
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text)  # SyntaxError propagates: unlintable file
        self.pragmas: Dict[int, List[Pragma]] = {}
        self.pragma_errors: List[Finding] = []
        self._parse_pragmas()

    def _parse_pragmas(self) -> None:
        for number, raw in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(raw)
            if match is None:
                continue
            rules = tuple(
                name.strip() for name in match.group("rules").split(",") if name.strip()
            )
            justification = (match.group("why") or "").strip()
            # A pragma alone on its line suppresses the *next* line; a
            # trailing pragma suppresses its own.
            own_line = raw.strip().startswith("#")
            target = number + 1 if own_line else number
            pragma = Pragma(target, rules, justification, pragma_line=number)
            if not justification:
                self.pragma_errors.append(
                    Finding(
                        PRAGMA_RULE_ID,
                        self.rel_path,
                        number,
                        raw.index("#"),
                        "pragma is missing its justification "
                        "(write '# repro-lint: disable=RULE -- why this is safe')",
                        line_text=raw.strip(),
                    )
                )
                continue
            self.pragmas.setdefault(target, []).append(pragma)

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule == PRAGMA_RULE_ID:
            return False
        return any(
            finding.rule in pragma.rules
            for pragma in self.pragmas.get(finding.line, ())
        )

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


@dataclass
class Project:
    """Every parsed file of one lint run, for whole-tree rules."""

    files: Dict[str, SourceFile] = field(default_factory=dict)

    def match(self, pattern: str) -> List[SourceFile]:
        from fnmatch import fnmatch

        return [
            source
            for rel_path, source in sorted(self.files.items())
            if fnmatch(rel_path, pattern)
        ]


class Rule:
    """One invariant.  Subclasses set the class attributes and override
    :meth:`check` (per file) and/or :meth:`finalize` (whole project)."""

    #: Stable identifier used in reports and pragmas.
    id: str = ""
    #: One-line statement of the invariant, shown by ``lint --list-rules``.
    description: str = ""
    #: fnmatch globs (against ``SourceFile.rel_path``) this rule covers.
    scope: Tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        from fnmatch import fnmatch

        return any(fnmatch(rel_path, pattern) for pattern in self.scope)

    def check(self, source: SourceFile) -> List[Finding]:
        return []

    def finalize(self, project: Project) -> List[Finding]:
        return []

    def finding(self, source: SourceFile, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            self.id,
            source.rel_path,
            line,
            column,
            message,
            line_text=source.line_text(line),
        )


@dataclass
class LintResult:
    """What one lint run produced, before and after suppression."""

    findings: List[Finding]  # surviving findings, sorted
    suppressed_by_pragma: int = 0
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.column, finding.rule)


def lint_sources(
    sources: Sequence[SourceFile],
    rules: Sequence[Rule],
) -> LintResult:
    """Run ``rules`` over parsed ``sources`` and apply the pragmas."""
    project = Project({source.rel_path: source for source in sources})
    raw: List[Finding] = []
    for source in sources:
        raw.extend(source.pragma_errors)
        for rule in rules:
            if rule.applies_to(source.rel_path):
                raw.extend(rule.check(source))
    for rule in rules:
        raw.extend(rule.finalize(project))

    survivors: List[Finding] = []
    pragma_hits = 0
    for finding in raw:
        source = project.files.get(finding.path)
        if source is not None and source.suppressed(finding):
            pragma_hits += 1
        else:
            survivors.append(finding)

    return LintResult(
        findings=sorted(survivors, key=_sort_key),
        suppressed_by_pragma=pragma_hits,
        files_checked=len(sources),
    )


def discover_files(paths: Iterable[Path]) -> List[Tuple[Path, str]]:
    """Expand ``paths`` into ``(file, rel_path)`` pairs.

    ``rel_path`` is rooted at the directory *containing* the topmost
    package directory (the one whose parent has no ``__init__.py``), so a
    file under ``src/repro/sim/`` always lints as ``repro/sim/...`` no
    matter which directory the CLI was pointed at.
    """
    pairs: List[Tuple[Path, str]] = []
    for path in paths:
        path = Path(path).resolve()
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            pairs.append((file, _package_rel_path(file)))
    return pairs


def _package_rel_path(file: Path) -> str:
    root = file.parent
    while (root.parent / "__init__.py").exists() or (root / "__init__.py").exists():
        if not (root / "__init__.py").exists():
            break
        root = root.parent
    return file.relative_to(root).as_posix()


def lint_paths(
    paths: Iterable[Path],
    rules: Sequence[Rule],
) -> LintResult:
    """Discover, parse, and lint every ``*.py`` under ``paths``."""
    sources = []
    for file, rel_path in discover_files(paths):
        sources.append(SourceFile(rel_path, file.read_text(), path=file))
    return lint_sources(sources, rules)
