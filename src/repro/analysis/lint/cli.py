"""``react-repro lint`` / ``python -m repro.analysis``.

Runs the invariant rules over the installed ``repro`` package (or any
paths given), applies the pragma and baseline escape hatches, prints the
text report, and exits non-zero on surviving findings — the blocking CI
contract.  ``--json-report FILE`` additionally writes the machine-readable
report (the CI artifact) without changing the console output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.lint.core import LintResult, Rule, lint_paths
from repro.analysis.lint.report import render_json, render_text
from repro.analysis.lint.rules import ALL_RULES, rule_by_id

#: Exit codes: findings are 1, usage/configuration problems are 2.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def default_lint_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def discover_baseline(paths: Sequence[Path]) -> Optional[Path]:
    """Walk up from the lint roots looking for the committed baseline."""
    for start in paths:
        probe = Path(start).resolve()
        if probe.is_file():
            probe = probe.parent
        for directory in (probe, *probe.parents):
            candidate = directory / DEFAULT_BASELINE_NAME
            if candidate.is_file():
                return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="react-repro lint",
        description=(
            "Check the repro tree against its bit-equality, ledger, "
            "exception, and picklability contracts.  Suppress a finding "
            "with '# repro-lint: disable=RULE -- justification' on (or "
            "above) the line, or grandfather it in the committed baseline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--select",
        metavar="RULE[,RULE...]",
        default=None,
        help="run only the named rules (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="console report format (default: text)",
    )
    parser.add_argument(
        "--json-report",
        metavar="FILE",
        type=Path,
        default=None,
        help="also write the JSON report to FILE (the CI artifact)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        type=Path,
        default=None,
        help=(
            f"baseline file of grandfathered findings (default: the nearest "
            f"{DEFAULT_BASELINE_NAME} above the linted paths, if any)"
        ),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (report grandfathered findings too)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="JUSTIFICATION",
        default=None,
        help=(
            "write the surviving findings to the baseline file with the "
            "given justification text and exit 0 (requires --baseline or a "
            "discoverable baseline location)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rules and the invariants they encode, then exit",
    )
    return parser


def _selected_rules(select: Optional[str]) -> List[Rule]:
    if select is None:
        return list(ALL_RULES)
    try:
        return [rule_by_id(name.strip()) for name in select.split(",") if name.strip()]
    except KeyError as error:
        raise SystemExit(f"lint: {error.args[0]}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:22s} {rule.description}")
        return EXIT_CLEAN

    rules = _selected_rules(args.select)
    paths = [Path(p) for p in args.paths] or [default_lint_root()]
    for path in paths:
        if not path.exists():
            print(f"lint: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE

    baseline = None
    baseline_path = args.baseline
    if not args.no_baseline:
        if baseline_path is None:
            baseline_path = discover_baseline(paths)
        if baseline_path is not None and baseline_path.exists():
            try:
                baseline = Baseline.load(baseline_path)
            except (ValueError, KeyError) as error:
                print(f"lint: bad baseline {baseline_path}: {error}", file=sys.stderr)
                return EXIT_USAGE

    try:
        result = lint_paths(paths, rules, baseline=None)  # raw pass first
    except SyntaxError as error:
        print(f"lint: cannot parse {error.filename}: {error}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline is not None:
        target = args.baseline or baseline_path or Path(DEFAULT_BASELINE_NAME)
        Baseline.from_findings(result.findings, args.write_baseline).save(target)
        print(f"lint: wrote {len(result.findings)} entries to {target}")
        return EXIT_CLEAN

    if baseline is not None:
        survivors, suppressed, unmatched = baseline.apply(result.findings)
        result = LintResult(
            findings=survivors,
            suppressed_by_pragma=result.suppressed_by_pragma,
            suppressed_by_baseline=suppressed,
            files_checked=result.files_checked,
            unmatched_baseline=unmatched,
        )

    if args.json_report is not None:
        args.json_report.parent.mkdir(parents=True, exist_ok=True)
        args.json_report.write_text(render_json(result, rules) + "\n")
    if args.format == "json":
        print(render_json(result, rules))
    else:
        print(render_text(result, rules))

    if result.unmatched_baseline:
        return EXIT_FINDINGS  # a stale baseline must shrink, not linger
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
