"""``react-repro lint`` / ``python -m repro.analysis``.

Runs the invariant rules over the installed ``repro`` package (or any
paths given), applies the justified pragmas, prints the text report, and
exits non-zero on surviving findings — the blocking CI contract.
``--json-report FILE`` additionally writes the machine-readable report
(the CI artifact) without changing the console output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint.core import Rule, lint_paths
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="react-repro lint",
        description=(
            "Check the repro tree against its bit-equality, ledger, "
            "exception, and picklability contracts.  Suppress a finding "
            "with '# repro-lint: disable=RULE -- justification' on (or "
            "above) the line."
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

    try:
        result = lint_paths(paths, rules)
    except SyntaxError as error:
        print(f"lint: cannot parse {error.filename}: {error}", file=sys.stderr)
        return EXIT_USAGE

    if args.json_report is not None:
        args.json_report.parent.mkdir(parents=True, exist_ok=True)
        args.json_report.write_text(render_json(result, rules) + "\n")
    if args.format == "json":
        print(render_json(result, rules))
    else:
        print(render_text(result, rules))
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - manual invocation
    sys.exit(main())
