"""Command-line entry point: ``python -m tools.replint [paths...]``.

Exit status: 0 when clean, 1 when violations were found, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import DEFAULT_EXCLUDED_DIRS, check_paths, iter_contexts
from .rules import default_rules, rules_by_code


def _build_parser() -> argparse.ArgumentParser:
    rules = ", ".join(f"{rule.name} ({rule.code})" for rule in default_rules())
    parser = argparse.ArgumentParser(
        prog="python -m tools.replint",
        description=(
            f"Invariant checker for the repro codebase: {rules}. "
            "--list-rules describes each."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "tools"],
        help="files or directories to check (default: src tests tools)",
    )
    parser.add_argument(
        "--rules",
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the available rules and exit",
    )
    parser.add_argument(
        "--include-fixtures",
        action="store_true",
        help="descend into 'fixtures' directories (excluded by default "
        "because the replint test suite keeps deliberately bad files there)",
    )
    parser.add_argument(
        "--show-suppressions",
        action="store_true",
        help="audit every '# replint: disable' pragma (with justification) "
        "and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line; print only violations",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.code}  {rule.name:24s} {rule.description}")
        return 0

    paths = [Path(p) for p in args.paths]
    excluded = DEFAULT_EXCLUDED_DIRS
    if args.include_fixtures:
        excluded = frozenset(excluded - {"fixtures"})

    if args.show_suppressions:
        try:
            count = 0
            for ctx in iter_contexts(paths, excluded_dirs=excluded):
                for record in ctx.suppressions.records:
                    count += 1
                    codes = ",".join(sorted(record.codes))
                    scope = (
                        "file"
                        if record.kind == "file"
                        else f"line {record.target_line}"
                    )
                    why = record.justification or "(no justification)"
                    print(f"{ctx.path}:{record.pragma_line}: [{codes}] {scope} — {why}")
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not args.quiet:
            print(f"replint: {count} suppression(s)")
        return 0

    rules = default_rules()
    if args.rules:
        table = rules_by_code()
        wanted = [c.strip() for c in args.rules.split(",") if c.strip()]
        unknown = [c for c in wanted if c not in table]
        if unknown:
            print(
                f"error: unknown rule code(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(table))})",
                file=sys.stderr,
            )
            return 2
        rules = [table[c] for c in wanted]

    try:
        violations = check_paths(paths, rules=rules, excluded_dirs=excluded)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for violation in violations:
        print(violation.format())

    if not args.quiet:
        codes = ", ".join(rule.code for rule in rules)
        if violations:
            print(f"replint: {len(violations)} violation(s) [{codes}]")
        else:
            print(f"replint: clean [{codes}]")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
