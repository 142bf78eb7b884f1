"""REP013 — every suppression pragma must say why, and name a real rule.

A ``# replint: disable=...`` comment is a standing exception to a repo
invariant; six months later the only thing that keeps it honest is the
justification written next to it.  This rule requires non-empty free text
after the code list, and every code in the list must belong to a
registered rule — a pragma for a code no rule has suppresses nothing and
only looks like an exception::

    ok:   # replint: disable=REP001 — jitter only, never replayed
    bad:  # replint: disable=REP001
    bad:  # replint: disable=REP099 — no rule REP099 exists

The findings of this rule are **not themselves suppressible**: a bare
``# replint: disable`` would otherwise silence the very rule that audits
it.  Fix the pragma (or use ``--show-suppressions`` to review the whole
inventory).
"""

from __future__ import annotations

from typing import Iterator, List

from ..engine import ALL_CODES, FileContext, Rule, Violation


class SuppressionHygieneRule(Rule):
    """Flag ``replint: disable`` pragmas with no justification or an
    unregistered code."""

    code = "REP013"
    name = "suppression-hygiene"
    description = (
        "every '# replint: disable[-file]=' pragma must name registered rule "
        "codes and carry a written justification after the code list; audit "
        "the inventory with --show-suppressions"
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        from . import rules_by_code  # the registry imports this module

        known = set(rules_by_code()) | {ALL_CODES}
        for record in ctx.suppressions.records:
            codes = ",".join(sorted(record.codes))
            directive = "disable-file" if record.kind == "file" else "disable"
            pragma = f"suppression 'replint: {directive}={codes}'"
            problems = []
            unknown = sorted(record.codes - known)
            if unknown:
                problems.append(
                    f"{pragma} names {', '.join(unknown)}, which no rule has, "
                    f"so it suppresses nothing (see --list-rules)"
                )
            if not record.justification:
                problems.append(
                    f"{pragma} has no justification; add one after the code "
                    f"list (e.g. '... {codes} — reason')"
                )
            for message in problems:
                yield Violation(
                    str(ctx.path), record.pragma_line, 1, self.code, message
                )

    def run(self, ctx: FileContext) -> List[Violation]:
        # Deliberately bypass the suppression filter: this rule polices the
        # pragmas themselves, so they must not be able to silence it.
        if not self.applies_to(ctx):
            return []
        return list(self.check(ctx))
