"""REP007 — experiment drivers batch their queries.

PR 5 lowered every compilable forwarding strategy into a CSR graph and
replaced the experiments' query loops with one vectorized multi-source
kernel (:func:`repro.search.batch.run_queries` /
:func:`~repro.search.batch.propagate_many`).  A ``repro.experiments``
module that loops the scalar engine over query sources —
``run_query(...)`` or ``propagate(...)`` inside a ``for``/``while`` body —
quietly reverts the measurement path to one heap simulation per query,
which is the exact regression the batched kernel exists to prevent.

The rule audits ``repro.experiments`` modules only: the scalar engine
remains the reference implementation, and tests, benchmarks, and the
search layer itself (including the batched engine's own fallback loop)
loop it freely.  Scalar flows the batch kernel cannot express — e.g.
``cached_query``'s ``stop_at`` pruning — are not flagged, and a deliberate
per-query scalar loop carries a line suppression stating why.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import FileContext, Rule, Violation

#: Scalar query entry points that have a batched replacement.
_SCALAR_QUERY_CALLS = frozenset(
    {"run_query", "propagate", "ace_query", "ace_propagate"}
)

#: Module prefix the rule audits.
_SCOPED_PREFIX = "repro.experiments"


class BatchedQueriesRule(Rule):
    """Flag scalar query-engine calls inside experiment loop bodies."""

    code = "REP007"
    name = "batched-queries"
    description = (
        "experiment modules must not loop the scalar run_query()/"
        "propagate() engine over query sources; batch them through "
        "repro.search.batch.run_queries/propagate_many"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module is None:
            return False
        return ctx.module == _SCOPED_PREFIX or ctx.module.startswith(
            _SCOPED_PREFIX + "."
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._visit(ctx, ctx.tree, in_loop=False)

    def _visit(
        self, ctx: FileContext, node: ast.AST, in_loop: bool
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.For, ast.AsyncFor)):
                # The iterable is evaluated once, outside the loop.
                yield from self._visit(ctx, child.iter, in_loop)
                yield from self._visit(ctx, child.target, in_loop)
                for part in child.body + child.orelse:
                    yield from self._visit(ctx, part, True)
                continue
            if isinstance(child, ast.While):
                # The condition re-evaluates every iteration: it counts.
                yield from self._visit(ctx, child.test, True)
                for part in child.body + child.orelse:
                    yield from self._visit(ctx, part, True)
                continue
            if in_loop and isinstance(child, ast.Call):
                name = _call_name(child.func)
                if name in _SCALAR_QUERY_CALLS:
                    yield ctx.violation(
                        child,
                        self.code,
                        f"scalar {name}() inside a loop body runs one heap "
                        "simulation per query; batch the sources through "
                        "run_queries()/propagate_many() "
                        "(repro.search.batch) instead",
                    )
            yield from self._visit(ctx, child, in_loop)
    # Comprehensions and generator expressions are deliberately not
    # counted: like REP004, flagging single vectorisable expressions would
    # drown the signal — the seed-era pattern is the statement-level loop.


def _call_name(func: ast.expr) -> str:
    """The called name, whether spelled bare or as an attribute."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""
