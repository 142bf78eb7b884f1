"""REP012 — no order-dependent float reductions over unordered collections.

Float addition is not associative: ``sum()`` over a ``set`` produces
different ulps depending on iteration order, and iteration order differs
between the object and array engines even when the *contents* agree.
PR 5's tie-break bug was exactly this class — an edge-cost computed in a
different order flipped a ``min``-by-cost decision in dynamic runs.  In
``repro.core`` and ``repro.search`` (the simulation decision logic, where
every ulp can flip a branch) reductions must therefore run over a
canonical order::

    bad:   total = sum(costs[h] for h in pool)          # pool is a set
    good:  total = sum(costs[h] for h in sorted(pool))

The rule tracks set-valued expressions per function — literals,
``set()``/``frozenset()`` calls, the overlay's set-returning accessors
(``neighbors()`` and friends), set operators over them, and local names
bound to any of those — and flags:

* ``sum``/``math.fsum``/``np.sum``/``np.mean``/``np.prod`` whose operand
  (or comprehension source) is set-valued,
* ``min``/``max``/``sorted`` **with a ``key=``** over a set-valued
  operand (ties are then broken by iteration order),
* ``np.array``/``np.asarray``/``np.fromiter`` fed a set (or
  ``list(set)``) — a non-canonical array order that poisons every
  reduction downstream.

``sorted(S)`` without a key imposes a total order and is the canonical
fix, so it is never flagged.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..engine import FileContext, Rule, Violation
from .rng_streams import Binding, collect_bindings, walk_no_nested

_SCOPED_PREFIXES = ("repro.core", "repro.search")

#: Overlay/protocol accessors documented to return sets.
_SET_RETURNING_METHODS = {
    "neighbors",
    "flooding_neighbors",
    "non_flooding_neighbors",
    "component_of",
}

_SET_CONSTRUCTORS = {"set", "frozenset"}

_FLOAT_REDUCERS = {"sum", "fsum", "mean", "prod", "cumsum", "nansum"}

_ARRAY_BUILDERS = {"array", "asarray", "fromiter"}

_SET_OPERATORS = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


class _SetTaint:
    """Flow-insensitive 'is this expression set-valued?' oracle."""

    def __init__(self, bindings: Dict[str, List[Binding]]) -> None:
        self._bindings = bindings
        self._names: Set[str] = set()
        # Fixpoint over name bindings: a name is set-valued if any binding
        # that reaches it is (erring toward more taint is the safe side).
        changed = True
        while changed:
            changed = False
            for name, binds in bindings.items():
                if name in self._names:
                    continue
                for binding in binds:
                    if binding.via in ("assign", "ann") and self.is_set(
                        binding.value
                    ):
                        self._names.add(name)
                        changed = True
                        break

    def is_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self._names
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in _SET_CONSTRUCTORS or name in _SET_RETURNING_METHODS:
                return True
            # set.union / set.intersection / ... on a tainted receiver
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
                "copy",
            }:
                return self.is_set(node.func.value)
        return False

    def comprehension_over_set(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            return any(self.is_set(gen.iter) for gen in node.generators)
        return False

    def operand_is_unordered(self, node: ast.expr) -> bool:
        return self.is_set(node) or self.comprehension_over_set(node)


class FloatOrderRule(Rule):
    """Flag order-dependent reductions over unordered collections."""

    code = "REP012"
    name = "float-order"
    description = (
        "order-dependent float reductions (sum/fsum/np.sum, keyed min/max/"
        "sorted, np.array-from-set) over sets in repro.core/repro.search "
        "produce engine-dependent ulps; reduce over sorted(...) instead"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module is None:
            return False
        return any(
            ctx.module == p or ctx.module.startswith(p + ".")
            for p in _SCOPED_PREFIXES
        )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for scope in ast.walk(ctx.tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            taint = _SetTaint(collect_bindings(scope.body))
            for node in walk_no_nested(scope):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                name = _call_name(node)
                first = node.args[0]
                if name in _FLOAT_REDUCERS and taint.operand_is_unordered(first):
                    yield ctx.violation(
                        node,
                        self.code,
                        f"{name}() over a set-valued operand is float-order "
                        f"dependent; reduce over sorted(...) for a canonical "
                        f"order",
                    )
                elif name in {"min", "max", "sorted"} and any(
                    kw.arg == "key" for kw in node.keywords
                ):
                    if taint.operand_is_unordered(first):
                        yield ctx.violation(
                            node,
                            self.code,
                            f"{name}(..., key=...) over a set-valued operand "
                            f"breaks ties by set iteration order; iterate "
                            f"sorted(...) so ties resolve deterministically",
                        )
                elif name in _ARRAY_BUILDERS:
                    inner = first
                    if (
                        isinstance(inner, ast.Call)
                        and _call_name(inner) in {"list", "tuple"}
                        and inner.args
                    ):
                        inner = inner.args[0]
                    if taint.operand_is_unordered(inner):
                        yield ctx.violation(
                            node,
                            self.code,
                            f"np.{name}() materializes a set in iteration "
                            f"order, poisoning every downstream reduction; "
                            f"build from sorted(...) instead",
                        )
