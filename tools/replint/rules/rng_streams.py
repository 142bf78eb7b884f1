"""REP009 — SeedSequence spawn-stream discipline.

Every stream in a run is pinned to a position in the seed tree:
``SeedSequence(seed).spawn(n)[i]`` is child *i*, and the repo's
byte-identity guarantees rest on every consumer drawing from its own
child, allocated once, in order (``spawn(5)[:4] == spawn(4)``, so
*appending* streams is safe; *reordering* or *re-spawning* is not).  This
rule taints ``SeedSequence`` values and the child lists ``.spawn()``
returns, then flags the consumption patterns that silently perturb the
pinned draw order:

* ``REP009/out-of-range`` — ``ss.spawn(n)[i]`` with a literal ``i >= n``
  (an ``IndexError`` at best, a miscounted stream budget at worst),
* ``REP009/re-spawn`` — calling ``.spawn()`` twice on the same
  ``SeedSequence`` value: spawning is **stateful** (``spawn_key``
  advances), so the second call hands out different children than the
  same expression would in a fresh process,
* ``REP009/out-of-order`` — first uses of ``children[i]`` with literal
  indices that decrease (consuming child 3 before child 1 reorders the
  generators relative to the allocation plan, the exact hazard the
  in-order ``spawn(4)`` idiom in ``repro.experiments.setup`` exists to
  prevent),
* ``REP009/double-use`` — consuming the same literal child twice (two
  generators over one stream means correlated draws),
* ``REP009/cross-function`` — ``.spawn()`` on a function **parameter**:
  stream allocation belongs to the function that owns the seed tree;
  spawning a sequence someone passed in splits the allocation across
  call sites where the order can no longer be checked (pass the spawned
  children, or a derived ``Generator``, instead).

Scoped to ``repro`` source modules.  Every check is local to one function
body, so the rule is per-file.  REP012 shares the scope helpers below
(:func:`walk_no_nested`, :func:`collect_bindings`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..engine import FileContext, Rule, Violation

#: Node types whose bodies belong to a different scope and must not leak
#: bindings or calls into the enclosing function's analysis.
_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def walk_no_nested(node: ast.AST) -> Iterator[ast.AST]:
    """Yield *node* and its subtree, without descending into nested scopes.

    The root itself is yielded even when it is a function or class
    definition; only *child* scopes are fenced off.
    """
    stack: List[ast.AST] = [node]
    first = True
    while stack:
        current = stack.pop()
        if not first and isinstance(current, _NESTED_SCOPES):
            continue
        first = False
        yield current
        stack.extend(ast.iter_child_nodes(current))


@dataclass(frozen=True)
class Binding:
    """One assignment reaching a local name (flow-insensitive)."""

    #: The right-hand side (for ``for``/``with`` forms, the iterable or
    #: context expression).
    value: ast.expr
    #: How the name was bound: ``assign`` | ``unpack`` | ``aug`` | ``ann``
    #: | ``for`` | ``with``.
    via: str


def collect_bindings(body: Sequence[ast.stmt]) -> Dict[str, List[Binding]]:
    """Map every locally-bound name to the expressions that bind it.

    Deliberately flow-insensitive (any def may reach any use), which errs
    toward *more* taint — the right direction for hazard rules.
    """
    table: Dict[str, List[Binding]] = {}

    def bind(name: str, binding: Binding) -> None:
        table.setdefault(name, []).append(binding)

    def bind_target(target: ast.expr, value: ast.expr, via: str) -> None:
        if isinstance(target, ast.Name):
            bind(target.id, Binding(value, via))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                if isinstance(elt, ast.Name):
                    bind(elt.id, Binding(value, "unpack"))

    for root in body:
        for node in walk_no_nested(root):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind_target(target, node.value, "assign")
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bind_target(node.target, node.value, "ann")
            elif isinstance(node, ast.AugAssign):
                bind_target(node.target, node.value, "aug")
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bind_target(node.target, node.iter, "for")
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        bind_target(item.optional_vars, item.context_expr, "with")
            elif isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                bind(node.target.id, Binding(node.value, "assign"))
    return table


def _is_seedseq_ctor(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "SeedSequence")
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "SeedSequence"
            )
        )
    )


def _literal_int(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _spawn_call(node: ast.expr) -> Optional[ast.Call]:
    """The ``<x>.spawn(...)`` call node, if *node* is one."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "spawn"
    ):
        return node
    return None


class RngStreamsRule(Rule):
    """Flag seed-stream consumption that perturbs the pinned draw order."""

    code = "REP009"
    name = "rng-streams"
    description = (
        "SeedSequence.spawn() children must be consumed in spawn order, "
        "exactly once, within range, by the function that allocated them; "
        "re-spawning or cross-function spawning reorders pinned streams"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_repro_src

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for anchor, message in self._check_function(node):
                    yield ctx.violation(anchor, self.code, message)

    # -- per-function analysis ----------------------------------------------

    def _check_function(
        self, node: ast.AST
    ) -> Iterable[Tuple[ast.expr, str]]:
        body = getattr(node, "body", [])
        bindings = collect_bindings(body)

        # Names bound to SeedSequence values (constructed locally).
        seedseq_names: Set[str] = set()
        # Names bound to a spawn() result, with the literal child count
        # (None when the count is not a literal).
        child_lists: Dict[str, Optional[int]] = {}
        for name, binds in bindings.items():
            for binding in binds:
                if binding.via not in ("assign", "ann", "with"):
                    continue
                if _is_seedseq_ctor(binding.value):
                    seedseq_names.add(name)
                spawn = _spawn_call(binding.value)
                if spawn is not None:
                    count = (
                        _literal_int(spawn.args[0]) if spawn.args else None
                    )
                    child_lists[name] = count

        params = {
            arg.arg
            for args in [getattr(node, "args", None)]
            if args is not None
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }

        spawned_names: Set[str] = set()
        #: first-use literal index per child-list name, in source order.
        uses: Dict[str, List[Tuple[int, ast.expr]]] = {}

        ordered_nodes = sorted(
            (
                n
                for n in walk_no_nested(node)
                if hasattr(n, "lineno")
            ),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for sub in ordered_nodes:
            spawn = _spawn_call(sub) if isinstance(sub, ast.expr) else None
            if spawn is not None:
                receiver = spawn.func.value  # type: ignore[union-attr]
                # Direct subscript on a fresh spawn: range check.
                if isinstance(receiver, ast.Name):
                    rname = receiver.id
                    if rname in params:
                        yield (
                            spawn,
                            f"spawn() on parameter '{rname}' splits seed-"
                            f"stream allocation across functions; allocate "
                            f"children where the SeedSequence is built and "
                            f"pass them (or derived Generators) down",
                        )
                    elif rname in seedseq_names:
                        if rname in spawned_names:
                            yield (
                                spawn,
                                f"second spawn() on SeedSequence '{rname}': "
                                f"spawning is stateful, so repeated calls "
                                f"hand out different children than a single "
                                f"spawn(n) would; widen the first spawn "
                                f"instead",
                            )
                        spawned_names.add(rname)
            if isinstance(sub, ast.Subscript):
                base = sub.value
                index = _literal_int(sub.slice)  # 3.9+: slice is a plain expr
                if index is None:
                    continue
                # spawn(n)[i] inline.
                spawn = _spawn_call(base)
                if spawn is not None and spawn.args:
                    count = _literal_int(spawn.args[0])
                    if count is not None and index >= count:
                        yield (
                            sub,
                            f"child index {index} out of range for "
                            f"spawn({count}); streams are pinned 0..{count - 1}",
                        )
                    continue
                if isinstance(base, ast.Name) and base.id in child_lists:
                    count = child_lists[base.id]
                    if count is not None and index >= count:
                        yield (
                            sub,
                            f"child index {index} out of range for "
                            f"'{base.id}' = spawn({count}); streams are "
                            f"pinned 0..{count - 1}",
                        )
                        continue
                    uses.setdefault(base.id, []).append((index, sub))

        for name, indexed in uses.items():
            seen: Set[int] = set()
            highest = -1
            for index, sub in indexed:
                if index in seen:
                    yield (
                        sub,
                        f"seed child '{name}[{index}]' consumed twice; two "
                        f"generators over one stream draw correlated values",
                    )
                    continue
                seen.add(index)
                if index < highest:
                    yield (
                        sub,
                        f"seed child '{name}[{index}]' consumed after "
                        f"'{name}[{highest}]'; children must be consumed in "
                        f"spawn order so stream positions stay pinned",
                    )
                highest = max(highest, index)
