"""Spans around the program's public entry points, installed from outside.

The benchmark may not edit the program, so a traced run wraps the public
functions and methods named in :data:`layers.TARGETS` at run time and takes
the wrappers off again afterwards.  A span is ``[name, start, end, parent,
run id]``; spans stay in memory until the run ends.  Targets that no longer
resolve (a later PR deleted or renamed them) are listed in ``missing`` and
cost nothing: the benchmark keeps running and reports them.
"""

from __future__ import annotations

import contextvars
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

NAME, START, END, PARENT, RUN = range(5)

#: ``hook(tracer, args)`` runs before a traced call and returns the function
#: that receives the call's result, so a hook can compare before and after.
Hook = Callable[["Tracer", tuple], Callable[[object], None]]


class Target(NamedTuple):
    """One traced entry point: ``path`` is ``"package.module:attr[.attr]"``."""

    span: str
    path: str
    hook: Optional[Hook] = None


_parent: contextvars.ContextVar[int] = contextvars.ContextVar("span_parent", default=-1)


class Tracer:
    """Collects spans and counts for the wrapped targets while installed."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self.targets = list(targets)
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.run_id = 0
        #: The protocol object of the latest traced ACE step, for probes
        #: that need the final state of a run.
        self.last_protocol: object = None
        #: The open harness span: parent of spans begun where no context
        #: arrived (executor threads, coroutines scheduled from them).
        self._root = -1
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _begin(self, name: str) -> Tuple[int, contextvars.Token]:
        parent = _parent.get()
        # A task created inside a span inherits it as parent and may outlive
        # it; re-attach to the nearest ancestor that is still open.
        while parent >= 0 and self.spans[parent][END] is not None:
            parent = self.spans[parent][PARENT]
        if parent < 0:
            parent = self._root
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        return index, _parent.set(index)

    def _end(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][END] = time.perf_counter()
        _parent.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the harness itself (set-up, run)."""
        index, token = self._begin(name)
        outer, self._root = self._root, index
        try:
            yield
        finally:
            self._root = outer
            self._end(index, token)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, hook = target.span, target.hook
        begin, end = self._begin, self._end

        if inspect.iscoroutinefunction(fn):

            async def traced(*args, **kwargs):
                after = hook(self, args) if hook is not None else None
                index, token = begin(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end(index, token)
                if after is not None:
                    after(result)
                return result

        else:

            def traced(*args, **kwargs):
                after = hook(self, args) if hook is not None else None
                index, token = begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end(index, token)
                if after is not None:
                    after(result)
                return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that resolves; list the others in ``missing``."""
        self.missing = []
        resolved = []
        for target in self.targets:
            module_name, _, attr_path = target.path.partition(":")
            parts = attr_path.split(".")
            if any(part.startswith("_") for part in parts):
                raise ValueError(f"{target.path}: only public names are traced")
            try:
                owner = importlib.import_module(module_name)
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            resolved.append((target, owner, parts[-1], raw))
        for target, owner, attr, raw in resolved:
            if inspect.isclass(owner):
                if attr not in vars(owner):
                    # Inherited: name the defining class in the target list.
                    self.missing.append(target.path)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(target, raw.__func__))
                else:
                    wrapped = self._wrap(target, raw)
                self._patch(owner, attr, raw, wrapped)
            else:
                self._patch_everywhere(raw, self._wrap(target, raw))

    def _patch(self, owner: object, attr: str, old: object, new: object) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def _patch_everywhere(self, old: object, new: object) -> None:
        """Replace a module-level function wherever the program bound it.

        ``from x import f`` copies the reference into the importer (the
        program's modules and the benchmark's own), and dispatch tables hold
        it as a dict value, so both are rewritten.
        """
        for module in list(sys.modules.values()):
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    self._patch(module, attr, old, new)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is old:
                            value[key] = new
                            self._undo.append((value, key, old))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- analysis ------------------------------------------------------------


def _children(spans: Sequence[list]) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            out[span[PARENT]].append(index)
    return out


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span: its duration minus the part its child spans cover.

    Children of asynchronous spans can overlap, so the covered part is the
    union of the child intervals, clipped to the parent.
    """
    children = _children(spans)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(cursor, spans[child][START])
            hi = min(end, spans[child][END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def busy_times(spans: Sequence[list], run: int) -> Dict[str, float]:
    """Per span name: seconds inside it, nested same-name spans counted once."""
    total: Dict[str, float] = defaultdict(float)
    for span in spans:
        if span[RUN] != run:
            continue
        name, parent = span[NAME], span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total[name] += span[END] - span[START]
    return total


def malformed(spans: Sequence[list]) -> List[str]:
    """Reasons the span tree is not well formed (empty when it is)."""
    problems = []
    for index, span in enumerate(spans):
        if span[END] is None:
            problems.append(f"span {index} ({span[NAME]}) never ended")
            continue
        parent = span[PARENT]
        if parent < 0:
            continue
        if not 0 <= parent < index:
            problems.append(f"span {index} has parent {parent}")
            continue
        outer = spans[parent]
        if outer[RUN] != span[RUN]:
            problems.append(f"span {index} and its parent differ in run id")
        if span[START] < outer[START] or span[END] > outer[END]:
            problems.append(f"span {index} ({span[NAME]}) leaves its parent")
    return problems
