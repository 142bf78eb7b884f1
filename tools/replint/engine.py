"""Core machinery of replint: file discovery, suppressions, rule dispatch.

replint is a *repository-specific* static analyzer: its rules encode
invariants of **this** codebase that no test, runtime check or benchmark
holds (determinism of the ACE reproduction, seed-stream order, float
order, the layering of ``repro``'s subpackages) rather than generic style.
Everything here is stdlib-only (``ast`` + ``tokenize``) so the checker
runs anywhere the test suite runs, with no third-party dependency.

The pieces:

* :class:`Violation` — one finding, formatted ``path:line:col: CODE message``.
* :class:`FileContext` — a parsed file plus derived metadata (dotted module
  name when the file sits under a ``src/`` root, suppression table).
* :class:`Rule` — per-file base class; concrete rules live in
  :mod:`tools.replint.rules`.
* :func:`check_paths` — walk files/directories, parse each file once, run
  every rule over it, return the sorted findings.  This is what both the
  CLI (``python -m tools.replint``) and the pytest bridge call.

Suppressions
------------
A violation is suppressed by a ``# replint: disable=CODE[,CODE...]`` comment
either on the reported line itself or alone on the line directly above it
(for statements too long to share a line with a comment).  A bare
``# replint: disable`` suppresses every rule on that line.  Whole files can
opt out of specific rules with ``# replint: disable-file=CODE[,CODE...]``
anywhere in the file.  Suppressions are deliberately *narrow*: there is no
``enable`` pragma and no block scope, so every exception stays visible at the
line that needs it.  Every pragma must name registered codes and carry a
justification after the code list (``# replint: disable=REP001 — demo
seam``); REP013 flags the rest, and ``--show-suppressions`` audits the
inventory.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "SuppressionRecord",
    "parse_suppressions",
    "module_name_for",
    "iter_python_files",
    "check_file",
    "check_paths",
]

#: Sentinel meaning "all rule codes" in a suppression set.
ALL_CODES = "*"

#: Directory names never descended into.  ``fixtures`` is excluded because
#: the replint test suite keeps deliberately-violating example files there.
DEFAULT_EXCLUDED_DIRS: FrozenSet[str] = frozenset(
    {"__pycache__", ".git", ".venv", "build", "dist", "fixtures"}
)

#: Code used for files that cannot be parsed at all.
PARSE_ERROR_CODE = "REP000"


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding, ordered for stable output."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class SuppressionRecord:
    """One parsed pragma, kept for auditing (``--show-suppressions``, REP013)."""

    #: Line the pragma comment sits on.
    pragma_line: int
    #: Line the suppression applies to (``0`` for whole-file pragmas).
    target_line: int
    #: ``"line"`` or ``"file"``.
    kind: str
    codes: FrozenSet[str] = frozenset()
    #: Free text after the code list; empty string when the author gave none.
    justification: str = ""


@dataclass
class Suppressions:
    """Per-file suppression table derived from magic comments."""

    #: line number -> set of codes disabled on that line (or ``{"*"}``).
    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    #: codes disabled for the whole file (or ``{"*"}``).
    whole_file: Set[str] = field(default_factory=set)
    #: every pragma in source order, for auditing.
    records: List[SuppressionRecord] = field(default_factory=list)

    def is_suppressed(self, line: int, code: str) -> bool:
        """Whether *code* is silenced at *line*."""
        if ALL_CODES in self.whole_file or code in self.whole_file:
            return True
        codes = self.by_line.get(line)
        if codes is None:
            return False
        return ALL_CODES in codes or code in codes


_CODE_LIST_RE = re.compile(r"\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Separator punctuation allowed between the code list and the justification
#: text (em/en dash, hyphen, colon).
_JUSTIFICATION_STRIP = " \t—–:-"


def _parse_pragma(comment: str) -> Optional[Tuple[str, Set[str], str]]:
    """Parse one ``# replint: ...`` comment into ``(kind, codes, why)``.

    Returns ``None`` for comments that are not replint pragmas.  *kind* is
    ``"line"`` or ``"file"``; *codes* is the set of rule codes (or
    ``{"*"}`` for a bare ``disable``); *why* is the justification text
    after the code list (``# replint: disable=REP001 — demo seam``).  An
    empty *why*, or a code no rule has, is a REP013 finding — suppressions
    must say what they are for and name something that can fire.
    """
    text = comment.lstrip("#").strip()
    if not text.startswith("replint:"):
        return None
    directive = text[len("replint:"):].strip()
    if directive.startswith("disable-file"):
        kind, rest = "file", directive[len("disable-file"):]
    elif directive.startswith("disable"):
        kind, rest = "line", directive[len("disable"):]
    else:
        return None
    rest = rest.strip()
    if not rest or not rest.startswith("="):
        return kind, {ALL_CODES}, rest.strip(_JUSTIFICATION_STRIP)
    match = _CODE_LIST_RE.match(rest[1:])
    if match is None:
        return None
    codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
    if not codes:
        return None
    justification = rest[1:][match.end():].strip(_JUSTIFICATION_STRIP)
    return kind, codes, justification


def parse_suppressions(source: str) -> Suppressions:
    """Build the suppression table for a file's source text.

    A pragma on a line that holds code applies to that line; a pragma on a
    comment-only line applies to the **next** line (so long statements can
    carry a suppression immediately above them).
    """
    table = Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(iter(source.splitlines(True)).__next__))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return table
    code_lines: Set[int] = set()
    comment_lines: Set[int] = set()
    comments: List[Tuple[int, str]] = []
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            comment_lines.add(tok.start[0])
            comments.append((tok.start[0], tok.string))
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
            tokenize.ENCODING,
        ):
            for ln in range(tok.start[0], tok.end[0] + 1):
                code_lines.add(ln)
    for line, comment in comments:
        parsed = _parse_pragma(comment)
        if parsed is None:
            continue
        kind, codes, justification = parsed
        if kind == "file":
            table.whole_file |= codes
            table.records.append(
                SuppressionRecord(line, 0, kind, frozenset(codes), justification)
            )
            continue
        if line in code_lines:
            target = line
        else:
            # Comment-only pragma: it governs the first code line after the
            # comment block it opens (so a multi-line justification between
            # the pragma and the code still attaches correctly).
            target = line + 1
            while target in comment_lines and target not in code_lines:
                target += 1
        table.by_line.setdefault(target, set()).update(codes)
        table.records.append(
            SuppressionRecord(line, target, kind, frozenset(codes), justification)
        )
    return table


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for files under a ``src/`` root, else ``None``.

    ``src/repro/topology/overlay.py`` -> ``repro.topology.overlay`` and
    ``src/repro/__init__.py`` -> ``repro``.  The *last* ``src`` path
    component wins, so fixture trees like
    ``tests/replint/fixtures/src/repro/...`` resolve the same way the real
    source tree does.
    """
    parts = path.parts
    src_idx = None
    for i, part in enumerate(parts):
        if part == "src":
            src_idx = i
    if src_idx is None or src_idx + 1 >= len(parts):
        return None
    rel = list(parts[src_idx + 1:])
    if not rel[-1].endswith(".py"):
        return None
    rel[-1] = rel[-1][: -len(".py")]
    if rel[-1] == "__init__":
        rel.pop()
    return ".".join(rel) if rel else None


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    path: Path
    source: str
    tree: ast.Module
    module: Optional[str]
    suppressions: Suppressions

    @classmethod
    def load(cls, path: Path) -> "FileContext":
        """Read and parse *path* (raises ``SyntaxError`` on unparsable code)."""
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            source=source,
            tree=tree,
            module=module_name_for(path),
            suppressions=parse_suppressions(source),
        )

    @property
    def in_repro_src(self) -> bool:
        """Whether this file is an importable ``repro`` source module."""
        return self.module is not None and (
            self.module == "repro" or self.module.startswith("repro.")
        )

    def violation(self, node: ast.AST, code: str, message: str) -> Violation:
        """Construct a violation anchored at *node*."""
        return Violation(
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


class Rule:
    """Base class for replint rules.

    Subclasses set :attr:`code` / :attr:`name` / :attr:`description` and
    implement :meth:`check`.  :meth:`applies_to` lets a rule scope itself to
    part of the tree (e.g. REP012 only audits ``repro.core`` and
    ``repro.search``).
    """

    code: str = "REP999"
    name: str = "unnamed"
    description: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule should run on *ctx* at all."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield violations found in the file."""
        raise NotImplementedError

    def run(self, ctx: FileContext) -> List[Violation]:
        """Run the rule and drop suppressed findings."""
        if not self.applies_to(ctx):
            return []
        return [
            v
            for v in self.check(ctx)
            if not ctx.suppressions.is_suppressed(v.line, v.code)
        ]


def iter_python_files(
    paths: Sequence[Path],
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> Iterator[Path]:
    """Yield ``.py`` files under *paths*, skipping excluded directories."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py" and path not in seen:
                seen.add(path)
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {path}")
        for sub in sorted(path.rglob("*.py")):
            if any(part in excluded_dirs for part in sub.parts):
                continue
            if sub not in seen:
                seen.add(sub)
                yield sub


def _parse_error_violation(path: Path, exc: SyntaxError) -> Violation:
    return Violation(
        path=str(path),
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        code=PARSE_ERROR_CODE,
        message=f"file could not be parsed: {exc.msg}",
    )


def check_file(path: Path, rules: Sequence[Rule]) -> List[Violation]:
    """Run *rules* over one file (a parse failure is itself a violation)."""
    try:
        ctx = FileContext.load(path)
    except SyntaxError as exc:
        return [_parse_error_violation(path, exc)]
    return sorted(v for rule in rules for v in rule.run(ctx))


def check_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[Rule]] = None,
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> List[Violation]:
    """Check every python file under *paths* with *rules* (default: all).

    Unparsable files become REP000 findings — a broken file must never take
    the whole analysis down.  Returns the findings sorted by location for
    stable, diffable output.
    """
    if rules is None:
        from .rules import default_rules

        rules = default_rules()
    out: List[Violation] = []
    for path in iter_python_files(paths, excluded_dirs=excluded_dirs):
        out.extend(check_file(path, rules))
    out.sort()
    return out


def iter_contexts(
    paths: Sequence[Path],
    excluded_dirs: FrozenSet[str] = DEFAULT_EXCLUDED_DIRS,
) -> Iterator[FileContext]:
    """Parsed contexts for every checkable file (skipping unparsable ones).

    Used by ``--show-suppressions`` to audit pragmas without running rules.
    """
    for path in iter_python_files(paths, excluded_dirs=excluded_dirs):
        try:
            yield FileContext.load(path)
        except SyntaxError:
            continue
