"""API quality gates: docstrings, exports, module hygiene.

A library release lives or dies on its public surface; these meta-tests
keep it honest — every public module, class and function documented, every
``__all__`` entry real, no accidental wildcard leakage, no import left behind
by a refactor — and the docs may only name files and knobs that exist.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.topology",
    "repro.oracle",
    "repro.search",
    "repro.sim",
    "repro.metrics",
    "repro.experiments",
    "repro.extensions",
]


def iter_public_modules():
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            if not info.name.rsplit(".", 1)[-1].startswith("_"):
                seen.append(importlib.import_module(info.name))
    return seen


ALL_MODULES = iter_public_modules()
per_public_module = pytest.mark.parametrize(
    "module", ALL_MODULES, ids=lambda m: m.__name__
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCE_FILES = sorted((REPO_ROOT / "src").rglob("*.py"))


def unused_imports(path):
    """Names *path* imports and never reads (pyflakes F401, stdlib only).

    ruff selects ``F`` in ``pyproject.toml`` but is not in the dev image, so
    this is where an import orphaned by a refactor shows up before CI.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}

    def collect(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and "TYPE_CHECKING" in ast.dump(child.test):
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "__future__":
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    if alias.name != "*":
                        bound = alias.asname or alias.name.split(".")[0]
                        imported.setdefault(bound, child.lineno)
            collect(child)

    collect(tree)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = {
        c.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for c in ast.walk(node.value)
        if isinstance(c, ast.Constant)
    }
    return sorted(
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exported
    )


class TestModuleHygiene:
    @per_public_module
    def test_module_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @per_public_module
    def test_all_entries_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.{name}"

    @pytest.mark.parametrize(
        "path", SOURCE_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT / "src"))
    )
    def test_every_import_is_used(self, path):
        # Used, re-exported in __all__, or under TYPE_CHECKING.
        assert unused_imports(path) == []


def iter_public_callables():
    out = []
    for module in ALL_MODULES:
        exported = getattr(module, "__all__", None)
        names = exported if exported is not None else [
            n for n in vars(module) if not n.startswith("_")
        ]
        for name in names:
            obj = getattr(module, name, None)
            if obj is None:
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                out.append((f"{module.__name__}.{name}", obj))
    return out


PUBLIC_CALLABLES = iter_public_callables()


@pytest.mark.parametrize(
    "qualname,obj", PUBLIC_CALLABLES, ids=[q for q, _ in PUBLIC_CALLABLES]
)
def test_public_callable_documented(qualname, obj):
    assert obj.__doc__ and obj.__doc__.strip(), qualname


def test_public_methods_documented():
    undocumented = []
    for qualname, obj in PUBLIC_CALLABLES:
        if not inspect.isclass(obj):
            continue
        for name, member in vars(obj).items():
            if name.startswith("_"):
                continue
            func = member
            if isinstance(member, (staticmethod, classmethod)):
                func = member.__func__
            elif isinstance(member, property):
                func = member.fget
            if inspect.isfunction(func) and not (func.__doc__ or "").strip():
                undocumented.append(f"{qualname}.{name}")
    assert not undocumented, undocumented


def test_top_level_all_is_sorted_by_section_and_complete():
    # Every name in repro.__all__ resolves and is importable.
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    # No duplicates.
    assert len(set(repro.__all__)) == len(repro.__all__)


#: The docs a reader follows.  CHANGES.md and ROADMAP.md are history and
#: benchmarks/suite/README.md belongs to the benchmark; they may name what
#: is gone.
DOCS = sorted(
    p
    for pattern in ("README.md", "EXPERIMENTS.md", "DESIGN.md", "docs/*.md",
                    ".claude/skills/verify/SKILL.md")
    for p in REPO_ROOT.glob(pattern)
)
_PATH_MENTION = re.compile(
    r"(?<![\w/.-])("
    r"(?:benchmarks|docs|examples|tests)/[\w./*-]*"
    r"|bench_[\w*]+\.py"
    r"|BENCH[\w*{},]*\.json"
    r")"
)
_KNOB = re.compile(r"REPRO_[A-Z0-9_]+")


class TestDocsNameOnlyWhatExists:
    @pytest.mark.parametrize(
        "doc", DOCS, ids=lambda p: str(p.relative_to(REPO_ROOT))
    )
    def test_mentioned_paths_resolve(self, doc):
        dangling = set()
        for mention in _PATH_MENTION.findall(doc.read_text(encoding="utf-8")):
            pattern = mention.rstrip("./")
            if pattern.startswith("bench_"):
                pattern = "benchmarks/" + pattern
            if not any(REPO_ROOT.glob(pattern)):
                dangling.add(mention)
        assert sorted(dangling) == []

    def test_knob_table_lists_exactly_the_knobs_in_the_code(self):
        text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
        table = text.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
        listed = {
            knob
            for row in table.splitlines()
            if row.startswith("|")
            for knob in _KNOB.findall(row.split("|")[1])
        }
        in_code = {
            knob
            for top in ("src", "benchmarks")
            for p in (REPO_ROOT / top).rglob("*.py")
            if "suite" not in p.relative_to(REPO_ROOT).parts
            for knob in _KNOB.findall(p.read_text(encoding="utf-8"))
        }
        assert listed == in_code
