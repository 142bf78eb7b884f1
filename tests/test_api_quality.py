"""API quality gates: docstrings, exports, module hygiene.

A library release lives or dies on its public surface; these meta-tests
keep it honest — every public module, class and function documented, every
``__all__`` entry real, no accidental wildcard leakage, no import left behind
by a refactor, no module, package export or ``AceConfig`` field that only
tests reach — and the docs may only name files, knobs and lint rules that
exist.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
import re
import textwrap
from pathlib import Path

import pytest

import repro
import repro.sanitize
from repro.core.ace import AceConfig
from tools.replint import rules_by_code

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
SRC = REPO_ROOT / "src"
SOURCE_FILES = sorted(SRC.rglob("*.py"))


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
        "path", SOURCE_FILES, ids=lambda p: str(p.relative_to(SRC))
    )
    def test_every_import_is_used(self, path):
        # Used, re-exported in __all__, or under TYPE_CHECKING.
        assert unused_imports(path) == []


def iter_public_callables():
    # Every class and function a module defines under a public name, listed
    # in its __all__ or not; a re-export is documented at its home.
    out = []
    for module in ALL_MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
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


def _module_file(name):
    """The source file of module *name* under ``src/``, or ``None``."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _imports(path, name):
    """``(module, imported names, bound names)`` per import, absolute names.

    ``import a.b`` yields ``("a.b", (), ())``; ``from a import x as y``
    yields ``("a", ("x",), ("y",))``, relative levels resolved against
    *name*.
    """
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, (), ()
        elif isinstance(node, ast.ImportFrom):
            yield (_absolute(node, package), tuple(a.name for a in node.names),
                   tuple(a.asname or a.name for a in node.names))


def _absolute(node, package):
    """The module an ``ImportFrom`` in *package* names, relative levels resolved."""
    module = node.module or ""
    if node.level:
        anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
        module = ".".join(anchor + ([module] if module else []))
    return module


def _origin(module, name):
    """The ``src`` module that defines *name* as seen from *module*.

    Follows package re-exports (``from .sub import name`` in an
    ``__init__``) down to the defining module; a submodule named *name*
    is its own origin.
    """
    if _module_file(f"{module}.{name}") is not None:
        return f"{module}.{name}"
    path = _module_file(module)
    if path is None or path.name != "__init__.py":
        return module
    for source, names, _ in _imports(path, module):
        if name in names:
            return _origin(source, name)
    return module


def test_every_module_has_an_importer_outside_tests():
    # A module only tests reach is code nothing runs.  A package __init__
    # re-export does not count as a caller (an __init__ import counts only
    # if the __init__ reads the name itself); importing a name through a
    # re-export (``from repro import X``) counts for the module defining X.
    modules = {
        ".".join(p.relative_to(SRC).with_suffix("").parts)
        for p in SRC.rglob("*.py")
        if p.name not in ("__init__.py", "__main__.py")
    }
    reached = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            rel = path.relative_to(SRC if top == "src" else REPO_ROOT)
            importer = ".".join(rel.with_suffix("").parts)
            if path.name == "__init__.py":
                importer = importer.rpartition(".")[0]
                tree = ast.parse(path.read_text(encoding="utf-8"))
                read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for module, names, bound in _imports(path, importer):
                if path.name == "__init__.py":
                    names = [n for n, b in zip(names, bound) if b in read]
                    if not names:
                        continue
                reached.add(module)
                reached.update(_origin(module, n) for n in names)
    unreached = sorted(modules - reached)
    assert not unreached, unreached


#: A package is every directory of ``src`` with an ``__init__.py``.
SRC_PACKAGES = sorted(
    ".".join(p.parent.relative_to(SRC).parts) for p in SRC.rglob("__init__.py")
)


def _through_packages(tree, importer, is_init):
    """``(package, name)`` for every name *tree* takes from a package namespace.

    Both forms count: ``from repro.net import run_live`` and
    ``import repro.net as net`` followed by ``net.run_live``.  In a package
    ``__init__`` an import counts only if the ``__init__`` reads the name
    itself, so a re-export is not its own caller.
    """
    package = importer if is_init else importer.rpartition(".")[0]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bound = {}  # local name -> the package or module it stands for
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            module = _absolute(node, package)
            for alias in node.names:
                local = alias.asname or alias.name
                if f"{module}.{alias.name}" in SRC_PACKAGES:
                    bound[local] = f"{module}.{alias.name}"
                elif module in SRC_PACKAGES and (local in read or not is_init):
                    found.add((module, alias.name))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            dotted = bound[node.id].split(".") + chain[::-1]
            for cut in range(len(dotted) - 1, 0, -1):
                if ".".join(dotted[:cut]) in SRC_PACKAGES:
                    found.add((".".join(dotted[:cut]), dotted[cut]))
                    break
    return found


def _caller_trees():
    """``(tree, importer, is_init)`` for every caller outside ``tests/``.

    The code under ``src``, ``benchmarks``, ``examples`` and ``tools``, and
    every ``python`` block of the README and ``docs/``.
    """
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            rel = path.relative_to(SRC if top == "src" else REPO_ROOT)
            importer = ".".join(rel.with_suffix("").parts)
            is_init = path.name == "__init__.py"
            if is_init:
                importer = importer.rpartition(".")[0]
            yield ast.parse(path.read_text(encoding="utf-8")), importer, is_init
    for doc in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        for block in re.findall(r"```python\n(.*?)```", doc.read_text(encoding="utf-8"), re.S):
            yield ast.parse(block), "README", False


def test_every_package_export_is_imported_through_its_package_outside_tests():
    # A name a package re-exports is public API only if a caller outside
    # tests/ takes it from the package; tests import from the defining module.
    used = set()
    for tree, importer, is_init in _caller_trees():
        used |= _through_packages(tree, importer, is_init)
    unused = sorted(
        f"{package}.{name}"
        for package in SRC_PACKAGES
        for name in getattr(importlib.import_module(package), "__all__", [])
        if (package, name) not in used
    )
    assert unused == []


def test_every_ace_config_field_is_set_outside_tests():
    # A field no caller sets is a knob nothing turns: a constant instead.
    # Counts keyword arguments of AceConfig(...) and of replace(...).
    fields = {f.name for f in dataclasses.fields(AceConfig)}
    set_by_callers = set()
    for tree, _importer, _is_init in _caller_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if callee in ("AceConfig", "replace"):
                set_by_callers.update(k.arg for k in node.keywords if k.arg in fields)
    assert sorted(fields - set_by_callers) == []


def test_top_level_all_resolves_without_duplicates():
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

    def test_rule_codes_named_are_registered(self):
        # A deleted lint rule's code in a doc would read as a live check.
        texts = {str(doc.relative_to(REPO_ROOT)): doc.read_text(encoding="utf-8")
                 for doc in DOCS}
        texts["repro.sanitize docstring"] = repro.sanitize.__doc__
        registered = set(rules_by_code())
        unknown = {
            f"{where}: {code}"
            for where, text in texts.items()
            for code in re.findall(r"REP0\d\d", text)
            if code not in registered
        }
        assert sorted(unknown) == []


def _quickstart(where):
    """The quickstart code block of the README or of ``repro.__doc__``."""
    if where == "README.md":
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        return text.split("## Quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = repro.__doc__.split("Quickstart", 1)[1].split("::\n", 1)[1].splitlines()
    block = []
    for line in lines:
        if line.strip() and not line.startswith("    "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


class TestDocumentedSurfaceRuns:
    """What the README, the package docstring and ``examples/`` promise.

    Nothing else in tier-1 imports the examples, so a trimmed export they
    use would otherwise break them silently.
    """

    @pytest.mark.parametrize(
        "path", sorted((REPO_ROOT / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_example_imports(self, path):
        # Each example runs only under its __main__ guard.
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)

    @pytest.mark.parametrize("where", ["README.md", "repro.__doc__"])
    def test_quickstart_runs(self, where):
        code = _quickstart(where)
        assert "from repro import" in code
        exec(compile(code, where, "exec"), {})
