"""Every module under ``src/repro`` is reached, and every public name in it is used.

Two checks per module, both by ``ast`` alone (nothing is imported):

* **Reached.** A walk of imports from ``repro.cli`` and from every
  ``.py`` file in ``bench/``, ``benchmarks/`` and ``examples/`` reaches
  the module.  A name a package ``__init__`` re-exports is followed to
  the module that defines it, so a re-export alone reaches nothing.
* **Used.** Every public ``def`` and ``class`` of the module (methods
  included) appears as an ``ast.Name`` id or an ``ast.Attribute`` attr
  somewhere outside ``tests/`` and outside its own definition.  Imports,
  ``__all__`` strings and definitions do not count.

The check works by name, so it errs toward keeping code: a method is
"used" when any object anywhere has an attribute of that name.  What
fails it either goes, moves under ``tests/`` (a test oracle), or gets
an entry in ``ALLOWED`` with its reason.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("bench", "benchmarks", "examples")

#: ``module`` or ``module:Qualified.name`` -> why it stays with no caller
#: outside ``tests/``.
ALLOWED: dict[str, str] = {
    "repro.faas.cluster:ClusterPlatform.scaling_state":
        "test seam: the only view of a fleet's policy state (panic episodes), "
        "which the reference engine and the autoscale tests compare",
    "repro.faas.region:RegionFederation.dropped_counts":
        "test seam: the only view of the requests a routing policy dropped",
    "repro.synthlib.spec:LibrarySpec.subtree":
        "test seam: the only view of the subtree index subtree_init_cost_ms "
        "sums over, checked against tests/synthlib/oracles.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@lru_cache(maxsize=None)
def _modules() -> dict[str, tuple[Path, ast.Module]]:
    return {
        _module_name(path): (path, ast.parse(path.read_text(), str(path)))
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def _is_package(module: str) -> bool:
    return _modules()[module][0].name == "__init__.py"


def _absolute(module: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    if module not in _modules():  # a caller file's relative import
        return ""
    base = module.split(".")
    if not _is_package(module):
        base = base[:-1]
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _reexports(package: str) -> dict[str, str]:
    """``name -> module`` for each ``from .x import name`` in a package ``__init__``."""
    found = {}
    for node in ast.walk(_modules()[package][1]):
        if isinstance(node, ast.ImportFrom):
            source = _absolute(package, node)
            for alias in node.names:
                found[alias.asname or alias.name] = source
    return found


def _resolve(module: str, name: str, seen=()) -> str | None:
    """The module that ``from module import name`` lands in, or ``None``."""
    if f"{module}.{name}" in _modules():
        return f"{module}.{name}"
    if module not in _modules() or not _is_package(module) or module in seen:
        return module if module in _modules() else None
    source = _reexports(module).get(name)
    if source is None or source not in _modules():
        return module
    return _resolve(source, name, (*seen, module)) or module


def _imports(tree: ast.AST, module: str) -> set[str]:
    """The ``repro`` modules an ``import`` statement anywhere in ``tree`` lands in."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                found.update(
                    ".".join(parts[:n]) for n in range(1, len(parts) + 1))
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            if source.split(".")[0] != "repro":
                continue
            parts = source.split(".")
            found.update(".".join(parts[:n]) for n in range(1, len(parts)))
            for alias in node.names:
                found.add(_resolve(source, alias.name) or source)
    return {name for name in found if name in _modules()}


def _caller_files() -> list[Path]:
    return [path for folder in CALLER_DIRS for path in sorted((ROOT / folder).rglob("*.py"))]


@lru_cache(maxsize=None)
def reached() -> frozenset[str]:
    todo = {"repro.cli"}
    for path in _caller_files():
        todo |= _imports(ast.parse(path.read_text()), "")
    seen: set[str] = set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        tree = _modules()[module][1]
        if _is_package(module):
            # Only what the package does itself, not what it re-exports.
            tree = ast.Module(
                body=[node for node in tree.body if not isinstance(node, ast.ImportFrom)],
                type_ignores=[])
        todo |= _imports(tree, module) - seen
    return frozenset(seen)


def _definitions(tree: ast.Module, prefix: str = ""):
    """``(qualified name, node)`` for each public def / class, methods included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield prefix + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, f"{prefix}{node.name}.")


@lru_cache(maxsize=None)
def _uses() -> dict[str, list[tuple[Path, int]]]:
    """Every ``Name`` id / ``Attribute`` attr outside ``tests/`` -> where it occurs."""
    files = [path for path, _ in _modules().values()] + _caller_files()
    found: dict[str, list[tuple[Path, int]]] = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                found.setdefault(node.attr, []).append((path, node.lineno))
    return found


def unused(module: str) -> list[str]:
    path, tree = _modules()[module]
    missing = []
    for name, node in _definitions(tree):
        own = range(node.lineno, node.end_lineno + 1)
        if not any(where != path or line not in own
                   for where, line in _uses().get(node.name, ())):
            missing.append(name)
    return missing


@pytest.mark.parametrize("module", sorted(_modules()))
def test_an_entry_point_reaches_the_module(module):
    if module not in ALLOWED:
        assert module in reached(), f"no entry point imports {module}"


@pytest.mark.parametrize("module", sorted(_modules()))
def test_every_public_name_has_a_caller_outside_tests(module):
    if module not in ALLOWED:
        missing = [name for name in unused(module) if f"{module}:{name}" not in ALLOWED]
        assert not missing, f"only tests use {module}: {', '.join(missing)}"


def test_every_allowlist_entry_is_still_needed():
    stale = []
    for key in ALLOWED:
        module, _, name = key.partition(":")
        if module not in _modules():
            stale.append(key)
        elif not name and module in reached() and not unused(module):
            stale.append(key)
        elif name and name not in unused(module):
            stale.append(key)
    assert not stale, f"allowlist entries with a caller now: {stale}"
