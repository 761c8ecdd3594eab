"""Every module under ``src/repro`` is reached, every public name in it is
used, and every piece of state it keeps is read.

Three checks per module, all by ``ast`` alone (nothing is imported):

* **Reached.** A walk of imports from ``repro.cli`` and from every
  ``.py`` file in ``bench/``, ``benchmarks/`` and ``examples/`` reaches
  the module.  A name a package ``__init__`` re-exports is followed to
  the module that defines it, so a re-export alone reaches nothing.
* **Used.** Every public ``def`` and ``class`` of the module (methods
  included) appears as an ``ast.Name`` id or an ``ast.Attribute`` attr
  somewhere outside ``tests/`` and outside its own definition.  Imports,
  ``__all__`` strings and definitions do not count.
* **Read.** Every ``__slots__`` name, and every ``self.x`` an
  ``__init__`` sets, is loaded as an ``ast.Attribute`` attr somewhere in
  ``src/`` or the caller folders.  Four kinds of load do not count: an
  ``AugAssign`` target (``x += 1`` stores), the value of an assignment
  to an attribute of the same name (``x = max(x, ...)``), anything
  inside the checkpoint and wire serialisers (``SERIALISERS``: state
  they alone read is kept only to be written out and back), and tests.

The checks work by name, so they err toward keeping code: a method is
"used", and a field "read", when any object anywhere has an attribute
of that name.  Two blind spots follow.  A field whose name some other
object's attribute shares is never flagged: the fleet counters
``arrivals`` and ``cold_starts`` hid behind ``window.arrivals`` and
``w.cold_starts`` in ``metrics/windows.py``.  A field read only to
guard its own first write (``if x is None: x = at``) counts as read:
that was the fleet's ``first_arrival``.  All three were deleted by hand
with the six this walk found.  What fails a check either goes, moves
under ``tests/`` (a test oracle), or gets an entry in ``ALLOWED`` with
its reason.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("bench", "benchmarks", "examples")

#: ``module``, ``module:Qualified.name`` or ``module:Class.field`` -> why
#: it stays with no caller (or reader) outside ``tests/``.
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


#: Checkpoint and wire serialisers (the platform's, a scaling policy's,
#: the accumulator's): a load inside one is a field being written out or
#: back, not read.
SERIALISERS = frozenset({
    "platform_state", "restore_platform", "export_state", "restore_state",
    "state", "absorb", "to_wire", "from_wire",
})


def _slot_names(node: ast.ClassDef) -> list[str]:
    for statement in node.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in statement.targets
        ):
            value = statement.value
            items = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
            return [item.value for item in items if isinstance(item, ast.Constant)]
    return []


def _init_fields(node: ast.ClassDef) -> list[str]:
    """The ``self.x`` attributes the class's own ``__init__`` stores."""
    for statement in node.body:
        if isinstance(statement, ast.FunctionDef) and statement.name == "__init__":
            own = statement.args.args[0].arg
            return [
                target.attr
                for target in ast.walk(statement)
                if isinstance(target, ast.Attribute)
                and isinstance(target.ctx, ast.Store)
                and isinstance(target.value, ast.Name)
                and target.value.id == own
            ]
    return []


def _state(module: str) -> list[tuple[str, str]]:
    """``(Class, field)`` for each slot and ``__init__`` field of the module."""
    found = []
    for node in ast.walk(_modules()[module][1]):
        if isinstance(node, ast.ClassDef):
            for name in dict.fromkeys(_slot_names(node) + _init_fields(node)):
                found.append((node.name, name))
    return found


def _reads(tree: ast.AST, found: set[str], skip: frozenset = frozenset()) -> None:
    """Add each attribute ``tree`` loads to ``found``, except loads of a
    name in ``skip`` (the attributes the enclosing assignment stores)."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)) and tree.name in SERIALISERS:
        return
    if isinstance(tree, (ast.Assign, ast.AnnAssign)):
        targets = tree.targets if isinstance(tree, ast.Assign) else [tree.target]
        stored = frozenset(
            node.attr for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        )
        for target in targets:
            _reads(target, found, skip)
        if tree.value is not None:
            _reads(tree.value, found, skip | stored)
        return
    if isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        if tree.attr not in skip:
            found.add(tree.attr)
    for child in ast.iter_child_nodes(tree):
        _reads(child, found, skip)


@lru_cache(maxsize=None)
def _read_names() -> frozenset[str]:
    """Every attribute name loaded outside ``tests/``, by the rules above."""
    found: set[str] = set()
    for path in [path for path, _ in _modules().values()] + _caller_files():
        _reads(ast.parse(path.read_text()), found)
    return frozenset(found)


def unread(module: str) -> list[str]:
    return [
        f"{owner}.{name}"
        for owner, name in _state(module)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in _read_names()
    ]


@pytest.mark.parametrize("module", sorted(_modules()))
def test_every_kept_field_is_read_outside_tests(module):
    missing = [name for name in unread(module) if f"{module}:{name}" not in ALLOWED]
    assert not missing, f"{module} keeps state nothing reads: {', '.join(missing)}"


def test_every_allowlist_entry_is_still_needed():
    stale = []
    for key in ALLOWED:
        module, _, name = key.partition(":")
        if module not in _modules():
            stale.append(key)
        elif name in {f"{owner}.{field}" for owner, field in _state(module)}:
            if name not in unread(module):
                stale.append(key)
        elif not name and module in reached() and not unused(module):
            stale.append(key)
        elif name and name not in unused(module):
            stale.append(key)
    assert not stale, f"allowlist entries with a caller now: {stale}"
