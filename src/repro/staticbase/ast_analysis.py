"""Best-effort static call-graph extraction from real workspace sources.

This is the "static analysis on actual code" half of the FaaSLight
baseline: it parses every module in a workspace, discovers function
definitions, and extracts call edges it can resolve —

* local calls (``helper()`` within the same module),
* attribute-chain calls rooted at an imported package
  (``sligraph.drawing.colors.render()``), resolved against the workspace's
  real module tree, and
* the generated runtime's dynamic dispatch
  (``_rt.resolve('lib.mod').fn()``), which is statically evident because
  the module path is a string literal.

Reachability then runs from the handler's entry functions.  Like any real
static analyzer it is *sound for our generated code shape* and
conservative elsewhere: edges it cannot resolve are ignored, which only
makes the baseline keep more code (never break it).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import SpecError
from repro.faas.container import HANDLER_MODULE
from repro.plan import DeferralPlan
from repro.staticbase.planner import dead_subtree_plan


@dataclass
class CallGraph:
    """Functions and resolved call edges of one workspace."""

    modules: set[str] = field(default_factory=set)  # dotted module names
    functions: set[str] = field(default_factory=set)  # "module:function"
    edges: dict[str, set[str]] = field(default_factory=dict)
    module_imports: dict[str, set[str]] = field(default_factory=dict)
    # module -> dotted modules it imports at top level

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def callees(self, function: str) -> set[str]:
        return self.edges.get(function, set())

    def reachable_from(self, roots: set[str]) -> frozenset[str]:
        seen: set[str] = set()
        frontier = [root for root in roots if root in self.functions]
        while frontier:
            function = frontier.pop()
            if function in seen:
                continue
            seen.add(function)
            frontier.extend(
                callee for callee in self.callees(function) if callee in self.functions
            )
        return frozenset(seen)


def _module_name_for(path: Path, workspace: Path) -> str | None:
    relative = path.relative_to(workspace)
    parts = list(relative.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][: -len(".py")]
    if not parts:
        return None
    return ".".join(parts)


class _ModuleVisitor(ast.NodeVisitor):
    """Extracts defs, imports and resolvable call edges from one module."""

    def __init__(self, module: str, graph: CallGraph) -> None:
        self.module = module
        self.graph = graph
        self._current: list[str] = []
        self._name_to_module: dict[str, str] = {}
        self._local_functions: set[str] = set()

    # -- imports ------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            root = alias.name if alias.asname else alias.name.partition(".")[0]
            self._name_to_module[bound] = root
            self.graph.module_imports.setdefault(self.module, set()).add(alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                self._name_to_module[bound] = f"{node.module}.{alias.name}"
            self.graph.module_imports.setdefault(self.module, set()).add(node.module)
        self.generic_visit(node)

    # -- definitions ------------------------------------------------------------

    def _visit_def(self, node) -> None:
        qualified = f"{self.module}:{node.name}"
        if not self._current:  # record top-level functions only
            self.graph.functions.add(qualified)
            self._local_functions.add(node.name)
        self._current.append(qualified if not self._current else self._current[0])
        self.generic_visit(node)
        self._current.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    # -- calls ---------------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        caller = self._current[0] if self._current else f"{self.module}:<module>"
        callee = self._resolve_call(node)
        if callee is not None:
            self.graph.add_edge(caller, callee)
        self.generic_visit(node)

    def _resolve_call(self, node: ast.Call) -> str | None:
        func = node.func
        # Pattern 1: local call f(...)
        if isinstance(func, ast.Name):
            return f"{self.module}:{func.id}"
        if not isinstance(func, ast.Attribute):
            return None
        # Pattern 2: _rt.resolve('lib.mod').fn(...)
        inner = func.value
        if (
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Attribute)
            and inner.func.attr == "resolve"
            and len(inner.args) == 1
            and isinstance(inner.args[0], ast.Constant)
            and isinstance(inner.args[0].value, str)
        ):
            return f"{inner.args[0].value}:{func.attr}"
        # Pattern 3: attribute chain rooted at an imported name.
        chain: list[str] = [func.attr]
        current = inner
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        chain.append(current.id)
        chain.reverse()  # [root, ..., attr, fn]
        root = self._name_to_module.get(chain[0])
        if root is None:
            return None
        dotted_parts = root.split(".") + chain[1:-1]
        function = chain[-1]
        # The longest prefix that is a real module wins; remaining parts
        # (if any) are object attributes we cannot resolve statically.
        for end in range(len(dotted_parts), 0, -1):
            candidate = ".".join(dotted_parts[:end])
            if candidate in self.graph.modules:
                if end == len(dotted_parts):
                    return f"{candidate}:{function}"
                return None
        return None


def extract_call_graph(workspace: str | Path) -> CallGraph:
    """Parse every module in a workspace into a :class:`CallGraph`."""
    workspace_path = Path(workspace).resolve()
    if not workspace_path.is_dir():
        raise SpecError(f"workspace does not exist: {workspace_path}")
    graph = CallGraph()
    paths: list[tuple[Path, str]] = []
    for path in sorted(workspace_path.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        module = _module_name_for(path, workspace_path)
        if module is None or module.startswith("_slimstart_runtime"):
            continue
        graph.modules.add(module)
        paths.append((path, module))
    for path, module in paths:  # second pass: modules set is complete
        tree = ast.parse(path.read_text())
        _ModuleVisitor(module, graph).visit(tree)
    return graph


def analyze_workspace(
    workspace: str | Path,
    entries: tuple[str, ...],
) -> tuple[DeferralPlan, CallGraph, frozenset[str]]:
    """FaaSLight on a real workspace: plan + graph + used modules."""
    graph = extract_call_graph(workspace)
    roots = {f"{HANDLER_MODULE}:{entry}" for entry in entries}
    reachable = graph.reachable_from(roots)
    used_modules = frozenset(
        function.rpartition(":")[0]
        for function in reachable
        if function.rpartition(":")[0] != HANDLER_MODULE
    )
    handler_imports = tuple(
        sorted(graph.module_imports.get(HANDLER_MODULE, set()))
    )
    loaded = {module for module in graph.modules if module != HANDLER_MODULE}
    app_name = Path(workspace).name
    plan = dead_subtree_plan(
        app=app_name,
        loaded_modules=loaded,
        used_modules=used_modules,
        handler_imports=handler_imports,
    )
    return plan, graph, used_modules
