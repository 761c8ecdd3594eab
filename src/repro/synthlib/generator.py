"""Materialize an :class:`~repro.synthlib.spec.Ecosystem` as real packages.

The generated code is plain, dependency-free Python.  Importing a generated
module really burns the specified CPU time with an *inline* busy loop, so a
sampling profiler attributes the work to the generated file (not to a shared
runtime helper) — this is what lets SLIMSTART's real profiler produce the
same attribution on synthetic libraries that it would on PyPI ones.

Layout of a materialized workspace::

    <workspace>/
      _slimstart_runtime.py      # registry: loaded modules, calls, memory
      <lib>/__init__.py          # root module ("" in the spec)
      <lib>/<pkg>/__init__.py    # package modules
      <lib>/<pkg>/<mod>.py       # leaf modules

Generated intra-/inter-library imports are single-line ``import a.b.c``
statements, one per line, which is the exact shape the lazy-loading
rewriters in :mod:`repro.core.optimizer` and :mod:`repro.core.libstubber`
transform.
"""

from __future__ import annotations

from pathlib import Path

from repro.common.errors import SpecError
from repro.synthlib.spec import Ecosystem, LibrarySpec, ModuleSpec

RUNTIME_MODULE_NAME = "_slimstart_runtime"

_RUNTIME_TEMPLATE = '''"""Workspace runtime registry for generated synthetic libraries.

Auto-generated; tracks which synthetic modules are loaded, how much memory
they account for, and how often generated functions run.  A fresh import of
this module (after a container purge) starts with an empty registry, which
is exactly the cold-start semantics the testbed needs.
"""

import os as _os
import time as _time

COST_SCALE = float(_os.environ.get("SLIMSTART_COST_SCALE", "{scale}"))

_loaded = {{}}
_load_order = []
_calls = {{}}
_seq = 0


def module_begin(dotted, init_cost_ms, memory_kb):
    """Record that a synthetic module's top-level code started executing."""
    global _seq
    _seq += 1
    _loaded[dotted] = {{
        "init_cost_ms": init_cost_ms,
        "memory_kb": memory_kb,
        "seq": _seq,
        "wall_at": _time.perf_counter(),
    }}
    _load_order.append(dotted)


def function_enter(dotted, function):
    """Record one invocation of ``dotted:function``."""
    key = dotted + ":" + function
    _calls[key] = _calls.get(key, 0) + 1


def resolve(dotted):
    """Walk package attributes to reach ``dotted``, honouring lazy stubs.

    Unlike ``importlib.import_module(dotted)``, attribute access triggers a
    package's PEP 562 ``__getattr__`` — the mechanism deferred imports use —
    so resolving a lazily-loaded submodule loads it at this call site,
    mirroring first-use loading in an optimized application.
    """
    import importlib

    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        obj = getattr(obj, part)
    return obj


def loaded_modules():
    """Snapshot of loaded synthetic modules keyed by dotted path."""
    return dict(_loaded)


def load_order():
    return list(_load_order)


def call_counts():
    return dict(_calls)


def memory_kb():
    """Total memory attributed to currently loaded synthetic modules."""
    return sum(entry["memory_kb"] for entry in _loaded.values())


def reset():
    """Clear the registry (containers call this between invocations)."""
    _loaded.clear()
    _load_order.clear()
    _calls.clear()
'''


def _burn_block(cost_ms: float, indent: str) -> list[str]:
    """Inline busy-wait lines burning ``cost_ms * COST_SCALE`` milliseconds."""
    if cost_ms <= 0:
        return []
    seconds = cost_ms / 1000.0
    return [
        f"{indent}_burn_until = _time.perf_counter() + {seconds!r} * _rt.COST_SCALE",
        f"{indent}while _time.perf_counter() < _burn_until:",
        f"{indent}    pass",
    ]


def _module_source(library: LibrarySpec, module: ModuleSpec) -> str:
    dotted = (
        f"{library.name}.{module.name}" if module.name else library.name
    )
    lines = [
        f'"""Auto-generated synthetic module {dotted} ({library.category})."""',
        "",
        "import time as _time",
        "",
        f"import {RUNTIME_MODULE_NAME} as _rt",
        "",
        f"_rt.module_begin({dotted!r}, {module.init_cost_ms!r}, {module.memory_kb!r})",
    ]
    burn = _burn_block(module.init_cost_ms, indent="")
    if burn:
        lines.extend(burn)
        lines.append("del _burn_until")
    for target in module.imports:
        lines.append(f"import {library.name}.{target}")
    for target in module.external_imports:
        lines.append(f"import {target}")
    for function in module.functions:
        lines.append("")
        lines.append("")
        lines.append(f"def {function.name}(*args, **kwargs):")
        lines.append(
            f'    """Synthetic function {dotted}:{function.name} '
            f'(self cost {function.self_cost_ms} ms)."""'
        )
        lines.append(f"    _rt.function_enter({dotted!r}, {function.name!r})")
        lines.extend(_burn_block(function.self_cost_ms, indent="    "))
        lines.append("    _results = []")
        for call in function.calls:
            target_module, _, target_function = call.partition(":")
            lines.append(
                f"    _results.append(_rt.resolve({target_module!r})"
                f".{target_function}())"
            )
        lines.append(f"    return ({dotted!r}, {function.name!r}, _results)")
    lines.append("")
    return "\n".join(lines)


def _module_path(library: LibrarySpec, module: ModuleSpec, root: Path) -> Path:
    base = root / library.name
    if module.name == "":
        return base / "__init__.py"
    parts = module.name.split(".")
    if library.is_package(module.name):
        return base.joinpath(*parts) / "__init__.py"
    return base.joinpath(*parts[:-1]) / f"{parts[-1]}.py"


def materialize_library(library: LibrarySpec, workspace: str | Path) -> Path:
    """Write one library's package tree under ``workspace``; returns its dir."""
    root = Path(workspace)
    for module in library.modules:
        path = _module_path(library, module, root)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_module_source(library, module))
    return root / library.name


def materialize_ecosystem(
    ecosystem: Ecosystem,
    workspace: str | Path,
    scale: float = 1.0,
) -> Path:
    """Write every library plus the runtime registry; returns the workspace.

    ``scale`` becomes the default ``COST_SCALE`` baked into the runtime
    module; the ``SLIMSTART_COST_SCALE`` environment variable overrides it
    at import time.  Every ``.pyc`` file is precompiled so the first
    measured cold start is not inflated by one-off compilation cost.
    """
    if scale <= 0:
        raise SpecError(f"scale must be positive: {scale}")
    ecosystem.validate()
    root = Path(workspace)
    root.mkdir(parents=True, exist_ok=True)
    runtime_path = root / f"{RUNTIME_MODULE_NAME}.py"
    runtime_path.write_text(_RUNTIME_TEMPLATE.format(scale=repr(scale)))
    for name in ecosystem.library_names():
        materialize_library(ecosystem.library(name), root)
    import compileall

    compileall.compile_dir(str(root), quiet=2, workers=0)
    return root
