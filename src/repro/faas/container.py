"""Import-isolated containers for the really-executing testbed.

A "container" here is an isolated import universe inside the current
process: the workspace directory (generated libraries + handler) is mounted
at the front of ``sys.path`` and every module previously loaded from *any*
mounted workspace is purged from ``sys.modules`` before a cold start, so
the handler's global imports really re-execute — burning real CPU — exactly
like a fresh Lambda sandbox re-imports everything.

Single-active-workspace constraint: because ``sys.modules`` is process
global, only the most recently cold-started container is live.  Cold
starting app B strands app A's warm container (its lazy imports would
resolve against B's workspace); invoke ``force_cold`` when switching back.
The virtual-time simulators have no such constraint — ``SimPlatform``
books any number of warm containers per app, and the cluster layer
(:mod:`repro.faas.cluster`) runs whole fleets of them concurrently.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path
from typing import Any

from repro.common.errors import DeploymentError

#: The module every workspace's entry functions live in (``handler.py``).
HANDLER_MODULE = "handler"


class ModuleSandbox:
    """Process-wide registry of mounted synthetic workspaces.

    Class-level on purpose: ``sys.modules``/``sys.path`` are process-global,
    so isolation bookkeeping must be too.
    """

    _mounted: list[str] = []

    @classmethod
    def mount(cls, workspace: str | Path) -> None:
        """Put ``workspace`` at the front of ``sys.path`` (moving if needed)."""
        path = str(Path(workspace).resolve())
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
        if path not in cls._mounted:
            cls._mounted.append(path)
        importlib.invalidate_caches()

    @classmethod
    def unmount(cls, workspace: str | Path) -> None:
        path = str(Path(workspace).resolve())
        # Purge while the workspace is still registered — otherwise its
        # modules (e.g. a stale ``handler``) would survive in sys.modules
        # and shadow the next workspace's modules of the same name.
        cls.purge()
        if path in sys.path:
            sys.path.remove(path)
        if path in cls._mounted:
            cls._mounted.remove(path)

    @classmethod
    def purge(cls) -> int:
        """Remove every module loaded from any mounted workspace.

        Returns the number of modules removed.  This is the "container
        teardown": after a purge, importing the handler re-executes all
        synthetic library code from scratch.
        """
        removed = 0
        for name, module in list(sys.modules.items()):
            file = getattr(module, "__file__", None)
            if not file:
                continue
            if any(file.startswith(prefix) for prefix in cls._mounted):
                del sys.modules[name]
                removed += 1
        return removed


class RealContainer:
    """One cold-started function instance executing real handler code."""

    #: Runtime memory before any synthetic module loads.
    BASE_MEMORY_MB = 38.0

    def __init__(self, container_id: str, workspace: Path) -> None:
        self.container_id = container_id
        self.workspace = workspace
        self.handler: Any = None
        self.runtime: Any = None
        self.init_ms = 0.0

    def cold_start(self) -> float:
        """Purge, mount, and import the handler; returns init time in ms."""
        ModuleSandbox.purge()
        ModuleSandbox.mount(self.workspace)
        start = time.perf_counter()
        try:
            self.handler = importlib.import_module(HANDLER_MODULE)
        except ImportError as error:
            raise DeploymentError(
                f"container {self.container_id}: cannot import handler "
                f"{HANDLER_MODULE!r} from {self.workspace}: {error}"
            ) from error
        self.init_ms = (time.perf_counter() - start) * 1000.0
        self.runtime = sys.modules.get("_slimstart_runtime")
        return self.init_ms

    def invoke(self, entry: str, payload: Any = None) -> tuple[Any, float]:
        """Call one entry function; returns ``(result, exec_ms)``."""
        if self.handler is None:
            raise DeploymentError(f"container {self.container_id} not initialized")
        try:
            function = getattr(self.handler, entry)
        except AttributeError:
            raise DeploymentError(
                f"handler {HANDLER_MODULE!r} has no entry {entry!r}"
            ) from None
        start = time.perf_counter()
        result = function(payload)
        exec_ms = (time.perf_counter() - start) * 1000.0
        return result, exec_ms

    def memory_mb(self) -> float:
        """Container memory: base runtime + loaded synthetic modules."""
        loaded_kb = self.runtime.memory_kb() if self.runtime is not None else 0.0
        return self.BASE_MEMORY_MB + loaded_kb / 1024.0
