"""Import time recorder: measures per-module initialization cost.

Installs a meta-path finder that wraps the loader of every monitored module
with a timing shim, producing an :class:`ImportProfile` with self and
cumulative times plus the import-parent relationship (who triggered whom) —
the data behind the paper's hierarchical initialization breakdown (Fig. 6,
Eqs. 1-3).  The recorder is the "Import Time Recorder" box of Fig. 7.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import sys
import time
from typing import Any, Iterable

from repro.common.errors import ProfilingError
from repro.core.profiles import ImportProfile, ImportRecord


class _TimingLoader(importlib.abc.Loader):
    """Delegating loader that times ``exec_module``."""

    def __init__(self, inner: Any, recorder: "ImportTimeRecorder", name: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name = name

    def create_module(self, spec):  # noqa: D102 - importlib protocol
        return self._inner.create_module(spec)

    def exec_module(self, module):  # noqa: D102 - importlib protocol
        self._recorder._enter(self._name)
        start = time.perf_counter()
        try:
            self._inner.exec_module(module)
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self._recorder._exit(self._name, elapsed_ms)

    def __getattr__(self, attribute: str) -> Any:
        # Preserve loader capabilities (get_code, resource readers, ...).
        return getattr(self._inner, attribute)


class _RecorderFinder(importlib.abc.MetaPathFinder):
    def __init__(self, recorder: "ImportTimeRecorder") -> None:
        self._recorder = recorder
        self._resolving: set[str] = set()

    def find_spec(self, fullname, path=None, target=None):  # noqa: D102
        if fullname in self._resolving:
            return None
        if not self._recorder.monitors(fullname):
            return None
        self._resolving.add(fullname)
        try:
            spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        finally:
            self._resolving.discard(fullname)
        if spec is None or spec.loader is None:
            return None
        spec.loader = _TimingLoader(spec.loader, self._recorder, fullname)
        return spec


class ImportTimeRecorder:
    """Context manager measuring monitored modules' import times.

    ``prefixes`` are top-level module names to monitor (library names plus
    the handler module); everything else imports untouched.  Usage::

        with ImportTimeRecorder(["sligraph", "handler"]) as recorder:
            importlib.import_module("handler")
        profile = recorder.profile()
    """

    def __init__(self, prefixes: Iterable[str]) -> None:
        self._prefixes = tuple(dict.fromkeys(prefixes))
        if not self._prefixes:
            raise ProfilingError("import recorder needs at least one prefix")
        self._finder = _RecorderFinder(self)
        self._stack: list[list] = []  # [name, child_cumulative_ms]
        self._records: dict[str, ImportRecord] = {}
        self._order = 0
        self._installed = False

    def monitors(self, fullname: str) -> bool:
        top = fullname.partition(".")[0]
        return top in self._prefixes

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> "ImportTimeRecorder":
        if self._installed:
            raise ProfilingError("import recorder already installed")
        sys.meta_path.insert(0, self._finder)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        try:
            sys.meta_path.remove(self._finder)
        except ValueError:
            pass
        self._installed = False

    def __enter__(self) -> "ImportTimeRecorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- loader callbacks ------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, 0.0])

    def _exit(self, name: str, cumulative_ms: float) -> None:
        entry = self._stack.pop()
        if entry[0] != name:
            # Imports are strictly nested; a mismatch means our bookkeeping
            # broke (e.g. an exception unwound through several imports).
            self._stack.clear()
            raise ProfilingError(
                f"import nesting mismatch: expected {entry[0]!r}, got {name!r}"
            )
        child_ms = entry[1]
        self_ms = max(0.0, cumulative_ms - child_ms)
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += cumulative_ms
        if name not in self._records:
            self._order += 1
            self._records[name] = ImportRecord(
                module=name,
                self_ms=self_ms,
                cumulative_ms=cumulative_ms,
                parent=parent,
                order=self._order,
            )

    # -- results -----------------------------------------------------------------

    def profile(self) -> ImportProfile:
        return ImportProfile(self._records.values())
