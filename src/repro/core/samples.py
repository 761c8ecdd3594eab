"""Sample records and library attribution.

A :class:`Sample` is one observation of the application's call stack, root
(handler) first.  Samples carry a ``kind``: ``"runtime"`` for ordinary
execution and ``"init"`` for stacks caught inside module top-level code —
the distinction §III (TC-2) requires so initialization activity never
inflates a library's runtime-utilization metric.

Attribution maps stack frames (tuples: every CCT edge is a dict keyed by
:class:`Frame`, hashed in C) to synthetic-library modules via file paths,
which works identically for frames captured from real execution (files live
under a workspace directory) and frames synthesized by the simulator (files
live under the virtual ``<sim>`` prefix).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

RUNTIME = "runtime"
INIT = "init"

#: Function name CPython gives to module top-level code.
MODULE_TOPLEVEL = "<module>"

#: Substrings identifying interpreter import machinery frames.
_IMPORT_MACHINERY_MARKERS = ("importlib", "<frozen importlib")


class Frame(NamedTuple):
    """One stack frame: file path, function name, line number (a tuple)."""

    file: str
    function: str
    line: int = 0


class _SampleFields(NamedTuple):
    path: tuple[Frame, ...]
    weight: float = 1.0
    kind: str = RUNTIME


class Sample(_SampleFields):
    """One stack observation, root-first, with a statistical weight.

    Real profilers emit weight-1 samples; the simulator emits fractional
    expected weights (self-time divided by the sampling interval), which
    makes simulated profiles deterministic instead of merely unbiased.

    A tuple whose checks run in ``__new__``; ``_make`` and ``_replace`` call it.
    """

    __slots__ = ()

    def __new__(cls, path, weight=1.0, kind=RUNTIME):
        if not path:
            raise ValueError("sample must contain at least one frame")
        if weight <= 0:
            raise ValueError(f"sample weight must be positive: {weight}")
        if kind not in (RUNTIME, INIT):
            raise ValueError(f"unknown sample kind: {kind!r}")
        return tuple.__new__(cls, (path, weight, kind))

    @classmethod
    def _make(cls, values):
        return cls(*values)


def is_import_machinery(frame: Frame) -> bool:
    """True for CPython's importlib bootstrap frames."""
    return any(marker in frame.file for marker in _IMPORT_MACHINERY_MARKERS)


def classify_stack(path: tuple[Frame, ...]) -> tuple[tuple[Frame, ...], str]:
    """Clean a raw captured stack and classify it as init or runtime.

    Drops interpreter import-machinery frames (they carry no attribution
    value) and returns ``kind=INIT`` when any such frame was present: in
    CPython every executing import statement has importlib bootstrap
    frames on the stack, so their presence is exactly "module top-level
    code is running below an import" (§IV-A: samples originating from
    ``__init__``).  Merely *seeing* a ``<module>`` frame is not enough —
    process runners (runpy, pytest's ``__main__``) put module-level frames
    at the bottom of every stack.
    """
    cleaned = tuple(frame for frame in path if not is_import_machinery(frame))
    had_machinery = len(cleaned) != len(path)
    kind = INIT if had_machinery else RUNTIME
    if not cleaned:
        cleaned = (Frame(file="<import>", function=MODULE_TOPLEVEL),)
    return cleaned, kind


class SampleSet:
    """A weighted collection of samples with aggregate views."""

    def __init__(self, samples: Iterable[Sample] = ()) -> None:
        self._samples: list[Sample] = list(samples)

    def add(self, sample: Sample) -> None:
        self._samples.append(sample)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self._samples)

    def runtime_weight(self) -> float:
        return sum(s.weight for s in self._samples if s.kind == RUNTIME)

    def init_weight(self) -> float:
        return sum(s.weight for s in self._samples if s.kind == INIT)


@dataclass
class LibraryAttributor:
    """Maps frames to library modules using file-path structure.

    ``workspace_prefixes`` are directory prefixes under which library code
    lives (a real workspace path, the simulator's ``<sim>`` prefix, or
    both); ``library_names`` restricts attribution to known top-level
    packages so application/handler frames map to ``None``.
    """

    workspace_prefixes: tuple[str, ...]
    library_names: frozenset[str]
    _cache: dict[str, str | None] = field(default_factory=dict, repr=False)

    def module_of(self, frame: Frame) -> str | None:
        """Dotted module path for a library frame, else ``None``."""
        cached = self._cache.get(frame.file, "?")
        if cached != "?":
            return cached
        result = self._resolve(frame.file)
        self._cache[frame.file] = result
        return result

    def _resolve(self, file: str) -> str | None:
        relative: str | None = None
        for prefix in self.workspace_prefixes:
            normalized = prefix.rstrip("/")
            if file.startswith(normalized + "/"):
                relative = file[len(normalized) + 1 :]
                break
        if relative is None or not relative.endswith(".py"):
            return None
        parts = relative[: -len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if not parts or parts[0] not in self.library_names:
            return None
        return ".".join(parts)

    def library_of(self, frame: Frame) -> str | None:
        module = self.module_of(frame)
        if module is None:
            return None
        return module.partition(".")[0]

    def libraries_in(self, path: tuple[Frame, ...]) -> set[str]:
        """Every library touched anywhere in a stack."""
        return {
            library
            for library in (self.library_of(frame) for frame in path)
            if library is not None
        }

    def modules_in(self, path: tuple[Frame, ...]) -> set[str]:
        """Every library module touched anywhere in a stack."""
        return {
            module
            for module in (self.module_of(frame) for frame in path)
            if module is not None
        }
