"""Profile data model: import timings, sample sets, and bundles.

A :class:`ProfileBundle` is the unit the analyzer consumes: one
application's import-time profile, call-path samples, entry-point
counts, and latency context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.common.errors import ProfilingError
from repro.core.samples import SampleSet


@dataclass(slots=True)
class ImportRecord:
    """Measured initialization of one module (Eq. 2/3 leaf data)."""

    module: str  # dotted path, e.g. "sligraph.drawing.colors"
    self_ms: float  # top-level execution time excluding child imports
    cumulative_ms: float  # including imports it triggered
    parent: str | None  # module whose import triggered this one
    order: int  # load sequence number

    def __post_init__(self) -> None:
        if self.self_ms < 0 or self.cumulative_ms < 0:
            raise ProfilingError(f"negative import time for {self.module!r}")


class ImportProfile:
    """Per-module import timings with hierarchical aggregation (Eqs. 1-3)."""

    def __init__(self, records: Iterable[ImportRecord] = ()) -> None:
        self._records: dict[str, ImportRecord] = {}
        #: :meth:`_hierarchy`'s result; records only arrive through
        #: :meth:`add`, which drops it.
        self._index: tuple[dict[str, list[float]], dict[str, list[str]]] | None = None
        for record in records:
            self.add(record)

    def add(self, record: ImportRecord) -> None:
        if record.module in self._records:
            raise ProfilingError(f"duplicate import record: {record.module!r}")
        self._records[record.module] = record
        self._index = None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, module: str) -> bool:
        return module in self._records

    def modules(self) -> list[str]:
        return sorted(self._records)

    @property
    def total_init_ms(self) -> float:
        """Eq. 1: total initialization across all loaded modules."""
        return sum(record.self_ms for record in self._records.values())

    def library_names(self) -> list[str]:
        return sorted({module.partition(".")[0] for module in self._records})

    def library_init_ms(self, library: str) -> float:
        """Eq. 2: cumulative init of one library (sum over its modules)."""
        return self.subtree_init_ms(library)

    def subtree_init_ms(self, dotted_prefix: str) -> float:
        """Eq. 3: init of a package subtree (prefix itself included)."""
        return sum(self._hierarchy()[0].get(dotted_prefix, ()))

    def children_of(self, dotted: str) -> list[str]:
        """Direct sub-modules of a package that were actually loaded.

        ``""`` lists the top-level packages.
        """
        return list(self._hierarchy()[1].get(dotted, ()))

    def _hierarchy(self) -> tuple[dict[str, list[float]], dict[str, list[str]]]:
        """The package hierarchy the records imply, built once per profile.

        ``(subtree_ms, children)``: per dotted prefix, the ``self_ms`` of
        every record at or below it *in record insertion order* — so
        :meth:`subtree_init_ms` adds the terms a scan over the records
        would, in the order it would, and returns the same bits — and
        its direct children, sorted.  A child exists when any descendant
        was loaded, whether or not it has a record of its own.
        """
        if self._index is None:
            subtree_ms: dict[str, list[float]] = {}
            children: dict[str, set[str]] = {}
            for module, record in self._records.items():
                node = module
                while True:
                    subtree_ms.setdefault(node, []).append(record.self_ms)
                    parent, dot, _ = node.rpartition(".")
                    children.setdefault(parent, set()).add(node)
                    if not dot:
                        break
                    node = parent
            self._index = (
                subtree_ms,
                {parent: sorted(found) for parent, found in children.items()},
            )
        return self._index


@dataclass
class ProfileBundle:
    """Everything the analyzer needs about one profiled application."""

    app: str
    import_profile: ImportProfile
    samples: SampleSet
    entry_counts: dict[str, int] = field(default_factory=dict)
    handler_imports: tuple[str, ...] = ()  # dotted modules the handler imports
    mean_cold_e2e_ms: float = 0.0
    mean_cold_init_ms: float = 0.0
    cold_starts: int = 0

    @property
    def init_ratio(self) -> float:
        """Library-init share of cold end-to-end time (Fig. 1's metric)."""
        if self.mean_cold_e2e_ms <= 0:
            return 0.0
        return self.mean_cold_init_ms / self.mean_cold_e2e_ms
