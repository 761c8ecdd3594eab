"""Profile data model: import timings, sample sets, and bundles.

A :class:`ProfileBundle` is the unit the collector ships to cloud storage
and the analyzer consumes: one application's merged import-time profile,
call-path samples, entry-point counts, and latency context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

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

    def record(self, module: str) -> ImportRecord:
        try:
            return self._records[module]
        except KeyError:
            raise ProfilingError(f"no import record for {module!r}") from None

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

    def scaled(self, factor: float) -> "ImportProfile":
        """A copy with every timing multiplied by ``factor``."""
        return ImportProfile(
            ImportRecord(
                module=record.module,
                self_ms=record.self_ms * factor,
                cumulative_ms=record.cumulative_ms * factor,
                parent=record.parent,
                order=record.order,
            )
            for record in self._records.values()
        )

    # -- merging across invocations/instances --------------------------------

    @classmethod
    def average(cls, profiles: list["ImportProfile"]) -> "ImportProfile":
        """Average self/cumulative times per module over multiple profiles.

        Modules missing from some profiles are averaged over the profiles
        that did load them (a module's cost, not its load frequency, is
        what the hierarchy report needs).
        """
        if not profiles:
            raise ProfilingError("cannot average zero import profiles")
        sums: dict[str, list] = {}
        for profile in profiles:
            for module in profile.modules():
                record = profile.record(module)
                entry = sums.setdefault(
                    module, [0.0, 0.0, 0, record.parent, record.order]
                )
                entry[0] += record.self_ms
                entry[1] += record.cumulative_ms
                entry[2] += 1
        merged = cls()
        for module, (self_sum, cumulative_sum, count, parent, order) in sorted(
            sums.items()
        ):
            merged.add(
                ImportRecord(
                    module=module,
                    self_ms=self_sum / count,
                    cumulative_ms=cumulative_sum / count,
                    parent=parent,
                    order=order,
                )
            )
        return merged

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "records": [
                [r.module, r.self_ms, r.cumulative_ms, r.parent, r.order]
                for r in self._records.values()
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ImportProfile":
        return cls(
            ImportRecord(
                module=module,
                self_ms=self_ms,
                cumulative_ms=cumulative_ms,
                parent=parent,
                order=order,
            )
            for module, self_ms, cumulative_ms, parent, order in payload["records"]
        )


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

    def merged_with(self, other: "ProfileBundle") -> "ProfileBundle":
        """Merge a second bundle for the same app (multi-instance profiles)."""
        if other.app != self.app:
            raise ProfilingError(
                f"cannot merge bundles of different apps: {self.app!r}, {other.app!r}"
            )
        counts = dict(self.entry_counts)
        for entry, count in other.entry_counts.items():
            counts[entry] = counts.get(entry, 0) + count
        total_cold = self.cold_starts + other.cold_starts
        if total_cold > 0:
            mean_e2e = (
                self.mean_cold_e2e_ms * self.cold_starts
                + other.mean_cold_e2e_ms * other.cold_starts
            ) / total_cold
            mean_init = (
                self.mean_cold_init_ms * self.cold_starts
                + other.mean_cold_init_ms * other.cold_starts
            ) / total_cold
        else:
            mean_e2e = max(self.mean_cold_e2e_ms, other.mean_cold_e2e_ms)
            mean_init = max(self.mean_cold_init_ms, other.mean_cold_init_ms)
        return ProfileBundle(
            app=self.app,
            import_profile=ImportProfile.average(
                [self.import_profile, other.import_profile]
            ),
            samples=self.samples.merged_with(other.samples),
            entry_counts=counts,
            handler_imports=tuple(
                dict.fromkeys(self.handler_imports + other.handler_imports)
            ),
            mean_cold_e2e_ms=mean_e2e,
            mean_cold_init_ms=mean_init,
            cold_starts=total_cold,
        )

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "import_profile": self.import_profile.to_dict(),
            "samples": self.samples.to_dict(),
            "entry_counts": self.entry_counts,
            "handler_imports": list(self.handler_imports),
            "mean_cold_e2e_ms": self.mean_cold_e2e_ms,
            "mean_cold_init_ms": self.mean_cold_init_ms,
            "cold_starts": self.cold_starts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProfileBundle":
        return cls(
            app=payload["app"],
            import_profile=ImportProfile.from_dict(payload["import_profile"]),
            samples=SampleSet.from_dict(payload["samples"]),
            entry_counts=dict(payload["entry_counts"]),
            handler_imports=tuple(payload["handler_imports"]),
            mean_cold_e2e_ms=payload["mean_cold_e2e_ms"],
            mean_cold_init_ms=payload["mean_cold_init_ms"],
            cold_starts=payload["cold_starts"],
        )
