"""Invocation records and per-application statistics.

Both FaaS back ends emit the same :class:`InvocationRecord` (a validated
tuple), so the entire analysis/benchmark stack is agnostic to whether
numbers came from real execution or simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.metrics import LatencySummary, MemorySummary


class _InvocationFields(NamedTuple):
    app: str
    entry: str
    timestamp: float  # platform-clock seconds at request arrival
    cold: bool
    init_ms: float  # library + handler initialization (0 for warm starts)
    exec_ms: float  # handler body execution, incl. lazy first-use loading
    e2e_ms: float  # end-to-end latency: platform overhead + init + exec
    memory_mb: float  # container resident memory after the invocation
    container_id: str
    #: Arrival-to-service-start wait.  Always 0 on the single-pool back
    #: ends; the cluster simulator charges boot waits and FIFO queueing
    #: here (its e2e is queue + service).
    queue_ms: float = 0.0


class InvocationRecord(_InvocationFields):
    """One function invocation as observed by the platform.

    A tuple of the ten fields above: immutable, equal to the plain tuple
    of its values, and checked where a tuple is made — ``__new__``, which
    ``_make`` and so ``_replace`` call too.
    """

    __slots__ = ()

    def __new__(cls, app, entry, timestamp, cold, init_ms, exec_ms, e2e_ms,
                memory_mb, container_id, queue_ms=0.0):
        self = tuple.__new__(cls, (app, entry, timestamp, cold, init_ms, exec_ms,
                                   e2e_ms, memory_mb, container_id, queue_ms))
        if init_ms < 0 or exec_ms < 0 or e2e_ms < 0:
            raise ValueError(f"negative latency in record: {self}")
        if queue_ms < 0:
            raise ValueError(f"negative queueing delay in record: {self}")
        if not cold and init_ms != 0:
            raise ValueError("warm start cannot carry init time")
        return self

    @classmethod
    def _make(cls, values):
        return cls(*values)


@dataclass(frozen=True)
class InvocationStats:
    """Aggregate view over a set of records (the evaluation's metrics)."""

    app: str
    total: int
    cold_starts: int
    init: LatencySummary  # over cold starts only
    e2e: LatencySummary
    exec: LatencySummary
    memory: MemorySummary
    init_ratio: float  # mean cold-start init : mean cold-start e2e (Fig. 1)

    @classmethod
    def from_records(cls, records: Iterable[InvocationRecord]) -> "InvocationStats":
        data = list(records)
        if not data:
            raise ValueError("cannot compute stats over zero records")
        app = data[0].app
        cold = [record for record in data if record.cold]
        if not cold:
            raise ValueError(f"no cold starts recorded for {app!r}")
        cold_e2e = [record.e2e_ms for record in cold]
        cold_init = [record.init_ms for record in cold]
        return cls(
            app=app,
            total=len(data),
            cold_starts=len(cold),
            init=LatencySummary.from_values(cold_init),
            e2e=LatencySummary.from_values([record.e2e_ms for record in data]),
            exec=LatencySummary.from_values([record.exec_ms for record in data]),
            memory=MemorySummary.from_values([record.memory_mb for record in data]),
            init_ratio=(sum(cold_init) / len(cold_init)) / (sum(cold_e2e) / len(cold_e2e)),
        )


def entry_counts(records: Iterable[InvocationRecord]) -> dict[str, int]:
    """Invocation count per entry point (feeds the adaptive monitor)."""
    counts: dict[str, int] = {}
    for record in records:
        counts[record.entry] = counts.get(record.entry, 0) + 1
    return counts
