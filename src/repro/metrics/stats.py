"""Summary statistics for invocation latency and memory measurements.

The paper reports averages, 99th-percentile latencies, and before/after
speedup ratios (Tables II and III).  These helpers are dependency-free and
use the standard "linear interpolation between closest ranks" percentile so
results match ``numpy.percentile(..., method="linear")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises ``ValueError`` on empty input."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def _percentile_of_sorted(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100], of a non-empty
    ascending sequence."""
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def speedup(before: float, after: float) -> float:
    """Before/after speedup ratio (>1 means improvement)."""
    if after <= 0:
        raise ValueError(f"after must be positive: {after}")
    return before / after


@dataclass(frozen=True)
class LatencySummary:
    """Latency distribution summary in milliseconds."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencySummary":
        data = list(values)
        if not data:
            raise ValueError("cannot summarize zero latency samples")
        ordered = sorted(data)  # once, for all three ranks
        return cls(
            count=len(data),
            mean_ms=mean(data),
            p50_ms=_percentile_of_sorted(ordered, 50),
            p95_ms=_percentile_of_sorted(ordered, 95),
            p99_ms=_percentile_of_sorted(ordered, 99),
            max_ms=max(data),
        )


@dataclass(frozen=True)
class MemorySummary:
    """Peak-memory distribution summary in megabytes."""

    count: int
    mean_mb: float
    peak_mb: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "MemorySummary":
        data = list(values)
        if not data:
            raise ValueError("cannot summarize zero memory samples")
        return cls(count=len(data), mean_mb=mean(data), peak_mb=max(data))


@dataclass(frozen=True)
class PricingModel:
    """Serverless pricing constants for the fleet cost view.

    Defaults approximate AWS Lambda's public x86 pricing (us-east-1):
    $0.0000166667 per GB-second of provisioned memory and $0.20 per
    million requests.  ``cold_start_surcharge`` is charged once per
    container boot; it models provisioning-time billing (the platform
    bills init time too) or an operator-assigned penalty that lets
    deferral plans price cold starts directly.  All knobs are
    configurable so experiments can sweep price points.
    """

    per_gb_second: float = 0.0000166667
    per_million_requests: float = 0.20
    cold_start_surcharge: float = 0.0  # $ per container boot

    def __post_init__(self) -> None:
        if self.per_gb_second < 0:
            raise ValueError(f"negative GB-second price: {self.per_gb_second}")
        if self.per_million_requests < 0:
            raise ValueError(
                f"negative per-request price: {self.per_million_requests}"
            )
        if self.cold_start_surcharge < 0:
            raise ValueError(
                f"negative cold-start surcharge: {self.cold_start_surcharge}"
            )


#: The pricing every cost view uses unless told otherwise.
DEFAULT_PRICING = PricingModel()


@dataclass(frozen=True)
class CostSummary:
    """Dollar cost of one fleet's simulated usage.

    The autoscaler trade-off currency: ``gb_seconds`` is provisioned
    memory-time (billable capacity, not busy time), so a policy that
    holds warm spare containers shows up here even when its cold-start
    rate looks great.  ``per_1k_requests`` normalizes total cost by
    traffic volume, making runs of different length comparable.
    """

    gb_seconds: float
    compute_cost: float  # gb_seconds * per_gb_second
    request_cost: float
    cold_start_cost: float
    total_cost: float
    per_1k_requests: float

    @classmethod
    def from_usage(
        cls,
        gb_seconds: float,
        requests: int,
        container_boots: int,
        pricing: PricingModel = DEFAULT_PRICING,
    ) -> "CostSummary":
        if gb_seconds < 0:
            raise ValueError(f"negative GB-seconds: {gb_seconds}")
        if requests < 0:
            raise ValueError(f"negative request count: {requests}")
        if container_boots < 0:
            raise ValueError(f"negative container boots: {container_boots}")
        compute = gb_seconds * pricing.per_gb_second
        request_cost = requests * pricing.per_million_requests / 1_000_000.0
        cold_start_cost = container_boots * pricing.cold_start_surcharge
        total = compute + request_cost + cold_start_cost
        return cls(
            gb_seconds=gb_seconds,
            compute_cost=compute,
            request_cost=request_cost,
            cold_start_cost=cold_start_cost,
            total_cost=total,
            per_1k_requests=(total / requests * 1000.0) if requests else 0.0,
        )


@dataclass(frozen=True)
class SpeedupReport:
    """Before/after comparison in the shape Table II reports."""

    init_speedup: float
    e2e_speedup: float
    p99_init_speedup: float
    p99_e2e_speedup: float
    memory_reduction: float

    @classmethod
    def compare(
        cls,
        before_init: LatencySummary,
        after_init: LatencySummary,
        before_e2e: LatencySummary,
        after_e2e: LatencySummary,
        before_memory: MemorySummary,
        after_memory: MemorySummary,
    ) -> "SpeedupReport":
        return cls(
            init_speedup=speedup(before_init.mean_ms, after_init.mean_ms),
            e2e_speedup=speedup(before_e2e.mean_ms, after_e2e.mean_ms),
            p99_init_speedup=speedup(before_init.p99_ms, after_init.p99_ms),
            p99_e2e_speedup=speedup(before_e2e.p99_ms, after_e2e.p99_ms),
            memory_reduction=speedup(before_memory.peak_mb, after_memory.peak_mb),
        )
