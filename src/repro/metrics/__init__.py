"""Latency and memory statistics used throughout the evaluation
harness — the latency percentiles (:class:`LatencySummary`), the
fleet cost view (:class:`CostSummary` over a configurable
:class:`PricingModel`: GB-seconds, cold-start surcharge, $ per 1k
requests), and the bounded-memory windowed time series streaming replays
fold into (:class:`WindowAccumulator` → :class:`WindowedSummary`)."""

from repro.metrics.stats import (
    DEFAULT_PRICING,
    CostSummary,
    LatencySummary,
    MemorySummary,
    PricingModel,
    SpeedupReport,
    mean,
    speedup,
)
from repro.metrics.qos import (
    DEFAULT_QOS_CLASS,
    QOS_PRESETS,
    QoSClass,
    parse_qos_mix,
    qos_registry,
)
from repro.metrics.windows import (
    UNDEFINED_RATE,
    QoSSummary,
    QoSWindowStats,
    WindowAccumulator,
    WindowedSummary,
    WindowStats,
    from_wire,
    merge_wire,
)

__all__ = [
    "DEFAULT_PRICING",
    "DEFAULT_QOS_CLASS",
    "QOS_PRESETS",
    "CostSummary",
    "LatencySummary",
    "MemorySummary",
    "PricingModel",
    "QoSClass",
    "QoSSummary",
    "QoSWindowStats",
    "SpeedupReport",
    "UNDEFINED_RATE",
    "WindowAccumulator",
    "WindowedSummary",
    "WindowStats",
    "from_wire",
    "mean",
    "merge_wire",
    "speedup",
    "parse_qos_mix",
    "qos_registry",
]
