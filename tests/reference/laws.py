"""Conservation laws every replay keeps, whoever computed it."""

from __future__ import annotations

import math
from collections import defaultdict


def hold(summary, records, load, routes=None):
    """Assert each law over a replay's summary, its ``on_record`` records,
    the load left when the stream ended and, for a federation, its routes."""
    # Every arrival (every route: no policy here drops) is one completion
    # or one shed.
    assert summary.arrivals == summary.completed + summary.shed
    assert routes is None or len(routes) == summary.arrivals
    # The window rows re-sum to the run's totals.
    windows = summary.windows
    for name in ("arrivals", "completed", "shed", "cold_starts", "gb_seconds"):
        assert sum(getattr(w, name) for w in windows) == getattr(summary, name)
    by_class = defaultdict(lambda: [0, 0, 0])
    for row in (row for w in windows for row in w.qos):
        by_class[row.qos_class] = [sum(pair) for pair in zip(
            by_class[row.qos_class], (row.completed, row.violations, row.dropped))]
    assert by_class == {q.qos_class: [q.completed, q.violations, q.dropped] for q in summary.qos}
    # Nothing is in service or queued once the stream has ended.
    assert load == 0
    # No request starts before it arrives, nor ends before it starts.
    assert all(0.0 <= r.queue_ms <= r.e2e_ms for r in records)
    # Provisioned GB-s covers each container's busy time at its memory.
    spans, memory = defaultdict(list), defaultdict(float)
    for r in records:
        start, end = (r.timestamp + ms / 1000.0 for ms in (r.queue_ms, r.e2e_ms))
        spans[r.container_id].append((start, end))
        memory[r.container_id] = max(memory[r.container_id], r.memory_mb)
    busy_gb_s = 0.0
    for container, intervals in spans.items():
        covered, reach = 0.0, -math.inf
        for start, end in sorted(intervals):
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        busy_gb_s += covered * memory[container] / 1024.0
    assert summary.gb_seconds >= busy_gb_s * (1.0 - 1e-9)
