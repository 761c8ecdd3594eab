"""Adaptive workload monitor (Eqs. 5-7 and Fig. 10).

Tracks per-entry invocation probabilities over fixed windows and triggers
re-profiling when the aggregate probability shift between consecutive
windows exceeds ``epsilon``.  The monitor works online (observe
invocations as they arrive); the offline series over a production trace's
per-window counts is :meth:`repro.workloads.trace.AppTrace.shifts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.common.errors import WorkloadError

#: Paper defaults: 12-hour windows, epsilon = 0.002.
DEFAULT_WINDOW_S = 12 * 3600.0
DEFAULT_EPSILON = 0.002


def invocation_probabilities(counts: Mapping[str, int]) -> dict[str, float]:
    """Eq. 5: ``p_i(t)`` from a window's per-entry invocation counts."""
    total = sum(counts.values())
    if total <= 0:
        return {}
    return {entry: count / total for entry, count in counts.items()}


def probability_shift(
    previous: Mapping[str, float], current: Mapping[str, float]
) -> float:
    """Eq. 6/7 aggregate: ``sum_i |p_i(t) - p_i(t - dt)|``.

    Entries absent from a window have probability 0 there, so appearing or
    disappearing entry points register as shift — exactly the workload
    changes the adaptive mechanism must catch.  Summation runs in sorted
    entry order so the result is deterministic and exactly symmetric in
    its arguments (set iteration order would vary float rounding).
    """
    entries = sorted(set(previous) | set(current))
    return sum(
        abs(current.get(entry, 0.0) - previous.get(entry, 0.0)) for entry in entries
    )


@dataclass(frozen=True)
class WindowDecision:
    """One window's monitoring outcome."""

    window_index: int
    window_end_s: float
    probabilities: dict[str, float]
    shift: float
    triggered: bool


class WorkloadMonitor:
    """Online monitor: feed invocations, harvest profiling triggers."""

    def __init__(
        self,
        window_s: float = DEFAULT_WINDOW_S,
        epsilon: float = DEFAULT_EPSILON,
        start_time_s: float = 0.0,
    ) -> None:
        if window_s <= 0:
            raise WorkloadError(f"window must be positive: {window_s}")
        if epsilon < 0:
            raise WorkloadError(f"epsilon must be non-negative: {epsilon}")
        self.window_s = window_s
        self.epsilon = epsilon
        self._window_start = start_time_s
        self._counts: dict[str, int] = {}
        self._previous: dict[str, float] | None = None
        self._closed = 0  # windows closed so far

    def observe(self, entry: str, timestamp_s: float) -> list[WindowDecision]:
        """Record one invocation; returns any window decisions closed by it.

        Invocations must arrive in non-decreasing time order (they come
        from a single platform's record stream, which guarantees that).
        """
        if timestamp_s < self._window_start:
            raise WorkloadError(
                f"out-of-order invocation at {timestamp_s} "
                f"(window starts {self._window_start})"
            )
        closed: list[WindowDecision] = []
        while timestamp_s >= self._window_start + self.window_s:
            closed.append(self._close_window())
        self._counts[entry] = self._counts.get(entry, 0) + 1
        return closed

    def flush(self) -> WindowDecision:
        """Force-close the current window (end of a trace replay)."""
        return self._close_window()

    def _close_window(self) -> WindowDecision:
        probabilities = invocation_probabilities(self._counts)
        if self._previous is None:
            shift = 0.0  # first window has no baseline to compare with
        else:
            shift = probability_shift(self._previous, probabilities)
        decision = WindowDecision(
            window_index=self._closed,
            window_end_s=self._window_start + self.window_s,
            probabilities=probabilities,
            shift=shift,
            triggered=self._previous is not None and shift > self.epsilon,
        )
        self._closed += 1
        if probabilities or self._previous is None:
            self._previous = probabilities
        self._window_start += self.window_s
        self._counts = {}
        return decision
