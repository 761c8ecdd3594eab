"""Tests for the adaptive workload monitor (Eqs. 5-7)."""

import pytest

from repro.common.errors import WorkloadError
from repro.core.adaptive import (
    WorkloadMonitor,
    invocation_probabilities,
    probability_shift,
)
from repro.workloads.trace import AppTrace


class TestEquations:
    def test_probabilities_eq5(self):
        probabilities = invocation_probabilities({"a": 30, "b": 70})
        assert probabilities == {"a": 0.3, "b": 0.7}

    def test_probabilities_empty_window(self):
        assert invocation_probabilities({}) == {}

    def test_shift_eq6(self):
        previous = {"a": 0.9, "b": 0.1}
        current = {"a": 0.1, "b": 0.9}
        assert probability_shift(previous, current) == pytest.approx(1.6)

    def test_shift_counts_new_and_vanished_entries(self):
        assert probability_shift({"a": 1.0}, {"b": 1.0}) == pytest.approx(2.0)

    def test_no_shift(self):
        assert probability_shift({"a": 0.5, "b": 0.5}, {"b": 0.5, "a": 0.5}) == 0.0


class TestMonitor:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadMonitor(window_s=0)
        with pytest.raises(WorkloadError):
            WorkloadMonitor(epsilon=-1)

    def test_first_window_never_triggers(self):
        monitor = WorkloadMonitor(window_s=10.0, epsilon=0.01)
        monitor.observe("a", 1.0)
        decisions = monitor.observe("a", 11.0)  # closes window 0
        assert len(decisions) == 1
        assert not decisions[0].triggered
        assert decisions[0].shift == 0.0

    def test_stable_workload_does_not_trigger(self):
        monitor = WorkloadMonitor(window_s=10.0, epsilon=0.1)
        for window in range(4):
            for _ in range(9):
                monitor.observe("a", window * 10.0 + 1.0)
            monitor.observe("b", window * 10.0 + 2.0)
        decisions = monitor.observe("a", 40.0)
        assert all(not decision.triggered for decision in decisions)

    def test_shifted_workload_triggers_eq7(self):
        monitor = WorkloadMonitor(window_s=10.0, epsilon=0.5)
        for _ in range(10):
            monitor.observe("a", 1.0)
        for _ in range(10):
            monitor.observe("b", 11.0)
        decisions = monitor.observe("a", 21.0)
        triggered = [decision for decision in decisions if decision.triggered]
        assert len(triggered) == 1
        assert triggered[0].shift == pytest.approx(2.0)

    def test_out_of_order_rejected(self):
        monitor = WorkloadMonitor(window_s=10.0)
        monitor.observe("a", 25.0)  # fast-forwards past two windows
        with pytest.raises(WorkloadError):
            monitor.observe("a", 3.0)

    def test_gap_produces_empty_windows(self):
        monitor = WorkloadMonitor(window_s=10.0, epsilon=0.01)
        monitor.observe("a", 1.0)
        decisions = monitor.observe("a", 35.0)  # windows 0,1,2 close
        assert len(decisions) == 3
        assert decisions[1].probabilities == {}

    def test_flush(self):
        monitor = WorkloadMonitor(window_s=10.0)
        monitor.observe("a", 1.0)
        decision = monitor.flush()
        assert decision.probabilities == {"a": 1.0}

    def test_window_boundaries(self):
        monitor = WorkloadMonitor(window_s=10.0)
        decisions = monitor.observe("a", 10.0)  # exactly at boundary
        assert len(decisions) == 1  # the first window [0, 10) closed


def shifts_of(windows):
    """The offline Eq. 6 series of one trace app's per-window counts."""
    return AppTrace("app", ("a", "b"), windows).shifts()


class TestOfflineSeries:
    def test_shift_series(self):
        windows = [{"a": 10}, {"a": 10}, {"b": 10}]
        shifts = shifts_of(windows)
        assert shifts == [0.0, pytest.approx(2.0)]

    def test_empty_window_does_not_reset_baseline(self):
        windows = [{"a": 10}, {}, {"a": 10}]
        shifts = shifts_of(windows)
        # Going idle registers as a shift, but an idle window carries no
        # workload information, so the last busy window stays the baseline
        # and resuming the same pattern registers no shift.
        assert shifts[0] == pytest.approx(1.0)
        assert shifts[1] == pytest.approx(0.0)


class TestWindowRollover:
    def test_multi_window_gap_closes_each_window_once(self):
        monitor = WorkloadMonitor(window_s=10.0, epsilon=0.01)
        monitor.observe("a", 0.0)
        decisions = monitor.observe("a", 35.0)  # windows 0, 1, 2 close
        assert [decision.window_index for decision in decisions] == [0, 1, 2]
        assert [decision.window_end_s for decision in decisions] == [
            10.0,
            20.0,
            30.0,
        ]
        # The gap windows saw no invocations at all.
        assert decisions[1].probabilities == {}
        assert decisions[2].probabilities == {}

    def test_observation_lands_in_window_after_rollover(self):
        monitor = WorkloadMonitor(window_s=10.0, epsilon=0.01)
        monitor.observe("a", 0.0)
        monitor.observe("b", 25.0)
        decision = monitor.flush()
        # The invocation at t=25 belongs to window 2, not the closed ones.
        assert decision.window_index == 2
        assert decision.probabilities == {"b": 1.0}

    def test_zero_epsilon_triggers_on_any_shift(self):
        monitor = WorkloadMonitor(window_s=10.0, epsilon=0.0)
        for _ in range(3):
            monitor.observe("a", 1.0)
        monitor.observe("a", 11.0)
        monitor.observe("b", 12.0)
        decisions = monitor.observe("a", 21.0)
        assert decisions[-1].triggered

    def test_start_time_offsets_first_window(self):
        monitor = WorkloadMonitor(window_s=10.0, start_time_s=100.0)
        with pytest.raises(WorkloadError):
            monitor.observe("a", 99.0)
        decisions = monitor.observe("a", 110.0)
        assert decisions[0].window_end_s == 110.0
