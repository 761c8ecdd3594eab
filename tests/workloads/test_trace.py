"""Tests for the production-trace generator (Fig. 3 / Fig. 10 shapes)."""

import pytest

from repro.common.errors import WorkloadError
from repro.workloads.trace import AppTrace, ProductionTrace, TraceGenerator


@pytest.fixture(scope="module")
def trace() -> ProductionTrace:
    return TraceGenerator(app_count=119, seed=2025).generate()


class TestGeneratorValidation:
    def test_rejects_zero_apps(self):
        with pytest.raises(WorkloadError):
            TraceGenerator(app_count=0)

    def test_rejects_bad_window(self):
        with pytest.raises(WorkloadError):
            TraceGenerator(window_hours=0)


class TestFleetShape:
    def test_app_count(self, trace):
        assert len(trace.apps) == 119

    def test_window_count(self, trace):
        assert trace.window_count == 26  # 312 h / 12 h

    def test_multi_entry_fraction_near_54_percent(self, trace):
        # Fig. 3 (left): 54 % of applications have more than one handler.
        assert 0.44 <= trace.multi_entry_fraction() <= 0.64

    def test_handler_count_pdf_sums_to_one(self, trace):
        pdf = trace.handler_count_pdf()
        assert sum(pdf.values()) == pytest.approx(1.0)

    def test_handler_counts_bounded(self, trace):
        assert all(1 <= app.handler_count <= 25 for app in trace.apps)

    def test_top_handlers_dominate_invocations(self, trace):
        # Fig. 3 (right): the top few handlers carry > 80 % cumulatively.
        mean_cdf, _, _ = trace.invocation_cdf_by_rank()
        assert mean_cdf[min(2, len(mean_cdf) - 1)] > 0.80

    def test_cdf_monotone_and_bounded(self, trace):
        mean_cdf, min_cdf, max_cdf = trace.invocation_cdf_by_rank()
        assert all(a <= b + 1e-12 for a, b in zip(mean_cdf, mean_cdf[1:]))
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in mean_cdf + min_cdf + max_cdf)
        assert all(
            low <= mid <= high + 1e-9
            for low, mid, high in zip(min_cdf, mean_cdf, max_cdf)
        )

    def test_deterministic(self):
        one = TraceGenerator(app_count=10, seed=7).generate()
        two = TraceGenerator(app_count=10, seed=7).generate()
        assert one.apps[3].windows == two.apps[3].windows


class TestShiftDynamics:
    def test_shift_windows_spike(self, trace):
        series = trace.exceeding_fraction_series(epsilon=0.002)
        shift_indices = [int(144 // 12), int(228 // 12)]
        baseline = [
            value
            for index, value in enumerate(series)
            if index + 1 not in shift_indices
        ]
        baseline_mean = sum(baseline) / len(baseline)
        for index in shift_indices:
            assert series[index - 1] > max(0.25, 2 * baseline_mean)

    def test_mean_shift_series_length(self, trace):
        assert len(trace.mean_shift_series()) == trace.window_count - 1

    def test_stable_windows_have_low_mean_shift(self, trace):
        series = trace.mean_shift_series()
        shift_indices = {int(144 // 12) - 1, int(228 // 12) - 1}
        stable = [v for i, v in enumerate(series) if i not in shift_indices]
        spikes = [v for i, v in enumerate(series) if i in shift_indices]
        assert max(stable) < min(spikes)


class TestAppTrace:
    def test_rank_frequencies_sorted(self):
        app = AppTrace(
            name="a",
            handlers=("h0", "h1"),
            windows=[{"h0": 10, "h1": 90}],
        )
        assert app.rank_frequencies() == [0.9, 0.1]

    def test_shifts_detect_rank_swap(self):
        app = AppTrace(
            name="a",
            handlers=("h0", "h1"),
            windows=[{"h0": 90, "h1": 10}, {"h0": 10, "h1": 90}],
        )
        assert app.shifts() == [pytest.approx(1.6)]

    def test_total_invocations(self):
        app = AppTrace(
            name="a", handlers=("h0",), windows=[{"h0": 5}, {"h0": 7}]
        )
        assert app.total_invocations() == 12
