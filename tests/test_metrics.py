"""Tests for the statistics helpers behind the evaluation tables."""

import pytest

from repro.metrics import (
    DEFAULT_PRICING,
    CostSummary,
    LatencySummary,
    MemorySummary,
    PricingModel,
    SpeedupReport,
    mean,
    speedup,
)
from repro.metrics.stats import _percentile_of_sorted


def percentile(values, q):
    return _percentile_of_sorted(sorted(values), q)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_speedup(self):
        assert speedup(200.0, 100.0) == 2.0

    def test_speedup_rejects_zero_after(self):
        with pytest.raises(ValueError):
            speedup(100.0, 0.0)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolation_matches_numpy_linear(self):
        numpy = pytest.importorskip("numpy")
        data = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert percentile(data, q) == pytest.approx(
                float(numpy.percentile(data, q, method="linear"))
            )

    def test_p0_is_min_p100_is_max(self):
        data = [4.0, 8.0, 15.0]
        assert percentile(data, 0) == 4.0
        assert percentile(data, 100) == 15.0

    def test_singleton(self):
        assert percentile([7.0], 99) == 7.0


class TestSummaries:
    def test_latency_summary_fields(self):
        summary = LatencySummary.from_values([10.0, 20.0, 30.0, 40.0])
        assert summary.count == 4
        assert summary.mean_ms == 25.0
        assert summary.max_ms == 40.0
        assert summary.p50_ms == 25.0

    def test_latency_summary_rejects_empty(self):
        with pytest.raises(ValueError):
            LatencySummary.from_values([])

    def test_memory_summary(self):
        summary = MemorySummary.from_values([100.0, 150.0])
        assert summary.peak_mb == 150.0
        assert summary.mean_mb == 125.0

    def test_speedup_report_compare(self):
        before_lat = LatencySummary.from_values([200.0, 200.0])
        after_lat = LatencySummary.from_values([100.0, 100.0])
        before_mem = MemorySummary.from_values([150.0])
        after_mem = MemorySummary.from_values([100.0])
        report = SpeedupReport.compare(
            before_lat, after_lat, before_lat, after_lat, before_mem, after_mem
        )
        assert report.init_speedup == 2.0
        assert report.e2e_speedup == 2.0
        assert report.memory_reduction == 1.5


class TestCostModel:
    def test_pricing_defaults_are_lambda_like(self):
        assert DEFAULT_PRICING.per_gb_second == pytest.approx(0.0000166667)
        assert DEFAULT_PRICING.per_million_requests == pytest.approx(0.20)
        assert DEFAULT_PRICING.cold_start_surcharge == 0.0

    def test_pricing_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            PricingModel(per_gb_second=-1.0)
        with pytest.raises(ValueError):
            PricingModel(per_million_requests=-0.2)
        with pytest.raises(ValueError):
            PricingModel(cold_start_surcharge=-0.01)

    def test_cost_summary_decomposes(self):
        pricing = PricingModel(
            per_gb_second=0.01, per_million_requests=1000.0, cold_start_surcharge=0.5
        )
        cost = CostSummary.from_usage(
            gb_seconds=100.0, requests=2000, container_boots=4, pricing=pricing
        )
        assert cost.compute_cost == pytest.approx(1.0)
        assert cost.request_cost == pytest.approx(2.0)
        assert cost.cold_start_cost == pytest.approx(2.0)
        assert cost.total_cost == pytest.approx(5.0)
        assert cost.per_1k_requests == pytest.approx(2.5)

    def test_zero_requests_yield_zero_normalized_cost(self):
        cost = CostSummary.from_usage(gb_seconds=0.0, requests=0, container_boots=0)
        assert cost.total_cost == 0.0
        assert cost.per_1k_requests == 0.0

    def test_negative_usage_rejected(self):
        with pytest.raises(ValueError):
            CostSummary.from_usage(gb_seconds=-1.0, requests=0, container_boots=0)
        with pytest.raises(ValueError):
            CostSummary.from_usage(gb_seconds=0.0, requests=-1, container_boots=0)
        with pytest.raises(ValueError):
            CostSummary.from_usage(gb_seconds=0.0, requests=0, container_boots=-1)

    def test_default_pricing_used_when_omitted(self):
        cost = CostSummary.from_usage(gb_seconds=1000.0, requests=1000, container_boots=0)
        assert cost.compute_cost == pytest.approx(1000.0 * DEFAULT_PRICING.per_gb_second)
        assert cost.request_cost == pytest.approx(0.0002)


class TestWindowedMetrics:
    def make_accumulator(self, window_s=60.0, pricing=None):
        from repro.metrics import WindowAccumulator

        return WindowAccumulator(window_s=window_s, pricing=pricing)

    def test_window_bucketing_by_arrival_time(self):
        acc = self.make_accumulator(window_s=60.0)
        for at in (0.0, 59.9, 60.0, 125.0):
            acc.observe_arrival(at)
        summary = acc.finalize()
        assert [w.index for w in summary.windows] == [0, 1, 2]
        assert [w.arrivals for w in summary.windows] == [2, 1, 1]
        assert summary.arrivals == 4

    def test_completion_attributes_to_arrival_window(self):
        acc = self.make_accumulator(window_s=60.0)
        acc.observe_arrival(59.0)
        # Long service: the request finishes minutes later, but its
        # metrics belong to the window it arrived in.
        acc.observe_completion(59.0, cold=True, queue_ms=500.0)
        summary = acc.finalize()
        assert len(summary.windows) == 1
        window = summary.windows[0]
        assert window.completed == 1
        assert window.cold_starts == 1
        assert window.cold_start_rate == 1.0

    def test_shed_rate(self):
        acc = self.make_accumulator()
        for _ in range(4):
            acc.observe_arrival(1.0)
        acc.observe_shed(1.0)
        summary = acc.finalize()
        assert summary.windows[0].shed_rate == pytest.approx(0.25)
        assert summary.shed == 1

    def test_queue_percentile_estimate_within_half_octave(self):
        acc = self.make_accumulator()
        for value in [10.0] * 95 + [1000.0] * 5:
            acc.observe_arrival(0.0)
            acc.observe_completion(0.0, cold=False, queue_ms=value)
        window = acc.finalize().windows[0]
        # p95 sits at the 10 ms mass; the log-histogram estimate must be
        # within one half-octave bucket (factor sqrt(2)) of the truth.
        assert 10.0 / 1.5 <= window.queue_p95_ms <= 10.0 * 1.5
        assert window.queue_mean_ms == pytest.approx(0.95 * 10.0 + 0.05 * 1000.0)

    def test_gb_seconds_spread_across_windows(self):
        acc = self.make_accumulator(window_s=60.0)
        acc.observe_arrival(0.0)
        # One 1024-MB container provisioned from 30 s to 90 s: half its
        # GB-seconds land in window 0, half in window 1.
        acc.observe_provision(30.0, 90.0, 1024.0)
        summary = acc.finalize()
        by_index = {w.index: w for w in summary.windows}
        assert by_index[0].gb_seconds == pytest.approx(30.0)
        assert by_index[1].gb_seconds == pytest.approx(30.0)
        assert summary.gb_seconds == pytest.approx(60.0)
        assert by_index[0].boots == 1
        assert by_index[1].boots == 0

    def test_cost_uses_pricing_model(self):
        from repro.metrics import PricingModel

        pricing = PricingModel(
            per_gb_second=0.01, per_million_requests=0.0, cold_start_surcharge=0.5
        )
        acc = self.make_accumulator(window_s=60.0, pricing=pricing)
        acc.observe_arrival(0.0)
        acc.observe_completion(0.0, cold=True, queue_ms=1.0)
        acc.observe_provision(0.0, 10.0, 1024.0)
        summary = acc.finalize()
        assert summary.cost.total_cost == pytest.approx(10.0 * 0.01 + 0.5)

    def test_series_skips_windows_without_activity(self):
        acc = self.make_accumulator(window_s=60.0)
        acc.observe_arrival(10.0)
        acc.observe_arrival(190.0)  # window 3 only: windows 1-2 are absent
        acc.observe_arrival(190.0)
        summary = acc.finalize()
        assert [window.index for window in summary.windows] == [0, 3]
        assert summary.series("arrivals") == [1, 2]

    def test_merge_of_disjoint_sources_is_lossless(self):
        from repro.metrics import merge_wire

        def fill(acc, source, queue_ms):
            acc.observe_arrival(10.0)
            acc.observe_completion(10.0, cold=source == "a", queue_ms=queue_ms,
                                   source=source)
            acc.observe_provision(0.0, 90.0, 1024.0, source=source)

        together = self.make_accumulator(window_s=60.0)
        fill(together, "a", 3.5)
        fill(together, "b", 7.25)
        part_a = self.make_accumulator(window_s=60.0)
        fill(part_a, "a", 3.5)
        part_b = self.make_accumulator(window_s=60.0)
        fill(part_b, "b", 7.25)

        merged = merge_wire([part_a.to_wire(), part_b.to_wire()])
        assert merged == together.finalize()
        window = merged.windows[0]
        assert window.completed == 2
        assert window.cold_starts == 1
        # The per-source partials a summary keeps only combined: merge
        # safety is a property of the accumulator's state.
        part_a.absorb(part_b.state())
        state = part_a.state()["windows"]["0"]
        assert state == together.state()["windows"]["0"]
        queue_sums = {source: c[3] for source, c in state["source_counts"].items()}
        assert queue_sums == {"a": 3.5, "b": 7.25}
        assert sum(state["queue_counts"]) == 2

    def test_merge_validation(self):
        from repro.metrics import PricingModel, merge_wire

        with pytest.raises(ValueError):
            merge_wire([])
        base = self.make_accumulator(window_s=60.0).to_wire()
        other_window = self.make_accumulator(window_s=30.0).to_wire()
        with pytest.raises(ValueError, match="window_s mismatch"):
            merge_wire([base, other_window])
        other_pricing = self.make_accumulator(
            window_s=60.0, pricing=PricingModel(per_gb_second=42.0)
        ).to_wire()
        with pytest.raises(ValueError, match="pricing mismatch"):
            merge_wire([base, other_pricing])

    def test_merge_of_single_summary_is_identity(self):
        from repro.metrics import merge_wire

        acc = self.make_accumulator(window_s=60.0)
        acc.observe_arrival(5.0)
        acc.observe_completion(5.0, cold=False, queue_ms=2.0, source="x")
        assert merge_wire([acc.to_wire()]) == acc.finalize()

    def test_validation(self):
        from repro.metrics import WindowAccumulator

        with pytest.raises(ValueError):
            WindowAccumulator(window_s=0.0)
        acc = self.make_accumulator()
        with pytest.raises(ValueError):
            acc.observe_completion(0.0, cold=False, queue_ms=-1.0)
        with pytest.raises(ValueError):
            acc.observe_provision(10.0, 5.0, 128.0)

    def test_empty_accumulator_finalizes_cleanly(self):
        summary = self.make_accumulator().finalize()
        assert summary.windows == ()
        assert summary.arrivals == 0
        assert summary.cold_start_rate == 0.0
        assert summary.cost.total_cost == 0.0

    def test_histogram_quantile_edges(self):
        from repro.metrics.windows import _LatencyHistogram

        hist = _LatencyHistogram()
        assert hist.quantile(0.5) == 0.0  # empty
        hist.observe(0.0)
        assert hist.quantile(0.5) == pytest.approx(0.1)  # floor bucket
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        # A huge value clamps into the last bucket instead of overflowing.
        hist.observe(1e12)
        assert hist.quantile(1.0) > 1e6

    def test_quantile_q0_is_first_nonempty_bucket(self):
        # Regression: q=0 once returned bucket 0's floor value even when
        # the smallest observation lived octaves higher — rank 0 was
        # "satisfied" by the empty leading buckets.
        from repro.metrics.windows import _LatencyHistogram

        hist = _LatencyHistogram()
        hist.observe(100.0)
        hist.observe(5000.0)
        minimum = hist.quantile(0.0)
        assert minimum > 10.0  # far above the 0.1 ms floor bucket
        assert 100.0 / 1.5 <= minimum <= 100.0 * 1.5  # half-octave accurate

    def test_quantile_q0_equals_q1_for_single_observation(self):
        from repro.metrics.windows import _LatencyHistogram

        hist = _LatencyHistogram()
        hist.observe(250.0)
        assert hist.quantile(0.0) == hist.quantile(1.0)
        assert 250.0 / 1.5 <= hist.quantile(0.0) <= 250.0 * 1.5

    def test_quantile_q1_is_last_nonempty_bucket(self):
        from repro.metrics.windows import _LatencyHistogram

        hist = _LatencyHistogram()
        hist.observe(1.0)
        hist.observe(80.0)
        maximum = hist.quantile(1.0)
        assert 80.0 / 1.5 <= maximum <= 80.0 * 1.5

    def test_quantile_q0_on_floor_bucket_stays_at_floor(self):
        from repro.metrics.windows import _LatencyHistogram

        hist = _LatencyHistogram()
        hist.observe(0.05)  # below the 0.1 ms floor: bucket 0
        assert hist.quantile(0.0) == pytest.approx(0.1)


class TestUndefinedWindowSentinel:
    """Windows with arrivals but zero completions have no completion
    population: their rate/quantile fields report :data:`UNDEFINED_RATE`
    instead of a misleading 0.0 ("all warm, served instantly")."""

    def make_accumulator(self, window_s=60.0):
        from repro.metrics import WindowAccumulator

        return WindowAccumulator(window_s=window_s)

    def test_all_shed_window_reports_sentinel(self):
        from repro.metrics import UNDEFINED_RATE

        acc = self.make_accumulator()
        for _ in range(3):
            acc.observe_arrival(5.0)
            acc.observe_shed(5.0)
        window = acc.finalize().windows[0]
        assert window.arrivals == 3
        assert window.completed == 0
        assert window.cold_start_rate == UNDEFINED_RATE
        assert window.queue_mean_ms == UNDEFINED_RATE
        assert window.queue_p95_ms == UNDEFINED_RATE
        # The counts that *do* have a population stay meaningful.
        assert window.shed_rate == 1.0

    def test_still_queued_at_flush_reports_sentinel(self):
        from repro.metrics import UNDEFINED_RATE

        acc = self.make_accumulator()
        acc.observe_arrival(10.0)  # arrived, never completed (mid-run flush)
        window = acc.finalize().windows[0]
        assert window.cold_start_rate == UNDEFINED_RATE
        assert window.queue_p95_ms == UNDEFINED_RATE

    def test_idle_provision_tail_window_stays_zero(self):
        # A window with *no* arrivals (pure keep-alive tail) is genuinely
        # idle, not undefined: 0.0 is the honest value there.
        acc = self.make_accumulator(window_s=60.0)
        acc.observe_arrival(0.0)
        acc.observe_completion(0.0, cold=False, queue_ms=1.0)
        acc.observe_provision(0.0, 90.0, 1024.0)  # tail into window 1
        by_index = {w.index: w for w in acc.finalize().windows}
        assert by_index[1].arrivals == 0
        assert by_index[1].cold_start_rate == 0.0
        assert by_index[1].queue_mean_ms == 0.0
        assert by_index[1].queue_p95_ms == 0.0

    def test_sentinel_is_negative_and_json_equality_safe(self):
        import json

        from repro.metrics import UNDEFINED_RATE

        # The documented "no data" test is ``value < 0`` — and unlike
        # NaN the sentinel survives JSON and compares equal to itself
        # (summary-equality determinism checks depend on that).
        assert UNDEFINED_RATE < 0
        assert json.loads(json.dumps(UNDEFINED_RATE)) == UNDEFINED_RATE

    def test_summary_totals_unaffected_by_sentinel(self):
        acc = self.make_accumulator()
        acc.observe_arrival(5.0)
        acc.observe_shed(5.0)  # window 0: undefined
        acc.observe_arrival(65.0)
        acc.observe_completion(65.0, cold=True, queue_ms=2.0)  # window 1
        summary = acc.finalize()
        assert summary.windows[0].cold_start_rate < 0
        assert summary.windows[1].cold_start_rate == 1.0
        # Run-level totals aggregate raw counters, never the sentinel.
        assert summary.cold_start_rate == 1.0
        assert summary.completed == 1

    def test_merge_heals_sentinel_when_other_shard_completes(self):
        from repro.metrics import merge_wire

        shed_only = self.make_accumulator()
        shed_only.observe_arrival(5.0)
        shed_only.observe_shed(5.0)
        served = self.make_accumulator()
        served.observe_arrival(6.0)
        served.observe_completion(6.0, cold=True, queue_ms=4.0)
        merged = merge_wire([shed_only.to_wire(), served.to_wire()])
        window = merged.windows[0]
        # Counters merge first, rates are recomputed from the merged
        # population — so the sentinel heals once completions exist...
        assert window.completed == 1
        assert window.cold_start_rate == 1.0
        assert window.queue_mean_ms == pytest.approx(4.0)

    def test_merge_of_two_undefined_shards_stays_undefined(self):
        from repro.metrics import UNDEFINED_RATE, merge_wire

        parts = []
        for _ in range(2):
            acc = self.make_accumulator()
            acc.observe_arrival(5.0)
            acc.observe_shed(5.0)
            parts.append(acc.to_wire())
        window = merge_wire(parts).windows[0]
        # ...and stays undefined when no shard completed anything.
        assert window.arrivals == 2
        assert window.cold_start_rate == UNDEFINED_RATE
        assert window.queue_p95_ms == UNDEFINED_RATE


class TestQoSWindowAccounting:
    def make_accumulator(self, window_s=60.0):
        from repro.metrics import WindowAccumulator

        return WindowAccumulator(window_s=window_s)

    def test_untagged_replay_has_no_qos_series(self):
        acc = self.make_accumulator()
        acc.observe_arrival(1.0)
        acc.observe_completion(1.0, cold=False, queue_ms=2.0, source="a")
        summary = acc.finalize()
        assert summary.qos == ()
        assert summary.utility == 0.0
        assert summary.windows[0].qos == ()

    def test_completion_violation_and_drop_tally_per_class(self):
        acc = self.make_accumulator()
        acc.observe_arrival(1.0)
        acc.observe_completion(1.0, cold=False, queue_ms=2.0, source="a",
                               qos="critical", violated=False, utility=4.0)
        acc.observe_arrival(2.0)
        acc.observe_completion(2.0, cold=False, queue_ms=900.0, source="a",
                               qos="critical", violated=True, utility=-2.0)
        acc.observe_arrival(3.0)
        acc.observe_shed(3.0, source="a", qos="batch", penalty=0.05)
        summary = acc.finalize()
        by_class = {entry.qos_class: entry for entry in summary.qos}
        critical = by_class["critical"]
        assert (critical.completed, critical.violations, critical.dropped) == (2, 1, 0)
        assert critical.violation_rate == pytest.approx(0.5)
        assert critical.utility == pytest.approx(4.0 - 2.0)
        batch = by_class["batch"]
        assert (batch.completed, batch.violations, batch.dropped) == (0, 0, 1)
        assert batch.utility == pytest.approx(-0.05)
        assert summary.utility == pytest.approx(2.0 - 0.05)

    def test_qos_classes_sorted_in_window_and_summary(self):
        acc = self.make_accumulator()
        for name in ("standard", "batch", "critical"):
            acc.observe_arrival(1.0)
            acc.observe_completion(1.0, cold=False, queue_ms=1.0, source="a",
                                   qos=name, utility=1.0)
        summary = acc.finalize()
        names = [entry.qos_class for entry in summary.qos]
        assert names == sorted(names) == ["batch", "critical", "standard"]
        window_names = [entry.qos_class for entry in summary.windows[0].qos]
        assert window_names == names

    def test_merge_recombines_per_class_series_losslessly(self):
        from repro.metrics import merge_wire

        def fill(acc, source, utility):
            acc.observe_arrival(10.0)
            acc.observe_completion(10.0, cold=False, queue_ms=3.0,
                                   source=source, qos="critical",
                                   utility=utility)
            acc.observe_arrival(70.0)
            acc.observe_shed(70.0, source=source, qos="batch", penalty=0.05)

        together = self.make_accumulator()
        fill(together, "a", 4.0)
        fill(together, "b", 3.5)
        part_a = self.make_accumulator()
        fill(part_a, "a", 4.0)
        part_b = self.make_accumulator()
        fill(part_b, "b", 3.5)

        merged = merge_wire([part_a.to_wire(), part_b.to_wire()])
        assert merged == together.finalize()
        part_a.absorb(part_b.state())
        state = part_a.state()["windows"]["0"]
        assert state["qos_sums"]["critical"] == {"a": 4.0, "b": 3.5}
        assert merged.utility == pytest.approx(4.0 + 3.5 - 2 * 0.05)

    def test_merge_handles_class_present_in_one_shard_only(self):
        from repro.metrics import merge_wire

        part_a = self.make_accumulator()
        part_a.observe_arrival(1.0)
        part_a.observe_completion(1.0, cold=False, queue_ms=1.0, source="a",
                                  qos="critical", utility=4.0)
        part_b = self.make_accumulator()
        part_b.observe_arrival(2.0)
        part_b.observe_shed(2.0, source="b", qos="batch", penalty=0.05)

        merged = merge_wire([part_a.to_wire(), part_b.to_wire()])
        by_class = {entry.qos_class: entry for entry in merged.qos}
        assert by_class["critical"].completed == 1
        assert by_class["batch"].dropped == 1
        assert merged.utility == pytest.approx(4.0 - 0.05)
