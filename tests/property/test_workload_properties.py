"""Property-based tests for arrival processes and popularity mixes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrival import (
    burst_entries,
    bursty_schedule,
    poisson_schedule,
)
from repro.workloads.popularity import EntryMix, zipf_mix

_entry_names = st.lists(
    st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
    min_size=1,
    max_size=5,
    unique=True,
)


@st.composite
def mixes(draw):
    entries = draw(_entry_names)
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
            min_size=len(entries),
            max_size=len(entries),
        )
    )
    return EntryMix(entries=tuple(entries), weights=tuple(weights))


_rates = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
_durations = st.floats(min_value=1.0, max_value=500.0, allow_nan=False)
_seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestPoissonScheduleProperties:
    @given(mixes(), _rates, _durations, _seeds)
    @settings(max_examples=40)
    def test_sorted_and_bounded_by_duration(self, mix, rate, duration, seed):
        schedule = poisson_schedule(mix, rate, duration, seed=seed)
        times = [at for at, _ in schedule]
        assert times == sorted(times)
        assert all(0.0 <= at < duration for at in times)
        assert all(entry in mix.entries for _, entry in schedule)

    @given(mixes(), _rates, _durations, _seeds)
    @settings(max_examples=40)
    def test_identical_seeds_identical_schedules(self, mix, rate, duration, seed):
        one = poisson_schedule(mix, rate, duration, seed=seed)
        two = poisson_schedule(mix, rate, duration, seed=seed)
        assert one == two

    @given(mixes(), _seeds)
    @settings(max_examples=20)
    def test_entry_frequencies_converge_to_mix(self, mix, seed):
        """Observed entry shares approach the configured probabilities."""
        schedule = poisson_schedule(mix, rate_per_s=40.0, duration_s=400.0, seed=seed)
        counts = {entry: 0 for entry in mix.entries}
        for _, entry in schedule:
            counts[entry] += 1
        total = len(schedule)
        for entry in mix.entries:
            expected = mix.probability(entry)
            tolerance = 4.0 * math.sqrt(expected * (1 - expected) / total) + 0.01
            assert counts[entry] / total == pytest.approx(
                expected, abs=tolerance
            )


class TestBurstyScheduleProperties:
    @given(mixes(), _seeds)
    @settings(max_examples=30)
    def test_sorted_bounded_and_deterministic(self, mix, seed):
        kwargs = dict(
            base_rate_per_s=0.5,
            burst_rate_per_s=20.0,
            period_s=60.0,
            burst_fraction=0.2,
            duration_s=300.0,
            seed=seed,
        )
        schedule = bursty_schedule(mix, **kwargs)
        times = [at for at, _ in schedule]
        assert times == sorted(times)
        assert all(0.0 <= at < 300.0 for at in times)
        assert schedule == bursty_schedule(mix, **kwargs)

    @given(mixes(), _seeds)
    @settings(max_examples=20)
    def test_burst_phase_is_denser(self, mix, seed):
        schedule = bursty_schedule(
            mix,
            base_rate_per_s=0.5,
            burst_rate_per_s=50.0,
            period_s=100.0,
            burst_fraction=0.3,
            duration_s=1000.0,
            seed=seed,
        )
        in_burst = sum(1 for at, _ in schedule if at % 100.0 < 30.0)
        assert in_burst > len(schedule) / 2  # 30% of time, most arrivals


class TestBurstEntriesProperties:
    @given(mixes(), st.integers(min_value=1, max_value=500))
    @settings(max_examples=40)
    def test_proportional_counts_match_quota(self, mix, count):
        burst = burst_entries(mix, count)
        assert len(burst) == count
        total_weight = sum(mix.weights)
        for entry, weight in zip(mix.entries, mix.weights):
            quota = count * weight / total_weight
            observed = burst.count(entry)
            assert math.floor(quota) <= observed <= math.ceil(quota)

    @given(mixes(), st.integers(min_value=0, max_value=200), _seeds)
    @settings(max_examples=40)
    def test_sampled_burst_deterministic_per_seed(self, mix, count, seed):
        assert burst_entries(mix, count, seed=seed) == burst_entries(
            mix, count, seed=seed
        )


class TestMixProperties:
    @given(_entry_names, st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=40)
    def test_zipf_weights_normalized_and_rank_ordered(self, entries, exponent):
        mix = zipf_mix(list(entries), exponent=exponent)
        assert sum(mix.weights) == pytest.approx(1.0)
        assert list(mix.weights) == sorted(mix.weights, reverse=True)

    @given(_entry_names)
    @settings(max_examples=20)
    def test_uniform_mix_equal_probabilities(self, entries):
        mix = EntryMix(tuple(entries), (1.0,) * len(entries))
        for entry in entries:
            assert mix.probability(entry) == pytest.approx(1.0 / len(entries))


class TestTaggedScheduleProperties:
    """The invariants the replay heap-merge relies on, pinned for the
    region-tagged schedule tools: determinism under a fixed seed and
    global non-decreasing time order with per-stream counts preserved."""

    @given(mixes(), mixes(), _seeds)
    @settings(max_examples=30)
    def test_merge_tagged_preserves_order_and_counts(self, mix_a, mix_b, seed):
        from repro.workloads.arrival import merge_tagged_schedules

        one = poisson_schedule(mix_a, 2.0, 100.0, seed=seed)
        two = poisson_schedule(mix_b, 3.0, 100.0, seed=seed + 1)
        merged = list(merge_tagged_schedules([("us", one), ("eu", two)]))
        times = [at for at, _, _ in merged]
        assert times == sorted(times)
        assert len(merged) == len(one) + len(two)
        assert sum(1 for _, _, region in merged if region == "us") == len(one)
        assert [
            (at, entry) for at, entry, region in merged if region == "eu"
        ] == two

    @given(mixes(), mixes(), _seeds)
    @settings(max_examples=30)
    def test_merge_tagged_deterministic_under_fixed_inputs(self, mix_a, mix_b, seed):
        from repro.workloads.arrival import merge_tagged_schedules

        streams = [
            ("us", poisson_schedule(mix_a, 2.0, 80.0, seed=seed)),
            ("eu", poisson_schedule(mix_b, 1.0, 80.0, seed=seed + 1)),
        ]
        assert list(merge_tagged_schedules(streams)) == list(merge_tagged_schedules(streams))

    @given(mixes(), _seeds)
    @settings(max_examples=30)
    def test_regional_poisson_sorted_and_deterministic(self, mix, seed):
        from repro.workloads.arrival import regional_poisson_arrivals

        rates = {"us": 3.0, "eu": 1.0, "ap": 0.5}
        one = list(regional_poisson_arrivals(mix, rates, duration_s=120.0, seed=seed))
        two = list(regional_poisson_arrivals(mix, rates, duration_s=120.0, seed=seed))
        assert one == two
        times = [at for at, _, _ in one]
        assert times == sorted(times)
        assert {region for _, _, region in one} <= set(rates)

    @given(mixes(), _seeds)
    @settings(max_examples=20)
    def test_regional_poisson_regions_are_independent(self, mix, seed):
        """Adding a region never perturbs the other regions' streams."""
        from repro.workloads.arrival import regional_poisson_arrivals

        base = list(regional_poisson_arrivals(
            mix, {"us": 2.0, "eu": 1.0}, duration_s=100.0, seed=seed
        ))
        widened = list(regional_poisson_arrivals(
            mix, {"us": 2.0, "eu": 1.0, "ap": 4.0}, duration_s=100.0, seed=seed
        ))
        kept = [item for item in widened if item[2] != "ap"]
        assert kept == base


class TestReplayStreamProperties:
    """The replay compiler's core invariants: globally non-decreasing
    arrival times, determinism under a fixed seed, and exact volume for
    count-preserving arrival models."""

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
        _seeds,
        _seeds,
    )
    @settings(max_examples=20, deadline=None)
    def test_compiled_stream_sorted_deterministic_exact(
        self, apps, windows, trace_seed, replay_seed
    ):
        from repro.workloads.replay import compile_trace
        from repro.workloads.trace import TraceGenerator

        trace = TraceGenerator(
            app_count=apps,
            duration_hours=windows * 6.0,
            window_hours=6.0,
            mean_requests_per_window=60.0,
            seed=trace_seed,
        ).generate()
        events = list(compile_trace(trace, seed=replay_seed))
        times = [at for at, _, _ in events]
        assert times == sorted(times)
        assert events == list(compile_trace(trace, seed=replay_seed))
        assert len(events) == sum(app.total_invocations() for app in trace.apps)
