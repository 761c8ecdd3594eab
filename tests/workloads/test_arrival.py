"""Tests for arrival processes."""

import math

import pytest

from repro.common.errors import WorkloadError
from repro.workloads.arrival import (
    burst_entries,
    bursty_schedule,
    poisson_schedule,
    regional_poisson_arrivals,
)
from repro.workloads.popularity import EntryMix, zipf_mix


@pytest.fixture()
def mix() -> EntryMix:
    return zipf_mix(["a", "b", "c"])


def one_region_schedule(mix, rate_per_s, duration_s):
    return list(regional_poisson_arrivals(mix, {"us": rate_per_s}, duration_s))


#: Every schedule generator with arguments it accepts.
GENERATORS = [
    (poisson_schedule, {"rate_per_s": 2.0, "duration_s": 10.0}),
    (
        bursty_schedule,
        {"base_rate_per_s": 1.0, "burst_rate_per_s": 4.0, "period_s": 5.0,
         "burst_fraction": 0.2, "duration_s": 10.0},
    ),
    (one_region_schedule, {"rate_per_s": 2.0, "duration_s": 10.0}),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "generator, good, field",
    [
        (generator, good, field)
        for generator, good in GENERATORS
        for field in good
        if field != "burst_fraction"
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_rejects_bad_rates_durations_and_periods(mix, generator, good, field, bad):
    # NaN and inf used to get past ``<= 0`` and append forever.
    assert generator(mix, **good)
    with pytest.raises(WorkloadError, match="must be positive and finite"):
        generator(mix, **{**good, field: bad})


class TestPoissonSchedule:
    def test_times_sorted_and_bounded(self, mix):
        schedule = poisson_schedule(mix, rate_per_s=5.0, duration_s=100.0, seed=1)
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < 100.0 for t in times)

    def test_rate_roughly_respected(self, mix):
        schedule = poisson_schedule(mix, rate_per_s=5.0, duration_s=200.0, seed=2)
        assert 800 <= len(schedule) <= 1200

    def test_deterministic(self, mix):
        one = poisson_schedule(mix, rate_per_s=2.0, duration_s=50.0, seed=9)
        two = poisson_schedule(mix, rate_per_s=2.0, duration_s=50.0, seed=9)
        assert one == two

    def test_start_offset(self, mix):
        schedule = poisson_schedule(
            mix, rate_per_s=5.0, duration_s=10.0, seed=1, start_s=1000.0
        )
        assert all(1000.0 <= t < 1010.0 for t, _ in schedule)

    def test_entries_come_from_mix(self, mix):
        schedule = poisson_schedule(mix, rate_per_s=5.0, duration_s=50.0, seed=4)
        assert {entry for _, entry in schedule} <= {"a", "b", "c"}


class TestBurstEntries:
    def test_proportional_by_default(self, mix):
        burst = burst_entries(mix, 100)
        assert len(burst) == 100
        assert burst == burst_entries(mix, 100)

    def test_sampled_with_seed(self, mix):
        burst = burst_entries(mix, 100, seed=7)
        assert len(burst) == 100
        assert burst != burst_entries(mix, 100)  # proportional ordering differs
