"""Tests for entry-point popularity models."""

import pytest

from repro.common.errors import WorkloadError
from repro.workloads.popularity import EntryMix, zipf_mix


class TestEntryMix:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(WorkloadError):
            EntryMix(entries=("a",), weights=(0.5, 0.5))

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            EntryMix(entries=(), weights=())

    def test_rejects_negative_weight(self):
        with pytest.raises(WorkloadError):
            EntryMix(entries=("a", "b"), weights=(0.5, -0.1))

    def test_rejects_zero_total(self):
        with pytest.raises(WorkloadError):
            EntryMix(entries=("a",), weights=(0.0,))

    def test_probability_normalizes(self):
        mix = EntryMix(entries=("a", "b"), weights=(3.0, 1.0))
        assert mix.probability("a") == 0.75

    def test_probability_unknown_entry(self):
        mix = EntryMix(entries=("a",), weights=(1.0,))
        with pytest.raises(WorkloadError):
            mix.probability("ghost")

    def test_sample_sequence_deterministic(self):
        mix = zipf_mix(["a", "b", "c"])
        assert mix.sample_sequence(20, seed=5) == mix.sample_sequence(20, seed=5)

    def test_sample_sequence_respects_support(self):
        mix = EntryMix(entries=("a", "b"), weights=(1.0, 0.0))
        assert set(mix.sample_sequence(30, seed=2)) == {"a"}

    def test_proportional_sequence_exact_counts(self):
        mix = EntryMix(entries=("a", "b"), weights=(0.75, 0.25))
        sequence = mix.proportional_sequence(100)
        assert sequence.count("a") == 75
        assert sequence.count("b") == 25

    def test_proportional_sequence_largest_remainder(self):
        mix = EntryMix(entries=("a", "b", "c"), weights=(1.0, 1.0, 1.0))
        sequence = mix.proportional_sequence(10)
        counts = sorted(sequence.count(e) for e in ("a", "b", "c"))
        assert counts == [3, 3, 4]

    def test_proportional_sequence_total_length(self):
        mix = zipf_mix(["a", "b", "c", "d"])
        assert len(mix.proportional_sequence(503)) == 503


class TestZipfMix:
    def test_first_entry_most_popular(self):
        mix = zipf_mix(["a", "b", "c"], exponent=1.5)
        assert mix.weights[0] > mix.weights[1] > mix.weights[2]

    def test_top_entries_dominate(self):
        # Fig. 3: the top few handlers carry ~80 % of invocations.
        mix = zipf_mix([f"h{i}" for i in range(10)], exponent=1.6)
        top_three = sum(mix.weights[:3])
        assert top_three > 0.78 * sum(mix.weights)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            zipf_mix([])
