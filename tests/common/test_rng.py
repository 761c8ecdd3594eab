"""Tests for seeded randomness helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import SeededRNG, derive_seed, spread


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_labels_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_base_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")


class TestSeededRNG:
    def test_same_seed_same_stream(self):
        a = SeededRNG(5)
        b = SeededRNG(5)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_child_streams_are_independent(self):
        parent = SeededRNG(5)
        child_a = parent.child("x")
        child_b = parent.child("y")
        assert child_a.random() != child_b.random()

    def test_child_is_reproducible(self):
        assert SeededRNG(5).child("x").random() == SeededRNG(5).child("x").random()

    def test_uniform_bounds(self):
        rng = SeededRNG(0)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        low=st.floats(min_value=-1e12, max_value=1e12),
        span=st.floats(min_value=-1e12, max_value=1e12),
        count=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniform_list_is_the_uniform_stream(self, seed, low, span, count):
        one = SeededRNG(seed)
        expected = [one.uniform(low, low + span) for _ in range(count)]
        drawn = SeededRNG(seed).uniform_list(low, low + span, count)
        assert [x.hex() for x in drawn] == [x.hex() for x in expected]

    def test_expovariate_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SeededRNG(0).expovariate(0.0)

    def test_weighted_choice_length_mismatch(self):
        with pytest.raises(ValueError):
            SeededRNG(0).weighted_choice(["a"], [0.5, 0.5])

    def test_weighted_choice_respects_zero_weight(self):
        rng = SeededRNG(0)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_zipf_weights_normalized(self):
        weights = SeededRNG(0).zipf_weights(10, exponent=1.2)
        assert abs(sum(weights) - 1.0) < 1e-12

    def test_zipf_weights_decreasing(self):
        weights = SeededRNG(0).zipf_weights(8, exponent=1.0)
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_zipf_exponent_zero_is_uniform(self):
        weights = SeededRNG(0).zipf_weights(4, exponent=0.0)
        assert all(abs(w - 0.25) < 1e-12 for w in weights)

    def test_zipf_rejects_bad_count(self):
        with pytest.raises(ValueError):
            SeededRNG(0).zipf_weights(0)


class TestSpread:
    def test_rescales_to_total(self):
        values = spread([1.0, 3.0], total=8.0)
        assert values == [2.0, 6.0]

    def test_empty_input(self):
        assert spread([], total=5.0) == []

    def test_zero_sum_splits_evenly(self):
        assert spread([0.0, 0.0], total=4.0) == [2.0, 2.0]
