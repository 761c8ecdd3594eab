"""Tests for the clock abstraction."""

import pytest

from repro.common.clock import Clock, RealClock, VirtualClock


class TestRealClock:
    def test_now_is_monotonic(self):
        clock = RealClock()
        first = clock.now()
        second = clock.now()
        assert second >= first

    def test_satisfies_protocol(self):
        assert isinstance(RealClock(), Clock)


class TestVirtualClock:
    def test_starts_at_given_time(self):
        assert VirtualClock(start=42.0).now() == 42.0

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)

    def test_advance_moves_forward(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        assert clock.now() == 5.0

    def test_advance_to_rejects_rewind(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(5.0)
