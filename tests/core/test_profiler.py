"""Tests for the sampling call-path profilers."""

import threading
import time

import pytest

from repro.common.errors import ProfilingError
from repro.core.profiler import ThreadSampler


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestThreadSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ProfilingError):
            ThreadSampler(interval_ms=0)

    def test_take_sample_captures_current_stack(self):
        sampler = ThreadSampler(target_thread_id=threading.get_ident())
        sample = sampler.take_sample()
        assert sample is not None
        functions = [frame.function for frame in sample.path]
        assert "test_take_sample_captures_current_stack" in functions

    def test_samples_accumulate_during_run(self):
        sampler = ThreadSampler(
            interval_ms=2.0, target_thread_id=threading.get_ident()
        )
        sampler.start()
        busy_wait(0.08)
        samples = sampler.stop()
        assert len(samples) >= 5

    def test_stop_without_start_rejected(self):
        with pytest.raises(ProfilingError):
            ThreadSampler().stop()

    def test_double_start_rejected(self):
        sampler = ThreadSampler(interval_ms=50.0)
        sampler.start()
        try:
            with pytest.raises(ProfilingError):
                sampler.start()
        finally:
            sampler.stop()

    def test_context_manager(self):
        with ThreadSampler(
            interval_ms=2.0, target_thread_id=threading.get_ident()
        ) as sampler:
            busy_wait(0.03)
        assert len(sampler.samples) >= 2

    def test_samples_attribute_busy_function(self):
        sampler = ThreadSampler(
            interval_ms=1.0, target_thread_id=threading.get_ident()
        )
        sampler.start()
        busy_wait(0.05)
        samples = sampler.stop()
        hits = sum(
            1
            for sample in samples
            for frame in sample.path
            if frame.function == "busy_wait"
        )
        assert hits >= len(samples) * 0.5

    def test_missing_thread_returns_none(self):
        sampler = ThreadSampler(target_thread_id=999_999_999)
        assert sampler.take_sample() is None
