"""Sampling call-path profiler (the "Call Path Collector" of Fig. 7).

:class:`ThreadSampler` is a daemon thread that periodically snapshots the
target thread's stack via ``sys._current_frames``.  It works on every
platform and thread (the paper's ``setitimer`` + ``SIGPROF`` sampler,
§IV-A2, is main-thread only), and exposes
:meth:`ThreadSampler.take_sample` so tests can capture deterministically.

It returns a :class:`SampleSet` of cleaned, classified samples: import
machinery frames are stripped and stacks caught inside module top-level
code are tagged ``init`` so they can be separated from runtime utilization.
"""

from __future__ import annotations

import sys
import threading
from types import FrameType

from repro.common.errors import ProfilingError
from repro.core.samples import Frame, Sample, SampleSet, classify_stack


def _stack_from_frame(frame: FrameType | None) -> tuple[Frame, ...]:
    """Walk a leaf frame's back-chain; returns root-first frames."""
    frames: list[Frame] = []
    current = frame
    while current is not None:
        frames.append(
            Frame(
                file=current.f_code.co_filename,
                function=current.f_code.co_name,
                line=current.f_lineno,
            )
        )
        current = current.f_back
    frames.reverse()
    return tuple(frames)


class ThreadSampler:
    """Background-thread statistical sampler.

    ``interval_ms`` controls the sampling frequency (the paper exposes the
    same knob through its API).  Stop returns the accumulated samples.
    """

    def __init__(
        self,
        interval_ms: float = 5.0,
        target_thread_id: int | None = None,
    ) -> None:
        if interval_ms <= 0:
            raise ProfilingError(f"interval must be positive: {interval_ms}")
        self.interval_ms = interval_ms
        self._target_thread_id = target_thread_id
        self._samples = SampleSet()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    @property
    def samples(self) -> SampleSet:
        return self._samples

    def take_sample(self) -> Sample | None:
        """Capture the target thread's stack right now (or None if gone)."""
        target = self._target_thread_id
        if target is None:
            target = threading.main_thread().ident
        frame = sys._current_frames().get(target)
        if frame is None:
            return None
        raw = _stack_from_frame(frame)
        path, kind = classify_stack(raw)
        sample = Sample(path=path, weight=1.0, kind=kind)
        self._samples.add(sample)
        return sample

    def start(self) -> "ThreadSampler":
        if self._thread is not None:
            raise ProfilingError("sampler already running")
        self._stop_event.clear()

        def loop() -> None:
            interval_s = self.interval_ms / 1000.0
            while not self._stop_event.wait(interval_s):
                self.take_sample()

        self._thread = threading.Thread(
            target=loop, name="slimstart-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> SampleSet:
        if self._thread is None:
            raise ProfilingError("sampler is not running")
        self._stop_event.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        return self._samples

    def __enter__(self) -> "ThreadSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self.stop()
