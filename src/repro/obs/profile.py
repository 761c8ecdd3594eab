"""Wall-clock phase profiling for replay runs.

The 1M-req/s replay push needs to know where wall-clock actually goes:
``compile_trace`` (the arrival-stream generator), the event loop itself,
shard merging, or checkpoint writes.  :class:`PhaseProfiler` is a tiny
accumulator the replay drivers thread a few timing hooks through —
``slimstart replay --profile`` prints its report, and the throughput
benchmark prints the same breakdown for its checkpointed run.

Stream compilation and the event loop interleave (the loop pulls
arrivals lazily), so the two are separated by timing the *generator*:
:meth:`wrap_iter` measures the time spent inside ``next()`` — that is
compile time by definition — and the driver attributes the remainder of
the total to the loop.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator

__all__ = ["PhaseProfiler"]


class PhaseProfiler:
    """Accumulates named wall-clock phases for one replay run."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        """Credit ``seconds`` of wall-clock to phase ``name``."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    @contextmanager
    def phase(self, name: str):
        """Time a ``with`` block as phase ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - start)

    def wrap_iter(self, items: Iterable, name: str) -> Iterator:
        """Pass ``items`` through, crediting time spent *producing* them.

        Only the time inside the underlying iterator's ``next()`` counts
        — for a lazily-compiled arrival stream that is exactly the
        compile phase, no matter how the consumer interleaves with it.
        """
        iterator = iter(items)
        while True:
            start = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                self.add(name, time.perf_counter() - start)
                return
            self.add(name, time.perf_counter() - start)
            yield item

    def seconds(self, name: str) -> float:
        """Total wall-clock credited to ``name`` so far (0.0 if never)."""
        return self._seconds.get(name, 0.0)

    def derive(self, name: str, total: str, *parts: str) -> None:
        """Credit ``total`` minus ``parts`` to ``name`` (floored at 0).

        The event loop is measured this way: it is whatever of the run's
        total was not spent compiling the stream or writing checkpoints.
        """
        remainder = self.seconds(total) - sum(self.seconds(p) for p in parts)
        self._seconds[name] = max(0.0, remainder)

    def report(self, requests: int | None = None) -> dict:
        """The phase table: seconds per phase, plus req/s when known."""
        phases = {}
        for name in sorted(self._seconds):
            entry = {"seconds": round(self._seconds[name], 4)}
            if requests and self._seconds[name] > 0:
                entry["requests_per_s"] = round(
                    requests / self._seconds[name], 1
                )
            phases[name] = entry
        return phases
