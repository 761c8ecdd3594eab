"""Host-speed probe: what makes times from a shared box comparable.

The boxes this benchmark runs on are small shared VMs whose speed moves
on two time scales, with no steal reported and no hardware counter
exposed to count instructions instead.  Measured here, same code, back
to back: this module's probe (then with the collector on) 67 .. 209 ms
within one minute (bursts of a few hundred milliseconds), and its 3-second means 74 .. 100 ms over a
minute and a half (phases that last minutes).  The same CLI command
read 1.27 .. 2.14 s of *CPU* time over twenty runs; medians of five
consecutive runs still spread (IQR / median) 0.22-0.31.  A benchmark
run of half a minute sits inside one slow phase, so no statistic over
its own repetitions removes that, and two runs minutes apart disagree
by more than any bound worth gating on.

So every cold invocation is bracketed by a few runs of a fixed
pure-Python probe — a heap/dict/tuple/attribute loop in the style of
the event loop, owned by the benchmark and never changed by a PR under
test — and a workload's times are reported at the *reference* host
speed:

    seconds at reference speed
        = median measured seconds * REFERENCE_PROBE_S / typical probe seconds

where the typical probe is the mean of the fastest nine tenths of all
the probes interleaved with that workload's invocations.  A mean, not
the median and not only the neighbouring probes: an invocation
integrates the bursts it spans, so the denominator has to integrate
them too, and a single 56 ms probe is far noisier than the seconds-long
invocation beside it (bracket-by-bracket calibration made the 9 s
``table2`` wall spread 0.16-0.26 where the raw wall spread 0.07).
Trimmed, because a few dozen probes cannot estimate the rare 3x stall
that a ten-second invocation averages out (with the plain mean two
``table2`` runs of equal raw wall read 6.25 s and 7.78 s).

Twice ten runs of each workload, each run with another seed and pinned
to one CPU like its probes (``bench.invoke.pin_to_one_cpu``), while the
host's speed ranged 0.77-1.14 of the reference: the raw medians spread
(IQR / median) up to 0.24, the values at reference speed 0.01-0.11, and
the two batches' medians agree within 0.025 (``bench/README.md`` has the
table).  The raw numbers are still printed and written next to the
calibrated ones.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Seconds :func:`probe` takes on the reference host (this repo's 2-core
#: builder box when nothing else slows it).  A constant, so seconds at
#: reference speed mean the same thing on every run.
REFERENCE_PROBE_S = 0.056
#: Probe runs between two consecutive invocations.
PROBES_PER_BRACKET = 3
_PROBE_STEPS = 60_000


class _Cell:
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: int) -> None:
        self.index = index
        self.value = value


def probe() -> float:
    """Seconds one fixed event-loop-shaped computation takes right now.

    The collector is off meanwhile: its passes walk every tracked object
    of the calling process, and the probe must cost the same beside an
    empty heap as beside a traced run's 300 000 materialized arrivals.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: list[tuple] = []
        seen: dict[int, int] = {}
        done = []
        push, pop = heapq.heappush, heapq.heappop
        state = 12345
        for index in range(_PROBE_STEPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            push(heap, (state * 1e-3, index, _Cell(index, state)))
            key = state % 997
            seen[key] = seen.get(key, 0) + 1
            if index & 1:
                at, _, cell = pop(heap)
                done.append((at, cell.index + cell.value))
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def bracket() -> list[float]:
    """The probe runs that separate two invocations."""
    return [probe() for _ in range(PROBES_PER_BRACKET)]


def host_speed(probes: list[float]) -> float:
    """Host speed while the probes ran: 1.0 is the reference host."""
    kept = sorted(probes)[: max(1, len(probes) * 9 // 10)]
    return REFERENCE_PROBE_S / statistics.mean(kept)
