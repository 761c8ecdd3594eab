"""Arrival processes for replaying workloads against a platform.

Besides the paper's measurement protocols (Poisson profiling traffic and
N-concurrent bursts), this module generates cluster-scale inputs: on/off
bursty schedules that stress autoscaling, merged multi-application
streams for fleet experiments (see :mod:`repro.faas.cluster`), and
region-tagged schedules for the multi-region federation
(see :mod:`repro.faas.region`).
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Mapping

from repro.common.errors import WorkloadError
from repro.common.rng import SeededRNG, derive_seed
from repro.workloads.popularity import EntryMix


#: The most arrivals one schedule or trace window, or windows one trace,
#: may ask for.  A hundred million is far past any replay here (a full
#: default trace is about twelve million arrivals in 3 094 app-windows);
#: a count beyond it is refused before the loop that would draw it, which
#: would otherwise run for hours or until memory runs out.
MAX_COUNT = 10**8


def _require_positive(what: str, value: float) -> None:
    # NaN fails every ``<= 0`` test and ``expovariate(inf)`` is 0.0: either
    # one turns the generators' ``while`` loops into an endless append.
    if not math.isfinite(value) or value <= 0:
        raise WorkloadError(f"{what} must be positive and finite: {value}")


def poisson_arrivals(
    mix: EntryMix,
    rate_per_s: float,
    duration_s: float,
    seed: int = 0,
    start_s: float = 0.0,
) -> Iterator[tuple[float, str]]:
    """Poisson arrivals with i.i.d. entry choices, drawn lazily: ``(time,
    entry)`` pairs.  The arguments are checked at the first draw."""
    _require_positive("rate", rate_per_s)
    _require_positive("duration", duration_s)
    if rate_per_s * duration_s > MAX_COUNT:
        raise WorkloadError(
            f"{rate_per_s:g}/s for {duration_s:g} s is more than "
            f"{MAX_COUNT:,} arrivals"
        )
    rng = SeededRNG(seed)
    now = start_s
    while True:
        now += rng.expovariate(rate_per_s)
        if now >= start_s + duration_s:
            return
        yield now, rng.weighted_choice(mix.entries, mix.weights)


def poisson_schedule(
    mix: EntryMix,
    rate_per_s: float,
    duration_s: float,
    seed: int = 0,
    start_s: float = 0.0,
) -> list[tuple[float, str]]:
    """:func:`poisson_arrivals` as a list."""
    return list(poisson_arrivals(mix, rate_per_s, duration_s, seed, start_s))


def burst_entries(mix: EntryMix, count: int, seed: int | None = None) -> list[str]:
    """Entry list for an N-concurrent burst.

    With ``seed=None`` the mix's exact proportional sequence is used
    (deterministic measurement); otherwise entries are sampled i.i.d.
    """
    if seed is None:
        return mix.proportional_sequence(count)
    return mix.sample_sequence(count, seed)


def bursty_schedule(
    mix: EntryMix,
    base_rate_per_s: float,
    burst_rate_per_s: float,
    period_s: float,
    burst_fraction: float,
    duration_s: float,
    seed: int = 0,
) -> list[tuple[float, str]]:
    """On/off-modulated Poisson arrivals (a Markov-modulated process).

    Each period of ``period_s`` seconds opens with a burst phase lasting
    ``burst_fraction`` of the period at ``burst_rate_per_s``, then falls
    back to ``base_rate_per_s``.  Bursts drive fleet scale-out; the quiet
    phases let keep-alives expire — the traffic shape that makes
    cold-start rates interesting at cluster scale.
    """
    _require_positive("base rate", base_rate_per_s)
    _require_positive("burst rate", burst_rate_per_s)
    _require_positive("duration", duration_s)
    _require_positive("period", period_s)
    if not 0.0 <= burst_fraction <= 1.0:
        raise WorkloadError(f"burst fraction must be in [0, 1]: {burst_fraction}")
    rng = SeededRNG(seed)
    schedule: list[tuple[float, str]] = []
    now = 0.0
    while now < duration_s:
        offset = now % period_s
        boundary = burst_fraction * period_s
        in_burst = offset < boundary
        rate = burst_rate_per_s if in_burst else base_rate_per_s
        phase_end = now - offset + (boundary if in_burst else period_s)
        gap = rng.expovariate(rate)
        if now + gap >= phase_end:
            # No arrival before the phase flips; restart sampling at the
            # next phase's rate.  Exact for a piecewise-constant-rate
            # Poisson process by memorylessness — without this, one long
            # quiet-phase gap can silently jump whole burst windows.
            now = phase_end
            continue
        now += gap
        if now >= duration_s:
            break
        schedule.append((now, rng.weighted_choice(mix.entries, mix.weights)))
    return schedule


def merge_tagged_schedules(
    streams: Iterable[tuple[str, Iterable[tuple[float, str]]]],
) -> Iterator[tuple[float, str, str]]:
    """Merge per-region schedules into one region-tagged arrival stream, lazily.

    ``streams`` pairs a region name with its time-ordered ``(arrival_s,
    entry)`` schedule; the result yields ``(arrival_s, entry, region)``
    triples in global time order (ties broken by stream position,
    deterministically), drawing from each schedule only as far as the
    merge has reached.
    """
    def tagged(index, region, schedule):
        for at, entry in schedule:
            yield at, index, entry, region

    merged = heapq.merge(*(
        tagged(index, region, schedule)
        for index, (region, schedule) in enumerate(streams)
    ))
    return ((at, entry, region) for at, _, entry, region in merged)


def regional_poisson_arrivals(
    mix: EntryMix,
    rates_per_s: Mapping[str, float],
    duration_s: float,
    seed: int = 0,
) -> Iterator[tuple[float, str, str]]:
    """Independent per-region Poisson traffic, merged lazily into one stream.

    Each region draws its own arrival process at its own rate from a seed
    derived per region (``derive_seed(seed, "region", name)``), so adding
    a region never perturbs the others' schedules.  Yields region-tagged
    ``(arrival_s, entry, region)`` triples in global time order, ready
    for the federation.
    """
    return merge_tagged_schedules(
        (region, poisson_arrivals(
            mix, rate, duration_s, seed=derive_seed(seed, "region", region)
        ))
        for region, rate in rates_per_s.items()
    )
