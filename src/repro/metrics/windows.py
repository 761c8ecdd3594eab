"""Windowed metric accumulation for streaming replays.

A multi-day trace replayed through the cluster simulator produces millions
of invocation records; materializing them defeats the point of a streaming
replay and averaging them into one number hides exactly the transients the
paper's workload-shift events exist to produce.  This module folds a record
*stream* into fixed-size time windows at **O(windows) memory**:

* every per-window quantity is either a counter, an exact running sum, or
  a fixed-width log-spaced latency histogram (:class:`_LatencyHistogram`,
  64 buckets) from which quantiles are estimated — no per-request value is
  ever retained;
* provisioned GB-seconds are spread across the windows a container's
  lifetime overlaps, so keep-alive tails show up in the window that paid
  for them, and each window is priced through the PR 3
  :class:`~repro.metrics.stats.PricingModel` into a
  :class:`~repro.metrics.stats.CostSummary`;
* float sums (queue waits, GB-seconds) are kept **per source** (the
  producers label them by application), so two accumulators that observed
  *disjoint* source sets merge losslessly: :func:`merge_wire` adds the
  integer counts and the per-source partials and derives every metric
  from the sum, which is what makes a sharded multi-process replay
  (:mod:`repro.workloads.shard`) bit-identical to a single-process one.

The producer side lives in :meth:`repro.faas.cluster.ClusterPlatform.run_stream`
and :meth:`repro.faas.region.RegionFederation.run_stream`, which feed an
accumulator via the four ``observe_*`` hooks; ``finalize()`` snapshots the
whole run as a :class:`WindowedSummary` time series.

Raw state leaves an accumulator in one format (:meth:`WindowAccumulator.state`)
and enters one through one reader (:meth:`WindowAccumulator.absorb`) —
checkpoint restore, shard merge and the pool wire are all that pair.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Iterator, Sequence

from repro.metrics.stats import DEFAULT_PRICING, CostSummary, PricingModel

#: Histogram geometry: bucket ``i`` covers latencies up to
#: ``_HIST_FLOOR_MS * _HIST_RATIO**i`` milliseconds.  64 buckets at ratio
#: sqrt(2) span 0.1 ms .. ~9.2e8 ms, far beyond any simulated latency;
#: quantile estimates are exact to within one half-octave.
_HIST_BUCKETS = 64

#: Sentinel for per-window rates/quantiles that have no population to
#: measure — a window whose every arrival was shed (or is still queued
#: at a mid-run flush) completed nothing, so its cold-start rate, queue
#: mean, and queue p95 are *undefined*, not 0.0 (which would read as
#: "all warm, served instantly").  Negative is impossible for all three
#: metrics, so ``value < 0`` is the documented "no data" test; the
#: sentinel is an ordinary float so summaries stay JSON-safe and
#: equality-comparable (NaN would break both).
UNDEFINED_RATE = -1.0
_HIST_FLOOR_MS = 0.1
_HIST_RATIO = math.sqrt(2.0)
_LOG_RATIO = math.log(_HIST_RATIO)


class _LatencyHistogram:
    """Fixed-size log-spaced latency histogram (bounded-memory quantiles).

    Holds integer bucket counts only; per-source running sums live on the
    window so they stay losslessly mergeable (integer counts merge by
    addition; a single float running sum would not, since float addition
    is order-dependent).
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = [0] * _HIST_BUCKETS

    def observe(self, value_ms: float) -> None:
        if value_ms < 0:
            raise ValueError(f"negative latency: {value_ms}")
        if value_ms <= _HIST_FLOOR_MS:
            index = 0
        else:
            index = min(
                _HIST_BUCKETS - 1,
                1 + int(math.log(value_ms / _HIST_FLOOR_MS) / _LOG_RATIO),
            )
        self.counts[index] += 1

    def quantile(self, q: float) -> float:
        """Latency at quantile ``q`` in [0, 1] (geometric bucket midpoint)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        total = sum(self.counts)
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for index, count in enumerate(self.counts):
            running += count
            # ``running > 0`` guards q=0: rank 0 would otherwise be satisfied
            # at bucket 0 even when it is empty — the minimum must come from
            # the first *non-empty* bucket.
            if running >= rank and running > 0:
                if index == 0:
                    return _HIST_FLOOR_MS
                lower = _HIST_FLOOR_MS * _HIST_RATIO ** (index - 1)
                return lower * math.sqrt(_HIST_RATIO)
        return _HIST_FLOOR_MS * _HIST_RATIO ** (_HIST_BUCKETS - 1)


def population_rate(numerator: float, population: int, undefined: bool) -> float:
    """``numerator / population``, honouring the :data:`UNDEFINED_RATE` rule.

    The one definition of a per-window rate shared by
    :func:`_window_stats` and the journal's per-app window rows
    (:mod:`repro.obs.journal`): a window with activity but no completion
    population reports :data:`UNDEFINED_RATE` (there is nothing to
    rate), a truly idle one reports the neutral 0.0.
    """
    if population:
        return numerator / population
    return UNDEFINED_RATE if undefined else 0.0


def _sum_by_source(sums: dict[str, float]) -> float:
    """Combine per-source partial sums in sorted-source order.

    The one definition of "total", whether the state was observed
    directly or absorbed from shards: as long as the per-source partials
    are identical, the combined float is identical — the keystone of the
    sharded-replay exactness argument.
    """
    return sum(sums[source] for source in sorted(sums))


@dataclass(frozen=True)
class QoSWindowStats:
    """One QoS class's behaviour inside one replay window.

    Utility follows the accounting of :class:`repro.metrics.qos.QoSClass`:
    in-deadline completions earn the class utility, late completions pay
    the deadline penalty, sheds/drops pay the drop penalty.  The float
    total is accumulated **per source** exactly like the window's
    queue-wait sums, so :func:`merge_wire` recombines it losslessly and
    sharded replays stay bit-identical.

    Attributes:
        qos_class: Class name (the wire format; see ``repro.metrics.qos``).
        completed: Requests of this class that finished service.
        violations: Completions whose end-to-end latency (queueing +
            service + forwarding wire time) exceeded the class deadline.
        dropped: Requests of this class shed by bounded queues or
            dropped by a routing policy.
        violation_rate: ``violations / completed`` (0 when idle).
        utility: Net utility earned by this class in this window.
    """

    qos_class: str
    completed: int
    violations: int
    dropped: int
    violation_rate: float
    utility: float


@dataclass(frozen=True)
class QoSSummary:
    """One QoS class's totals over a whole replay (see QoSWindowStats)."""

    qos_class: str
    completed: int
    violations: int
    dropped: int
    violation_rate: float
    utility: float


@dataclass(frozen=True)
class WindowStats:
    """One replay window's aggregate behaviour.

    Attributes:
        index: Window number (``floor(arrival_s / window_s)``).
        start_s: Window start on the replay clock.
        end_s: Window end (``start_s + window_s``).
        arrivals: Requests whose *arrival* fell in this window (served
            and shed alike; completions are attributed to their arrival
            window, so long service never leaks work into a later window).
        completed: Requests that finished service.
        shed: Requests rejected by bounded queues.
        cold_starts: Completions that paid a container boot.
        cold_start_rate: ``cold_starts / completed``; 0 when fully idle,
            :data:`UNDEFINED_RATE` when the window had arrivals but
            completed nothing (no population to rate).
        shed_rate: ``shed / arrivals`` (0 when idle).
        queue_mean_ms: Exact mean arrival-to-service wait
            (:data:`UNDEFINED_RATE` when nothing completed despite
            arrivals).
        queue_p95_ms: Histogram-estimated p95 wait (half-octave
            accuracy; :data:`UNDEFINED_RATE` when nothing completed
            despite arrivals).
        gb_seconds: Provisioned memory-time overlapping this window.
        boots: Containers whose boot started in this window.
        cost: The window priced as its own mini-run
            (:class:`~repro.metrics.stats.CostSummary`).
        qos: Per-class deadline-violation/utility/drop series for this
            window (:class:`QoSWindowStats`, sorted by class name); empty
            when the replay carried no QoS tags.
    """

    index: int
    start_s: float
    end_s: float
    arrivals: int
    completed: int
    shed: int
    cold_starts: int
    cold_start_rate: float
    shed_rate: float
    queue_mean_ms: float
    queue_p95_ms: float
    gb_seconds: float
    boots: int
    cost: CostSummary
    qos: tuple[QoSWindowStats, ...] = ()


@dataclass(frozen=True)
class WindowedSummary:
    """A streamed replay summarized as a per-window time series.

    ``windows`` is ordered by window index and only contains windows that
    saw any activity — the memory contract of streaming replay is that
    this tuple (plus one fixed-size histogram per window while
    accumulating) is *all* that a million-request replay retains.
    """

    window_s: float
    windows: tuple[WindowStats, ...]
    arrivals: int
    completed: int
    shed: int
    cold_starts: int
    cold_start_rate: float
    gb_seconds: float
    cost: CostSummary
    pricing: PricingModel = field(default=DEFAULT_PRICING)
    #: Per-class run totals (sorted by class name; empty without QoS tags).
    qos: tuple[QoSSummary, ...] = ()
    #: Net utility over the whole run (sum of the per-class totals in
    #: sorted-class order — deterministic, hence merge-stable).
    utility: float = 0.0

    def series(self, field: str) -> list[float]:
        """One metric as a time series, e.g. ``series("cold_start_rate")``."""
        return [getattr(window, field) for window in self.windows]


@dataclass(slots=True)
class _Window:
    """Mutable accumulation state for one window (fixed-size)."""

    arrivals: int = 0
    completed: int = 0
    shed: int = 0
    cold: int = 0
    boots: int = 0
    queue: _LatencyHistogram = field(default_factory=_LatencyHistogram)
    #: Per-source ``[completed, shed, cold_starts, queue_ms_sum]``
    #: (source = app label, or ``""`` for unlabeled producers).  The
    #: float sum is kept per source so accumulators over disjoint
    #: source sets merge losslessly; the run journal derives its
    #: per-app window delta rows from the cumulative counters at
    #: flush time.
    source_counts: dict[str, list] = field(default_factory=dict)
    #: Per-source exact running GB-second sums (same discipline).
    gb_sums: dict[str, float] = field(default_factory=dict)
    #: Per-QoS-class integer counters ``[completed, violations,
    #: dropped]`` — integers merge by addition, so these need no
    #: per-source split.
    qos_counts: dict[str, list[int]] = field(default_factory=dict)
    #: Per-QoS-class, per-source exact utility sums (same merge
    #: discipline as the queue-wait sums).
    qos_sums: dict[str, dict[str, float]] = field(default_factory=dict)


def _window_stats(
    index: int, window: _Window, window_s: float, pricing: PricingModel
) -> WindowStats:
    """Derive one window's public stats from its accumulation state."""
    gb_seconds = _sum_by_source(window.gb_sums)
    # Tallies exist for shed-only sources too; a source has a queue-wait
    # partial iff it completed something.
    queue_by_source = {
        source: counts[3]
        for source, counts in window.source_counts.items()
        if counts[0] > 0
    }
    queue_sum = _sum_by_source(queue_by_source)
    qos_classes = sorted(window.qos_counts.keys() | window.qos_sums.keys())
    qos = tuple(
        QoSWindowStats(
            qos_class=name,
            completed=(counters := window.qos_counts.get(name, [0, 0, 0]))[0],
            violations=counters[1],
            dropped=counters[2],
            violation_rate=(counters[1] / counters[0] if counters[0] else 0.0),
            utility=_sum_by_source(window.qos_sums.get(name, {})),
        )
        for name in qos_classes
    )
    # A window with traffic but no completions (every arrival shed, or
    # still queued at a mid-run flush) has *no* completion population to
    # rate: 0.0 would read as "all warm, instant service".  Such windows
    # report UNDEFINED_RATE instead; truly idle windows (no arrivals
    # either, e.g. pure provision tails) keep the neutral 0.0.
    undefined = window.arrivals > 0 and window.completed == 0
    return WindowStats(
        index=index,
        start_s=index * window_s,
        end_s=(index + 1) * window_s,
        arrivals=window.arrivals,
        completed=window.completed,
        shed=window.shed,
        cold_starts=window.cold,
        cold_start_rate=population_rate(window.cold, window.completed, undefined),
        shed_rate=(window.shed / window.arrivals if window.arrivals else 0.0),
        queue_mean_ms=population_rate(queue_sum, window.completed, undefined),
        queue_p95_ms=(
            UNDEFINED_RATE if undefined else window.queue.quantile(0.95)
        ),
        gb_seconds=gb_seconds,
        boots=window.boots,
        cost=CostSummary.from_usage(
            gb_seconds, window.completed, window.boots, pricing
        ),
        qos=qos,
    )


class WindowAccumulator:
    """Folds a streaming replay into :class:`WindowStats` windows.

    The four ``observe_*`` hooks are the streaming surface the platforms
    drive (see :meth:`~repro.faas.cluster.ClusterPlatform.run_stream`);
    each touches only the fixed-size state of the windows involved, so
    peak memory is proportional to the number of *active windows*, never
    to the number of requests.  ``source`` labels (one per app) keep the
    float sums per producer, which is what lets per-shard accumulators
    merge losslessly — see :func:`merge_wire`.
    """

    def __init__(
        self,
        window_s: float,
        pricing: PricingModel | None = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive: {window_s}")
        self.window_s = float(window_s)
        self.pricing = pricing if pricing is not None else DEFAULT_PRICING
        self._windows: dict[int, _Window] = {}
        # One-entry lookup cache: replay streams touch the same window
        # for thousands of consecutive observations, so the common case
        # skips the dict probe (and the hot path skips a div + hash).
        self._cached_index: int | None = None
        self._cached_window: _Window | None = None

    def _window(self, at_s: float) -> _Window:
        index = int(at_s // self.window_s)
        if index == self._cached_index:
            return self._cached_window
        return self._window_miss(index)

    def _window_miss(self, index: int) -> _Window:
        window = self._windows.get(index)
        if window is None:
            window = self._windows[index] = _Window()
        self._cached_index = index
        self._cached_window = window
        return window

    # -- streaming surface -------------------------------------------------
    #
    # The hot observers repeat _window's cache-hit test inline: replay
    # streams observe the same window thousands of times in a row, and at
    # those rates the delegate call costs more than the test it guards.

    def observe_arrival(self, at_s: float) -> None:
        """One request arrived at ``at_s`` (before admission control)."""
        index = int(at_s // self.window_s)
        window = (
            self._cached_window
            if index == self._cached_index
            else self._window_miss(index)
        )
        window.arrivals += 1

    def observe_completion(
        self,
        arrival_s: float,
        cold: bool,
        queue_ms: float,
        source: str = "",
        qos: str | None = None,
        violated: bool = False,
        utility: float = 0.0,
    ) -> None:
        """One request finished; attributed to its *arrival* window.

        ``source`` labels the float contribution (the platforms pass the
        application name) so per-shard accumulators merge exactly.  When
        the request carried a QoS class, ``qos``/``violated``/``utility``
        feed the per-class series — the *producer* (the cluster event
        loop, which knows the class spec and the end-to-end latency)
        evaluates the deadline; the accumulator only tallies.
        """
        index = int(arrival_s // self.window_s)
        window = (
            self._cached_window
            if index == self._cached_index
            else self._window_miss(index)
        )
        window.completed += 1
        if 0.0 <= queue_ms <= _HIST_FLOOR_MS:
            # The warm-hit replay common case (zero queueing) lands in
            # bucket 0; folding it here skips the observe() call and its
            # log-bucket arithmetic.  Same counts as queue.observe().
            window.queue.counts[0] += 1
        else:
            window.queue.observe(queue_ms)
        counts = window.source_counts
        if source in counts:
            tally = counts[source]
        else:
            tally = counts[source] = [0, 0, 0, 0.0]
        tally[0] += 1
        tally[3] += queue_ms
        if cold:
            window.cold += 1
            tally[2] += 1
        if qos is not None:
            counters = window.qos_counts.get(qos)
            if counters is None:
                counters = window.qos_counts[qos] = [0, 0, 0]
            counters[0] += 1
            if violated:
                counters[1] += 1
            qsums = window.qos_sums.setdefault(qos, {})
            if source in qsums:
                qsums[source] += utility
            else:
                qsums[source] = utility

    def observe_shed(
        self,
        at_s: float,
        source: str = "",
        qos: str | None = None,
        penalty: float = 0.0,
    ) -> None:
        """One request was rejected (bounded queue) or dropped (routing).

        ``penalty`` is the QoS class's drop penalty, charged as negative
        utility against ``source``'s per-class sum.
        """
        window = self._window(at_s)
        window.shed += 1
        counts = window.source_counts
        if source in counts:
            counts[source][1] += 1
        else:
            counts[source] = [0, 1, 0, 0.0]
        if qos is not None:
            counters = window.qos_counts.get(qos)
            if counters is None:
                counters = window.qos_counts[qos] = [0, 0, 0]
            counters[2] += 1
            qsums = window.qos_sums.setdefault(qos, {})
            if source in qsums:
                qsums[source] -= penalty
            else:
                qsums[source] = -penalty

    def source_counters(self) -> Iterator[tuple[int, dict[str, list]]]:
        """Cumulative per-source counters per window, in index order.

        The run journal's read surface: yields ``(window_index, {source:
        [completed, shed, cold_starts, queue_ms_sum]})`` for every window
        with a completion or a shed.  The lists are live accumulation
        state — callers snapshot what they need and must not mutate.
        """
        for index in sorted(self._windows):
            counts = self._windows[index].source_counts
            if counts:
                yield index, counts

    def source_gb_seconds(self) -> Iterator[tuple[int, dict[str, float]]]:
        """Cumulative per-source provisioned GB-seconds per window, in index order.

        The journal's second read, beside :meth:`source_counters`: yields
        ``(window_index, {source: gb_seconds})`` for every window a
        reported container lifetime overlapped.  Live accumulation state,
        like the counters — callers snapshot and must not mutate.
        """
        for index in sorted(self._windows):
            sums = self._windows[index].gb_sums
            if sums:
                yield index, sums

    def observe_provision(
        self, start_s: float, end_s: float, memory_mb: float, source: str = ""
    ) -> None:
        """One container's provisioned lifetime, spread across windows."""
        if end_s < start_s:
            raise ValueError(f"container lifetime ends before it starts: {start_s}..{end_s}")
        self._window(start_s).boots += 1
        gb = memory_mb / 1024.0
        first = int(start_s // self.window_s)
        last = int(end_s // self.window_s)
        for index in range(first, last + 1):
            lo = max(start_s, index * self.window_s)
            hi = min(end_s, (index + 1) * self.window_s)
            if hi > lo:
                _add_sums(self._window(lo).gb_sums, {source: (hi - lo) * gb})

    # -- results -----------------------------------------------------------

    def window_count(self) -> int:
        """Windows touched so far: the unit of the memory-bound contract,
        which ``tests/workloads/test_replay_memory.py`` checks."""
        return len(self._windows)

    def finalize(self) -> WindowedSummary:
        """Snapshot everything accumulated as a :class:`WindowedSummary`."""
        pricing = self.pricing
        stats = [
            _window_stats(index, self._windows[index], self.window_s, pricing)
            for index in sorted(self._windows)
        ]
        arrivals = sum(w.arrivals for w in stats)
        completed = sum(w.completed for w in stats)
        cold = sum(w.cold_starts for w in stats)
        gb_seconds = sum(w.gb_seconds for w in stats)
        boots = sum(w.boots for w in stats)
        # Per-class run totals: integer counts add; the float utility sums
        # window-by-window in index order (each window's value is itself the
        # canonical per-source combination), so a merged accumulator and a
        # single one agree bit for bit.
        by_class: dict[str, list] = {}
        for window in stats:
            for qos in window.qos:
                totals = by_class.setdefault(qos.qos_class, [0, 0, 0, 0.0])
                totals[0] += qos.completed
                totals[1] += qos.violations
                totals[2] += qos.dropped
                totals[3] += qos.utility
        qos_totals = tuple(
            QoSSummary(
                qos_class=name,
                completed=done,
                violations=late,
                dropped=dropped,
                violation_rate=late / done if done else 0.0,
                utility=utility,
            )
            for name, (done, late, dropped, utility) in sorted(by_class.items())
        )
        return WindowedSummary(
            window_s=self.window_s,
            windows=tuple(stats),
            arrivals=arrivals,
            completed=completed,
            shed=sum(w.shed for w in stats),
            cold_starts=cold,
            cold_start_rate=cold / completed if completed else 0.0,
            gb_seconds=gb_seconds,
            cost=CostSummary.from_usage(gb_seconds, completed, boots, pricing),
            pricing=pricing,
            qos=qos_totals,
            utility=sum(entry.utility for entry in qos_totals),
        )

    # -- the one state format ----------------------------------------------

    def state(self) -> dict:
        """The raw accumulation state as plain data — the one writer.

        Exactly the ``_Window`` fields, per-source float partials
        included (a finalized summary keeps those only in derived form),
        as ints, floats, strings, lists and string-keyed dicts: ``json``
        and ``pickle`` both return it unchanged.
        """
        return {
            "window_s": self.window_s,
            "pricing": asdict(self.pricing),
            "windows": {
                str(index): {
                    **{name: getattr(window, name) for name in _COUNTERS},
                    "queue_counts": window.queue.counts.copy(),
                    "source_counts": _copied(window.source_counts),
                    "gb_sums": window.gb_sums.copy(),
                    "qos_counts": _copied(window.qos_counts),
                    "qos_sums": _copied(window.qos_sums),
                }
                for index, window in self._windows.items()
            },
        }

    def absorb(self, state: dict) -> None:
        """Add one :meth:`state` to this accumulator — the one reader.

        Validating: same window size and pricing, integer window keys,
        every field of :data:`_WINDOW_FIELDS` present and well-formed —
        a :class:`ValueError` names the first thing that is not, never a
        ``KeyError`` or a histogram of the wrong size.  Additive: counters
        and histogram buckets add, per-source float partials add per
        source (or are inserted), so absorbing into an empty accumulator
        restores, and absorbing shards in worker order merges.
        """
        for key, shape, mine in (
            ("window_s", float, self.window_s),
            ("pricing", {str: float}, asdict(self.pricing)),
        ):
            if _read(state, key, shape, "state") != mine:
                raise ValueError(f"{key} mismatch: {state[key]} != {mine}")
        for key, data in _read(state, "windows", {str: object}, "state").items():
            try:
                index = int(key)
            except ValueError:
                raise ValueError(f"window key {key!r} is not an integer") from None
            fields = {
                name: _read(data, name, shape, f"window {key}")
                for name, shape in _WINDOW_FIELDS.items()
            }
            window = self._window_miss(index)
            for name in _COUNTERS:
                setattr(window, name, getattr(window, name) + fields[name])
            counts = window.queue.counts
            for bucket, count in enumerate(fields["queue_counts"]):
                counts[bucket] += count
            _add_slots(window.source_counts, fields["source_counts"])
            _add_sums(window.gb_sums, fields["gb_sums"])
            _add_slots(window.qos_counts, fields["qos_counts"])
            for name, sums in fields["qos_sums"].items():
                _add_sums(window.qos_sums.setdefault(name, {}), sums)

    def to_wire(self) -> tuple:
        """``(version, state())`` — what a shard worker hands :func:`merge_wire`."""
        return (_WIRE_VERSION, self.state())


def _add_sums(into: dict[str, float], sums: dict[str, float]) -> None:
    for source, value in sums.items():
        if source in into:
            into[source] += value
        else:
            into[source] = value


def _add_slots(into: dict[str, list], rows: dict[str, list]) -> None:
    """:func:`_add_sums` for fixed-length list values, slot by slot."""
    for key, row in rows.items():
        mine = into.get(key)
        if mine is None:
            into[key] = row.copy()
        else:
            for slot, value in enumerate(row):
                mine[slot] += value


def _copied(table: dict) -> dict:
    """A table of lists or dicts, copied one level deeper than ``table.copy()``."""
    return {key: value.copy() for key, value in table.items()}


#: A window's integer counters: ``_Window`` attributes and state keys alike.
_COUNTERS = ("arrivals", "completed", "shed", "cold", "boots")

#: The shape of one window's state, as :func:`_conforms` reads shapes:
#: ``int`` is a count, ``float`` a number, a list one item per slot, a
#: dict a string-keyed table of its one value shape.
_WINDOW_FIELDS: dict[str, object] = {
    **dict.fromkeys(_COUNTERS, int),
    "queue_counts": [int] * _HIST_BUCKETS,
    "source_counts": {str: [int, int, int, float]},
    "gb_sums": {str: float},
    "qos_counts": {str: [int, int, int]},
    "qos_sums": {str: {str: float}},
}


def _conforms(value, shape) -> bool:
    if shape is int:  # a count: non-negative, and True is not one
        return type(value) is int and value >= 0
    if shape is float:
        return type(value) in (int, float)
    if type(shape) is list:
        return (
            type(value) is list
            and len(value) == len(shape)
            and all(map(_conforms, value, shape))
        )
    if type(shape) is dict:
        (inner,) = shape.values()
        return type(value) is dict and all(
            type(key) is str and _conforms(item, inner)
            for key, item in value.items()
        )
    return True  # ``object``: read further by the caller


def _read(data, key: str, shape, where: str):
    """``data[key]`` once it conforms to ``shape``; else a ``ValueError``."""
    if type(data) is not dict:
        raise ValueError(f"{where} is not a table: {data!r:.60}")
    if key not in data:
        raise ValueError(f"{where} has no {key!r}")
    if not _conforms(data[key], shape):
        raise ValueError(f"{where} has a malformed {key!r}: {data[key]!r:.60}")
    return data[key]


#: Wire-format version guard: a coordinator refuses wires from a worker
#: running a different layout (mixed-version pools fail loudly, not by
#: silently misreading fields).  2: the wire is ``(version, state())``.
_WIRE_VERSION = 2


def _wire_state(wire: tuple) -> dict:
    if wire[0] != _WIRE_VERSION:
        raise ValueError(f"wire version mismatch: {wire[0]} != {_WIRE_VERSION}")
    return wire[1]


def from_wire(wire: tuple) -> WindowAccumulator:
    """Reconstruct an accumulator from one :meth:`~WindowAccumulator.to_wire`.

    The round-trip inverse (state, not identity): the result holds the
    same windows, counters, histograms, and per-source partials, so
    ``from_wire(acc.to_wire()).finalize() == acc.finalize()`` bit for
    bit, and observing further events on it equals never having packed.
    """
    state = _wire_state(wire)
    try:
        accumulator = WindowAccumulator(
            state["window_s"], PricingModel(**state["pricing"])
        )
    except (KeyError, TypeError) as error:
        raise ValueError(f"wire does not carry its configuration: {error!r}") from None
    accumulator.absorb(state)
    return accumulator


def merge_wire(wires: Sequence[tuple]) -> WindowedSummary:
    """Merge shard wires into one summary; the coordinator-side merge.

    Every wire is absorbed, in worker order, into one accumulator
    configured like the first (a differently windowed or priced wire is
    refused), which is summarized once.  For disjoint-source shards the
    result is bit-identical to the summary a single accumulator fed by
    all the shards' events would have produced.
    """
    if not wires:
        raise ValueError("cannot merge zero wires")
    merged = from_wire(wires[0])
    for wire in wires[1:]:
        merged.absorb(_wire_state(wire))
    return merged.finalize()
