"""Streaming trace replay: lazy arrival streams from production traces.

:class:`~repro.workloads.trace.ProductionTrace` describes a fleet as
*windowed invocation counts* — per app, per 12-hour window, per handler.
The simulators consume *arrivals* — globally time-ordered ``(second, app,
entry)`` events.  This module compiles the former into the latter without
ever materializing the full request list, which is what lets a multi-day,
million-request trace drive :class:`~repro.faas.cluster.ClusterPlatform`
or :class:`~repro.faas.region.RegionFederation` at bounded memory:

* **Intra-window arrival models** (:class:`ArrivalModel`) expand one
  window's count into arrival times: :class:`UniformArrivals` (order
  statistics of i.i.d. uniforms — a Poisson process conditioned on the
  count), :class:`PoissonArrivals` (an *unconditioned* Poisson process at
  the window's mean rate, so per-window volumes wobble like real
  traffic), and :class:`DiurnalArrivals` (intensity modulated by the time
  of day, so a 12-hour window is front- or back-loaded depending on where
  it sits in the diurnal cycle).
* **Lazy compilation** (:func:`compile_trace`): the shared window grid
  is expanded one window at a time — every app's arrivals for the
  window, concatenated and sorted into one globally non-decreasing
  stream.  Peak memory is O(one window's arrivals across apps), never
  O(total requests).
* **Region assignment** (:class:`RegionAssigner`): :func:`assign_regions`
  tags each event with an origin region — hash-affinity (stable app →
  home-region mapping), popularity-weighted (regions draw apps in
  proportion to configured weights), or an explicit map — producing the
  ``(at, app, entry, origin)`` stream the federation's streaming path
  consumes.
* **QoS assignment** (:func:`assign_qos`): tags each event with a QoS
  class name drawn in proportion to the classes' arrival weights, with
  one seeded RNG per app so the tagging is shard-exact.  Applied before
  :func:`assign_regions`, so a fully tagged stream reads
  ``(at, app, entry, origin, qos)``.
Deploying the trace's synthetic apps onto a platform is the job of
:mod:`repro.faas.replaydeploy` (``trace_app_config`` / ``deploy_trace``
/ ``expose_trace``) — this module stays below the ``faas`` layer and
never imports it.

Everything is deterministic: per-(app, window, handler) RNGs derive from
the replay seed by label, so adding an app or reordering handlers never
perturbs another app's arrivals, and identical seeds reproduce identical
streams event-for-event.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Mapping, Protocol, runtime_checkable

from repro.common.errors import WorkloadError
from repro.common.rng import SeededRNG, derive_seed
from repro.metrics import QoSClass
from repro.workloads.trace import ProductionTrace

#: One compiled arrival: ``(arrival_s, app, entry)``.
ReplayEvent = tuple[float, str, str]
#: A region-tagged arrival: ``(arrival_s, app, entry, origin_region)``.
TaggedReplayEvent = tuple[float, str, str, str]


# -- intra-window arrival models -------------------------------------------


@runtime_checkable
class ArrivalModel(Protocol):
    """Expands one window's invocation count into arrival times.

    Implementations return *sorted* times in ``[start_s, start_s +
    window_s)`` and must be pure functions of the RNG handed to them —
    the replay compiler derives one RNG per (app, window, handler), so a
    model never observes global state.
    """

    name: str

    def times(
        self, rng: SeededRNG, start_s: float, window_s: float, count: int
    ) -> list[float]:
        ...  # pragma: no cover - protocol stub


def _sorted_in_window(
    values: list[float], start_s: float, window_s: float
) -> list[float]:
    """Sort draws made in ``[start_s, start_s + window_s]`` into the window.

    Float arithmetic can land a draw on (or an ulp past) the window end;
    no draw falls below ``start_s``.  Clipping to the largest float below
    the end is a monotone map, so it commutes with sorting — only the
    sorted tail can need it.
    """
    values.sort()
    limit = math.nextafter(start_s + window_s, start_s)
    for index in range(len(values) - 1, -1, -1):
        if values[index] <= limit:
            break
        values[index] = limit
    return values


@dataclass(frozen=True)
class UniformArrivals:
    """I.i.d. uniform arrival times — Poisson conditioned on the count.

    Exactly ``count`` arrivals per window, spread without intra-window
    structure; the faithful reading of "this window saw N invocations".
    """

    name = "uniform"

    def times(
        self, rng: SeededRNG, start_s: float, window_s: float, count: int
    ) -> list[float]:
        values = rng.uniform_list(start_s, start_s + window_s, count)
        return _sorted_in_window(values, start_s, window_s)


@dataclass(frozen=True)
class PoissonArrivals:
    """An unconditioned Poisson process at the window's mean rate.

    The window count becomes an *intensity* (``count / window_s``); the
    realized number of arrivals is Poisson-distributed around it, so
    replays carry the sampling noise production traffic would.
    """

    name = "poisson"

    def times(
        self, rng: SeededRNG, start_s: float, window_s: float, count: int
    ) -> list[float]:
        if count <= 0:
            return []
        rate = count / window_s
        times: list[float] = []
        now = start_s
        while True:
            now += rng.expovariate(rate)
            if now >= start_s + window_s:
                return times
            times.append(now)


@dataclass(frozen=True)
class DiurnalArrivals:
    """Diurnal ramp: intensity follows the time of day.

    Arrival intensity within the window is ``1 + amplitude * cos(2π *
    (t - PEAK_HOUR·3600) / PERIOD_S)`` (floored at a small positive value),
    evaluated on ``SUB_BINS`` sub-intervals; each of the window's
    ``count`` arrivals picks a sub-interval in proportion to its
    intensity, then lands uniformly inside it.  A 12-hour trace window
    therefore front- or back-loads depending on where it sits in the
    day, and consecutive windows join into a continuous diurnal wave.
    """

    name = "diurnal"
    PERIOD_S = 86_400.0
    PEAK_HOUR = 14.0  # intensity peaks at 14:00 trace time
    SUB_BINS = 24

    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude <= 1.0:
            raise WorkloadError(f"amplitude must be in [0, 1]: {self.amplitude}")

    def _intensity(self, at_s: float) -> float:
        phase = 2.0 * math.pi * (at_s - self.PEAK_HOUR * 3600.0) / self.PERIOD_S
        # The peak lands at PEAK_HOUR (cos of the offset phase).
        return max(1e-6, 1.0 + self.amplitude * math.cos(phase))

    def times(
        self, rng: SeededRNG, start_s: float, window_s: float, count: int
    ) -> list[float]:
        if count <= 0:
            return []
        # One arrival is ``random.choices`` over the bins, then
        # ``random.uniform`` inside the chosen one.  This is CPython's
        # arithmetic for both, draw for draw, with the tables they would
        # rebuild per arrival built once per call: ``choices`` bisects
        # ``random() * total`` into the cumulative weights with
        # hi = n - 1, and ``uniform(low, high)`` is
        # ``low + (high - low) * random()`` — ``(low + bin_s) - low`` is
        # NOT necessarily ``bin_s`` in floats, so the subtraction is kept.
        bins = range(self.SUB_BINS)
        bin_s = window_s / self.SUB_BINS
        centers = (start_s + (index + 0.5) * bin_s for index in bins)
        cum_weights = list(accumulate(map(self._intensity, centers)))
        total = cum_weights[-1] + 0.0
        hi = self.SUB_BINS - 1
        lows = [start_s + index * bin_s for index in bins]
        widths = [(low + bin_s) - low for low in lows]
        draws = iter(rng.random_list(2 * count))  # choice, placement, choice, ...
        values = []
        for pick, place in zip(draws, draws):
            index = bisect_right(cum_weights, pick * total, 0, hi)
            values.append(lows[index] + widths[index] * place)
        return _sorted_in_window(values, start_s, window_s)


#: CLI-facing arrival-model registry (see ``slimstart replay``).
ARRIVAL_MODEL_NAMES = ("uniform", "poisson", "diurnal")


def make_arrival_model(name: str) -> ArrivalModel:
    """Build an intra-window arrival model from its CLI name."""
    if name == "uniform":
        return UniformArrivals()
    if name == "poisson":
        return PoissonArrivals()
    if name == "diurnal":
        return DiurnalArrivals()
    raise WorkloadError(
        f"unknown arrival model: {name!r} (choose from {ARRIVAL_MODEL_NAMES})"
    )


# -- trace compilation ------------------------------------------------------


def compile_trace(
    trace: ProductionTrace,
    model: ArrivalModel | None = None,
    seed: int = 0,
    start_s: float = 0.0,
    scale: float = 1.0,
) -> Iterator[ReplayEvent]:
    """Compile a trace into a lazy, globally time-ordered arrival stream.

    Yields ``(arrival_s, app, entry)`` with non-decreasing arrival times.
    Each app advances one window at a time through ``model`` (default
    :class:`UniformArrivals`); ``scale`` multiplies every window count
    (deterministic rounding), so the same trace replays at 1 % volume for
    a smoke test or full volume for the real experiment.  The result is a
    generator — peak memory is one window's arrivals across the apps,
    regardless of the trace's total request count.

    All apps share one window grid, so the stream is produced one window
    at a time: every app's expansion for the window is concatenated and
    sorted once.  That is order-identical to ``heapq.merge`` over
    per-app generators (the total order on ``(at, app_index, entry)``
    breaks ties the same way) at a fraction of the per-event overhead —
    the compiler feeds the cluster's event loop, so its cost lands
    directly on replay throughput.
    """
    if scale <= 0:
        raise WorkloadError(f"scale must be positive: {scale}")
    arrival_model = model if model is not None else UniformArrivals()
    window_s = trace.window_hours * 3600.0
    names = [app.name for app in trace.apps]
    window_count = max((len(app.windows) for app in trace.apps), default=0)
    times = arrival_model.times
    for window_index in range(window_count):
        window_start = start_s + window_index * window_s
        batch: list[tuple] = []
        append = batch.append
        for index, app in enumerate(trace.apps):
            if window_index >= len(app.windows):
                continue
            counts = app.windows[window_index]
            for entry in app.handlers:  # stable handler order
                try:
                    count = int(round(counts.get(entry, 0) * scale))
                except OverflowError:
                    raise WorkloadError(
                        f"scale {scale:g} overflows an arrival count"
                    ) from None
                if count <= 0:
                    continue
                rng = SeededRNG(
                    derive_seed(seed, "replay", app.name, window_index, entry)
                )
                for at in times(rng, window_start, window_s, count):
                    append((at, index, entry))
        batch.sort()
        for at, index, entry in batch:
            yield (at, names[index], entry)


def as_paths(
    stream: Iterable[ReplayEvent] | Iterable[TaggedReplayEvent],
) -> Iterator[tuple]:
    """Project a replay stream onto conventional gateway URLs.

    ``(at, app, entry)`` becomes ``(at, "/<app>/<entry>")`` — the shape
    :meth:`repro.faas.gateway.Gateway.submit_stream` consumes — and any
    trailing fields (e.g. the origin region added by
    :func:`assign_regions`) pass through unchanged, so the same helper
    feeds the federated gateway's stream path.
    """
    for item in stream:
        at, app, entry = item[0], item[1], item[2]
        yield (at, f"/{app}/{entry}", *item[3:])


# -- region assignment ------------------------------------------------------


@runtime_checkable
class RegionAssigner(Protocol):
    """Maps an application to the region its traffic originates in.

    Assignment is per *app*, not per request: a production tenant's
    clients sit somewhere, so all of an app's arrivals share one origin
    (routing policies may still serve them elsewhere).  Implementations
    must be deterministic in the app name alone.
    """

    name: str

    def region_for(self, app: str) -> str:
        ...  # pragma: no cover - protocol stub


def _check_regions(regions: tuple[str, ...]) -> tuple[str, ...]:
    if not regions:
        raise WorkloadError("assigner needs at least one region")
    if len(set(regions)) != len(regions):
        raise WorkloadError(f"duplicate regions: {regions}")
    return regions


class HashAffinity:
    """Stable hash of the app name picks its home region.

    Independent of app order and of the other apps in the trace: adding
    an app never moves an existing one.
    """

    name = "hash-affinity"

    def __init__(self, regions: Iterable[str]) -> None:
        self.regions = _check_regions(tuple(regions))

    def region_for(self, app: str) -> str:
        return self.regions[derive_seed(0, "affinity", app) % len(self.regions)]


class PopularityWeighted:
    """Regions draw apps in proportion to configured popularity weights.

    Models a skewed user base (most tenants sit in the big region).  The
    draw is seeded per app, so assignment is stable under app reordering.
    """

    name = "popularity-weighted"

    def __init__(
        self,
        regions: Iterable[str],
        weights: Iterable[float] | None = None,
        seed: int = 0,
    ) -> None:
        self.regions = _check_regions(tuple(regions))
        self.weights = (
            tuple(weights) if weights is not None else (1.0,) * len(self.regions)
        )
        if len(self.weights) != len(self.regions):
            raise WorkloadError(
                f"{len(self.regions)} regions but {len(self.weights)} weights"
            )
        finite = all(0 <= weight < math.inf for weight in self.weights)  # NaN too
        if not finite or sum(self.weights) <= 0:
            raise WorkloadError(f"invalid region weights: {self.weights}")
        self.seed = seed

    def region_for(self, app: str) -> str:
        rng = SeededRNG(derive_seed(self.seed, "assign", app))
        return rng.weighted_choice(self.regions, self.weights)


class ExplicitMap:
    """A hand-written app → region map, with an optional default."""

    name = "explicit"

    def __init__(self, mapping: Mapping[str, str], default: str | None = None) -> None:
        self.mapping = dict(mapping)
        self.default = default

    def region_for(self, app: str) -> str:
        region = self.mapping.get(app, self.default)
        if region is None:
            raise WorkloadError(f"no region assigned for app {app!r}")
        return region


def assign_regions(
    stream: Iterable[ReplayEvent], assigner: RegionAssigner
) -> Iterator[TaggedReplayEvent]:
    """Tag each replay event with its app's origin region (lazily).

    The per-app assignment is memoized, so the assigner is consulted once
    per app — O(apps) state on top of the stream's own bounded buffer.
    The origin is *inserted* at index 3; trailing fields (e.g. the QoS
    class added by :func:`assign_qos` — apply it *before* this one) shift
    right, producing the ``(at, app, entry, origin, qos)`` shape the
    federation's streaming path consumes.
    """
    homes: dict[str, str] = {}
    for item in stream:
        app = item[1]
        home = homes.get(app)
        if home is None:
            home = homes[app] = assigner.region_for(app)
        yield (item[0], app, item[2], home, *item[3:])


# -- QoS assignment ----------------------------------------------------------


def assign_qos(
    stream: Iterable[ReplayEvent],
    classes: Iterable[QoSClass],
    seed: int = 0,
) -> Iterator[tuple]:
    """Tag each replay event with a QoS class name (lazily, seeded).

    ``classes`` are :class:`repro.metrics.QoSClass` specs; each arrival
    draws a class in proportion to the classes' ``arrival_weight``.  The
    draw uses one RNG per *app* (``derive_seed(seed, "qos", app)``),
    consumed in that app's arrival order — an order preserved by app-hash
    sharding (:mod:`repro.workloads.shard`), so a sharded replay assigns
    every request the same class the unsharded replay would.  Yields
    ``(at, app, entry, qos_name)``; apply *before* :func:`assign_regions`
    when combining with a multi-region replay.
    """
    specs = tuple(classes)
    if not specs:
        raise WorkloadError("assign_qos needs at least one QoS class")
    names = [spec.name for spec in specs]
    weights = [spec.arrival_weight for spec in specs]
    total = sum(weights)
    cumulative: list[float] = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    last = len(names) - 1
    draws: dict[str, Callable[[], float]] = {}
    for at, app, entry in stream:
        random = draws.get(app)
        if random is None:
            random = draws[app] = SeededRNG(derive_seed(seed, "qos", app)).random
        # The first class whose cumulative bound is strictly above the
        # draw; the last class on the float edge (draw == total).
        index = bisect_right(cumulative, random() * total, 0, last)
        yield (at, app, entry, names[index])


def progress_stream(
    stream: Iterable[tuple],
    window_s: float,
    label: str = "",
    out=None,
) -> Iterator[tuple]:
    """Pass a replay stream through, heartbeating to stderr at boundaries.

    An opt-in diagnostic for long replays (``slimstart replay
    --progress``): every time an arrival crosses a ``window_s`` boundary
    one line — windows flushed so far, events fed, cumulative events/s of
    wall clock — is written to ``out`` (default ``sys.stderr``) and
    flushed.  The events themselves pass through untouched, in order, so
    wrapping a stream can never change a replay result; wall-clock
    timing stays out of the virtual-time event loop entirely.
    """
    if window_s <= 0:
        raise WorkloadError(f"progress window must be positive: {window_s}")
    sink = sys.stderr if out is None else out
    prefix = f"{label}: " if label else ""
    started = time.perf_counter()
    boundary: int | None = None
    windows = 0
    count = 0
    for item in stream:
        index = int(item[0] // window_s)
        if boundary is None:
            boundary = index
        elif index > boundary:
            windows += index - boundary
            boundary = index
            elapsed = time.perf_counter() - started
            rate = count / elapsed if elapsed > 0 else 0.0
            print(
                f"{prefix}{windows} window(s) flushed, "
                f"{count} events, {rate:.0f} events/s",
                file=sink,
                flush=True,
            )
        count += 1
        yield item
