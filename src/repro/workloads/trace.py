"""Production-trace generator (the role of the Azure traces [4]).

Generates a fleet of serverless applications with the distributional shape
the paper's §II-C reports:

* ~54 % of applications expose more than one handler function (Fig. 3 left);
* per-app handler popularity is Zipf-skewed, so the top few handlers carry
  more than 80 % of invocations (Fig. 3 right);
* request volumes evolve over windows, with *workload shift events* at
  configurable hours where a fraction of apps re-rank their handlers —
  producing the Δp spikes Fig. 10 shows around hours 144 and 228.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.errors import WorkloadError
from repro.common.rng import SeededRNG, derive_seed
from repro.core.adaptive import invocation_probabilities, probability_shift


@dataclass
class AppTrace:
    """One application's windowed invocation counts."""

    name: str
    handlers: tuple[str, ...]
    windows: list[dict[str, int]]  # per window: handler -> invocation count

    @property
    def handler_count(self) -> int:
        return len(self.handlers)

    def total_invocations(self) -> int:
        return sum(sum(window.values()) for window in self.windows)

    def handler_totals(self) -> dict[str, int]:
        totals = {handler: 0 for handler in self.handlers}
        for window in self.windows:
            for handler, count in window.items():
                totals[handler] += count
        return totals

    def rank_frequencies(self) -> list[float]:
        """Invocation share per handler, most popular first."""
        totals = self.handler_totals()
        grand_total = sum(totals.values())
        if grand_total == 0:
            return [0.0] * len(self.handlers)
        return sorted(
            (count / grand_total for count in totals.values()), reverse=True
        )

    def shifts(self) -> list[float]:
        """Eq. 6 aggregate probability shift between consecutive windows."""
        shifts: list[float] = []
        previous: dict[str, float] | None = None
        for window in self.windows:
            probabilities = invocation_probabilities(window)
            if previous is not None:
                shifts.append(probability_shift(previous, probabilities))
            if probabilities or previous is None:
                previous = probabilities
        return shifts


@dataclass
class ProductionTrace:
    """A fleet of application traces over a shared window grid."""

    window_hours: float
    apps: list[AppTrace] = field(default_factory=list)

    @property
    def window_count(self) -> int:
        return max((len(app.windows) for app in self.apps), default=0)

    def handler_count_pdf(self) -> dict[int, float]:
        """Fig. 3 (left): fraction of apps per handler-function count."""
        counts: dict[int, int] = {}
        for app in self.apps:
            counts[app.handler_count] = counts.get(app.handler_count, 0) + 1
        total = len(self.apps)
        return {k: v / total for k, v in sorted(counts.items())}

    def multi_entry_fraction(self) -> float:
        """Fraction of applications with more than one handler."""
        if not self.apps:
            return 0.0
        multi = sum(1 for app in self.apps if app.handler_count > 1)
        return multi / len(self.apps)

    def invocation_cdf_by_rank(self) -> tuple[list[float], list[float], list[float]]:
        """Fig. 3 (right): cumulative invocation share by handler rank.

        Returns ``(mean_cdf, min_cdf, max_cdf)`` across apps, index = rank.
        Apps with fewer handlers than a given rank contribute a saturated
        (1.0) value at that rank, matching how the paper aggregates apps of
        different sizes into one CDF band.
        """
        max_rank = max((app.handler_count for app in self.apps), default=0)
        means: list[float] = []
        mins: list[float] = []
        maxs: list[float] = []
        per_app_cdfs = []
        for app in self.apps:
            frequencies = app.rank_frequencies()
            cdf = []
            running = 0.0
            for value in frequencies:
                running += value
                cdf.append(running)
            per_app_cdfs.append(cdf)
        for rank in range(max_rank):
            values = [
                cdf[rank] if rank < len(cdf) else 1.0 for cdf in per_app_cdfs
            ]
            means.append(sum(values) / len(values))
            mins.append(min(values))
            maxs.append(max(values))
        return means, mins, maxs

    def mean_shift_series(self) -> list[float]:
        """Fig. 10: mean Δp across apps for each window transition."""
        series: list[float] = []
        for index in range(self.window_count - 1):
            values = []
            for app in self.apps:
                shifts = app.shifts()
                if index < len(shifts):
                    values.append(shifts[index])
            series.append(sum(values) / len(values) if values else 0.0)
        return series

    def exceeding_fraction_series(self, epsilon: float) -> list[float]:
        """Fig. 10: fraction of apps whose Δp exceeds ``epsilon`` per window."""
        series: list[float] = []
        for index in range(self.window_count - 1):
            exceeded = 0
            counted = 0
            for app in self.apps:
                shifts = app.shifts()
                if index < len(shifts):
                    counted += 1
                    if shifts[index] > epsilon:
                        exceeded += 1
            series.append(exceeded / counted if counted else 0.0)
        return series


@dataclass(frozen=True)
class TraceGenerator:
    """Seeded generator for :class:`ProductionTrace` fleets."""

    SINGLE_ENTRY_FRACTION = 0.46  # => 54 % multi-entry (Fig. 3)
    MAX_HANDLERS = 25
    ZIPF_EXPONENT = 1.6
    SHIFT_APP_FRACTION = 0.85  # of multi-entry apps, at shift hours
    #: Log-normal sigma of per-window volume wobble.  Production traces
    #: aggregate 12-hour windows over large request volumes, so per-window
    #: probability noise is tiny — Fig. 10's stable baseline mean Δp sits
    #: well below the ε = 0.002 threshold, which requires sub-0.1 % count
    #: noise (plain Poisson sampling would swamp ε with statistical noise).
    WINDOW_NOISE_SIGMA = 0.0008

    app_count: int = 119
    duration_hours: float = 312.0
    window_hours: float = 12.0
    seed: int = 2025
    shift_hours: tuple[float, ...] = (144.0, 228.0)
    mean_requests_per_window: float = 4000.0

    def __post_init__(self) -> None:
        if self.app_count <= 0:
            raise WorkloadError("app_count must be positive")
        if self.window_hours <= 0 or self.duration_hours < self.window_hours:
            raise WorkloadError("invalid window/duration configuration")
        if not math.isfinite(self.duration_hours // self.window_hours):
            raise WorkloadError(
                f"too many windows to count: {self.duration_hours:g} h "
                f"of {self.window_hours:g} h windows"
            )

    def generate(self) -> ProductionTrace:
        rng = SeededRNG(derive_seed(self.seed, "production-trace"))
        window_count = int(self.duration_hours // self.window_hours)
        shift_windows = {
            int(hour // self.window_hours) for hour in self.shift_hours
        }
        trace = ProductionTrace(window_hours=self.window_hours)
        for app_index in range(self.app_count):
            app_rng = rng.child("app", app_index)
            handler_count = self._draw_handler_count(app_rng)
            handlers = tuple(f"h{rank}" for rank in range(handler_count))
            weights = app_rng.zipf_weights(handler_count, self.ZIPF_EXPONENT)
            volume = max(
                50.0, app_rng.gauss(self.mean_requests_per_window, 1200.0)
            )
            shifts_here = app_rng.random() < self.SHIFT_APP_FRACTION
            order = list(range(handler_count))
            windows: list[dict[str, int]] = []
            for window_index in range(window_count):
                if window_index in shift_windows and shifts_here:
                    # Workload shift: the popularity ranking rotates, so
                    # formerly-rare handlers become hot (and vice versa).
                    rotation = 1 + app_rng.randint(0, max(0, handler_count - 2))
                    order = order[rotation:] + order[:rotation]
                window_rng = app_rng.child("window", window_index)
                counts: dict[str, int] = {}
                for position, handler_index in enumerate(order):
                    expected = volume * weights[position]
                    noisy = expected * math.exp(
                        window_rng.gauss(0.0, self.WINDOW_NOISE_SIGMA)
                    )
                    count = int(round(noisy))
                    if count > 0:
                        counts[handlers[handler_index]] = count
                windows.append(counts)
            trace.apps.append(
                AppTrace(name=f"app{app_index:03d}", handlers=handlers, windows=windows)
            )
        return trace

    def _draw_handler_count(self, rng: SeededRNG) -> int:
        if rng.random() < self.SINGLE_ENTRY_FRACTION:
            return 1
        # Geometric tail over 2..MAX_HANDLERS, matching the heavy-headed
        # PDF of Fig. 3 (most multi-entry apps have a handful of handlers).
        count = 2
        while count < self.MAX_HANDLERS and rng.random() < 0.55:
            count += 1
        return count
