"""Window-count forecasting and the predictive pre-warming scaling policy.

Every shipped :class:`~repro.faas.autoscale.ScalingPolicy` is purely
reactive — it pays a cold start the moment demand outruns booked
capacity, every diurnal peak, every shift event.  But the replay engine
*knows* those peaks: the per-window arrival counts the stream path
already tallies form a time series with strong daily structure, and a
fleet that learns it can boot capacity *before* the wave instead of
behind it.  This module supplies both halves:

* **Forecast layer** — a :class:`Forecaster` protocol over per-fleet
  per-window admitted-arrival counts, fed incrementally through the
  :meth:`~repro.faas.autoscale.ScalingPolicy.observe_window` hook.
  :class:`EWMAForecaster` is the level-only baseline (exponentially
  weighted moving average; flat forecast).  :class:`HoltWintersForecaster`
  is the additive-seasonal Holt-Winters model fit online: level, trend,
  and one seasonal index per window-of-day, so it anticipates the diurnal
  swing and, after a workload shift, relearns the new level in a few
  windows instead of dragging a stale average.
* **Policy layer** — :class:`Predictive`, a scaling policy that wraps a
  reactive *base* policy (demand coverage, cold-history fallback) and
  adds pre-warming: it converts the forecast next-window arrival count
  into a container target via an online arrivals→peak-concurrency ratio,
  boots ahead of the window (a configurable ``prewarm_lead_s`` before
  the boundary) with a ``headroom`` multiplier, and *holds* the fleet —
  suspends keep-alive retirement — through windows the forecast says
  will stay busy.  When history is cold (fewer observed windows than the
  forecaster's warmup) it behaves exactly like its base policy.

Everything is deterministic and checkpoint-safe: forecaster state
round-trips through ``export_state``/``restore_state`` losslessly (JSON
shortest-repr floats), so a resumed replay's scaling decisions are
bit-identical to an uninterrupted run's (``tests/reference/test_engines.py``
checks it; ``tests/property/test_forecast_properties.py`` pins the
forecasters' convexity/convergence/round-trip invariants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

from repro.common.errors import SpecError
from repro.faas.autoscale import (
    FleetView,
    ScalingPolicy,
    TargetUtilization,
    WindowObservation,
)

__all__ = [
    "FORECASTER_NAMES",
    "EWMAForecaster",
    "Forecaster",
    "HoltWintersForecaster",
    "Predictive",
    "make_forecaster",
]


def _check_horizon(horizon: int) -> None:
    if horizon < 1:
        raise SpecError(f"forecast horizon must be >= 1: {horizon}")


class Forecaster:
    """Online one-series forecaster over per-window arrival counts.

    Implementations are frozen dataclasses carrying parameters only —
    mirror of :class:`~repro.faas.autoscale.ScalingPolicy`.  Mutable
    per-fleet fit state is created by :meth:`new_state` and threaded back
    into every call, so one forecaster instance can serve many fleets.
    ``forecast`` returns ``None`` while the model is still cold (too few
    observed windows to trust), which is the caller's signal to fall
    back to reactive behaviour.
    """

    name: ClassVar[str] = "abstract"

    def new_state(self):
        """Fresh per-fleet fit state."""
        raise NotImplementedError  # pragma: no cover - interface

    def observe(self, state, count: float) -> None:
        """Fold one closed window's admitted-arrival count into the fit."""
        raise NotImplementedError  # pragma: no cover - interface

    def forecast(self, state, horizon: int = 1) -> float | None:
        """Predicted count ``horizon`` windows ahead (``None`` while cold)."""
        raise NotImplementedError  # pragma: no cover - interface

    def export_state(self, state) -> dict:
        """JSON-safe dump of the fit state, for checkpoints."""
        raise NotImplementedError  # pragma: no cover - interface

    def restore_state(self, data: dict):
        """Rebuild fit state from :meth:`export_state`'s output."""
        raise NotImplementedError  # pragma: no cover - interface


class _EWMAState:
    """Observation count plus the exponentially weighted level."""

    __slots__ = ("n", "level")

    def __init__(self) -> None:
        self.n = 0
        self.level = 0.0


@dataclass(frozen=True)
class EWMAForecaster(Forecaster):
    """Exponentially weighted moving average — the level-only baseline.

    The forecast is flat (the current level, at every horizon), and the
    level is a convex combination of everything observed, so a forecast
    always lies within the min/max of the observed history — the
    property test's anchor.  Reacts to shifts at rate ``alpha`` but
    cannot anticipate seasonality: on a diurnal series it forever lags
    the swing by a few windows.

    Attributes:
        alpha: Smoothing factor in ``(0, 1]`` — weight of the newest
            window against the running level.
        warmup: Observed windows required before ``forecast`` commits
            to a number (``None`` until then).
    """

    alpha: float = 0.35
    warmup: int = 3
    name: ClassVar[str] = "ewma"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise SpecError(f"EWMA alpha must be in (0, 1]: {self.alpha}")
        if self.warmup < 1:
            raise SpecError(f"EWMA warmup must be >= 1: {self.warmup}")

    def new_state(self) -> _EWMAState:
        return _EWMAState()

    def observe(self, state: _EWMAState, count: float) -> None:
        if state.n == 0:
            state.level = count
        else:
            state.level = self.alpha * count + (1.0 - self.alpha) * state.level
        state.n += 1

    def forecast(self, state: _EWMAState, horizon: int = 1) -> float | None:
        _check_horizon(horizon)
        if state.n < self.warmup:
            return None
        return state.level

    def export_state(self, state: _EWMAState) -> dict:
        return {"n": state.n, "level": state.level}

    def restore_state(self, data: dict) -> _EWMAState:
        state = _EWMAState()
        state.n = data["n"]
        state.level = data["level"]
        return state


class _HoltWintersState:
    """First-season buffer, then level/trend/seasonal components."""

    __slots__ = ("n", "buffer", "level", "trend", "season")

    def __init__(self) -> None:
        self.n = 0
        self.buffer: list[float] = []  # first season's raw observations
        self.level = 0.0
        self.trend = 0.0
        self.season: list[float] = []  # additive index per window-of-season


@dataclass(frozen=True)
class HoltWintersForecaster(Forecaster):
    """Additive-seasonal Holt-Winters, fit online window by window.

    The first ``season_windows`` observations initialize the components
    (level = season mean, trend = 0, seasonal index = deviation from the
    mean); every later window runs the standard additive recurrences.
    On an *exactly* periodic series the initialization is already the
    fixed point, so forecasts match the per-phase means from the first
    post-season window onward (the property test's anchor).  On the
    replay's diurnal traces the seasonal indices carry the daily swing
    while ``alpha`` relearns the level after a shift event.

    Attributes:
        alpha: Level smoothing factor, in ``(0, 1]``.
        beta: Trend smoothing factor, in ``[0, 1]``.
        gamma: Seasonal smoothing factor, in ``[0, 1]``.
        season_windows: Windows per season (e.g. 24 one-hour windows for
            a diurnal period); the model is cold until one full season
            has been observed.
    """

    alpha: float = 0.4
    beta: float = 0.1
    gamma: float = 0.3
    season_windows: int = 24
    name: ClassVar[str] = "holt-winters"

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise SpecError(f"Holt-Winters alpha must be in (0, 1]: {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise SpecError(f"Holt-Winters beta must be in [0, 1]: {self.beta}")
        if not 0.0 <= self.gamma <= 1.0:
            raise SpecError(f"Holt-Winters gamma must be in [0, 1]: {self.gamma}")
        if self.season_windows < 2:
            raise SpecError(
                f"season must span at least 2 windows: {self.season_windows}"
            )

    def new_state(self) -> _HoltWintersState:
        return _HoltWintersState()

    def observe(self, state: _HoltWintersState, count: float) -> None:
        m = self.season_windows
        if state.n < m:
            state.buffer.append(count)
            state.n += 1
            if state.n == m:
                mean = math.fsum(state.buffer) / m
                state.level = mean
                state.trend = 0.0
                state.season = [x - mean for x in state.buffer]
                state.buffer = []
            return
        slot = state.n % m
        seasonal = state.season[slot]
        level = self.alpha * (count - seasonal) + (1.0 - self.alpha) * (
            state.level + state.trend
        )
        state.trend = self.beta * (level - state.level) + (1.0 - self.beta) * state.trend
        state.season[slot] = self.gamma * (count - level) + (1.0 - self.gamma) * seasonal
        state.level = level
        state.n += 1

    def forecast(self, state: _HoltWintersState, horizon: int = 1) -> float | None:
        _check_horizon(horizon)
        m = self.season_windows
        if state.n < m:
            return None
        slot = (state.n + horizon - 1) % m
        value = state.level + horizon * state.trend + state.season[slot]
        return value if value > 0.0 else 0.0

    def export_state(self, state: _HoltWintersState) -> dict:
        return {
            "n": state.n,
            "buffer": list(state.buffer),
            "level": state.level,
            "trend": state.trend,
            "season": list(state.season),
        }

    def restore_state(self, data: dict) -> _HoltWintersState:
        state = _HoltWintersState()
        state.n = data["n"]
        state.buffer = list(data["buffer"])
        state.level = data["level"]
        state.trend = data["trend"]
        state.season = list(data["season"])
        return state


#: CLI-facing forecaster registry (see ``slimstart replay --forecaster``).
FORECASTER_NAMES = ("ewma", "holt-winters")


def make_forecaster(name: str, season_windows: int | None = None) -> Forecaster:
    """Build a forecaster from its CLI name.

    ``season_windows`` configures the Holt-Winters seasonal period and is
    rejected for forecasters that have no season — a silently ignored
    flag would misconfigure the model the user thinks they tuned.
    """
    if name == "ewma":
        if season_windows is not None:
            raise SpecError("--season-windows only applies to holt-winters")
        return EWMAForecaster()
    if name == "holt-winters":
        if season_windows is None:
            return HoltWintersForecaster()
        return HoltWintersForecaster(season_windows=season_windows)
    raise SpecError(
        f"unknown forecaster: {name!r} (choose from {FORECASTER_NAMES})"
    )


class _PredictiveState:
    """Base-policy state, forecaster fit, and the prewarm bookkeeping."""

    __slots__ = ("base", "fc", "last_fed", "open_peak", "ratio", "hold_until")

    def __init__(self, base, fc) -> None:
        self.base = base  # wrapped reactive policy's state
        self.fc = fc  # forecaster fit state
        self.last_fed: int | None = None  # newest closed window index fed
        self.open_peak = 0  # peak concurrent demand in the open window
        self.ratio: float | None = None  # EWMA of peak-demand / arrivals
        self.hold_until = -math.inf  # scale-down suspended until here


@dataclass(frozen=True)
class Predictive(ScalingPolicy):
    """Pre-warm containers ahead of the forecast next-window demand.

    Wraps a reactive *base* policy and adds a feed-forward path.  The
    cluster feeds one :class:`~repro.faas.autoscale.WindowObservation`
    per closed ``window_s`` (admitted arrivals only, empty gap windows
    included so seasonal phase stays aligned); each observation updates
    the forecaster and an online arrivals→peak-concurrency ratio — the
    bridge from "how many requests next window" to "how many containers
    to keep warm".  On every scale decision the policy forecasts the
    *target* window (the current one, or the next one once ``now`` is
    within ``prewarm_lead_s`` of the boundary), converts it to a
    container count with a ``headroom`` multiplier, boots any shortfall,
    and — when the forecast justifies the fleet's current size —
    *holds* it: :meth:`idle_expiry` suspends retirement through the end
    of the target window, so a predicted-busy window never pays
    keep-alive churn between sparse arrivals.  The boot decision itself
    is ``max(base, prewarm)``, and while the forecaster is cold the
    prewarm term is absent entirely — the policy degrades to its base.

    Attributes:
        base: Reactive policy supplying demand coverage and the cold
            fallback (must not itself be predictive).
        forecaster: The window-count model (:class:`EWMAForecaster` or
            :class:`HoltWintersForecaster`).
        window_s: Observation window width in seconds; choose so the
            workload's period is a whole number of windows (one hour
            against a diurnal day, with ``season_windows=24``).
        prewarm_lead_s: How long before a window boundary the policy
            starts provisioning for the *next* window, in ``[0,
            window_s]``.
        headroom: Multiplier on the forecast demand, ``> 0`` (above 1
            overprovisions to absorb forecast error).
        hold_min_arrivals: Minimum forecast arrival count in the target
            window for the *hold* to engage (the pre-warm boot itself is
            unaffected).  A hold through a nearly-empty window spends
            more idle GB-seconds than the handful of cold starts it
            prevents are worth; this floor keeps the hold where the
            traffic is.  0 (the default) holds on any positive forecast.
    """

    base: ScalingPolicy = field(default_factory=TargetUtilization)
    forecaster: Forecaster = field(default_factory=EWMAForecaster)
    window_s: float = 3600.0
    prewarm_lead_s: float = 0.0
    headroom: float = 1.2
    hold_min_arrivals: float = 0.0
    name: ClassVar[str] = "predictive"

    def __post_init__(self) -> None:
        if not isinstance(self.base, ScalingPolicy) or isinstance(self.base, Predictive):
            raise SpecError(
                f"predictive base must be a non-predictive scaling policy: "
                f"{self.base!r}"
            )
        if not isinstance(self.forecaster, Forecaster):
            raise SpecError(f"not a forecaster: {self.forecaster!r}")
        # Every range check is written so that NaN fails it.
        if not self.window_s > 0:
            raise SpecError(f"observation window must be positive: {self.window_s}")
        if not 0.0 <= self.prewarm_lead_s <= self.window_s:
            raise SpecError(
                f"prewarm lead must be in [0, window_s={self.window_s}]: "
                f"{self.prewarm_lead_s}"
            )
        if not self.headroom > 0:
            raise SpecError(f"headroom must be positive: {self.headroom}")
        if not self.hold_min_arrivals >= 0:
            raise SpecError(
                f"hold floor must be non-negative: {self.hold_min_arrivals}"
            )

    # -- state plumbing ------------------------------------------------------

    def new_state(self) -> _PredictiveState:
        return _PredictiveState(self.base.new_state(), self.forecaster.new_state())

    def export_state(self, state: _PredictiveState) -> dict:
        return {
            "base": self.base.export_state(state.base),
            "forecaster": self.forecaster.export_state(state.fc),
            "last_fed": state.last_fed,
            "open_peak": state.open_peak,
            "ratio": state.ratio,
            # -inf (never held) is not JSON-representable; mark None.
            "hold_until": (
                None if math.isinf(state.hold_until) else state.hold_until
            ),
        }

    def restore_state(self, data: dict) -> _PredictiveState:
        state = _PredictiveState(
            self.base.restore_state(data["base"]),
            self.forecaster.restore_state(data["forecaster"]),
        )
        state.last_fed = data["last_fed"]
        state.open_peak = data["open_peak"]
        state.ratio = data["ratio"]
        state.hold_until = (
            -math.inf if data["hold_until"] is None else data["hold_until"]
        )
        return state

    # -- observation feed ----------------------------------------------------

    def observation_window_s(self) -> float:
        return self.window_s

    def observe_window(
        self, state: _PredictiveState, observation: WindowObservation
    ) -> None:
        self.forecaster.observe(state.fc, float(observation.arrivals))
        if observation.arrivals > 0 and state.open_peak > 0:
            # One ratio sample per non-empty window: the peak concurrent
            # demand its arrivals produced, per arrival.  EWMA-smoothed —
            # service-time changes shift it slowly, one noisy window
            # doesn't whipsaw the prewarm size.
            sample = state.open_peak / observation.arrivals
            state.ratio = (
                sample if state.ratio is None else 0.5 * sample + 0.5 * state.ratio
            )
        state.open_peak = 0
        state.last_fed = observation.index

    def observe_arrival(self, state: _PredictiveState, now: float) -> None:
        self.base.observe_arrival(state.base, now)

    # -- scaling decisions ---------------------------------------------------

    def uses_last_of_fleet(self) -> bool:
        return self.base.uses_last_of_fleet()

    def scale_out(
        self, state: _PredictiveState, view: FleetView, record: dict | None = None
    ) -> int:
        state.open_peak = max(state.open_peak, view.demand)
        boot = self.base.scale_out(state.base, view)
        if state.last_fed is None or state.ratio is None:
            # Cold history: pure base behaviour.
            if boot > 0 and record is not None:
                record.update(ratio=state.ratio, forecast=None, prewarm=0)
            return boot
        w = self.window_s
        target = int(view.now // w)
        if view.now >= (target + 1) * w - self.prewarm_lead_s:
            target += 1  # inside the lead: provision for the next window
        predicted = self.forecaster.forecast(state.fc, target - state.last_fed)
        prewarm = 0
        if predicted is not None:
            demand = predicted * state.ratio * self.headroom
            size = math.ceil(demand / view.max_concurrency) if demand > 0 else 0
            size = min(size, view.max_containers)
            if 0 < size >= view.live_containers and predicted >= self.hold_min_arrivals:
                # The forecast justifies everything currently live: suspend
                # scale-down through the end of the target window so sparse
                # in-window gaps don't churn keep-alive.
                state.hold_until = max(state.hold_until, (target + 1) * w)
            prewarm = max(0, size - view.live_containers)
        want = max(boot, prewarm)
        if want > 0 and record is not None:
            record.update(
                ratio=state.ratio, forecast=predicted, target_window=target, prewarm=prewarm
            )
        return want

    def idle_expiry(
        self,
        state: _PredictiveState,
        idle_since: float,
        keep_alive_s: float,
        last_of_fleet: bool,
    ) -> float:
        base = self.base.idle_expiry(
            state.base, idle_since, keep_alive_s, last_of_fleet
        )
        return max(base, state.hold_until)
