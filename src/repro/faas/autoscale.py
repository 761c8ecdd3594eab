"""Pluggable autoscaler policies for the cluster simulator.

The cluster's original scaler was one hard-coded rule: boot a container
for every queued request the booting fleet cannot yet absorb.  That rule
is the *most* cold-start-hungry point in the policy space — it pays a
boot the moment demand exceeds booked capacity and retires capacity the
moment keep-alive elapses.  Real platforms trade dollars for cold starts
differently, and the paper's init-time savings only matter under the
policy that decides *when* a cold start is paid.  This module makes that
decision pluggable:

* :class:`PerRequest` — the extracted original rule, bit-identical to
  the pre-refactor scaler (pinned by
  ``tests/faas/test_golden_regression.py``).
* :class:`TargetUtilization` — provision capacity so that in-flight
  utilization stays at or below a target fraction, holding warm spare
  slots that absorb bursts without a boot; an optional scale-to-zero
  grace keeps the fleet's last container alive longer.
* :class:`PanicWindow` — Knative-style dual-window autoscaling over a
  sliding arrival-rate estimate: a short panic window compared against
  the long stable window detects bursts, scales to the burst's demand,
  and *suspends scale-down* (keep-alive expiry) until the panic period
  ends.
* :class:`~repro.faas.forecast.Predictive` (in :mod:`repro.faas.forecast`)
  layers a feed-forward path on top of a reactive base: it learns
  per-window arrival counts through :meth:`ScalingPolicy.observe_window`
  and pre-warms containers ahead of the forecast demand.

A policy sees the fleet through an immutable :class:`FleetView` snapshot
and answers two questions: how many containers to boot for the current
demand (:meth:`ScalingPolicy.scale_out`) and when an idle container may
retire (:meth:`ScalingPolicy.idle_expiry`).  Policies are frozen
dataclasses (parameters only, hashable, safely shared across fleets);
per-fleet mutable state — the panic window's arrival history — lives in
the object returned by :meth:`ScalingPolicy.new_state`, owned by the
fleet.  Everything is deterministic: identical schedules and parameters
reproduce identical decisions, so cluster replays stay bit-reproducible.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from repro.common.errors import SpecError


class FleetView(NamedTuple):
    """An autoscaler policy's immutable snapshot of one fleet.

    Captured after request dispatch, so ``queued`` counts only arrivals
    that no live container could absorb.  The cluster builds a fresh one
    per scale decision.

    Attributes:
        now: Virtual time of the decision (seconds).
        queued: Undispatched requests waiting in the FIFO queue.
        in_flight: Invocations currently executing on ready containers.
        live_containers: Containers not yet expired (ready or booting).
        booting_slots: Free in-flight slots arriving with the boots.
        max_containers: The fleet's hard scale-out ceiling.
        max_concurrency: In-flight slots per container.
    """

    now: float
    queued: int
    in_flight: int
    live_containers: int
    booting_slots: int
    max_containers: int
    max_concurrency: int

    @property
    def demand(self) -> int:
        """Outstanding work: queued plus in-flight requests."""
        return self.queued + self.in_flight


@dataclass(frozen=True, slots=True)
class WindowObservation:
    """One closed observation window of a fleet's admitted arrivals.

    Fed to :meth:`ScalingPolicy.observe_window` by the cluster when a
    policy declares an observation window (see
    :meth:`ScalingPolicy.observation_window_s`).  Windows are closed
    lazily — on the first admitted arrival that lands past the boundary
    — and every intermediate empty window is delivered too (``arrivals
    == 0``), so seasonal models stay phase-aligned across idle gaps.

    Attributes:
        index: The window's ordinal: ``int(start_s // window_s)``.
        start_s: Inclusive window start in virtual seconds.
        end_s: Exclusive window end in virtual seconds.
        arrivals: Admitted arrivals observed in ``[start_s, end_s)`` —
            shed requests never count.
    """

    index: int
    start_s: float
    end_s: float
    arrivals: int


class ScalingPolicy:
    """Decides when a fleet boots containers and when idle ones retire.

    Implementations are frozen dataclasses carrying parameters only.
    Mutable per-fleet runtime state (if any) is created by
    :meth:`new_state` and threaded back into every later call, so one
    policy instance can safely serve as the default for many fleets.
    The cluster guarantees ``scale_out`` is consulted only for admitted
    arrivals — a request shed by the bounded queue never triggers
    scale-out — and caps the answer at ``max_containers``.
    """

    name: ClassVar[str] = "abstract"

    def new_state(self):
        """Fresh per-fleet mutable state (``None`` for stateless policies)."""
        return None

    def export_state(self, state) -> object | None:
        """JSON-safe form of the per-fleet state, for checkpoints.

        Stateless policies (``new_state()`` returns ``None``) inherit
        this no-op; stateful ones must override both this and
        :meth:`restore_state` or their fleets cannot be checkpointed by
        :mod:`repro.faas.snapshot`.
        """
        if state is not None:
            raise SpecError(
                f"policy {type(self).__name__} carries state but does not "
                "implement export_state/restore_state"
            )
        return None

    def restore_state(self, data):
        """Rebuild per-fleet state from :meth:`export_state`'s output."""
        if data is not None:
            raise SpecError(
                f"policy {type(self).__name__} cannot restore state: {data!r}"
            )
        return self.new_state()

    def uses_last_of_fleet(self) -> bool:
        """Whether ``idle_expiry`` reads ``last_of_fleet`` — computing it
        is O(fleet) per expiry check, so the cluster skips it when the
        policy doesn't care."""
        return False

    def quiet_in_flight(self, live_containers: int, max_concurrency: int) -> float:
        """The largest post-dispatch ``in_flight`` at which a warm hit may
        skip the policy; ``-1`` (the default) asks it on every arrival.

        Under every policy the cluster starts a warm hit — a ready
        container free, nothing queued — from its one admission scan and
        feeds the observation-window counters.  It then skips
        :meth:`observe_arrival` and :meth:`scale_out` while the fleet's
        ``in_flight`` (the arrival included) is at most this number, so
        return ``n`` only when, for every such count with
        ``live_containers`` live, ``scale_out`` on the post-dispatch view
        (``queued == 0``) provably returns 0 without mutating state and
        ``observe_arrival`` is a no-op.  The cluster asks again whenever
        the fleet's container count changes; ``tests/reference/``
        consults every policy on every arrival and must agree.
        """
        return -1

    def observe_arrival(self, state, now: float) -> None:
        """Feed one *admitted* arrival into the policy's traffic estimate."""

    def observation_window_s(self) -> float | None:
        """Width of the arrival-count windows this policy observes.

        ``None`` (the default) disables window bookkeeping entirely —
        the cluster maintains per-fleet window counters *only* for
        policies that return a positive width, so the hook is provably
        inert for every reactive policy.
        Every admitted arrival is counted, warm hits included, whatever
        the policy's :meth:`quiet_in_flight`.
        """
        return None

    def observe_window(self, state, observation: WindowObservation) -> None:
        """Receive one closed observation window (no-op by default).

        Called by the cluster from the arrival path, *before* the
        arrival that closed the window is observed or scaled for — the
        counts are strictly of past windows.  Any state mutated here
        must round-trip through :meth:`export_state`/:meth:`restore_state`
        or checkpoints lose the learned history.
        """

    def scale_out(self, state, view: FleetView, record: dict | None = None) -> int:
        """Containers to boot now (the cluster caps at ``max_containers``).

        ``record`` is ``None`` unless a run journal is installed.  Then it
        is a fresh dict, and a policy whose answer is positive writes the
        values it decided on into it (panic rates, forecast values,
        prewarm counts), from the computation that produced the answer.
        The cluster adds the policy name, the view's counts, ``want`` and
        ``booted``, and journals the record only when ``want > 0``.
        """
        raise NotImplementedError  # pragma: no cover - interface

    def idle_expiry(
        self,
        state,
        idle_since: float,
        keep_alive_s: float,
        last_of_fleet: bool,
    ) -> float:
        """When an idle container retires if no further request reaches it.

        ``last_of_fleet`` is true for the container that would retire
        last under the base keep-alive ordering — the one whose
        retirement scales the fleet to zero.

        Implementations must never return *earlier* than ``idle_since +
        keep_alive_s``: the configured keep-alive is the floor, policies
        may only extend it (grace periods, panic suspensions).  The
        cluster's reap-scan hint relies on that floor to prove no
        container can retire before a given virtual time.
        """
        return idle_since + keep_alive_s


@dataclass(frozen=True)
class PerRequest(ScalingPolicy):
    """The pre-refactor rule: boot for every queued request, eagerly.

    Boots until the booting fleet's incoming capacity covers the queue
    (one slot per queued request), then retires capacity on plain
    keep-alive expiry.  Minimal container-seconds at low load, maximal
    cold-start exposure under bursts — the baseline the other policies
    trade against.  Bit-identical to the hard-coded scaler this module
    replaced (``tests/faas/test_golden_regression.py`` pins it).
    """

    name: ClassVar[str] = "per-request"

    def quiet_in_flight(self, live_containers: int, max_concurrency: int) -> float:
        # scale_out below is 0 whenever nothing is queued, and
        # observe_arrival is the base no-op: no warm hit needs the policy.
        return math.inf

    def scale_out(self, state, view: FleetView, record: dict | None = None) -> int:
        deficit = view.queued - view.booting_slots
        if deficit <= 0:
            return 0
        return -(-deficit // view.max_concurrency)  # ceil


@dataclass(frozen=True)
class TargetUtilization(ScalingPolicy):
    """Hold in-flight utilization at or below a target fraction.

    Provisions ``ceil(in_flight / (target * max_concurrency))``
    containers — spare warm slots proportional to load — while always
    covering the queue itself (so it degrades to :class:`PerRequest` for
    a single isolated request).  ``target=1.0`` means no headroom;
    ``target=0.5`` doubles the warm pool.  ``scale_to_zero_grace_s``
    extends only the *last* container's keep-alive, delaying the final
    scale-to-zero so a returning trickle of traffic finds one warm
    container.

    Attributes:
        target: Desired in-flight/capacity fraction, in ``(0, 1]``.
        scale_to_zero_grace_s: Extra idle lifetime for the fleet's last
            container (0 disables the grace).
    """

    target: float = 0.7
    scale_to_zero_grace_s: float = 0.0
    name: ClassVar[str] = "target-utilization"

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it.
        if not 0.0 < self.target <= 1.0:
            raise SpecError(f"target utilization must be in (0, 1]: {self.target}")
        if not self.scale_to_zero_grace_s >= 0:
            raise SpecError(
                f"negative scale-to-zero grace: {self.scale_to_zero_grace_s}"
            )

    def uses_last_of_fleet(self) -> bool:
        return self.scale_to_zero_grace_s > 0

    def _desired(self, view: FleetView) -> int:
        serve_backlog = -(-view.demand // view.max_concurrency)
        headroom = math.ceil(view.in_flight / (self.target * view.max_concurrency))
        return max(serve_backlog, headroom)

    def scale_out(self, state, view: FleetView, record: dict | None = None) -> int:
        desired = self._desired(view)
        want = desired - view.live_containers
        if want > 0 and record is not None:
            record.update(target=self.target, desired=desired)
        return max(0, want)

    def quiet_in_flight(self, live_containers: int, max_concurrency: int) -> float:
        # Bisect with _desired itself on the post-dispatch view (queued=0):
        # an algebraic inverse of its integer ceil and float divide +
        # math.ceil could round differently.  Both terms grow with
        # in_flight, so the quiet counts are a prefix of [0, live * mc].
        low, high = 0, live_containers * max_concurrency
        while low < high:
            mid = (low + high + 1) // 2
            view = FleetView(0.0, 0, mid, live_containers, 0, 0, max_concurrency)
            if self._desired(view) <= live_containers:
                low = mid
            else:
                high = mid - 1
        return low

    def idle_expiry(
        self,
        state,
        idle_since: float,
        keep_alive_s: float,
        last_of_fleet: bool,
    ) -> float:
        grace = self.scale_to_zero_grace_s if last_of_fleet else 0.0
        return idle_since + keep_alive_s + grace


class _PanicState:
    """Sliding arrival history plus the current panic deadline."""

    __slots__ = ("arrivals", "started_at", "panic_until", "panic_peak", "episodes")

    def __init__(self) -> None:
        self.arrivals: deque[float] = deque()
        self.started_at: float | None = None  # first admitted arrival
        self.panic_until: float = -math.inf
        self.panic_peak: int = 0  # max desired fleet size this episode
        #: Closed panic intervals ``[start, until]`` — extended in place
        #: while a panic persists; inspectable via
        #: :meth:`ClusterPlatform.scaling_state` for tests and reports.
        self.episodes: list[list[float]] = []


@dataclass(frozen=True)
class PanicWindow(TargetUtilization):
    """Knative-style stable/panic dual-window autoscaling.

    Maintains a sliding window of admitted-arrival timestamps.  Each
    scale decision compares the arrival rate over the short *panic
    window* against the rate over the long *stable window*: when the
    panic-window rate reaches ``panic_threshold`` times the stable rate
    (and at least two arrivals landed in the panic window), the fleet
    enters panic mode for one stable window.  Each window's rate is
    normalized by the history it has actually observed, so a burst is
    only a burst *relative to an established baseline*: steady startup
    traffic never panics, and a scale-from-zero burst with no quiet
    history to contrast against is handled by ordinary demand-driven
    scaling until a baseline exists.  While panicking the fleet holds
    the *peak* demand-driven size the burst has reached this episode
    (Knative's max-during-panic rule) and *suspends scale-down* — no
    container retires before the panic deadline, so post-burst echoes
    find a warm fleet instead of a fresh round of cold starts.

    Attributes:
        target: Desired in-flight/capacity fraction, in ``(0, 1]``
            (inherited from :class:`TargetUtilization`).
        scale_to_zero_grace_s: Extra idle lifetime for the last container.
        stable_window_s: Long window for the baseline rate estimate;
            also the duration panic mode persists once triggered.
        panic_window_s: Short window for burst detection; must not
            exceed ``stable_window_s``.
        panic_threshold: Burst factor (panic rate / stable rate) that
            triggers panic; must be > 1.
    """

    stable_window_s: float = 60.0
    panic_window_s: float = 6.0
    panic_threshold: float = 2.0
    name: ClassVar[str] = "panic-window"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.panic_window_s > 0:
            raise SpecError(f"panic window must be positive: {self.panic_window_s}")
        if not self.stable_window_s > 0:
            raise SpecError(f"stable window must be positive: {self.stable_window_s}")
        if self.panic_window_s > self.stable_window_s:
            raise SpecError(
                f"panic window ({self.panic_window_s}) exceeds stable window "
                f"({self.stable_window_s})"
            )
        if not self.panic_threshold > 1.0:
            raise SpecError(f"panic threshold must exceed 1: {self.panic_threshold}")

    def quiet_in_flight(self, live_containers: int, max_concurrency: int) -> float:
        # The sliding arrival history must see every admitted arrival, so
        # TargetUtilization's threshold does not carry over.
        return -1

    def new_state(self) -> _PanicState:
        return _PanicState()

    def export_state(self, state: _PanicState) -> dict:
        """JSON-safe dump of the sliding history + panic episode state."""
        return {
            "arrivals": list(state.arrivals),
            "started_at": state.started_at,
            # -inf (never panicked) is not JSON-representable; mark None.
            "panic_until": (
                None if math.isinf(state.panic_until) else state.panic_until
            ),
            "panic_peak": state.panic_peak,
            "episodes": [list(episode) for episode in state.episodes],
        }

    def restore_state(self, data: dict) -> _PanicState:
        state = _PanicState()
        state.arrivals = deque(data["arrivals"])
        state.started_at = data["started_at"]
        state.panic_until = (
            -math.inf if data["panic_until"] is None else data["panic_until"]
        )
        state.panic_peak = data["panic_peak"]
        state.episodes = [list(episode) for episode in data["episodes"]]
        return state

    def observe_arrival(self, state: _PanicState, now: float) -> None:
        if state.started_at is None:
            state.started_at = now
        state.arrivals.append(now)

    def _rates(self, state: _PanicState, now: float) -> tuple[float, float, int]:
        arrivals = state.arrivals
        stable_window = self.stable_window_s
        panic_window = self.panic_window_s
        cutoff = now - stable_window
        while arrivals and arrivals[0] <= cutoff:
            arrivals.popleft()
        horizon = now - panic_window
        panic_count = 0
        for stamp in reversed(arrivals):
            if stamp <= horizon:
                break
            panic_count += 1
        # Each window's rate is normalized by the history it actually
        # observed: before ``elapsed`` reaches a window's length, dividing
        # by the full window would make the short window's rate look
        # inflated relative to the long one's, and *any* startup traffic
        # — however steady — would register as a burst.  With the shared
        # clamp a burst is only a burst relative to an established
        # baseline, so panic mode needs quiet history to contrast with.
        # Each span is max(min(elapsed, window), 1e-9), spelled as
        # compares: this runs once per admitted arrival.
        started = state.started_at
        elapsed = now - (now if started is None else started)
        stable_span = stable_window if stable_window < elapsed else elapsed
        if stable_span < 1e-9:
            stable_span = 1e-9
        panic_span = panic_window if panic_window < elapsed else elapsed
        if panic_span < 1e-9:
            panic_span = 1e-9
        return (
            len(arrivals) / stable_span,
            panic_count / panic_span,
            panic_count,
        )

    def scale_out(
        self, state: _PanicState, view: FleetView, record: dict | None = None
    ) -> int:
        now = view.now
        stable_rate, panic_rate, panic_count = self._rates(state, now)
        if panic_count >= 2 and panic_rate >= self.panic_threshold * stable_rate:
            until = now + self.stable_window_s
            if now < state.panic_until and state.episodes:
                state.episodes[-1][1] = until  # burst persists: extend
            else:
                state.episodes.append([now, until])
                state.panic_peak = 0  # a fresh episode tracks its own peak
            state.panic_until = until
        # _desired(view), term for term (the same integer ceil and float
        # divide + math.ceil), without the call layers: this runs on
        # every admitted arrival.
        in_flight = view.in_flight
        max_concurrency = view.max_concurrency
        desired = -(-(view.queued + in_flight) // max_concurrency)
        headroom = math.ceil(in_flight / (self.target * max_concurrency))
        if headroom > desired:
            desired = headroom
        # Knative's max-during-panic rule: while panicking, the fleet
        # holds the largest size the burst demanded so far this episode
        # (demand-driven — queued + in-flight concurrency — not the raw
        # arrival count, which would overshoot wildly whenever service
        # time is shorter than the panic window).
        panicking = now < state.panic_until
        if panicking and desired > state.panic_peak:
            state.panic_peak = desired
        want = (state.panic_peak if panicking else desired) - view.live_containers
        if want > 0 and record is not None:
            record.update(
                target=self.target,
                desired=desired,
                stable_rate=stable_rate,
                panic_rate=panic_rate,
                panicking=panicking,
            )
        return want if want > 0 else 0

    def idle_expiry(
        self,
        state: _PanicState,
        idle_since: float,
        keep_alive_s: float,
        last_of_fleet: bool,
    ) -> float:
        base = idle_since + keep_alive_s
        if last_of_fleet:
            base += self.scale_to_zero_grace_s
        # Scale-down is suspended while panicking: a container whose
        # keep-alive elapses inside a panic period survives to its end.
        until = state.panic_until
        return until if until > base else base


#: CLI-facing policy registry (see ``slimstart cluster --policy``).
SCALING_POLICY_NAMES = (
    "per-request",
    "target-utilization",
    "panic-window",
    "predictive",
)


def make_scaling_policy(
    name: str,
    target: float = TargetUtilization.target,
    scale_to_zero_grace_s: float = TargetUtilization.scale_to_zero_grace_s,
    stable_window_s: float = PanicWindow.stable_window_s,
    panic_window_s: float = PanicWindow.panic_window_s,
    panic_threshold: float = PanicWindow.panic_threshold,
    forecaster: str = "ewma",
    season_windows: int | None = None,
    forecast_window_s: float | None = None,
    prewarm_lead_s: float | None = None,
    prewarm_headroom: float | None = None,
) -> ScalingPolicy:
    """Build a scaling policy from its CLI name.

    ``forecaster``/``season_windows``/``forecast_window_s``/
    ``prewarm_lead_s``/``prewarm_headroom`` configure ``predictive``
    only; for it, ``target`` and ``scale_to_zero_grace_s`` configure the
    wrapped :class:`TargetUtilization` base the policy falls back to
    while history is cold.
    """
    if name == "per-request":
        return PerRequest()
    if name == "target-utilization":
        return TargetUtilization(
            target=target, scale_to_zero_grace_s=scale_to_zero_grace_s
        )
    if name == "panic-window":
        return PanicWindow(
            target=target,
            scale_to_zero_grace_s=scale_to_zero_grace_s,
            stable_window_s=stable_window_s,
            panic_window_s=panic_window_s,
            panic_threshold=panic_threshold,
        )
    if name == "predictive":
        # Local import: forecast builds *on* the policy protocol here.
        from repro.faas.forecast import Predictive, make_forecaster

        overrides: dict = {}
        if forecast_window_s is not None:
            overrides["window_s"] = forecast_window_s
        if prewarm_lead_s is not None:
            overrides["prewarm_lead_s"] = prewarm_lead_s
        if prewarm_headroom is not None:
            overrides["headroom"] = prewarm_headroom
        return Predictive(
            base=TargetUtilization(
                target=target, scale_to_zero_grace_s=scale_to_zero_grace_s
            ),
            forecaster=make_forecaster(forecaster, season_windows=season_windows),
            **overrides,
        )
    raise SpecError(
        f"unknown scaling policy: {name!r} (choose from {SCALING_POLICY_NAMES})"
    )
