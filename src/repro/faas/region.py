"""Multi-region cluster federation with latency-aware routing.

One :class:`~repro.faas.cluster.ClusterPlatform` answers single-region
fleet questions; production deployments run *many* regions, and the
interesting behaviour — offloading, locality, failover — lives in the
routing layer between them.  This module federates several per-region
clusters behind one gateway:

* :class:`RegionTopology` names the regions, carries the inter-region
  network latency matrix, and records per-region platform/fleet
  overrides (a region can have a smaller fleet or slower control plane).
* :class:`RegionFederation` owns one :class:`ClusterPlatform` per region,
  all sharing a single :class:`~repro.common.clock.VirtualClock`.  Its
  :meth:`RegionFederation.run_stream` routes each request at its origin
  time ``t`` (the policy sees fleet state advanced to ``t``), then
  *delivers* it to the chosen region at ``t + latency/1000`` through the
  federation's own delivery heap — so every region observes arrivals in
  global time order.
* Routing policies are pluggable (:class:`RoutingPolicy`):
  :class:`RoundRobinPolicy` spreads blindly, :class:`LeastLoadedPolicy`
  follows queued + in-flight pressure, and :class:`LocalityPolicy` keeps
  traffic in its origin region until a spillover threshold (or the
  region's load-shedder) pushes it to the nearest alternative.  All
  three fail over away from a region whose bounded queues would shed the
  request while another region still accepts.
* :class:`FederatedGateway` extends :class:`~repro.faas.gateway.Gateway`
  so region-tagged function-URL streams replay over the same surface the
  single-cluster path uses.

Everything stays deterministic: per-region platforms derive their jitter
seeds from ``(seed, "region", name)``, policies break ties by latency
then region name, and identical seeds + schedules reproduce bit-identical
records.  See ``benchmarks/test_fig_multiregion_routing.py`` for the
policy-comparison experiment this enables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.common.clock import VirtualClock
from repro.common.errors import DeploymentError, SpecError, WorkloadError
from repro.common.rng import SeededRNG, derive_seed
from repro.faas.cluster import ClusterPlatform, FleetConfig, _StreamSinks
from repro.faas.events import InvocationRecord
from repro.faas.gateway import Gateway
from repro.faas.sim import SimAppConfig, SimPlatformConfig
from repro.metrics import (
    DEFAULT_QOS_CLASS,
    QoSClass,
    WindowAccumulator,
    WindowedSummary,
    qos_registry,
)
from repro.plan import DeferralPlan

#: Sentinel region name a routing policy returns to *intentionally drop*
#: a request (the third arm of the probabilistic local/offload/drop mix).
#: The federation charges the request's QoS drop penalty and never
#: delivers it anywhere.  Not a valid region name in any topology.
DROP = "__drop__"


@dataclass(frozen=True)
class RegionSpec:
    """One region: a name plus optional platform/fleet overrides.

    Attributes:
        name: Region identifier (e.g. ``"us-east"``); unique per topology.
        platform: Region-specific platform cost constants; ``None`` uses
            the federation-wide default (regions can model slower control
            planes via a larger ``cold_platform_ms``).
        fleet: Region-specific default fleet configuration; ``None`` uses
            the federation-wide default.  Regions can be capacity-starved
            via a smaller ``max_containers`` — or run a different
            autoscaler entirely via ``FleetConfig.policy`` (e.g. a
            panic-window scaler in a bursty region while the rest of the
            topology stays per-request).
        tier: Capacity tier label, ``"edge"`` or ``"cloud"``.  Purely
            descriptive to the federation (capacity comes from ``fleet``),
            but visible to routing policies through
            :attr:`RegionState.tier` so tier-aware policies can treat a
            tight edge site differently from deep cloud capacity.
    """

    name: str
    platform: SimPlatformConfig | None = None
    fleet: FleetConfig | None = None
    tier: str = "cloud"

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("region name must be non-empty")
        if self.tier not in ("edge", "cloud"):
            raise SpecError(f"unknown region tier: {self.tier!r}")


class RegionTopology:
    """Named regions plus the inter-region network latency matrix.

    ``latency_ms`` maps ``(src, dst)`` pairs to one-way network latency in
    milliseconds.  Lookups fall back to the reversed pair (symmetric
    links), then to ``default_ms``; a region reaches itself in 0 ms unless
    an explicit ``(r, r)`` entry says otherwise.
    """

    def __init__(
        self,
        regions: Sequence[RegionSpec | str],
        latency_ms: Mapping[tuple[str, str], float] | None = None,
        default_ms: float = 0.0,
    ) -> None:
        self.regions: tuple[RegionSpec, ...] = tuple(
            region if isinstance(region, RegionSpec) else RegionSpec(region)
            for region in regions
        )
        if not self.regions:
            raise SpecError("topology needs at least one region")
        names = [spec.name for spec in self.regions]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate region names: {names}")
        if default_ms < 0:
            raise SpecError(f"negative default latency: {default_ms}")
        self.default_ms = default_ms
        self._names = tuple(names)
        self._known = frozenset(names)
        self._latency: dict[tuple[str, str], float] = {}
        for (src, dst), value in (latency_ms or {}).items():
            if src not in self._known or dst not in self._known:
                raise SpecError(f"latency entry references unknown region: {(src, dst)}")
            if value < 0:
                raise SpecError(f"negative latency for {(src, dst)}: {value}")
            self._latency[(src, dst)] = float(value)

    @classmethod
    def fully_connected(
        cls,
        regions: Sequence[RegionSpec | str],
        default_ms: float,
    ) -> "RegionTopology":
        """Uniform mesh: every distinct pair is ``default_ms`` apart."""
        return cls(regions, latency_ms=None, default_ms=default_ms)

    @classmethod
    def edge_cloud(
        cls,
        edge: Sequence[RegionSpec | str],
        cloud: Sequence[RegionSpec | str],
        uplink_ms: float = 40.0,
        inter_cloud_ms: float = 10.0,
    ) -> "RegionTopology":
        """Heterogeneous two-tier topology: tight edge sites + deep cloud.

        Edge regions (tier ``"edge"``) are where traffic originates —
        typically configured with small fleets / tight memory caps via
        their :attr:`RegionSpec.fleet` override — and reach any cloud
        region over ``uplink_ms``.  Cloud regions (tier ``"cloud"``) form
        a fast mesh ``inter_cloud_ms`` apart.  Edge sites talk to each
        other via the cloud (``2 * uplink_ms``).  Specs passed in are re-tagged
        with their tier, so callers can hand plain names or full specs.
        """
        edge_specs = tuple(
            replace(spec, tier="edge")
            if isinstance(spec, RegionSpec)
            else RegionSpec(spec, tier="edge")
            for spec in edge
        )
        cloud_specs = tuple(
            replace(spec, tier="cloud")
            if isinstance(spec, RegionSpec)
            else RegionSpec(spec, tier="cloud")
            for spec in cloud
        )
        if not edge_specs or not cloud_specs:
            raise SpecError("edge_cloud topology needs both tiers populated")
        edge_gap = 2.0 * uplink_ms
        latency: dict[tuple[str, str], float] = {}
        for e in edge_specs:
            for c in cloud_specs:
                latency[(e.name, c.name)] = uplink_ms
        for i, a in enumerate(edge_specs):
            for b in edge_specs[i + 1:]:
                latency[(a.name, b.name)] = edge_gap
        for i, a in enumerate(cloud_specs):
            for b in cloud_specs[i + 1:]:
                latency[(a.name, b.name)] = inter_cloud_ms
        return cls(edge_specs + cloud_specs, latency_ms=latency)

    def names(self) -> tuple[str, ...]:
        return self._names

    def latency_ms(self, src: str, dst: str) -> float:
        """One-way network latency from ``src`` to ``dst``."""
        if src not in self._known or dst not in self._known:
            raise SpecError(f"unknown region in latency lookup: {(src, dst)}")
        if (src, dst) in self._latency:
            return self._latency[(src, dst)]
        if (dst, src) in self._latency:
            return self._latency[(dst, src)]
        if src == dst:
            return 0.0
        return self.default_ms


class RegionState(NamedTuple):
    """A routing policy's view of one region at decision time.

    Attributes:
        name: Region identifier.
        load: Queued + in-flight requests for the routed application
            (:meth:`ClusterPlatform.load`).
        accepts: Whether the region's load-shedder would admit one more
            arrival: its queue is unbounded, or the queue plus this
            arrival plus the requests on the wire fit in the queue bound
            plus the bookable slots (``ClusterPlatform._bookable_capacity``).
        latency_ms: One-way network latency from the request's origin.
        tier: The region's capacity tier (:attr:`RegionSpec.tier`).
        capacity: Slots the region can still book for this app — free
            slots on live containers plus bootable containers, minus
            requests already committed but still on the wire.  The
            coupling constraint :class:`ProbabilisticOffloadPolicy`'s LP
            re-solve uses.
    """

    name: str
    load: int
    accepts: bool
    latency_ms: float
    tier: str = "cloud"
    capacity: float = math.inf


class RoutingPolicy:
    """Picks the serving region for each request.

    ``choose`` receives the origin region and one :class:`RegionState`
    per region (in topology order, state advanced to the request's origin
    time) and returns the destination region's name — or :data:`DROP` to
    intentionally drop the request (only meaningful to policies that
    price drops, e.g. :class:`ProbabilisticOffloadPolicy`).  ``at`` is
    the request's origin time (virtual seconds) and ``qos`` its QoS class
    name, both defaulted so QoS-oblivious policies can ignore them.
    Implementations must be deterministic: any internal state (a
    round-robin cursor, a seeded RNG, re-solved probability mixes) must
    evolve identically for identical request sequences.
    """

    name = "abstract"

    def choose(
        self,
        origin: str,
        states: Sequence[RegionState],
        at: float = 0.0,
        qos: str | None = None,
    ) -> str:
        raise NotImplementedError  # pragma: no cover - interface

    @staticmethod
    def _accepting(states: Sequence[RegionState]) -> Sequence[RegionState]:
        """Cross-region failover: never pick a shedding region while
        another accepts.  When every region sheds, all are candidates
        (the request is doomed either way; keep the base ordering)."""
        accepting = [state for state in states if state.accepts]
        return accepting or states


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through regions in topology order, skipping shedding ones."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = itertools.count()

    def choose(
        self,
        origin: str,
        states: Sequence[RegionState],
        at: float = 0.0,
        qos: str | None = None,
    ) -> str:
        start = next(self._cursor) % len(states)
        rotation = [states[(start + offset) % len(states)] for offset in range(len(states))]
        return self._accepting(rotation)[0].name


class LeastLoadedPolicy(RoutingPolicy):
    """Join the shortest queue: minimal queued + in-flight demand.

    Ties break toward the origin-nearest region, then by name, so the
    policy degrades into locality when the fleet is idle.
    """

    name = "least-loaded"

    def choose(
        self,
        origin: str,
        states: Sequence[RegionState],
        at: float = 0.0,
        qos: str | None = None,
    ) -> str:
        # min(self._accepting(states), key=...) without its list and key
        # calls: the first accepting state strictly smallest by the key.
        best = None
        for state in states:
            if state.accepts:
                key = (state.load, state.latency_ms, state.name)
                if best is None or key < best_key:
                    best, best_key = state, key
        if best is None:  # every region sheds
            best = min(states, key=lambda s: (s.load, s.latency_ms, s.name))
        return best.name


class LocalityPolicy(RoutingPolicy):
    """Serve in the origin region; spill over only under pressure.

    Attributes:
        spillover_load: Origin load (queued + in-flight) at which traffic
            spills to the nearest region whose load is below the same
            threshold.  ``None`` disables spillover entirely.

    A shedding origin always fails over to the nearest accepting region.
    """

    name = "locality"

    def __init__(self, spillover_load: int | None = None) -> None:
        if spillover_load is not None and spillover_load < 1:
            raise SpecError(f"spillover_load must be >= 1: {spillover_load}")
        self.spillover_load = spillover_load

    def choose(
        self,
        origin: str,
        states: Sequence[RegionState],
        at: float = 0.0,
        qos: str | None = None,
    ) -> str:
        by_name = {state.name: state for state in states}
        home = by_name.get(origin)
        if home is None:  # app not deployed at the origin: nearest accepting
            return min(
                self._accepting(states),
                key=lambda state: (state.latency_ms, state.name),
            ).name
        others = sorted(
            (state for state in states if state.name != origin),
            key=lambda state: (state.latency_ms, state.name),
        )
        if not home.accepts:
            for state in others:
                if state.accepts:
                    return state.name
            return origin
        if self.spillover_load is not None and home.load >= self.spillover_load:
            for state in others:
                if state.accepts and state.load < self.spillover_load:
                    return state.name
        return origin


class ProbabilisticOffloadPolicy(RoutingPolicy):
    """Optimizer-driven local/offload/drop mix, re-solved periodically.

    In the style of the faas-offloading-sim exemplar: each QoS class gets
    a probability triple ``(p_local, p_offload, p_drop)``; every request
    draws from its class's triple with a seeded RNG.  The triples are
    re-solved every ``update_interval_s`` of *virtual* time from

    * per-class arrival rates, tracked as an EWMA over re-solve intervals
      (:attr:`ARRIVAL_ALPHA` weighs the newest interval), and
    * the fleet state the federation hands ``choose`` — the local
      region's remaining bookable capacity (the LP's coupling
      constraint) and each candidate's accept/latency state.

    The optimization is a tiny linear program —

    maximize   Σ_c λ_c · (p_L·v_L + p_O·v_O + p_D·v_D)
    subject to Σ_c λ_c · p_L ≤ κ   and each triple on the simplex

    — where ``v_L/v_O/v_D`` are per-class value estimates (utility for an
    in-deadline completion, minus the deadline penalty when the chosen
    arm cannot meet the deadline, minus the drop penalty for the drop
    arm, with offload utility discounted by :attr:`LATENCY_COST_PER_MS` per
    wire millisecond) and ``κ`` converts the local region's bookable
    slots into a request rate via ``service_ms_estimate``.  A single
    coupling constraint makes the LP exactly solvable by a greedy
    fractional fill: every class whose local value beats its best
    alternative keeps local share by descending per-request regret until
    κ is spent; the marginal class gets a fractional ``p_local``; the
    rest take their best alternative (offload, or drop when the drop
    penalty undercuts a certain deadline violation).

    Exactness caveats (see docs/architecture.md): κ is a heuristic —
    bookable slots over an assumed mean service time — and the deadline
    feasibility test budgets :attr:`DEADLINE_SLACK` of the deadline for the
    forwarding wire, not a queueing model of the remote region.  The LP
    is exact for the stated objective; the objective itself is an
    estimate refreshed from live state each interval.
    """

    name = "probabilistic"
    ARRIVAL_ALPHA = 0.3
    DEADLINE_SLACK = 0.5
    LATENCY_COST_PER_MS = 0.002

    def __init__(
        self,
        qos_classes: Iterable[QoSClass] | None = None,
        seed: int = 0,
        update_interval_s: float = 60.0,
        service_ms_estimate: float = 200.0,
    ) -> None:
        if update_interval_s <= 0:
            raise SpecError(f"update interval must be positive: {update_interval_s}")
        if service_ms_estimate <= 0:
            raise SpecError(f"service estimate must be positive: {service_ms_estimate}")
        self._registry = qos_registry(
            qos_classes if qos_classes is not None else (DEFAULT_QOS_CLASS,)
        )
        self.update_interval_s = update_interval_s
        self.service_ms_estimate = service_ms_estimate
        self._rng = SeededRNG(derive_seed(seed, "offload"))
        self._rates: dict[str, float] = {}  # EWMA requests/s per class
        self._counts: dict[str, int] = {}  # arrivals in the open interval
        self._interval_start: float | None = None
        #: origin -> class -> (p_local, p_offload, p_drop); cleared at
        #: every interval boundary, re-solved lazily per origin.
        self._mix: dict[str, dict[str, tuple[float, float, float]]] = {}

    def choose(
        self,
        origin: str,
        states: Sequence[RegionState],
        at: float = 0.0,
        qos: str | None = None,
    ) -> str:
        if qos is not None and qos in self._registry:
            cls_name, spec = qos, self._registry[qos]
        else:
            cls_name, spec = DEFAULT_QOS_CLASS.name, DEFAULT_QOS_CLASS
        if self._interval_start is None:
            self._interval_start = at
        while at - self._interval_start >= self.update_interval_s:
            self._close_interval()
        self._counts[cls_name] = self._counts.get(cls_name, 0) + 1
        mix = self._mix.get(origin)
        if mix is None:
            mix = self._mix[origin] = self._solve(origin, states)
        p_local, p_offload, _ = mix.get(cls_name, (1.0, 0.0, 0.0))
        draw = self._rng.random()
        local, offload = self._targets(origin, states, spec)
        if draw < p_local:
            return local.name
        if draw < p_local + p_offload:
            return (offload or local).name
        return DROP

    # -- internals ---------------------------------------------------------

    def _close_interval(self) -> None:
        """Fold the finished interval's counts into the EWMA rates."""
        alpha = self.ARRIVAL_ALPHA
        for name in sorted(self._registry):
            rate = self._counts.get(name, 0) / self.update_interval_s
            previous = self._rates.get(name)
            self._rates[name] = (
                rate
                if previous is None
                else alpha * rate + (1.0 - alpha) * previous
            )
        self._counts.clear()
        self._mix.clear()
        self._interval_start += self.update_interval_s

    def _targets(
        self, origin: str, states: Sequence[RegionState], spec: QoSClass
    ) -> tuple[RegionState, RegionState | None]:
        """The concrete (local, offload) regions for this decision.

        Local is the origin region when the app is deployed there, else
        the nearest region.  Offload is the nearest *accepting* region
        other than local, preferring ones whose wire latency fits the
        class's deadline budget; ``None`` when local is the only region.
        """
        local = next((state for state in states if state.name == origin), None)
        if local is None:
            local = min(states, key=lambda s: (s.latency_ms, s.name))
        budget = spec.deadline_ms * self.DEADLINE_SLACK
        candidates = sorted(
            (s for s in states if s.name != local.name and s.accepts),
            key=lambda s: (s.latency_ms > budget, s.latency_ms, s.name),
        )
        return local, (candidates[0] if candidates else None)

    def _solve(
        self, origin: str, states: Sequence[RegionState]
    ) -> dict[str, tuple[float, float, float]]:
        """Greedy-exact LP solve for this origin's probability triples."""
        local = next((state for state in states if state.name == origin), None)
        if local is None:
            local = min(states, key=lambda s: (s.latency_ms, s.name))
        kappa = local.capacity * 1000.0 / self.service_ms_estimate
        keep_local: list[tuple[float, str, tuple[float, float, float]]] = []
        mix: dict[str, tuple[float, float, float]] = {}
        for name in sorted(self._registry):
            spec = self._registry[name]
            v_local = spec.utility if local.accepts else -spec.deadline_penalty
            _, offload = self._targets(origin, states, spec)
            if offload is None:
                v_offload = -math.inf
            elif offload.latency_ms <= spec.deadline_ms * self.DEADLINE_SLACK:
                v_offload = (
                    spec.utility - self.LATENCY_COST_PER_MS * offload.latency_ms
                )
            else:
                v_offload = -spec.deadline_penalty
            v_drop = -spec.drop_penalty
            if v_offload >= v_drop:
                alternative = (0.0, 1.0, 0.0)
                v_alt = v_offload
            else:
                alternative = (0.0, 0.0, 1.0)
                v_alt = v_drop
            if v_alt == -math.inf or v_local >= v_alt:
                # Local is (weakly) best unconstrained; capacity decides.
                keep_local.append((v_local - v_alt, name, alternative))
            else:
                mix[name] = alternative
        # Fractional-knapsack fill of the local capacity, by descending
        # per-request regret (the exact LP solution for one coupling
        # constraint); ties break by class name for determinism.
        remaining = kappa
        for regret, name, alternative in sorted(
            keep_local, key=lambda item: (-item[0], item[1])
        ):
            rate = self._rates.get(name, 0.0)
            if rate <= remaining:
                mix[name] = (1.0, 0.0, 0.0)
                remaining -= rate
            elif remaining > 0.0:
                share = remaining / rate
                mix[name] = (
                    share,
                    alternative[1] * (1.0 - share),
                    alternative[2] * (1.0 - share),
                )
                remaining = 0.0
            else:
                mix[name] = alternative
        return mix


#: CLI-facing policy registry (see ``slimstart regions --policy`` and
#: ``slimstart replay --routing``).
POLICY_NAMES = ("round-robin", "least-loaded", "locality", "probabilistic")


def make_policy(
    name: str,
    spillover_load: int | None = None,
    qos_classes: Iterable[QoSClass] | None = None,
    seed: int = 0,
) -> RoutingPolicy:
    """Build a routing policy from its CLI name."""
    if name == "round-robin":
        return RoundRobinPolicy()
    if name == "least-loaded":
        return LeastLoadedPolicy()
    if name == "locality":
        return LocalityPolicy(spillover_load=spillover_load)
    if name == "probabilistic":
        return ProbabilisticOffloadPolicy(qos_classes=qos_classes, seed=seed)
    raise SpecError(f"unknown routing policy: {name!r} (choose from {POLICY_NAMES})")


class RegionFederation:
    """Per-region clusters replayed on one shared virtual-time loop.

    The federation is the multi-region analogue of
    :class:`ClusterPlatform` and has the same one way in,
    :meth:`run_stream` (its arrivals carry an extra ``origin``).
    Routing decisions happen at origin time against live fleet state; the
    chosen region receives the arrival after the inter-region network
    latency, via a federation-level delivery heap that keeps all
    per-region event processing in global time order.
    """

    def __init__(
        self,
        topology: RegionTopology,
        policy: RoutingPolicy | None = None,
        platform: SimPlatformConfig | None = None,
        fleet: FleetConfig | None = None,
        seed: int = 0,
        clock: VirtualClock | None = None,
        qos: Iterable[QoSClass] | None = None,
    ) -> None:
        self.topology = topology
        self.policy = policy or RoundRobinPolicy()
        self.clock = clock or VirtualClock()
        self.seed = seed
        #: Shared QoS registry; every region's platform resolves class
        #: names against the same specs, and the federation charges drop
        #: penalties for requests the routing policy discards.
        self.qos_classes: dict[str, QoSClass] = (
            qos_registry(qos) if qos is not None else {}
        )
        qos_specs = tuple(self.qos_classes.values()) if self.qos_classes else None
        self.platforms: dict[str, ClusterPlatform] = {
            spec.name: ClusterPlatform(
                config=spec.platform or platform,
                fleet=spec.fleet or fleet,
                clock=self.clock,
                seed=derive_seed(seed, "region", spec.name),
                qos=qos_specs,
            )
            for spec in topology.regions
        }
        #: Forwards on the wire, a heap of plain tuples ``(when, seq,
        #: platform, fleet, entry, qos, wire_ms, pending_key)`` — ``seq``
        #: is unique, so ordering never reaches the payload.
        self._deliveries: list[tuple] = []
        self._delivery_seq = itertools.count()
        self._last_origin_s = self.clock.now()
        #: Requests routed to each (region, app), maintained incrementally:
        #: the O(regions x apps) routing view, since routing decisions are
        #: not retained (an ``on_route`` tap sees each one).
        self._served: dict[tuple[str, str], int] = {}
        #: Routed-but-undelivered arrivals per (region, app): requests
        #: still on the wire.  Policies must see them, or near-simultaneous
        #: submissions over a slow link would all pile onto the region that
        #: looked empty at decision time.
        self._pending: dict[tuple[str, str], int] = {}
        #: Requests the routing policy intentionally dropped, per app.
        self._drops: dict[str, int] = {}

    # -- deployment --------------------------------------------------------

    def deploy(
        self,
        config: SimAppConfig,
        plan: DeferralPlan | None = None,
        fleet: FleetConfig | None = None,
        regions: Iterable[str] | None = None,
    ) -> str:
        """Deploy an application to every region (or a named subset)."""
        targets = tuple(regions) if regions is not None else self.topology.names()
        for name in targets:
            self.platform(name).deploy(config, plan=plan, fleet=fleet)
        return config.name

    def platform(self, region: str) -> ClusterPlatform:
        """The one region's underlying cluster (for inspection/tests)."""
        try:
            return self.platforms[region]
        except KeyError:
            raise SpecError(f"unknown region: {region!r}") from None

    def app_names(self) -> list[str]:
        names: set[str] = set()
        for platform in self.platforms.values():
            names.update(platform.app_names())
        return sorted(names)

    # -- traffic -----------------------------------------------------------

    def run_stream(
        self,
        arrivals: Iterable[tuple[float, str, str, str | None]],
        accumulator: WindowAccumulator,
        on_record: Callable[[str, InvocationRecord], None] | None = None,
        obs=None,
        on_route: Callable[[tuple[str, str, float]], None] | None = None,
    ) -> WindowedSummary:
        """Consume a region-tagged arrival stream at bounded memory.

        The federated analogue of
        :meth:`~repro.faas.cluster.ClusterPlatform.run_stream`:
        ``arrivals`` yields ``(arrival_s, app, entry, origin)`` — or
        QoS-tagged ``(arrival_s, app, entry, origin, qos_name)`` — in
        non-decreasing origin-time order (e.g. a compiled trace run
        through :func:`repro.workloads.replay.assign_qos` then
        :func:`repro.workloads.replay.assign_regions`).  Each arrival is
        routed at its origin time ``t`` (semantics rules 31–34): every
        forward due by ``t`` lands and every region drains to ``t``, the
        policy chooses among the regions hosting the app, and the request
        lands there at ``t + latency/1000``.  Once the stream ends,
        pending forwards land and every region drains.  Completed
        records, shed arrivals, and container retirements from *all*
        regions fold into one shared ``accumulator``; a record attributes
        to the window of its *regional* arrival.  An app's hosting regions
        from an origin are resolved on its first arrival from there, into
        a route table built per call, so a deployment between two streams
        is seen by the second.

        Nothing per request is retained unless a tap asks:
        ``on_record(region, record)`` receives each completed record with
        the region that served it, and ``on_route((origin, region,
        network_ms))`` receives each routing decision.
        :meth:`served_counts` is the O(regions × apps) view kept either
        way.

        ``obs`` installs one observability sink shared by every region:
        sheds from all regions tee into it, completions and provisions
        reach it through the shared accumulator, each regional cluster
        journals its scaling decisions (keyed by app name), and cross-region
        forwarding shows up in sampled spans as their ``hop_ms`` phase.
        As in the cluster loop, the shared clock moves only before a
        journal flush, after the final drain and on the way out.
        """
        platforms = self.platforms
        if any(platform._stream is not None for platform in platforms.values()):
            raise WorkloadError("a streaming replay is already in progress")
        sinks = _StreamSinks.into(accumulator, obs=obs)
        for region, platform in platforms.items():
            platform._stream = (
                sinks
                if on_record is None
                else replace(sinks, record=partial(on_record, region))
            )
            platform._obs = obs
        clock = self.clock
        # ``end``: the latest arrival, landing or event, where the clock ends.
        last = end = self._last_origin_s
        try:
            regions = tuple(platforms.values())
            deliveries = self._deliveries
            pending = self._pending
            served = self._served
            qos_classes = self.qos_classes
            choose = self.policy.choose
            next_seq = self._delivery_seq.__next__
            observe_arrival = accumulator.observe_arrival
            new_state = tuple.__new__
            # (origin, app) -> {region: (region, platform, fleet, latency_ms,
            # tier, (region, app), queue_capacity, slot_cap)} over the
            # hosting regions in topology order; the slot cap is
            # ClusterPlatform._bookable_capacity's constant term.
            table: dict[tuple[str, str], dict[str, tuple]] = {}
            # Same driver-screened journal flushing as the cluster loop:
            # one float compare per arrival, obs work only at boundaries.
            obs_flush = math.inf if obs is None else obs.next_flush_s
            fed = 0
            items = iter(arrivals)
            while True:
                item = next(items, None)
                if item is None:  # the stream is over: land and drain all
                    at = math.inf
                else:
                    at = item[0]
                    if at >= obs_flush:
                        if last > clock.now():
                            clock.advance_to(last)
                        obs.flush_boundary(at, fed)
                        obs_flush = obs.next_flush_s
                    fed += 1
                    observe_arrival(at)
                    name, entry = item[1], item[2]
                    origin = item[3] if len(item) > 3 else None
                    if origin is None:
                        origin = self.topology.names()[0]
                    qos = item[4] if len(item) > 4 else None
                    routes = table.get((origin, name))
                    if routes is None and origin not in platforms:
                        raise SpecError(f"unknown region: {origin!r}")
                    if qos is not None and qos not in qos_classes:
                        raise SpecError(
                            f"unknown QoS class {qos!r} "
                            f"(federation knows {sorted(qos_classes)})"
                        )
                    if at < last:
                        raise WorkloadError(
                            f"origin time {at} precedes an earlier arrival ({last})"
                        )
                    last = end = at
                # Each forward due by ``at`` lands, in due order, at its
                # region's turn in the drain round to the next one's time
                # (the last round drains to ``at``): every region is drained
                # to a forward's time before it lands.  A landing goes
                # straight to ``_arrive``, its checks ran when it was routed
                # (ledger row 10); a region with nothing due costs a peek.
                landing = None
                while True:
                    if deliveries and deliveries[0][0] <= at:
                        due = heappop(deliveries)
                        to = due[0]
                    else:
                        due = None
                        to = at
                    for platform in regions:
                        if landing is not None and landing[2] is platform:
                            when, _, _, fleet, l_entry, l_qos, wire_ms, key = landing
                            token = platform._next_token
                            platform._next_token = token + 1
                            platform._last_arrival = when
                            platform._arrive(
                                fleet, when, l_entry, token, l_qos, wire_ms
                            )
                            pending[key] -= 1
                        events = platform._events
                        if events and events[0][0] <= to:
                            drained = platform._drain_until(to)
                            if drained > end:
                                end = drained
                    if due is None:
                        break
                    if to > end:
                        end = to
                    landing = due
                if item is None:
                    break
                if routes is None:
                    routes = table[origin, name] = {}
                    for spec in self.topology.regions:
                        fleet = platforms[spec.name]._fleets.get(name)
                        if fleet is not None:
                            routes[spec.name] = (
                                spec.name, platforms[spec.name], fleet,
                                self.topology.latency_ms(origin, spec.name),
                                spec.tier, (spec.name, name),
                                fleet.fleet_config.queue_capacity,
                                fleet.fleet_config.max_containers
                                * fleet.max_concurrency,
                            )
                if not routes:
                    raise DeploymentError(f"app {name!r} is deployed in no region")
                # Per hosting region: its load, the shedder's admission test
                # and the slots it can still book, all counting requests
                # still on the wire to it.
                states = []
                for region, _, fleet, latency_ms, tier, key, capacity, slots in (
                    routes.values()
                ):
                    on_wire = pending.get(key, 0)
                    queued = len(fleet.queue)
                    in_flight = fleet.in_flight
                    bookable = slots - in_flight
                    states.append(new_state(RegionState, (
                        region,
                        queued + in_flight + on_wire,
                        capacity is None or queued + 1 + on_wire <= capacity + bookable,
                        latency_ms,
                        tier,
                        bookable - on_wire if bookable > on_wire else 0,
                    )))
                chosen = choose(origin, states, at=at, qos=qos)
                if chosen == DROP:
                    self._drops[name] = self._drops.get(name, 0) + 1
                    penalty = qos_classes[qos].drop_penalty if qos is not None else 0.0
                    sinks.shed(at, name, qos, penalty)
                    continue
                route = routes.get(chosen)
                if route is None:
                    raise SpecError(
                        f"policy {self.policy.name!r} chose invalid region {chosen!r}"
                    )
                _, platform, fleet, network_ms, _, key, _, _ = route
                if entry not in fleet.entries:
                    raise DeploymentError(f"app {name!r} has no entry {entry!r}")
                served[key] = served.get(key, 0) + 1
                if on_route is not None:
                    on_route((origin, chosen, network_ms))
                heappush(deliveries, (
                    at + network_ms / 1000.0, next_seq(), platform, fleet,
                    entry, qos, network_ms, key,
                ))
                pending[key] = pending.get(key, 0) + 1
            if end > clock.now():
                clock.advance_to(end)
            for platform in regions:
                platform._flush_provisioned()
        finally:
            self._last_origin_s = last
            if last > clock.now():
                clock.advance_to(last)
            for platform in platforms.values():
                platform._stream = None
                platform._obs = None
        return accumulator.finalize()

    # -- results -----------------------------------------------------------

    def dropped_counts(self, name: str | None = None) -> dict[str, int]:
        """Requests the routing policy intentionally dropped, per app."""
        if name is not None:
            return {name: self._drops.get(name, 0)}
        return dict(self._drops)

    def served_counts(self, name: str | None = None) -> dict[str, int]:
        """Requests routed to each region (including not-yet-delivered)."""
        counts = {region: 0 for region in self.topology.names()}
        for (region, app), count in self._served.items():
            if name is None or app == name:
                counts[region] += count
        return counts


@dataclass
class FederatedGateway(Gateway):
    """Function-URL gateway over a :class:`RegionFederation`.

    :meth:`Gateway.submit_stream` items carry an ``origin`` region (and
    optionally a QoS class) after the path, so region-tagged streams
    replay through the same URL surface and the workload monitor observes
    arrivals exactly as in the single-cluster setup.
    """

    platform: RegionFederation = field(default=None)  # type: ignore[assignment]
