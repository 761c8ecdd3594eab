"""Cluster-scale concurrent FaaS simulation: container fleets + event loop.

:class:`~repro.faas.sim.SimPlatform` models one container pool with
synchronous bookkeeping — enough for the paper's 500-cold-start protocol,
but not for fleet questions: how does the *cold-start rate* respond to
offered load, how long do requests queue while containers boot, how many
container-seconds does a keep-alive policy burn?  This module answers those
with a heap-based virtual-time event loop over per-application container
fleets:

* **Scale from zero** — a fleet holds no containers until traffic arrives;
  each arrival that exceeds the fleet's in-flight capacity boots a new
  container (up to :attr:`FleetConfig.max_containers`), which becomes ready
  after the cold-start delay (platform provisioning + the compiled eager
  import closure).
* **Request queueing** — arrivals beyond capacity wait in FIFO order; the
  queue drains as containers boot or finish invocations.  A bounded queue
  (:attr:`FleetConfig.queue_capacity`) sheds load instead.
* **Concurrency** — a container admits up to
  :attr:`FleetConfig.max_concurrency` in-flight invocations (1 = Lambda
  semantics; >1 models Knative-style request packing).
* **Keep-alive expiry** — a container idle longer than
  :attr:`FleetConfig.keep_alive_s` retires exactly at
  ``idle_since + keep_alive_s``; expiry is evaluated lazily against virtual
  time, so the reap scan runs only when an arrival could find an expired
  container (see the expiry hint below).
* **Pluggable autoscaling** — *when* the fleet boots a container and when
  an idle one may retire is decided by the fleet's
  :class:`~repro.faas.autoscale.ScalingPolicy`
  (:attr:`FleetConfig.policy`): per-request eager scaling (the default),
  target-utilization headroom, or Knative-style panic windows.  Admission
  control runs *before* scale-out, so a request shed by the bounded queue
  never triggers a container boot.
* **Cost view** — every fleet streams provisioned GB-seconds per
  container into the :class:`~repro.metrics.WindowAccumulator`, which
  prices them through a :class:`~repro.metrics.PricingModel` into a
  :class:`~repro.metrics.CostSummary`, so autoscaler experiments report
  dollars next to cold-start rate and queueing delay.
* **Streaming replay** — :meth:`ClusterPlatform.run_stream` consumes a
  lazy arrival stream (e.g. a compiled production trace from
  :func:`repro.workloads.replay.compile_trace`) incrementally, folding
  records into a :class:`~repro.metrics.WindowAccumulator` instead of
  materializing them, so multi-day million-request replays run at
  O(windows) memory.  Every arrival — streamed, or forwarded by a
  federation — obeys one **landing rule**: it lands after every event at
  or before its time, and is never an event itself.  Keeping records is
  a sink's job, not an engine mode: an ``on_record`` tap sees each
  completed :class:`InvocationRecord`.

The event loop is the throughput floor of every replay experiment, so its
hot path is deliberately allocation-light (``bench/run.py``'s
``replay_warm`` workload measures it):

* **virtual time is an argument** — event handlers and drains
  (``_arrive``, ``_on_ready``, ``_on_complete``, ``_dispatch``,
  ``_scale``, ``_reap``, ``_drain_until``, every sink and journal call)
  take the time they run at as a parameter and never touch the clock;
  ``run_stream``, the one public driver, advances it through the public
  ``advance_to`` where it hands control back — so a streamed arrival
  pays no clock work at all;
* the common arrival — a warm container free, nothing queued — starts
  service from **one admission scan** under every policy, skipping the
  queue and the admission check, and skips the scaling policy while
  ``in_flight`` is at most the fleet's cached ``quiet_max`` (the
  policy's :meth:`~repro.faas.autoscale.ScalingPolicy.quiet_in_flight`);
* every policy's ``idle_expiry`` is at or after the **keep-alive
  floor** ``idle_since + keep_alive_s``, so a busy or booting container,
  or an idle one still under the floor, cannot have expired: the policy
  is asked only about containers past it, and the per-fleet **expiry
  hint** (``_Fleet.reap_until``, the earliest floor in the fleet) lets
  arrivals skip the reap scan until virtual time crosses it;
* fleet/container/request state objects carry ``__slots__``, containers
  are indexed by a ``seq -> container`` dict instead of a linear scan,
  and a scale decision's :class:`~repro.faas.autoscale.FleetView` is a
  tuple built from two incremental counters;
* streamed completions skip :class:`InvocationRecord` construction
  altogether when no ``on_record`` tap is installed — the accumulator
  needs only (app, arrival, cold, queue wait).

All of it is checked record for record against a naive reference
engine that scans every container for every answer
(``tests/reference/``).

The service-cost model is shared with the single-pool simulator through
:func:`repro.faas.sim.compiled_app`, so a :class:`~repro.plan.DeferralPlan`
shortens cluster cold starts exactly as it shortens ``SimPlatform`` cold
starts.  Everything is deterministic (each fleet's latency noise is a
seeded :class:`~repro.common.rng.LogNormalStream`): identical seeds and
schedules reproduce bit-identical records.

Traffic enters through :meth:`ClusterPlatform.run_stream` only.
``slimstart replay`` and ``slimstart cluster`` hand it a replay plan's
stream (the compiled trace, or one app's Poisson arrivals);
:meth:`repro.faas.gateway.Gateway.submit_stream` is a function-URL front
on it that also feeds the adaptive workload monitor.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Iterable

from repro.common.clock import VirtualClock
from repro.common.errors import DeploymentError, SpecError, WorkloadError
from repro.common.rng import LogNormalStream, derive_seed
from repro.faas.autoscale import (
    FleetView,
    PerRequest,
    ScalingPolicy,
    WindowObservation,
)
from repro.faas.events import InvocationRecord
from repro.faas.sim import (
    CompiledApp,
    SimAppConfig,
    SimPlatformConfig,
    compiled_app,
)
from repro.metrics import (
    QoSClass,
    WindowAccumulator,
    WindowedSummary,
    qos_registry,
)
from repro.plan import DeferralPlan

#: Event kinds — the heap carries capacity events only.  An arrival at
#: ``t`` lands after every event at or before ``t``, so capacity released
#: at ``t`` (a boot completing, an invocation finishing) is free for it —
#: mirroring SimPlatform's ``free_at <= arrival`` reuse rule.
_READY = 0
_COMPLETE = 1


@dataclass(frozen=True)
class FleetConfig:
    """Autoscaling policy for one application's container fleet.

    Attributes:
        max_containers: Hard scale-out ceiling.  Arrivals beyond what
            ``max_containers * max_concurrency`` can absorb wait in the
            FIFO queue (or are shed, see ``queue_capacity``).
        max_concurrency: In-flight invocations one container admits.
            ``1`` is Lambda semantics (a container serves one request at a
            time); larger values model Knative-style request packing.
        keep_alive_s: Idle lifetime.  A container with no in-flight work
            retires exactly ``keep_alive_s`` seconds after it last went
            idle; the next arrival after that pays a cold start.
        queue_capacity: Bound on *unservable* backlog.  ``None`` keeps an
            unbounded FIFO.  ``n`` sheds the newest arrival once the queue
            exceeds the fleet's bookable capacity (free slots on live
            containers plus every container still bootable) by more than
            ``n`` — so ``0`` means "serve or reject", not
            "reject everything".
        policy: The fleet's :class:`~repro.faas.autoscale.ScalingPolicy`
            — when containers boot and when idle ones may retire.
            Defaults to :class:`~repro.faas.autoscale.PerRequest`, the
            original eager scaler.  Policy parameter validation happens
            in the policy's own constructor (``SpecError`` on nonsense,
            e.g. a target utilization outside ``(0, 1]``).
    """

    max_containers: int = 8
    max_concurrency: int = 1  # in-flight invocations per container
    keep_alive_s: float = 600.0
    queue_capacity: int | None = None  # None = unbounded FIFO
    policy: ScalingPolicy = PerRequest()

    def __post_init__(self) -> None:
        if self.max_containers < 1:
            raise SpecError(f"fleet needs at least one container: {self.max_containers}")
        if self.max_concurrency < 1:
            raise SpecError(f"max_concurrency must be >= 1: {self.max_concurrency}")
        if self.keep_alive_s < 0:
            raise SpecError(f"negative keep-alive: {self.keep_alive_s}")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise SpecError(f"negative queue capacity: {self.queue_capacity}")
        if not isinstance(self.policy, ScalingPolicy):
            raise SpecError(f"not a scaling policy: {self.policy!r}")


@dataclass(slots=True)
class _FleetContainer:
    container_id: str
    seq: int
    spawned_at: float
    ready_at: float
    init_ms: float  # the cold-start init this container paid
    loaded: frozenset  # shared with the compiled app; rebound, never mutated
    memory_mb: float
    seen_entries: set = field(default_factory=set)
    active: int = 0
    virgin: bool = True  # no invocation served yet
    idle_since: float = 0.0  # valid while ready and active == 0
    last_release: float = 0.0


@dataclass(slots=True)
class _PendingRequest:
    token: int
    entry: str
    arrival: float
    qos: str | None = None  # QoS class name (wire format); None = untagged
    wire_ms: float = 0.0  # forwarding latency already spent (federation)


@dataclass(frozen=True)
class _StreamSinks:
    """Where a streaming replay's per-event facts go instead of RAM.

    While installed (see :meth:`ClusterPlatform.run_stream`), completed
    requests, shed arrivals, and container provisioned lifetimes are
    handed to these callbacks the moment they happen and are *not*
    retained on the fleet — the platform's memory stays O(live containers
    + queued requests) no matter how long the replay runs.

    ``complete`` receives the completion facts the accumulator needs
    ``(arrival_s, cold, queue_ms, app)`` — the accumulator's own
    ``observe_completion`` parameter order, so :meth:`into` binds the
    bound method directly with no adapter call on the hot path — plus,
    for QoS-tagged requests, the trailing ``(qos, violated, utility)``
    facts the per-class series need; the full
    :class:`InvocationRecord` is only constructed when
    ``record`` is non-``None`` (an ``on_record`` tap was installed) —
    skipping the record object on the no-tap path is one of the hot-path
    wins, and is safe because the record is a pure function of the same
    facts.  ``shed`` likewise accepts optional trailing
    ``(source, qos, penalty)`` so dropped QoS requests charge their drop
    penalty.  ``span`` (installed only when an observability sink with
    span sampling is active) receives each served request's phase
    breakdown for the trace journal — ``None`` on every other run, so
    the disabled path costs one attribute test, nothing more.
    """

    complete: Callable[..., None]
    shed: Callable[..., None]  # shed request's arrival time (+ qos facts)
    provision: Callable[[str, float, float, float], None]  # app, start, end, MB
    record: Callable[[InvocationRecord], None] | None = None
    span: Callable[..., None] | None = None  # sampled trace spans (obs)
    #: Span sampling stride (``JournalWriter.span_interval``); the caller
    #: applies ``token % span_interval`` so unsampled requests cost one
    #: modulo, never a call.  Only read when ``span`` is non-``None``.
    span_interval: int = 0

    @classmethod
    def into(
        cls,
        accumulator: WindowAccumulator,
        on_record: Callable[[InvocationRecord], None] | None = None,
        obs=None,
    ) -> "_StreamSinks":
        """Sinks that fold everything into one windowed accumulator.

        The single definition of what a streamed completion contributes
        (arrival-window attribution, cold flag, queueing wait, the app
        as the accumulator's source label, per-class QoS facts) — shared
        by the cluster's and the federation's ``run_stream`` so the two
        paths cannot diverge.  ``on_record`` taps the record stream;
        ``obs`` (an observability sink such as
        :class:`repro.obs.journal.JournalWriter`) tees the same facts
        into the run journal.  The accumulator tallies per source
        either way (one observe body); with ``obs=None`` the closures
        are byte-for-byte the pre-observability ones — journaling off
        means journaling *absent*.
        """
        if obs is not None:
            # The journal derives its window delta rows from the
            # accumulator's cumulative per-source counters at flush time
            # — so a journaled completion runs the byte-identical closure
            # below.  attach snapshots the counters as already flushed
            # (exactly the restored state on a resumed run).
            obs.attach(accumulator)
        # The completion sink IS the accumulator's bound method: the sink
        # signature was chosen to match observe_completion's parameter
        # order (arrival_s, cold, queue_ms, source, qos, violated,
        # utility), so no adapter closure sits on the hot path.
        complete = accumulator.observe_completion

        def provision(app: str, start_s: float, end_s: float, memory_mb: float) -> None:
            accumulator.observe_provision(start_s, end_s, memory_mb, source=app)

        if obs is None:
            return cls(
                complete=complete,
                shed=accumulator.observe_shed,
                provision=provision,
                record=on_record,
            )

        # Provisioned lifetimes need no tee: the journal diffs the
        # accumulator's per-window GB-second sums at flush time.
        obs_shed = obs.shed
        observe_shed = accumulator.observe_shed

        def shed_obs(
            at_s: float,
            source: str = "",
            qos: str | None = None,
            penalty: float = 0.0,
        ) -> None:
            observe_shed(at_s, source, qos, penalty)
            obs_shed(at_s, source)

        return cls(
            complete=complete,
            shed=shed_obs,
            provision=provision,
            record=on_record,
            span=obs.span if obs.samples_spans() else None,
            span_interval=obs.span_interval,
        )


class _Fleet:
    """Mutable per-application fleet state."""

    __slots__ = (
        "config",
        "plan",
        "fleet_config",
        "compiled",
        "entries",
        "policy",
        "policy_state",
        "wants_last",
        "quiet_max",
        "in_flight",
        "booting",
        "obs_window_s",
        "window_index",
        "window_arrivals",
        "name",
        "cost_scale",
        "max_concurrency",
        "keep_alive_s",
        "containers",
        "by_seq",
        "queue",
        "reap_until",
        "jitter",
    )

    def __init__(
        self,
        config: SimAppConfig,
        plan: DeferralPlan,
        fleet_config: FleetConfig,
        jitter: LogNormalStream,
    ) -> None:
        self.config = config
        self.plan = plan
        self.fleet_config = fleet_config
        self.compiled: CompiledApp = compiled_app(config, plan)
        #: Hot-path cache of ``compiled.entries`` (refreshed on
        #: redeploy): saves one attribute hop per served request.
        self.entries = self.compiled.entries
        self.policy: ScalingPolicy = fleet_config.policy
        self.policy_state = self.policy.new_state()
        #: Whether idle-expiry decisions need the (O(n)) last-of-fleet
        #: flag; policies that don't read it keep the hot path O(1).
        self.wants_last = self.policy.uses_last_of_fleet()
        #: Incremental fleet counters (the O(1) FleetView refresh).
        #: ``in_flight`` is the fleet-wide sum of container.active;
        #: ``booting`` counts containers with ready_at still in the
        #: future.  Invariant: a booting container always has
        #: ``active == 0`` (dispatch never selects one, and redeploy —
        #: the only retirement path for booting containers — requires an
        #: idle fleet), so these two integers determine every dynamic
        #: FleetView field; see ClusterPlatform._view.
        self.in_flight = 0
        self.booting = 0
        #: Observation-window feed (ScalingPolicy.observe_window): None
        #: disables the bookkeeping wholesale, so reactive policies pay
        #: nothing for the hook's existence.
        self.obs_window_s = self.policy.observation_window_s()
        if self.obs_window_s is not None and self.obs_window_s <= 0:
            raise SpecError(
                f"observation window must be positive: {self.obs_window_s}"
            )
        self.window_index: int | None = None  # open window's ordinal
        self.window_arrivals = 0  # admitted arrivals in the open window
        # Hot-path caches of frozen config fields (attribute chains cost).
        self.name = config.name
        self.cost_scale = config.cost_scale
        self.max_concurrency = fleet_config.max_concurrency
        self.keep_alive_s = fleet_config.keep_alive_s
        self.containers: list[_FleetContainer] = []
        self.by_seq: dict[int, _FleetContainer] = {}
        self.refresh_quiet()
        self.queue: deque[_PendingRequest] = deque()
        #: Expiry hint: no container of this fleet can retire strictly
        #: before this virtual time, so arrival processing skips the
        #: keep-alive reap scan until the clock crosses it.  Maintained
        #: by ClusterPlatform._reap as the min of the idle survivors'
        #: *base* expiries (idle_since + keep_alive, the floor every
        #: policy's idle_expiry must respect) and ``scan_time +
        #: keep_alive`` (the earliest a currently busy/booting container
        #: could retire after going idle later).
        self.reap_until = -math.inf
        #: Latency noise factors, seeded per app so streams never interleave.
        self.jitter = jitter

    def refresh_quiet(self) -> None:
        """Re-ask the policy after the container count changed.

        ``quiet_max`` is the largest ``in_flight`` at which a warm hit
        skips the policy (ScalingPolicy.quiet_in_flight); derived from
        the container count, so it is never checkpointed.
        """
        self.quiet_max = self.policy.quiet_in_flight(
            len(self.containers), self.max_concurrency
        )


class ClusterPlatform:
    """Virtual-time cluster: many containers per app, event-queue driven.

    One way in: :meth:`run_stream` lands a time-ordered arrival stream
    and drains the event heap behind it, with correct concurrency for
    arbitrarily overlapping requests.  What a run keeps is up to its
    sinks — a :class:`~repro.metrics.WindowAccumulator` always, an
    ``on_record`` tap when the caller wants the records.  A later stream continues from where the last
    one left the fleets; arrivals must stay non-decreasing across them.
    """

    def __init__(
        self,
        config: SimPlatformConfig | None = None,
        fleet: FleetConfig | None = None,
        clock: VirtualClock | None = None,
        seed: int = 0,
        qos: Iterable[QoSClass] | None = None,
    ) -> None:
        self.config = config or SimPlatformConfig()
        self.default_fleet = fleet or FleetConfig()
        self.clock = clock or VirtualClock()
        self.seed = seed
        #: QoS class registry (name -> spec).  Requests submitted with a
        #: ``qos=`` tag resolve their deadline/utility semantics here at
        #: completion time; untagged requests never touch it, so a
        #: platform without QoS classes behaves bit-identically to one
        #: that predates them.
        self.qos_classes: dict[str, QoSClass] = (
            qos_registry(qos) if qos is not None else {}
        )
        self._fleets: dict[str, _Fleet] = {}
        self._events: list[tuple[float, int, int, tuple]] = []
        # Plain int counters (not itertools.count): same speed on the hot
        # path, and serializable by repro.faas.snapshot for checkpoints.
        self._next_container_seq = 1
        self._next_event_seq = 0
        self._next_token = 0
        self._last_arrival = self.clock.now()
        self._stream: _StreamSinks | None = None
        #: Observability sink for the active stream (None = no telemetry;
        #: only consulted off the fast path, at scaling decisions).
        self._obs = None
        self._jitter_sigma = self.config.jitter_sigma
        # Hot-path cache: warm_platform_ms is read per served request.
        self._warm_ms = self.config.warm_platform_ms

    # -- deployment --------------------------------------------------------

    def deploy(
        self,
        config: SimAppConfig,
        plan: DeferralPlan | None = None,
        fleet: FleetConfig | None = None,
    ) -> str:
        """Deploy an application with its fleet policy."""
        if config.name in self._fleets:
            raise DeploymentError(f"app already deployed: {config.name!r}")
        self._fleets[config.name] = _Fleet(
            config,
            plan or DeferralPlan.empty(config.name),
            fleet or self.default_fleet,
            LogNormalStream(
                derive_seed(self.seed, "jitter", config.name), self._jitter_sigma
            ),
        )
        return config.name

    def redeploy(self, name: str, plan: DeferralPlan) -> None:
        """Apply a plan: boots fresh containers on the next arrivals."""
        fleet = self._fleet(name)
        if plan.app != name:
            raise DeploymentError(f"plan is for {plan.app!r}, not {name!r}")
        if fleet.queue or any(c.active for c in fleet.containers):
            raise DeploymentError(
                f"cannot redeploy {name!r} with requests in flight"
            )
        now = self.clock.now()
        for container in fleet.containers:
            self._retire(fleet, container, now)
        fleet.containers.clear()
        fleet.by_seq.clear()
        fleet.refresh_quiet()
        # The guard above proved nothing is in flight; any still-booting
        # container was just retired, so both incremental counters reset.
        fleet.in_flight = 0
        fleet.booting = 0
        fleet.reap_until = -math.inf
        fleet.plan = plan
        fleet.compiled = compiled_app(fleet.config, plan)
        fleet.entries = fleet.compiled.entries

    def app_names(self) -> list[str]:
        return sorted(self._fleets)

    def plan_for(self, name: str) -> DeferralPlan:
        return self._fleet(name).plan

    def _fleet(self, name: str) -> _Fleet:
        try:
            return self._fleets[name]
        except KeyError:
            raise DeploymentError(f"unknown app: {name!r}") from None

    # -- traffic -----------------------------------------------------------

    def run_stream(
        self,
        arrivals: Iterable[tuple[float, str, str]],
        accumulator: WindowAccumulator,
        on_record: Callable[[InvocationRecord], None] | None = None,
        flush_at: float | None = None,
        obs=None,
        finalize: bool = True,
        boundary=None,
    ) -> WindowedSummary | None:
        """Consume an arrival stream incrementally at bounded memory.

        ``arrivals`` yields ``(arrival_s, app, entry)`` — or QoS-tagged
        ``(arrival_s, app, entry, qos_name)`` from
        :func:`repro.workloads.replay.assign_qos` — in non-decreasing
        time order (e.g. from :func:`repro.workloads.replay.compile_trace`).
        Each arrival lands — after every event at or before its time —
        before the next is pulled, so the heap only ever holds the causal
        frontier, never the whole schedule; once the stream ends the heap
        is drained.  Completed records, shed arrivals, and container
        retirements fold straight into ``accumulator`` (a
        :class:`~repro.metrics.WindowAccumulator`) instead of
        accumulating on the fleets, which is what lets a million-request,
        multi-day replay run in O(windows) memory.

        ``on_record`` taps the record stream (the reference comparison,
        figures, tests); leave it ``None`` to retain nothing — the hot
        path then skips record construction entirely.  The returned
        :class:`~repro.metrics.WindowedSummary` is the run's report.

        ``flush_at`` overrides the virtual time at which still-alive
        containers' provisioned tails are truncated (default: the clock
        after the last event).  Sharded replays pass ``math.inf`` so
        every container is charged to its natural keep-alive expiry — a
        quantity independent of which shard observed it, which is part
        of the sharding exactness argument (see
        :mod:`repro.workloads.shard`).

        ``obs`` installs an observability sink for the run (duck-typed
        to :class:`repro.obs.journal.JournalWriter`): the shed sink tees
        into it, it reads completions and provisioned GB-seconds back
        from ``accumulator`` at its flushes, scaling decisions are
        journaled from :meth:`_scale`,
        and sampled trace spans flow from :meth:`_start_service` — all
        off the event loop's fast paths, and all absent when ``obs`` is
        ``None``.  ``finalize=False`` returns ``None`` instead of the
        summary; only ``bench/traced.py`` passes it, to time
        :meth:`repro.metrics.WindowAccumulator.finalize` apart.  (Shard
        workers run :func:`repro.workloads.shard.replay_stream`, which
        finalizes and discards a summary, and ship ``to_wire()``.)

        ``boundary`` (default: ``obs``) is the window-edge hook, the one
        place anything runs *between* arrivals: any object with a
        ``next_flush_s`` attribute and a ``flush_boundary(at, fed)``
        method.  Each arrival costs one float compare against
        ``next_flush_s``; when ``at`` reaches it the hook is called
        *before* that arrival is processed, with ``fed`` the number of
        arrivals this call has already processed, and ``next_flush_s`` is
        read again.  The platform's serializable state is current inside
        the hook (:func:`repro.faas.snapshot.platform_state` there equals
        the state after exactly ``fed`` arrivals), which is what lets
        :func:`repro.faas.snapshot.run_stream_checkpointed` write its
        checkpoints from it.  An exception from the stream or the hook
        uninstalls the sinks, leaves fleet/heap state as the last
        processed event left it and the clock at the last accepted
        arrival (nothing reads it there: a resume restores ``clock_s``
        from its checkpoint).
        """
        if self._stream is not None:
            raise WorkloadError("a streaming replay is already in progress")
        self._stream = _StreamSinks.into(accumulator, on_record, obs=obs)
        self._obs = obs
        if boundary is None:
            boundary = obs
        token = self._next_token
        last = self._last_arrival
        clock = self.clock
        try:
            fleets = self._fleets
            events = self._events
            drain = self._drain_until
            on_ready = self._on_ready
            dispatch = self._dispatch
            arrive = self._arrive
            qos_classes = self.qos_classes
            observe_arrival = accumulator.observe_arrival
            # The boundary hook is driver-screened: one float compare per
            # arrival against its next window edge, with the call (and
            # the token/last/clock write-back it needs to see current
            # state) paid only at boundaries.  No hook pins the screen at
            # +inf.
            next_flush = math.inf if boundary is None else boundary.next_flush_s
            fed = 0
            for item in arrivals:
                # Untagged 3-tuples stay on the allocation-free unpack;
                # QoS-tagged streams carry the class name at index 3.
                if len(item) == 3:
                    at, name, entry = item
                    qos = None
                else:
                    at, name, entry, qos = item
                if at >= next_flush:
                    self._next_token = token
                    self._last_arrival = last
                    if last > clock.now():
                        clock.advance_to(last)
                    boundary.flush_boundary(at, fed)
                    next_flush = boundary.next_flush_s
                fed += 1
                observe_arrival(at)
                # The landing: its validations, the drain of every event
                # at or before the arrival, _arrive, and the drain of
                # zero-service completions at the same instant.
                fleet = fleets.get(name)
                if fleet is None:
                    raise DeploymentError(f"unknown app: {name!r}")
                if entry not in fleet.entries:
                    raise DeploymentError(f"app {name!r} has no entry {entry!r}")
                if qos is not None and qos not in qos_classes:
                    raise SpecError(
                        f"unknown QoS class {qos!r} "
                        f"(platform knows {sorted(qos_classes)})"
                    )
                if at < last:
                    raise DeploymentError(
                        f"arrival {at} is in the past (last={last})"
                    )
                last = at
                # _drain_until inlined (the call per arrival is
                # measurable at replay rates), with _on_complete — the
                # overwhelming event kind — flattened into the COMPLETE
                # arm.  Behaviour is identical to those two methods:
                # same pops, same ordering.
                while events and events[0][0] <= at:
                    e_at, kind, _, payload = heappop(events)
                    if kind == _COMPLETE:
                        c_fleet = fleets[payload[0]]
                        container = c_fleet.by_seq.get(payload[1])
                        if container is not None:
                            c_fleet.in_flight -= 1
                            active = container.active - 1
                            container.active = active
                            container.last_release = e_at
                            if active == 0:
                                container.idle_since = e_at
                            if c_fleet.queue:
                                dispatch(c_fleet, e_at)
                    else:
                        on_ready(e_at, *payload)
                arrive(fleet, at, entry, token, qos)
                token += 1
                # Fires only for zero-service completions at == at: rare
                # enough that the delegate call costs nothing measurable.
                if events and events[0][0] <= at:
                    drain(at)
            # The flush below truncates live containers at the clock:
            # it ends on the last arrival or the tail's last event,
            # whichever is later (the last arrival can leave the heap
            # empty: it was shed, or served in zero time).
            end = max(last, drain(math.inf))
            if end > clock.now():
                clock.advance_to(end)
            self._flush_provisioned(flush_at)
        finally:
            self._next_token = token
            self._last_arrival = last
            if last > clock.now():
                clock.advance_to(last)
            self._stream = None
            self._obs = None
        return accumulator.finalize() if finalize else None

    def _flush_provisioned(self, flush_at: float | None = None) -> None:
        """Report still-live containers' provisioned time to the stream.

        Containers retired mid-replay streamed their lifetimes through
        :meth:`_retire`; the tail of the fleet is still alive (or expired
        but not yet lazily reaped) when the arrival stream ends, so its
        GB-seconds are flushed here.  ``flush_at`` overrides the
        truncation time (``math.inf`` charges full keep-alive tails).
        """
        now = self.clock.now() if flush_at is None else flush_at
        provision = self._stream.provision
        for fleet in self._fleets.values():
            for container in fleet.containers:
                end = min(now, self._expiry(fleet, container, now))
                provision(
                    fleet.name,
                    container.spawned_at,
                    max(end, container.spawned_at),
                    container.memory_mb,
                )

    # -- results -----------------------------------------------------------

    def load(self, name: str | None = None) -> int:
        """Outstanding demand: queued plus in-flight requests.

        With ``name`` the count covers one application's fleet; without it,
        the whole platform.  This is the signal latency-aware routers key
        on (see :class:`repro.faas.region.LeastLoadedPolicy`): it rises the
        moment a request is admitted and falls when service completes, so
        it tracks pressure even while containers are still booting.
        """
        fleets = [self._fleet(name)] if name is not None else list(self._fleets.values())
        return sum(len(fleet.queue) + fleet.in_flight for fleet in fleets)

    def live_containers(self, name: str, at: float | None = None) -> int:
        """Containers not yet expired at ``at`` (ready or still booting).

        Evaluates keep-alive (and the policy's scale-down suspensions)
        lazily against ``at`` without mutating fleet state.  ``at`` must
        be at or after the last processed event: containers already
        reaped by earlier processing are gone, so probing further into
        the past undercounts.
        """
        fleet = self._fleet(name)
        now = self.clock.now() if at is None else at
        return sum(
            1
            for container in fleet.containers
            if self._expiry(fleet, container, now) >= now
        )

    def scaling_state(self, name: str):
        """The fleet's mutable policy state (e.g. panic episodes); may be
        ``None`` for stateless policies.  Read-only introspection for
        tests and reports."""
        return self._fleet(name).policy_state

    # -- event loop --------------------------------------------------------

    def _push(self, at: float, kind: int, payload: tuple) -> None:
        seq = self._next_event_seq
        self._next_event_seq = seq + 1
        heappush(self._events, (at, kind, seq, payload))

    def _drain_until(self, at: float) -> float:
        """Process every heap event at or before ``at``, in heap order.

        Never touches the clock: returns the time of the last event it
        popped (``-math.inf`` for none) for the driver to advance the
        clock to.  ``math.inf`` drains the heap empty.
        """
        events = self._events
        on_ready = self._on_ready
        on_complete = self._on_complete
        e_at = -math.inf
        while events and events[0][0] <= at:
            e_at, kind, _, payload = heappop(events)
            if kind == _READY:
                on_ready(e_at, *payload)
            else:
                on_complete(e_at, *payload)
        return e_at

    def _arrive(
        self,
        fleet: _Fleet,
        at: float,
        entry: str,
        token: int,
        qos: str | None = None,
        wire_ms: float = 0.0,
    ) -> None:
        if at > fleet.reap_until:
            self._reap(fleet, at)
        # One admission scan, every policy: nothing queued and a warm
        # container has a free slot — the overwhelmingly common replay
        # arrival — starts service here, on the container the queue
        # path's _select would pick (same key).  The reap above, or the
        # hint that made it unnecessary, rules out an expired candidate
        # (the keep-alive floor, see the module docstring), and a
        # request that never queued can never be shed.  Windows are fed
        # after service starts; the policy is then skipped while
        # in_flight is at most its quiet_max, and otherwise asked in the
        # tail a queued arrival ends in.
        best = None
        if not fleet.queue:
            mc = fleet.max_concurrency
            for container in fleet.containers:
                if container.ready_at > at or container.active >= mc:
                    continue
                if best is None or (
                    container.active,
                    container.last_release,
                    container.seq,
                ) > (best.active, best.last_release, best.seq):
                    best = container
        if best is not None:
            self._start_service(fleet, best, entry, at, at, token, qos, wire_ms)
            if fleet.obs_window_s is not None:
                self._feed_window(fleet, at)
            if fleet.in_flight <= fleet.quiet_max:
                return
        else:
            fleet.queue.append(
                _PendingRequest(
                    token=token, entry=entry, arrival=at, qos=qos, wire_ms=wire_ms
                )
            )
            self._dispatch(fleet, at)
            if self._shed_overflow(fleet, token):
                return
            if fleet.obs_window_s is not None:
                self._feed_window(fleet, at)
        fleet.policy.observe_arrival(fleet.policy_state, at)
        self._scale(fleet, at)

    def _shed_overflow(self, fleet: _Fleet, token: int) -> bool:
        """Shed the queue's overflow; whether request ``token`` was shed.

        Admission control runs after dispatch but BEFORE scale-out: a
        request is shed when it exceeds the fleet's bookable capacity
        (free slots on live containers plus every container still
        bootable) by more than queue_capacity, so capacity=0 means
        "throttle like Lambda" — serve or reject — not "reject all
        traffic".  Shedding first guarantees a rejected request never
        triggers scale-out (and never feeds the policy's traffic
        estimate); for the eager PerRequest policy the two orderings
        are provably identical, which the golden regression pins.
        """
        capacity = fleet.fleet_config.queue_capacity
        shed_self = False
        if capacity is not None:
            bookable = self._bookable_capacity(fleet)
            while len(fleet.queue) - bookable > capacity:
                shed = fleet.queue.pop()  # newest arrival loses
                shed_self = shed_self or shed.token == token
                if shed.qos is None:
                    # The app name rides along for the journal's per-app
                    # attribution; the accumulator ignores the source on
                    # un-tagged sheds, so pre-obs summaries are unchanged.
                    self._stream.shed(shed.arrival, fleet.name)
                else:
                    self._stream.shed(
                        shed.arrival,
                        fleet.name,
                        shed.qos,
                        self.qos_classes[shed.qos].drop_penalty,
                    )
        return shed_self

    def _on_ready(self, at: float, name: str, container_seq: int) -> None:
        fleet = self._fleets[name]
        container = fleet.by_seq.get(container_seq)
        if container is None:
            return  # retired by a redeploy while booting (counter already reset)
        fleet.booting -= 1
        container.idle_since = at
        container.last_release = at
        if fleet.queue:
            self._dispatch(fleet, at)

    def _on_complete(
        self, at: float, name: str, container_seq: int, token: int
    ) -> None:
        fleet = self._fleets[name]
        container = fleet.by_seq.get(container_seq)
        if container is not None:
            fleet.in_flight -= 1
            active = container.active - 1
            container.active = active
            container.last_release = at
            if active == 0:
                container.idle_since = at
            if fleet.queue:
                self._dispatch(fleet, at)

    # -- fleet mechanics ---------------------------------------------------

    def _feed_window(self, fleet: _Fleet, at: float) -> None:
        """Fold one admitted arrival into the fleet's observation windows.

        Windows close lazily: the first admitted arrival past a boundary
        delivers every window it skipped (including empty ones, so
        seasonal forecasters stay phase-aligned across idle gaps) to
        ``policy.observe_window`` *before* this arrival is counted,
        observed, or scaled for.  Only reached when the policy declares
        an observation window — reactive policies never enter here.
        """
        w = fleet.obs_window_s
        index = int(at // w)
        if fleet.window_index is None:
            fleet.window_index = index
        else:
            policy = fleet.policy
            while fleet.window_index < index:
                closed = fleet.window_index
                policy.observe_window(
                    fleet.policy_state,
                    WindowObservation(
                        index=closed,
                        start_s=closed * w,
                        end_s=(closed + 1) * w,
                        arrivals=fleet.window_arrivals,
                    ),
                )
                fleet.window_arrivals = 0
                fleet.window_index = closed + 1
        fleet.window_arrivals += 1

    def _expiry(self, fleet: _Fleet, container: _FleetContainer, now: float) -> float:
        """When this container retires if no further request reaches it.

        Delegated to the fleet's scaling policy (plain keep-alive for
        :class:`~repro.faas.autoscale.PerRequest`; panic windows suspend
        retirement, scale-to-zero grace extends the last container).
        """
        if container.ready_at > now or container.active > 0:
            return math.inf
        return fleet.policy.idle_expiry(
            fleet.policy_state,
            container.idle_since,
            fleet.keep_alive_s,
            fleet.wants_last and self._last_of_fleet(fleet, container, now),
        )

    @staticmethod
    def _last_of_fleet(
        fleet: _Fleet, container: _FleetContainer, now: float
    ) -> bool:
        """Whether retiring ``container`` would scale the fleet to zero.

        True when no other container outlives it under the base
        keep-alive ordering: busy or booting containers always outlive an
        idle one, and idle peers are ordered by ``(idle_since, seq)``.
        """
        for other in fleet.containers:
            if other is container:
                continue
            if other.active > 0 or other.ready_at > now:
                return False
            if (other.idle_since, other.seq) > (
                container.idle_since,
                container.seq,
            ):
                return False
        return True

    @staticmethod
    def _bookable_capacity(fleet: _Fleet) -> int:
        """Slots the fleet can still book: free slots on live (ready or
        booting) containers plus every container the hard cap still
        allows to boot.  The single source of truth for the load-shedder
        in arrival processing and for the federation's per-region accept
        test in :meth:`repro.faas.region.RegionFederation.run_stream`,
        whose route table keeps the ``max_containers * max_concurrency``
        term per (region, app) — they must never disagree, or routing
        failover would diverge from actual shedding.

        No scan: a container offers ``max_concurrency - active`` while
        live and a bootable slot's ``max_concurrency`` once expired — and
        only an idle one expires — so at any instant the sum is the cap
        minus the requests in service (``tests/reference/`` computes the
        scan).
        """
        return (
            fleet.fleet_config.max_containers * fleet.max_concurrency
            - fleet.in_flight
        )

    def _reap(self, fleet: _Fleet, now: float) -> None:
        """Retire containers whose keep-alive elapsed strictly before now.

        Also refreshes the fleet's expiry hint (``reap_until``): the
        earliest virtual time any container could possibly retire, i.e.
        the min of idle survivors' base expiries and ``now +
        keep_alive_s`` (a container busy or booting now cannot go idle
        before ``now``).  Arrivals before the hint skip this scan.
        """
        keep_alive = fleet.keep_alive_s
        hint = now + keep_alive
        survivors: list[_FleetContainer] = []
        by_seq = fleet.by_seq
        for container in fleet.containers:
            if container.active == 0 and container.ready_at <= now:
                base = container.idle_since + keep_alive
                # Only a container past the keep-alive floor can have
                # expired; the policy is asked about no other.
                if base < now:
                    expiry = self._expiry(fleet, container, now)
                    if expiry < now:
                        self._retire(fleet, container, expiry)
                        del by_seq[container.seq]
                        continue
                if base < hint:
                    hint = base
            survivors.append(container)
        if len(survivors) < len(fleet.containers):
            fleet.containers = survivors
            fleet.refresh_quiet()
        fleet.reap_until = hint

    def _retire(
        self, fleet: _Fleet, container: _FleetContainer, at: float
    ) -> None:
        # redeploy() retires between streams, with no sink to tell.
        if self._stream is not None:
            spawned = container.spawned_at
            self._stream.provision(
                fleet.name, spawned, spawned + max(0.0, at - spawned), container.memory_mb
            )

    def _view(self, fleet: _Fleet, now: float) -> FleetView:
        """The fleet's scale-decision snapshot at ``now``.

        Only called from :meth:`_scale`, immediately after arrival
        processing reaped (or proved reap-free via the hint), so every
        container in the list is live — no expiry probe needed here.
        The build is O(1): the incremental counters
        (``fleet.in_flight``, ``fleet.booting``) plus the container-list
        length determine every dynamic field, because a booting
        container always has ``active == 0`` (see the invariant note in
        :class:`_Fleet`) — so all in-flight work sits on ready
        containers and each booting container contributes exactly
        ``max_concurrency`` free booting slots.
        """
        mc = fleet.max_concurrency
        return FleetView(
            now,
            len(fleet.queue),
            fleet.in_flight,
            len(fleet.containers),
            fleet.booting * mc,
            fleet.fleet_config.max_containers,
            mc,
        )

    def _scale(self, fleet: _Fleet, now: float) -> None:
        """Boot however many containers the fleet's policy asks for."""
        view = self._view(fleet, now)
        obs = self._obs
        record = None if obs is None else {}
        want = fleet.policy.scale_out(fleet.policy_state, view, record)
        allowed = fleet.fleet_config.max_containers - view.live_containers
        booted = max(0, min(want, allowed))
        for _ in range(booted):
            self._spawn(fleet, now)
        # Journal the decision only when the policy actually asked for
        # capacity: the sink is never paid on a warm hit, and the journal
        # counts each decision into its window row, writing a "scale"
        # row only when the fleet's regime changes.
        if want > 0 and record is not None:
            record.update(
                policy=fleet.policy.name,
                queued=view.queued,
                in_flight=view.in_flight,
                live=view.live_containers,
                want=want,
                booted=booted,
            )
            obs.scaling_decision(now, fleet.name, record)

    def _spawn(self, fleet: _Fleet, now: float) -> None:
        compiled = fleet.compiled
        scale = fleet.cost_scale
        init_ms = compiled.eager_init_cost_ms * scale + self.config.runtime_init_ms
        if self._jitter_sigma > 0.0:
            # Multiplying by the disabled-jitter factor (exactly 1.0)
            # is a bit-exact no-op, so the jitter-off path skips the
            # draw; bit-identity pinned by the golden regression.
            jitter = fleet.jitter
            init_ms *= jitter.pop() if jitter else jitter.refill_pop()
        boot_s = (self.config.cold_platform_ms + init_ms) / 1000.0
        seq = self._next_container_seq
        self._next_container_seq = seq + 1
        container = _FleetContainer(
            container_id=f"{fleet.name}-f{seq}",
            seq=seq,
            spawned_at=now,
            ready_at=now + boot_s,
            init_ms=init_ms,
            loaded=compiled.eager_loaded,
            memory_mb=fleet.config.base_memory_mb
            + compiled.eager_memory_kb / 1024.0,
        )
        fleet.containers.append(container)
        fleet.by_seq[seq] = container
        fleet.refresh_quiet()
        fleet.booting += 1
        self._push(container.ready_at, _READY, (fleet.name, seq))

    def _select(self, fleet: _Fleet, now: float) -> _FleetContainer | None:
        """Pick the serving container: pack the busiest, then most recent.

        Packing in-flight requests onto already-active containers lets idle
        ones age toward keep-alive expiry, the behaviour that makes the
        cold-start-rate-vs-load curve non-trivial.
        """
        best: _FleetContainer | None = None
        keep_alive = fleet.keep_alive_s
        for container in fleet.containers:
            if container.ready_at > now:
                continue
            if container.active >= fleet.max_concurrency:
                continue
            # Expired means idle, past the keep-alive floor, and the
            # policy not extending it (see _reap).
            if (
                container.active == 0
                and container.idle_since + keep_alive < now
                and self._expiry(fleet, container, now) < now
            ):
                continue
            if best is None or (container.active, container.last_release, container.seq) > (
                best.active, best.last_release, best.seq
            ):
                best = container
        return best

    def _dispatch(self, fleet: _Fleet, now: float) -> None:
        while fleet.queue:
            container = self._select(fleet, now)
            if container is None:
                return
            request = fleet.queue.popleft()
            self._start_service(
                fleet,
                container,
                request.entry,
                request.arrival,
                now,
                request.token,
                request.qos,
                request.wire_ms,
            )

    def _start_service(
        self,
        fleet: _Fleet,
        container: _FleetContainer,
        entry: str,
        arrival: float,
        now: float,
        token: int,
        qos: str | None = None,
        wire_ms: float = 0.0,
    ) -> None:
        compiled_entry = fleet.entries[entry]
        cold = container.virgin
        container.active += 1
        fleet.in_flight += 1

        lazy_ms = 0.0
        if cold:
            container.virgin = False
            lazy_ms = fleet.compiled.charge_first_use(compiled_entry, container, True)
            container.seen_entries.add(entry)
        elif entry not in container.seen_entries:
            lazy_ms = fleet.compiled.charge_first_use(compiled_entry, container, False)
            container.seen_entries.add(entry)

        exec_ms = compiled_entry.total_self_ms * fleet.cost_scale + lazy_ms
        if self._jitter_sigma > 0.0:
            # *1.0 is bit-exact, so the jitter-off replay skips the draw.
            jitter = fleet.jitter
            exec_ms *= jitter.pop() if jitter else jitter.refill_pop()
        service_ms = self._warm_ms + exec_ms
        finish = now + service_ms / 1000.0
        queue_ms = (now - arrival) * 1000.0
        stream = self._stream
        # The completion facts flow to the sink and are gone; the full
        # record object is only built when a tap asked for it.  Retaining
        # records would make memory O(requests), the exact failure mode
        # run_stream exists to fix.  The deadline is end-to-end:
        # forwarding wire time + queueing + service.
        if qos is None:
            stream.complete(arrival, cold, queue_ms, fleet.name)
        else:
            violated, utility = self.qos_classes[qos].completion_value(
                wire_ms + queue_ms + service_ms
            )
            stream.complete(
                arrival, cold, queue_ms, fleet.name, qos, violated, utility
            )
        if stream.record is not None:
            stream.record(
                InvocationRecord(
                    app=fleet.name,
                    entry=entry,
                    timestamp=arrival,
                    cold=cold,
                    init_ms=container.init_ms if cold else 0.0,
                    exec_ms=exec_ms,
                    e2e_ms=queue_ms + service_ms,
                    memory_mb=container.memory_mb,
                    container_id=container.container_id,
                    queue_ms=queue_ms,
                )
            )
        if stream.span is not None and not token % stream.span_interval:
            # Sampled request tracing: the token is the stream position,
            # so modular sampling picks the same requests on every
            # (resumed) run.  The modulo lives here so an unsampled
            # request never pays a call.
            stream.span(
                token,
                fleet.name,
                entry,
                arrival,
                queue_ms,
                cold,
                container.init_ms if cold else 0.0,
                exec_ms,
                wire_ms,
            )
        seq = self._next_event_seq
        self._next_event_seq = seq + 1
        heappush(self._events, (finish, _COMPLETE, seq, (fleet.name, container.seq, token)))

