"""Event-driven, virtual-time FaaS simulator.

The simulator executes *specifications* instead of code: an application is
a set of globally-imported libraries plus entry-point behaviours (which
library functions each entry calls).  Cold starts pay the import closure of
the handler's global imports; a :class:`~repro.plan.DeferralPlan` removes
deferred modules from that closure and charges them to the first invocation
that actually needs them — byte-for-byte the semantics of the really
executing testbed, but fast.  What the paper's protocol of 5 runs × 500
concurrent cold starts, before and after, costs over the 17 Table II
applications (85 000 invocations) is what ``bench/run.py --workload
pipeline_table2 --trace 1`` reports as ``faas.sim.measure_s`` and
``faas.sim.invocations_per_s``.

Compiled application state (import closures, entry call graphs, cold-start
lazy-load chains) is memoized per ``(app config, plan)`` in
:func:`compiled_app`, so redeploys and repeated measurement runs never
recompute a >1000-module closure, and the hot invoke path touches only
precomputed tuples.  The part no plan can change — each entry's call-graph
walk — is memoized per ``(app config, entry)`` and shared by every plan's
compilation.  What a cold start of an entry costs is a function of
``(config, plan, entry)`` too, so it is summed at compile time: the lazy
init time of the entry's first-use chains, the container's memory once
they loaded and their init segments (``_CompiledEntry.cold_lazy_ms`` /
``cold_memory_mb`` / ``cold_lazy_segments``).  That state is *shared*, not
copied: a cold container's ``loaded`` is the app's ``eager_loaded``
frozenset itself, and every trace of an entry carries the entry's one
``scaled_segments`` tuple.  :mod:`repro.faas.cluster` builds its container
fleets on the same compiled state.

Two requests of one entry that both start cold differ only by their two
jitter draws, and a measurement burst is all cold starts, so
:meth:`SimPlatform.invoke_burst` serves a burst on a virtual clock in one
loop — the app, the arrival and each distinct entry resolved once; per
request the draws, a container and a record — for as long as the test
``_acquire`` makes says nothing in the pool is idle or expired.  From the
first request it does not hold for, the burst goes through
:meth:`SimPlatform.invoke` request by request; that is the general path
and the reference the loop is tested against.

Every invocation optionally records an :class:`ExecutionTrace` (init
segments + call-path segments with self-times) from which
:mod:`repro.core.simprofiler` synthesizes profiler samples deterministically.
Traces and both segment types are ``typing.NamedTuple``s — an app version
compiles thousands of segments, every request leaves a trace — so they are
immutable, built in C and equal to the plain tuple of their values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from repro.common.clock import Clock, VirtualClock
from repro.common.errors import DeploymentError, SpecError
from repro.common.rng import LogNormalStream
from repro.faas.events import InvocationRecord
from repro.plan import DeferralPlan
from repro.synthlib.spec import Ecosystem, FunctionRef, ModuleKey


@dataclass(frozen=True)
class EntryBehavior:
    """What one entry point does: which library functions it invokes."""

    name: str
    calls: tuple[str, ...] = ()  # qualified refs, e.g. "sligraph:use_core"
    handler_self_ms: float = 1.0

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SpecError(f"invalid entry name: {self.name!r}")
        if self.handler_self_ms < 0:
            raise SpecError(f"negative handler cost for entry {self.name!r}")


@dataclass(frozen=True)
class SimAppConfig:
    """A simulated serverless application."""

    name: str
    ecosystem: Ecosystem
    handler_imports: tuple[str, ...]  # dotted modules the handler imports globally
    entries: tuple[EntryBehavior, ...]
    cost_scale: float = 1.0
    base_memory_mb: float = 38.0
    keep_alive_s: float = 600.0

    def __post_init__(self) -> None:
        if not self.entries:
            raise SpecError(f"app {self.name!r} needs at least one entry point")
        names = [entry.name for entry in self.entries]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate entry names in app {self.name!r}")
        if self.cost_scale <= 0:
            raise SpecError(f"cost scale must be positive: {self.cost_scale}")
        if not 0 <= self.base_memory_mb < math.inf:
            raise SpecError(
                f"base memory must be finite and non-negative: {self.base_memory_mb}"
            )
        if not self.keep_alive_s >= 0:  # inf (never expire) is legal, NaN is not
            raise SpecError(f"keep-alive must be non-negative: {self.keep_alive_s}")

    def entry(self, name: str) -> EntryBehavior:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise SpecError(f"app {self.name!r} has no entry {name!r}")


@dataclass(frozen=True)
class SimPlatformConfig:
    """Platform-level cost constants (the Lambda runtime's own overhead)."""

    cold_platform_ms: float = 120.0  # container provisioning / sandbox setup
    runtime_init_ms: float = 35.0  # interpreter boot before user imports
    warm_platform_ms: float = 1.5  # request routing to a warm container
    record_traces: bool = True
    #: Multiplicative log-normal noise on per-invocation init/exec times
    #: (sigma of the underlying gaussian).  0 = exact costs.  A small value
    #: (~0.05) reproduces the latency variance real platforms show, making
    #: 99th-percentile metrics meaningfully different from means.
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "cold_platform_ms", "runtime_init_ms", "warm_platform_ms", "jitter_sigma"
        ):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise SpecError(f"{name} must be finite and non-negative: {value}")


class InitSegment(NamedTuple):
    """One module's top-level execution during (cold or lazy) loading (a tuple)."""

    module: str  # dotted path
    self_ms: float


class CallSegment(NamedTuple):
    """Self-time of one function at the end of a concrete call path (a tuple)."""

    path: tuple[str, ...]  # handler frame first, e.g. ("app.handler:predict", ...)
    self_ms: float


class ExecutionTrace(NamedTuple):
    """Deterministic record of everything one invocation executed (a tuple)."""

    app: str
    entry: str
    timestamp: float
    cold: bool
    init_segments: tuple[InitSegment, ...]
    lazy_init_segments: tuple[InitSegment, ...]
    #: Shared compiled state: the deployed entry's ``scaled_segments``
    #: tuple itself, one object for every trace of that entry (which is
    #: what :func:`repro.core.simprofiler.samples_from_traces` groups
    #: by).  Must not be mutated or rebuilt per trace.
    call_segments: tuple[CallSegment, ...]


@dataclass(slots=True)
class _SimContainer:
    container_id: str
    #: Shared compiled state: a cold container's ``loaded`` *is* its app's
    #: ``CompiledApp.eager_loaded`` until a first-use chain loads, and
    #: :meth:`CompiledApp.charge_first_use` then rebinds it to a new
    #: frozenset.  Rebind, never mutate.
    loaded: frozenset[ModuleKey]
    memory_mb: float
    free_at: float
    expires_at: float
    seen_entries: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class _LazyChain:
    """One first-use import chain: the modules one missing root pulls in."""

    modules: tuple[ModuleKey, ...]
    segments: tuple[InitSegment, ...]
    init_cost_ms: float  # unscaled
    memory_kb: float


@dataclass(frozen=True)
class _CompiledEntry:
    """Entry behaviour resolved against the ecosystem's call graph."""

    behavior: EntryBehavior
    segments: tuple[CallSegment, ...]  # call paths with *unscaled* self times
    scaled_segments: tuple[CallSegment, ...]  # shared across invocations
    needed_modules: tuple[ModuleKey, ...]  # in first-use order
    total_self_ms: float
    #: Lazy chains this entry triggers on a *freshly cold* container, in
    #: load order.  Empty for entries fully covered by the eager closure,
    #: which lets the hot invoke path skip import-closure work entirely.
    cold_chains: tuple[_LazyChain, ...]
    #: What a freshly cold container has loaded once ``cold_chains`` ran:
    #: the app's ``eager_loaded`` itself when there are none.
    cold_loaded: frozenset[ModuleKey]
    #: What running ``cold_chains`` on a freshly cold container costs,
    #: summed once in :meth:`CompiledApp._compile_cold_chains`: the
    #: cost-scaled lazy init time, the container's memory afterwards
    #: (base + eager closure + every chain) and the chains' segments.
    cold_lazy_ms: float
    cold_memory_mb: float
    cold_lazy_segments: tuple[InitSegment, ...]


# Room for four entries of each of the 256 compilations compiled_app keeps.
@functools.lru_cache(maxsize=1024)
def _entry_walk(config: SimAppConfig, behavior: EntryBehavior) -> tuple:
    """Walk one entry's call graph: a function of the app, not of a plan.

    Returns a :class:`_CompiledEntry`'s ``(segments, scaled_segments,
    needed_modules, total_self_ms)``.  Memoized beside
    :func:`compiled_app` and keyed the same way (configs hash their
    ecosystem by identity), so every plan an app is redeployed with
    shares one walk — and one ``scaled_segments`` tuple, which is what
    lets :func:`repro.core.simprofiler.samples_from_traces` fold the
    traces of successive versions as a single run.
    """
    eco = config.ecosystem
    segments: list[CallSegment] = []
    needed: list[ModuleKey] = []
    seen_modules: set[ModuleKey] = set()
    handler_frame = f"{config.name}.handler:{behavior.name}"

    def walk(ref: FunctionRef, path: tuple[str, ...], stack: set[str]) -> None:
        if ref.qualified in stack:
            return  # guard against accidental call cycles in user specs
        function = eco.function(ref)
        full_path = path + (ref.qualified,)
        segments.append(CallSegment(path=full_path, self_ms=function.self_cost_ms))
        if ref.key not in seen_modules:
            seen_modules.add(ref.key)
            needed.append(ref.key)
        for target in eco.call_targets(ref):
            walk(target, full_path, stack | {ref.qualified})

    for call in behavior.calls:
        walk(eco.parse_function(call), (handler_frame,), set())
    scale = config.cost_scale
    return (
        tuple(segments),
        tuple(
            segment._replace(self_ms=segment.self_ms * scale)
            for segment in segments
        ),
        tuple(needed),
        behavior.handler_self_ms + sum(seg.self_ms for seg in segments),
    )


class CompiledApp:
    """Immutable compiled state shared by every deployment of (config, plan).

    Everything here is a pure function of the app configuration and the
    deferral plan: the eager cold-start closure, per-entry call segments,
    and the lazy chains a cold container loads on first use.  Instances are
    memoized by :func:`compiled_app` so redeploys, repeated measurement
    runs, and cluster fleets all share one compilation.
    """

    def __init__(self, config: SimAppConfig, plan: DeferralPlan) -> None:
        self.config = config
        self.plan = plan
        eco = config.ecosystem
        self.deferred_edges: frozenset[ModuleKey] = frozenset(
            eco.parse_module(dotted) for dotted in plan.deferred_library_edges
        )
        roots: list[ModuleKey] = []
        for dotted in config.handler_imports:
            key = eco.parse_module(dotted)
            if dotted in plan.deferred_handler_imports:
                continue
            roots.append(key)
        self.eager_roots = tuple(roots)
        # The cold-start closure is identical for every container of one
        # app version; precompute it once (500-cold-start bursts would
        # otherwise recompute a >1000-module closure per request).
        self.eager_closure = tuple(
            eco.import_closure(self.eager_roots, deferred=self.deferred_edges)
        )
        #: The closure as a set: every cold container starts with this very
        #: object as its ``loaded`` (no per-container copy of ~1000 keys).
        self.eager_loaded = frozenset(self.eager_closure)
        self.eager_init_cost_ms = eco.total_init_cost_ms(self.eager_closure)
        self.eager_memory_kb = eco.total_memory_kb(self.eager_closure)
        self.eager_init_segments = tuple(
            InitSegment(module=key.dotted, self_ms=eco.module(key).init_cost_ms)
            for key in self.eager_closure
        )
        self.entries = {
            entry.name: self._compile_entry(entry) for entry in config.entries
        }

    def _compile_entry(self, behavior: EntryBehavior) -> _CompiledEntry:
        segments, scaled, needed, total = _entry_walk(self.config, behavior)
        return _CompiledEntry(
            behavior=behavior,
            segments=segments,
            scaled_segments=scaled,
            needed_modules=needed,
            total_self_ms=total,
            **self._compile_cold_chains(needed),
        )

    def _compile_cold_chains(self, needed: Sequence[ModuleKey]) -> dict:
        """A :class:`_CompiledEntry`'s ``cold_*`` fields, by name.

        The three sums are the additions a cold start used to make per
        request, in that order, so every record keeps its bits.
        """
        eco = self.config.ecosystem
        scale = self.config.cost_scale
        loaded = self.eager_loaded
        chains: list[_LazyChain] = []
        lazy_ms = 0.0
        memory_mb = self.config.base_memory_mb + self.eager_memory_kb / 1024.0
        lazy_segments: list[InitSegment] = []
        for key in needed:
            if key in loaded:
                continue
            modules = eco.import_closure(
                [key], deferred=self.deferred_edges, already_loaded=loaded
            )
            chain = _LazyChain(
                modules=tuple(modules),
                segments=tuple(
                    InitSegment(
                        module=loaded_key.dotted,
                        self_ms=eco.module(loaded_key).init_cost_ms,
                    )
                    for loaded_key in modules
                ),
                init_cost_ms=eco.total_init_cost_ms(modules),
                memory_kb=eco.total_memory_kb(modules),
            )
            chains.append(chain)
            lazy_ms += chain.init_cost_ms * scale
            memory_mb += chain.memory_kb / 1024.0
            lazy_segments.extend(chain.segments)
            loaded = loaded.union(modules)
        return dict(
            cold_chains=tuple(chains),
            cold_loaded=loaded,
            cold_lazy_ms=lazy_ms,
            cold_memory_mb=memory_mb,
            cold_lazy_segments=tuple(lazy_segments),
        )

    def charge_first_use(
        self,
        entry: _CompiledEntry,
        container,
        cold: bool,
        segments_out: list[InitSegment] | None = None,
    ) -> float:
        """Charge an entry's first-use (lazy) imports to a container.

        Rebinds the container's ``loaded`` frozenset — shared with its
        siblings until now — and adds to its ``memory_mb`` (both
        simulator back ends' container types carry those fields) and
        returns the cost-scaled lazy init milliseconds.  The cold path
        (a container fresh from its boot, still at base + eager memory)
        reads the entry's compiled ``cold_*`` constants; the warm path
        resolves closures against whatever this particular container has
        loaded.  This is the single implementation both
        :class:`SimPlatform` and the cluster fleet use, which is what
        keeps a :class:`~repro.plan.DeferralPlan`'s effect bit-identical
        across back ends.
        """
        if cold:
            if segments_out is not None:
                segments_out.extend(entry.cold_lazy_segments)
            container.memory_mb = entry.cold_memory_mb
            container.loaded = entry.cold_loaded
            return entry.cold_lazy_ms
        lazy_ms = 0.0
        scale = self.config.cost_scale
        eco = self.config.ecosystem
        for key in entry.needed_modules:
            if key in container.loaded:
                continue
            chain = eco.import_closure(
                [key], deferred=self.deferred_edges, already_loaded=container.loaded
            )
            if segments_out is not None:
                segments_out.extend(
                    InitSegment(
                        module=loaded_key.dotted,
                        self_ms=eco.module(loaded_key).init_cost_ms,
                    )
                    for loaded_key in chain
                )
            lazy_ms += eco.total_init_cost_ms(chain) * scale
            container.loaded = container.loaded.union(chain)
            container.memory_mb += eco.total_memory_kb(chain) / 1024.0
        return lazy_ms


@functools.lru_cache(maxsize=256)
def compiled_app(config: SimAppConfig, plan: DeferralPlan) -> CompiledApp:
    """Memoized compilation of an application against a deferral plan.

    The cache key is the (hashable, frozen) config/plan pair; ecosystems
    hash by identity, so two structurally equal apps built from distinct
    :class:`Ecosystem` objects compile separately — which is exactly right,
    since an ecosystem grows through ``Ecosystem.add`` (the
    :class:`LibrarySpec` objects it holds are frozen and may be shared
    between ecosystems).
    """
    return CompiledApp(config, plan)


class _SimApp:
    """Deployed application state: shared compiled state + container pool."""

    def __init__(self, config: SimAppConfig, plan: DeferralPlan) -> None:
        self.config = config
        self.plan = plan
        self.compiled = compiled_app(config, plan)
        self.version = 1
        self.containers: list[_SimContainer] = []
        self.records: list[InvocationRecord] = []
        self.traces: list[ExecutionTrace] = []
        # Conservative lower bounds over the pool; they only ever allow
        # skipping the O(pool) scans in _acquire, never skip a candidate.
        self.pool_min_free_at = math.inf
        self.pool_min_expires_at = math.inf

    # Compiled-state accessors kept on the app for call-site brevity.

    @property
    def entries(self) -> dict[str, _CompiledEntry]:
        return self.compiled.entries

    @property
    def deferred_edges(self) -> frozenset[ModuleKey]:
        return self.compiled.deferred_edges

    @property
    def eager_closure(self) -> tuple[ModuleKey, ...]:
        return self.compiled.eager_closure

    @property
    def eager_init_cost_ms(self) -> float:
        return self.compiled.eager_init_cost_ms

    @property
    def eager_memory_kb(self) -> float:
        return self.compiled.eager_memory_kb

    @property
    def eager_init_segments(self) -> tuple[InitSegment, ...]:
        return self.compiled.eager_init_segments


class SimPlatform:
    """Virtual-time serverless platform."""

    #: Seed of the per-invocation latency noise stream.
    JITTER_SEED = 1234

    def __init__(
        self,
        config: SimPlatformConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config or SimPlatformConfig()
        self.clock = clock or VirtualClock()
        self._apps: dict[str, _SimApp] = {}
        self._container_ids = itertools.count(1)
        #: Deterministic per-invocation latency noise factors (mean ~1).
        #: Sigma is fixed here: a later ``config`` swap does not change it.
        self._jitter = LogNormalStream(self.JITTER_SEED, self.config.jitter_sigma)

    # -- deployment --------------------------------------------------------

    def deploy(self, config: SimAppConfig, plan: DeferralPlan | None = None) -> str:
        """Deploy an application (optionally pre-optimized with ``plan``)."""
        if config.name in self._apps:
            raise DeploymentError(f"app already deployed: {config.name!r}")
        self._apps[config.name] = _SimApp(
            config, plan or DeferralPlan.empty(config.name)
        )
        return config.name

    def redeploy(self, name: str, plan: DeferralPlan) -> None:
        """Apply an optimization plan; kills warm containers (new version)."""
        app = self._app(name)
        if plan.app != name:
            raise DeploymentError(f"plan is for {plan.app!r}, not {name!r}")
        version = app.version
        records, traces = app.records, app.traces
        fresh = _SimApp(app.config, plan)
        fresh.version = version + 1
        fresh.records, fresh.traces = records, traces
        self._apps[name] = fresh

    def app_names(self) -> list[str]:
        return sorted(self._apps)

    def plan_for(self, name: str) -> DeferralPlan:
        return self._app(name).plan

    def _app(self, name: str) -> _SimApp:
        try:
            return self._apps[name]
        except KeyError:
            raise DeploymentError(f"unknown app: {name!r}") from None

    # -- invocation --------------------------------------------------------

    def invoke(
        self, name: str, entry: str, at: float | None = None
    ) -> InvocationRecord:
        """Route one request; cold-starts a container when none is warm.

        With ``at=None`` the call is *synchronous*: the request arrives now
        and the virtual clock advances past its completion, so back-to-back
        calls reuse the warm container like a sequential client would.  An
        explicit ``at`` injects an asynchronous arrival (burst/trace replay)
        and leaves the clock at the arrival time, so simultaneous requests
        contend for containers — that is how the paper's "500 concurrent
        requests" produce 500 cold starts.
        """
        app = self._app(name)
        now = self.clock.now()
        arrival = now if at is None else at
        if arrival < now:
            raise DeploymentError(f"arrival {arrival} is in the past (now={now})")
        if isinstance(self.clock, VirtualClock) and arrival > now:
            self.clock.advance_to(arrival)
        compiled = app.entries.get(entry)
        if compiled is None:
            raise DeploymentError(f"app {name!r} has no entry {entry!r}")
        container = self._acquire(app, arrival)
        record = self._execute(app, compiled, container, arrival)
        if at is None and isinstance(self.clock, VirtualClock):
            self.clock.advance_to(arrival + record.e2e_ms / 1000.0)
        return record

    def invoke_burst(
        self, name: str, entries: Sequence[str], at: float | None = None
    ) -> list[InvocationRecord]:
        """N simultaneous requests (the paper's '500 concurrent' protocol).

        Equal — the records returned and every field of platform state —
        to ``[self.invoke(name, entry, at=arrival) for entry in entries]``:
        :meth:`_cold_burst` serves the leading requests it can prove
        cold, :meth:`invoke` every one after.
        """
        arrival = self.clock.now() if at is None else at
        records = self._cold_burst(name, entries, arrival)
        for entry in entries[len(records) :]:
            records.append(self.invoke(name, entry, at=arrival))
        return records

    def _cold_burst(
        self, name: str, entries: Sequence[str], arrival: float
    ) -> list[InvocationRecord]:
        """Serve the leading all-cold run of a burst in one loop.

        While nothing in the pool is idle or expired — the test
        :meth:`_acquire` makes — a request is a cold start whose costs
        are its entry's compiled constants, so each one takes only the
        two jitter draws, a container and a record: :meth:`_execute`'s
        cold arm, the same float operations in the same order.  Stops
        before the first request that test fails for or that names an
        unknown entry, and serves none when :meth:`invoke` would refuse
        the arrival or the clock is not virtual; the caller hands
        :meth:`invoke` the rest.
        """
        clock = self.clock
        app = self._apps.get(name)
        if not entries or app is None or not isinstance(clock, VirtualClock):
            return []
        now = clock.now()
        if not arrival >= now:
            return []
        if arrival > now:
            clock.advance_to(arrival)
        config = self.config
        app_name = app.config.name
        keep_alive_s = app.config.keep_alive_s
        scale = app.config.cost_scale
        compiled_entries = app.entries
        eager_segments = app.eager_init_segments
        init_base_ms = app.eager_init_cost_ms * scale + config.runtime_init_ms
        cold_platform_ms = config.cold_platform_ms
        jitter = self._jitter
        sigma = jitter.sigma
        container_ids = self._container_ids
        add_container = app.containers.append
        served = len(app.records)
        add_record = app.records.append
        add_trace = app.traces.append if config.record_traces else None
        # Entry name -> what one cold start of it is before jitter: name,
        # exec ms, memory, loaded modules, lazy segments, call segments.
        resolved: dict[str, tuple] = {}
        min_free_at = app.pool_min_free_at
        min_expires_at = app.pool_min_expires_at
        try:
            for entry in entries:
                if not (min_expires_at >= arrival and min_free_at > arrival):
                    break
                constants = resolved.get(entry)
                if constants is None:
                    compiled = compiled_entries.get(entry)
                    if compiled is None:
                        break
                    constants = resolved[entry] = (
                        compiled.behavior.name,
                        compiled.total_self_ms * scale + compiled.cold_lazy_ms,
                        compiled.cold_memory_mb,
                        compiled.cold_loaded,
                        compiled.cold_lazy_segments,
                        compiled.scaled_segments,
                    )
                entry_name, exec_ms, memory_mb, loaded, lazy, calls = constants
                init_ms = init_base_ms
                if sigma > 0:
                    init_ms *= jitter.pop() if jitter else jitter.refill_pop()
                    exec_ms *= jitter.pop() if jitter else jitter.refill_pop()
                e2e_ms = cold_platform_ms + init_ms + exec_ms
                free_at = arrival + e2e_ms / 1000.0
                expires_at = free_at + keep_alive_s
                container_id = f"{app_name}-c{next(container_ids)}"
                add_container(
                    _SimContainer(
                        container_id, loaded, memory_mb, free_at, expires_at,
                        {entry_name},
                    )
                )
                if free_at < min_free_at:
                    min_free_at = free_at
                if expires_at < min_expires_at:
                    min_expires_at = expires_at
                add_record(
                    InvocationRecord(
                        app_name, entry_name, arrival, True,
                        init_ms, exec_ms, e2e_ms, memory_mb, container_id,
                    )
                )
                if add_trace is not None:
                    add_trace(
                        ExecutionTrace(
                            app_name, entry_name, arrival, True,
                            eager_segments, lazy, calls,
                        )
                    )
        finally:
            app.pool_min_free_at = min_free_at
            app.pool_min_expires_at = min_expires_at
        return app.records[served:]

    def reset_pool(self, name: str) -> None:
        """Drop every container of an app (forces the next start cold)."""
        app = self._app(name)
        app.containers.clear()
        app.pool_min_free_at = math.inf
        app.pool_min_expires_at = math.inf

    def records(self, name: str) -> list[InvocationRecord]:
        return list(self._app(name).records)

    def traces(self, name: str) -> list[ExecutionTrace]:
        return list(self._app(name).traces)

    def clear_history(self, name: str) -> None:
        app = self._app(name)
        app.records.clear()
        app.traces.clear()

    # -- internals ----------------------------------------------------------

    def _acquire(self, app: _SimApp, arrival: float) -> _SimContainer | None:
        """Return a warm idle container, or ``None`` to signal a cold start."""
        if app.pool_min_expires_at >= arrival and app.pool_min_free_at > arrival:
            # Nothing expired and nothing idle: skip the pool scans.  This
            # is the common case of an all-cold measurement burst, where
            # scanning would make the 500-request protocol O(pool²).
            return None
        app.containers = [
            container
            for container in app.containers
            if container.expires_at >= arrival
        ]
        candidates = [
            container for container in app.containers if container.free_at <= arrival
        ]
        app.pool_min_expires_at = min(
            (container.expires_at for container in app.containers), default=math.inf
        )
        if not candidates:
            app.pool_min_free_at = min(
                (container.free_at for container in app.containers),
                default=math.inf,
            )
            return None
        # Lambda-like most-recently-used reuse keeps the pool small.
        return max(candidates, key=lambda container: container.free_at)

    def _execute(
        self,
        app: _SimApp,
        compiled: _CompiledEntry,
        container: _SimContainer | None,
        arrival: float,
    ) -> InvocationRecord:
        scale = app.config.cost_scale
        jitter = self._jitter
        cold = container is None
        init_segments: tuple[InitSegment, ...] = ()
        init_ms = 0.0
        if cold:
            init_segments = app.eager_init_segments
            init_ms = app.eager_init_cost_ms * scale + self.config.runtime_init_ms
            if jitter.sigma > 0:
                init_ms *= jitter.pop() if jitter else jitter.refill_pop()
            container = _SimContainer(
                container_id=f"{app.config.name}-c{next(self._container_ids)}",
                loaded=app.compiled.eager_loaded,
                memory_mb=app.config.base_memory_mb
                + app.eager_memory_kb / 1024.0,
                free_at=arrival,
                expires_at=arrival + app.config.keep_alive_s,
            )
            app.containers.append(container)

        # First-use (lazy) loading: any module the entry needs that is not
        # loaded in this container is imported now, on the critical path of
        # this request — the cost lazy loading trades cold-start time for.
        lazy_segments: list[InitSegment] = []
        lazy_ms = 0.0
        if cold or compiled.behavior.name not in container.seen_entries:
            lazy_ms = app.compiled.charge_first_use(
                compiled, container, cold, segments_out=lazy_segments
            )
        container.seen_entries.add(compiled.behavior.name)

        exec_ms = compiled.total_self_ms * scale + lazy_ms
        if jitter.sigma > 0:
            exec_ms *= jitter.pop() if jitter else jitter.refill_pop()
        platform_ms = (
            self.config.cold_platform_ms if cold else self.config.warm_platform_ms
        )
        e2e_ms = platform_ms + init_ms + exec_ms
        container.free_at = arrival + e2e_ms / 1000.0
        container.expires_at = container.free_at + app.config.keep_alive_s
        app.pool_min_free_at = min(app.pool_min_free_at, container.free_at)
        app.pool_min_expires_at = min(
            app.pool_min_expires_at, container.expires_at
        )

        record = InvocationRecord(
            app=app.config.name,
            entry=compiled.behavior.name,
            timestamp=arrival,
            cold=cold,
            init_ms=init_ms,
            exec_ms=exec_ms,
            e2e_ms=e2e_ms,
            memory_mb=container.memory_mb,
            container_id=container.container_id,
        )
        app.records.append(record)
        if self.config.record_traces:
            app.traces.append(
                ExecutionTrace(
                    app=app.config.name,
                    entry=compiled.behavior.name,
                    timestamp=arrival,
                    cold=cold,
                    init_segments=init_segments,
                    lazy_init_segments=tuple(lazy_segments),
                    call_segments=compiled.scaled_segments,
                )
            )
        return record


def replay_workload(
    platform: SimPlatform,
    app: str,
    arrivals: Iterable[tuple[float, str]],
) -> list[InvocationRecord]:
    """Replay ``(arrival_time_s, entry)`` pairs; returns the new records."""
    produced = []
    for arrival, entry in arrivals:
        produced.append(platform.invoke(app, entry, at=arrival))
    return produced
