"""One validated description of a replay, and the one place it runs.

``slimstart replay``, ``cluster`` and ``regions`` are argparse strings →
:class:`ReplayPlan` → :meth:`ReplayPlan.run` → render.  The plan holds
the *parsed* inputs, and its arrival source is either the generated
production trace or one catalog app's Poisson traffic (one rate on one
cluster, or per-region rates on the federation).
:meth:`~ReplayPlan.validate` states every cross-field rule once (one row
of :data:`_RULES` each), :meth:`~ReplayPlan.fingerprint` is derived from
the dataclass fields (a new field cannot be forgotten), and
:meth:`~ReplayPlan.run` is the only place an engine — plain,
checkpointed, sharded, sharded + checkpointed, federated — is chosen.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps.catalog import app_by_key
from repro.apps.model import bench_platform_config, instantiate
from repro.common.errors import CheckpointError, ReproError, SpecError, WorkloadError
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import RegionFederation, RegionTopology, make_policy
from repro.faas.replaydeploy import deploy_trace
from repro.faas.snapshot import shard_checkpoint_path
from repro.metrics import (
    DEFAULT_PRICING,
    PricingModel,
    QoSClass,
    WindowAccumulator,
    WindowedSummary,
)
from repro.obs import PhaseProfiler
from repro.obs.journal import shard_journal_path
from repro.workloads.arrival import poisson_arrivals, regional_poisson_arrivals
from repro.workloads.replay import (
    HashAffinity,
    PopularityWeighted,
    assign_regions,
    make_arrival_model,
)
from repro.workloads.shard import (
    ShardReplaySpec,
    build_shard_replay,
    compile_shard_stream,
    replay_sharded,
    replay_stream,
)
from repro.workloads.trace import TraceGenerator

#: Field metadata for what selects an engine or watches the run without
#: changing its result: left out of :meth:`ReplayPlan.fingerprint`, so a
#: replay resumes under a different ``--journal`` or ``--progress``.  (The
#: sharded manifest checks ``workers`` itself, with its own message.)
_UNFINGERPRINTED = {"fingerprint": False}

#: Field metadata for the Poisson source: fingerprinted only when the plan
#: has one, so a trace replay's fingerprint — in its checkpoints and
#: journal headers — keeps the bytes it had before the source existed.
_SOURCE = {"fingerprint": "source"}


def _typed_fields(value) -> dict:
    """``json.dumps(default=)``: a parameter-only dataclass as type + fields."""
    return {"type": type(value).__name__, **vars(value)}


@dataclass(frozen=True)
class ReplayRun:
    """What :meth:`ReplayPlan.run` hands back for rendering.

    ``served`` is the per-region routed count of a federated run and
    ``phases`` the ``--profile`` table; both are ``None`` otherwise.
    """

    summary: WindowedSummary
    resumed: bool = False
    served: dict[str, int] | None = None
    phases: dict | None = None


@dataclass(frozen=True)
class ReplayPlan:
    """Everything one ``slimstart replay``, ``cluster`` or ``regions`` run is
    built from.

    Defaults are ``replay``'s.  ``app`` switches the arrival source from
    the generated trace to that catalog app's Poisson traffic: ``rates``
    per second (one rate, or one per region) for ``duration_s``.
    ``regions`` switches to the federated engine, ``workers`` to the
    sharded one, ``checkpoint`` makes either single-cluster engine
    resumable; ``journal``/``trace_sample``/``progress``/``profile`` only
    observe.
    """

    # -- trace shape
    apps: int = 24
    duration_hours: float = 96.0
    window_hours: float = 12.0
    requests_per_window: float = 600.0
    shift_hours: tuple[float, ...] = (48.0, 72.0)
    seed: int = 7
    # -- arrivals
    arrival_model: str = "uniform"
    scale: float = 1.0
    qos_mix: tuple[QoSClass, ...] | None = None
    # -- platform
    fleet: FleetConfig = FleetConfig(keep_alive_s=120.0)
    pricing: PricingModel = DEFAULT_PRICING
    exec_ms: float = 2.0
    # -- topology
    regions: tuple[str, ...] | None = None
    assignment: str = "hash-affinity"
    region_weights: tuple[float, ...] | None = None
    routing: str = "least-loaded"
    latency_ms: float = 80.0
    spillover: int | None = None
    # -- Poisson source (the trace shape above goes unused)
    app: str | None = field(default=None, metadata=_SOURCE)
    rates: tuple[float, ...] = field(default=(5.0,), metadata=_SOURCE)
    duration_s: float = field(default=600.0, metadata=_SOURCE)
    # -- engine
    workers: int | None = field(default=None, metadata=_UNFINGERPRINTED)
    checkpoint: str | None = field(default=None, metadata=_UNFINGERPRINTED)
    # -- telemetry
    journal: str | None = field(default=None, metadata=_UNFINGERPRINTED)
    trace_sample: float = field(default=0.0, metadata=_UNFINGERPRINTED)
    progress: bool = field(default=False, metadata=_UNFINGERPRINTED)
    profile: bool = field(default=False, metadata=_UNFINGERPRINTED)

    def validate(self) -> None:
        """Raise the first broken row of :data:`_PLAN_RULES` or :data:`_RULES`."""
        for broken, message in _PLAN_RULES + _RULES:
            got = broken(self)
            if got:
                raise SpecError(message.format(p=self, got=got))

    def fingerprint(self) -> dict:
        """The run's identity, as written into (and read back from) checkpoints.

        Resuming under a different fingerprint fails loudly instead of
        blending two workloads into one report.
        """
        kept = (True, _SOURCE["fingerprint"]) if self.app is not None else (True,)
        identity = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.metadata.get("fingerprint", True) in kept
        }
        # Through JSON and back: checkpoints compare it after json.load.
        return json.loads(json.dumps(identity, default=_typed_fields))

    def run(self) -> ReplayRun:
        """Validate, generate the arrivals, and replay them on the engine it names."""
        self.validate()
        trace = None if self.app is not None else TraceGenerator(
            app_count=self.apps,
            duration_hours=self.duration_hours,
            window_hours=self.window_hours,
            seed=self.seed,
            mean_requests_per_window=self.requests_per_window,
            shift_hours=self.shift_hours,
        ).generate()
        spec = ShardReplaySpec(
            platform=bench_platform_config(record_traces=False),
            fleet=self.fleet,
            seed=self.seed,
            replay_seed=self.seed,
            model=make_arrival_model(self.arrival_model),
            scale=self.scale,
            window_s=self.window_hours * 3600.0,
            pricing=self.pricing,
            exec_ms=self.exec_ms,
            qos=self.qos_mix,
            qos_seed=self.seed,
            progress=self.progress,
        )
        fingerprint = self.fingerprint()
        resumed = bool(self.checkpoint) and Path(self.checkpoint).exists()
        served = phases = None
        try:
            if self.workers is None:
                summary, served, phases = self._run_in_process(spec, trace, fingerprint)
            else:
                summary = replay_sharded(
                    trace,
                    spec,
                    workers=self.workers,
                    checkpoint=self.checkpoint or None,
                    fingerprint=fingerprint,
                    journal=self.journal or None,
                    trace_sample=self.trace_sample,
                )
        except ReproError as error:
            if not resumed:
                raise  # nothing to resume: the error stands as it is
            raise CheckpointError(
                f"cannot resume from {self.checkpoint}: {error}"
            ) from error
        if summary.arrivals == 0:
            raise WorkloadError(
                "trace compiled to zero arrivals; "
                "increase --scale or --requests-per-window"
            )
        return ReplayRun(summary, resumed, served, phases)

    def _run_in_process(self, spec: ShardReplaySpec, trace, fingerprint):
        """The single-process engines: plain, checkpointed, federated.

        Past the build, a cluster and a federation run the same
        :func:`~repro.workloads.shard.replay_stream`.  Returns
        ``(summary, served, phases)``.
        """
        if self.regions is not None:
            engine, stream = self._federation(spec, trace)
        elif trace is None:
            engine = ClusterPlatform(config=spec.platform, fleet=self.fleet, seed=self.seed)
            stream = self._poisson(engine)
        else:
            engine, stream, _ = build_shard_replay(spec, trace)
        accumulator = WindowAccumulator(window_s=spec.window_s, pricing=spec.pricing)
        profiler = PhaseProfiler() if self.profile else None
        started = time.perf_counter()
        summary = replay_stream(
            engine,
            stream,
            accumulator,
            progress=self.progress,
            profiler=profiler,
            journal=self.journal or None,
            fingerprint=fingerprint,
            trace_sample=self.trace_sample,
            checkpoint=self.checkpoint or None,
        )
        phases = None
        if profiler is not None:
            profiler.add("total", time.perf_counter() - started)
            profiler.derive("event-loop", "total", "compile", "checkpoint-write")
            phases = profiler.report(requests=summary.arrivals)
        served = None if self.regions is None else engine.served_counts()
        return summary, served, phases

    def _federation(self, spec: ShardReplaySpec, trace):
        """The deployed federation and the region-tagged stream it replays."""
        # Build the assigner first: a bad weight list must fail before
        # any federation is built or trace fleet deployed.
        if trace is None:
            assigner = None  # Poisson traffic carries its origin
        elif self.assignment == "hash-affinity":
            assigner = HashAffinity(self.regions)
        else:
            try:
                assigner = PopularityWeighted(
                    self.regions, weights=self.region_weights, seed=self.seed
                )
            except WorkloadError as error:
                raise WorkloadError(f"--region-weights invalid: {error}") from None
        federation = RegionFederation(
            RegionTopology.fully_connected(self.regions, default_ms=self.latency_ms),
            policy=make_policy(
                self.routing,
                spillover_load=self.spillover,
                qos_classes=self.qos_mix,
                seed=self.seed,
            ),
            platform=spec.platform,
            fleet=self.fleet,
            seed=self.seed,
            qos=self.qos_mix,
        )
        if trace is None:
            return federation, self._poisson(federation)
        deploy_trace(federation, trace, exec_ms=self.exec_ms)
        # The stream is QoS-tagged before regions are assigned: assign_qos
        # appends the class name, assign_regions inserts the origin ahead
        # of it.
        return federation, assign_regions(compile_shard_stream(spec, trace), assigner)

    def _poisson(self, engine=None):
        """The Poisson source's lazy stream, with the app deployed on ``engine``.

        One rate draws ``(at, app, entry)`` for one cluster; on the
        federation each region draws ``(at, app, entry, origin)`` from its
        own rate (one rate is every region's) and its own
        ``derive_seed(seed, "region", name)`` seed, merged in time order.
        """
        app = _catalog_app(self.app)
        if engine is not None:
            engine.deploy(app.sim_config())
        if self.regions is None:
            (rate,) = self.rates
            arrivals = poisson_arrivals(app.mix, rate, self.duration_s, seed=self.seed)
            return ((at, app.name, entry) for at, entry in arrivals)
        rates = self.rates * len(self.regions) if len(self.rates) == 1 else self.rates
        arrivals = regional_poisson_arrivals(
            app.mix, dict(zip(self.regions, rates)), self.duration_s, seed=self.seed
        )
        return ((at, app.name, entry, origin) for at, entry, origin in arrivals)


@functools.lru_cache(maxsize=1)
def _catalog_app(key: str):
    """The instantiated catalog app; the zero-arrivals rule's first draw and
    the run share one instantiation."""
    return instantiate(app_by_key(key))


def _journal_clash(p: ReplayPlan) -> str:
    """A file both the journal and the checkpoint side of ``p`` write, or ''.

    A sharded run also names a checkpoint and a journal after each shard;
    a path with no name (``.``, ``/``) is refused where it is opened.
    """
    if not (p.journal and p.checkpoint):
        return ""
    sides = []
    for path, shard_path in ((p.checkpoint, shard_checkpoint_path),
                             (p.journal, shard_journal_path)):
        path = Path(path)
        shards = range(p.workers or 0) if path.name else ()
        sides.append([path, *(shard_path(path, k, p.workers) for k in shards)])
    written = {path.resolve() for path in sides[0]}
    return next((str(path) for path in sides[1] if path.resolve() in written), "")


#: The rules only a plan built in code can break, checked first: the CLI's
#: ``cluster`` takes one ``--rate`` and ``regions`` always names its
#: regions, and neither has ``--workers``.  ``tests/workloads/test_replayplan.py``
#: walks them as plans.
_PLAN_RULES = (
    (
        # Shards split a generated trace's apps; a Poisson source has one app.
        lambda p: p.app is not None and p.workers is not None,
        "a Poisson source replays in one process; got workers={p.workers}",
    ),
    (
        lambda p: p.app is not None
        and p.regions is None
        and len(p.rates) != 1
        and f"{len(p.rates)} rates",
        "a Poisson source without regions takes one rate; got {got}",
    ),
)

#: Every cross-field rule of a replay, once: ``(broken, message)``.
#: ``validate()`` raises a :class:`SpecError` for the first row whose
#: ``broken(plan)`` is truthy, formatting ``message`` with the plan as
#: ``p`` and that truthy value as ``got``; ``tests/test_cli.py`` walks
#: the same rows.
_RULES = (
    (
        # float() happily parses "nan"/"inf"/"-3", none of which is a
        # simulation hour: NaN poisons every window comparison downstream
        # and a negative/infinite shift can never fire.
        lambda p: ", ".join(
            f"{hour:g}"
            for hour in p.shift_hours
            if not math.isfinite(hour) or hour < 0
        ),
        "--shift-hours must be finite and >= 0; got {got}",
    ),
    (
        lambda p: p.workers is not None and p.workers < 1,
        "--workers must be at least 1; got {p.workers}",
    ),
    (
        # Shards split the apps: every worker past --apps replays nothing,
        # yet the pool starts a process for each one up front.
        lambda p: p.workers is not None and p.workers > p.apps,
        "--workers must be at most --apps ({p.apps}); got {p.workers}",
    ),
    (
        lambda p: p.regions is not None and (p.workers is not None or p.checkpoint),
        "--workers/--checkpoint need the single-cluster engine; federated "
        "replay shares routing state across regions and cannot shard",
    ),
    (
        lambda p: not 0.0 <= p.trace_sample <= 1.0,
        "--trace-sample must be in [0, 1]; got {p.trace_sample:g}",
    ),
    (
        lambda p: p.trace_sample > 0.0 and not p.journal,
        "--trace-sample writes sampled spans into the run journal; "
        "it needs --journal PATH",
    ),
    (
        lambda p: p.journal and p.workers is not None and not p.checkpoint,
        "--journal with --workers needs --checkpoint: per-shard journals "
        "flush and resume in lockstep with the per-shard checkpoints",
    ),
    (
        lambda p: p.profile and p.workers is not None,
        "--profile times the single-process engines; phase timings "
        "inside worker processes are not observable from here",
    ),
    (
        lambda p: p.app is not None
        and p.spillover is not None
        and p.routing != "locality",
        "--spillover has no effect without --policy locality",
    ),
    (
        lambda p: p.app is None
        and p.spillover is not None
        and (p.regions is None or p.routing != "locality"),
        "--spillover has no effect without --regions and --routing locality",
    ),
    (
        lambda p: p.region_weights is not None
        and (p.regions is None or p.assignment != "popularity-weighted"),
        "--region-weights has no effect without --regions and "
        "--assignment popularity-weighted",
    ),
    (
        lambda p: p.regions is None and p.routing != ReplayPlan.routing,
        "--routing has no effect without --regions; got {p.routing}",
    ),
    (
        lambda p: p.regions is None and p.latency_ms != ReplayPlan.latency_ms,
        "--latency has no effect without --regions; got {p.latency_ms:g}",
    ),
    (
        lambda p: p.regions is None and p.assignment != ReplayPlan.assignment,
        "--assignment has no effect without --regions; got {p.assignment}",
    ),
    (
        # A handler longer than the whole trace runs past everything the
        # replay reports on; near float max its queue waits overflow.
        lambda p: p.exec_ms > p.duration_hours * 3.6e6,
        "--exec-ms must be at most the trace's length "
        "(--duration-hours {p.duration_hours:g}); got {p.exec_ms:g}",
    ),
    (
        # The checkpoint clean-up would unlink the journal, and until then
        # the two writers (or the manifest and the merged journal) share it.
        _journal_clash,
        "--journal and --checkpoint must name different files; the run "
        "would write {got} as both",
    ),
    (
        lambda p: p.app is not None
        and not all(math.isfinite(rate) and rate > 0 for rate in p.rates)
        and ",".join(f"{rate:g}" for rate in p.rates),
        "--rates must be finite numbers > 0; got {got!r}",
    ),
    (
        lambda p: p.regions is not None
        and len(set(p.regions)) != len(p.regions)
        and list(p.regions),
        "duplicate region names: {got}",
    ),
    (
        lambda p: p.app is not None
        and p.regions is not None
        and len(p.rates) not in (1, len(p.regions))
        and f"{len(p.regions)} values for regions {','.join(p.regions)}; "
        f"got {len(p.rates)}",
        "--rates needs 1 or {got}",
    ),
    (
        # Drawn last: the first draw also refuses a rate x duration past
        # MAX_COUNT, and it needs the rates checked above.
        lambda p: p.app is not None
        and p.regions is None
        and next(p._poisson(), None) is None,
        "no arrivals generated for this rate/duration; "
        "increase --rate or --duration",
    ),
    (
        lambda p: p.app is not None
        and p.regions is not None
        and next(p._poisson(), None) is None,
        "no arrivals generated for these rates/duration; "
        "increase --rates or --duration",
    ),
)
