"""The traced run: one span around each call into a layer's public function.

Tracing lives here, in the benchmark, not in the program: each stage is
timed from outside by calling the layer's entry point on *materialized*
inputs (``list(compile_trace(...))`` first, then
``run_stream(iter(arrivals), ...)``), so stages the CLI interleaves
lazily separate cleanly.  Spans stay in memory and are written once, by
the caller, when the run ends.  Engines that are compared with each
other run ``ENGINE_REPS`` times round-robin and their fastest time
counts; probe runs between the stages restate the run's times at the
reference host speed (see :mod:`bench.calibrate`).

Every engine driven over the same arrivals must return an equal summary,
and the in-process result must match what the cold CLI printed; either
mismatch is reported as a problem (the run is then incorrect).  A layer
whose entry point is missing yields ``None`` for its metrics plus a
warning — never a crash.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from bench.calibrate import PROBES_PER_BRACKET, host_speed, probe
from bench.invoke import Invocation, run_cli, run_python
from bench.metrics import PER_LAYER
from bench.workloads import Workload, check_output, generate_trace, table2_rows

#: ``faas.autoscale.loop_req_per_s.*`` replays this many leading arrivals.
POLICY_LOOP_ARRIVALS = 200_000
#: Runs of each engine that is compared with another; the fastest counts.
ENGINE_REPS = 3
COVERAGE_RANGE = (0.85, 1.15)
#: A renamed or removed entry point surfaces as one of these.
MISSING_ENTRY_POINT = (ImportError, AttributeError, TypeError)


class Tracer:
    """Spans in memory: name, start, end, the span that caused it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attributes):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attributes,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Seconds inside every closed span of this name."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        )


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


@dataclass
class TracedRun:
    """What one workload's traced run produced."""

    workload: str
    #: The CPUs the benchmark may use; it runs pinned to the last one.
    cpus: set[int]
    metrics: dict[str, float | None] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    #: Cold CLI invocations made along the way (reference walls, import
    #: probes): each is an attempted operation of the benchmark.
    invocations: list[Invocation] = field(default_factory=list)
    #: Seconds of the spans on the CLI's own path, for ``trace.coverage``.
    on_path: dict[str, float] = field(default_factory=dict)
    rows: list[dict] = field(default_factory=list)  # per-app (pipeline)
    #: Probe seconds taken between the stages (see ``bench.calibrate``).
    probes: list[float] = field(default_factory=list)
    host_speed_x: float | None = None

    def probe(self, count: int = PROBES_PER_BRACKET) -> None:
        self.probes += [probe() for _ in range(count)]

    def invoke(self, runner, words, scratch: Path) -> Invocation:
        result = runner(words, scratch)
        self.probe()
        self.invocations.append(result)
        self.problems += [f"{' '.join(words[:3])}: {p}" for p in result.problems()]
        return result

    def expect_equal(self, what: str, left, right) -> None:
        if left != right:
            self.problems.append(f"{what} differ")

    def guarded(self, stage, *args) -> None:
        """Run one stage group; a missing entry point only warns."""
        try:
            stage(self, *args)
        except MISSING_ENTRY_POINT as error:
            self.warnings.append(f"{stage.__name__}: {type(error).__name__}: {error}")

    def at_reference_speed(self) -> None:
        """Restate every time and rate at the reference host speed.

        One factor for the whole traced run, from the probes between its
        stages: shares and ratios keep their value, and seconds from two
        traced runs minutes apart become comparable.  Spans stay raw.
        """
        speed = self.host_speed_x = host_speed(self.probes)
        factor = {"s": speed, "1/s": 1.0 / speed}
        for layer in PER_LAYER:
            if layer.unit in factor and self.metrics.get(layer.name) is not None:
                self.metrics[layer.name] *= factor[layer.unit]

    def document(self) -> dict:
        """The ``trace-<workload>.json`` payload."""
        return {
            "workload": self.workload,
            "host_speed_x": self.host_speed_x,
            "metrics": self.metrics,
            "on_cli_path_s": self.on_path,
            "problems": self.problems,
            "warnings": self.warnings,
            "apps": self.rows,
            "spans": self.tracer.spans,
        }


# -- what every workload shares ----------------------------------------------


def _import_cost(run: TracedRun, scratch: Path, reps: int, lazy_numpy: bool) -> None:
    """``cli.import_s``: fresh-interpreter import minus a bare interpreter.

    Also puts on the CLI path the bare interpreter's start-up and, for
    replays, the numpy import ``compile_trace`` triggers lazily (the
    harness process pays it once, so no traced stage would show it).
    """
    count_modules = "import sys; print(len(sys.modules))"
    numpy_seconds = (
        "import repro.cli, time; t = time.perf_counter()\n"
        "try: import numpy\nexcept ImportError: pass\n"
        "print(time.perf_counter() - t)"
    )
    bare, full, lazy = [], [], []
    for _ in range(reps):
        bare.append(run.invoke(run_python, ["-c", count_modules], scratch))
        full.append(
            run.invoke(run_python, ["-c", "import repro.cli; " + count_modules], scratch)
        )
        if lazy_numpy:
            lazy.append(run.invoke(run_python, ["-c", numpy_seconds], scratch))
    bare_s = statistics.median(result.wall_s for result in bare)
    full_s = statistics.median(result.wall_s for result in full)
    run.metrics["cli.import_s"] = full_s - bare_s
    run.metrics["cli.modules_imported"] = int(full[0].stdout) - int(bare[0].stdout)
    run.on_path["interpreter start"] = bare_s
    run.on_path["cli.import"] = full_s - bare_s
    if lazy_numpy:
        run.on_path["numpy import (lazy)"] = statistics.median(
            float(result.stdout) for result in lazy
        )


def _account(run: TracedRun, reference_wall_s: float) -> None:
    """``cli.residual_s`` and ``trace.coverage`` against the cold CLI wall."""
    traced = sum(run.on_path.values())
    run.metrics["cli.residual_s"] = reference_wall_s - traced
    coverage = run.metrics["trace.coverage"] = traced / reference_wall_s
    if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        stages = ", ".join(f"{name} {value:.3f}s" for name, value in run.on_path.items())
        run.warnings.append(
            f"trace.coverage {coverage:.3f} outside {COVERAGE_RANGE}: "
            f"{reference_wall_s - traced:+.3f}s of the {reference_wall_s:.3f}s "
            f"CLI wall is unaccounted beyond [{stages}]"
        )


def _reference(run: TracedRun, workload: Workload, words, scratch: Path) -> Invocation:
    """One cold, untraced CLI invocation: the wall the spans must explain."""
    result = run.invoke(run_cli, words, scratch)
    _, problems = check_output(workload, result.stdout)
    run.problems += problems
    return result


# -- replay workloads ------------------------------------------------------------


@dataclass
class _Replay:
    """The materialized inputs every traced replay engine shares."""

    args: object
    qos: tuple | None
    trace: object
    arrivals: list
    #: The first plain ``run_stream``'s summary and accumulator: what
    #: every other engine over the same arrivals must reproduce.
    summary: object = None
    accumulator: object = None
    finalize_s: float = 0.0

    def fleet(self, policy: str | None = None):
        from repro.faas.autoscale import make_scaling_policy
        from repro.faas.cluster import FleetConfig

        args = self.args
        return FleetConfig(
            max_containers=args.max_containers,
            max_concurrency=args.max_concurrency,
            keep_alive_s=args.keep_alive,
            queue_capacity=args.queue_capacity,
            policy=make_scaling_policy(policy or args.scaling_policy),
        )

    def pricing(self):
        from repro.metrics import PricingModel

        return PricingModel(
            per_gb_second=self.args.price_gb_second,
            per_million_requests=self.args.price_million_requests,
            cold_start_surcharge=self.args.cold_start_surcharge,
        )

    @property
    def window_s(self) -> float:
        return self.args.window_hours * 3600.0

    def new_accumulator(self):
        from repro.metrics import WindowAccumulator

        return WindowAccumulator(window_s=self.window_s, pricing=self.pricing())

    def deploy_cluster(self, policy: str | None = None):
        from repro.apps.model import bench_platform_config
        from repro.faas.cluster import ClusterPlatform
        from repro.faas.replaydeploy import deploy_trace

        platform = ClusterPlatform(
            config=bench_platform_config(record_traces=False),
            fleet=self.fleet(policy),
            seed=self.args.seed,
            qos=self.qos,
        )
        deploy_trace(platform, self.trace, exec_ms=self.args.exec_ms)
        return platform


def _replay_inputs(run: TracedRun, words: list[str]) -> _Replay:
    """Generate, compile (materialized) and deploy — one span each."""
    from repro.cli import build_parser
    from repro.metrics import parse_qos_mix
    from repro.workloads.replay import assign_qos, compile_trace, make_arrival_model

    tracer, metrics = run.tracer, run.metrics
    try:  # paid here, not inside the compile span: see _import_cost
        import numpy  # noqa: F401
    except ImportError:
        pass
    args = build_parser().parse_args(words)
    qos = parse_qos_mix(args.qos_mix) if args.qos_mix else None
    with tracer.span("workloads.trace.generate") as generated:
        trace = generate_trace(args)
    with tracer.span("workloads.replay.compile") as compiled:
        stream = compile_trace(
            trace,
            model=make_arrival_model(args.arrival_model),
            seed=args.seed,
            scale=args.scale,
        )
        if qos is not None:
            stream = assign_qos(stream, qos, seed=args.seed)
        arrivals = list(stream)
    replay = _Replay(args, qos, trace, arrivals)
    with tracer.span("faas.replaydeploy.deploy", engine="cluster") as deployed:
        replay.deploy_cluster()
    run.probe()

    metrics["workloads.trace.generate_s"] = seconds(generated)
    metrics["workloads.replay.compile_s"] = seconds(compiled)
    metrics["workloads.replay.compile_req_per_s"] = len(arrivals) / seconds(compiled)
    metrics["workloads.replay.arrivals"] = len(arrivals)
    metrics["faas.replaydeploy.deploy_s"] = seconds(deployed)
    run.on_path.update(
        {
            "workloads.trace.generate": seconds(generated),
            "workloads.replay.compile": seconds(compiled),
            "faas.replaydeploy.deploy": seconds(deployed),
        }
    )
    return replay


def _cluster_loop(run: TracedRun, replay: _Replay) -> float:
    """Direct ``ClusterPlatform.run_stream``: no gateway, checkpoint, journal."""
    platform = replay.deploy_cluster()
    accumulator = replay.new_accumulator()
    arrivals = replay.arrivals
    with run.tracer.span("faas.cluster.run_stream", arrivals=len(arrivals)) as looped:
        platform.run_stream(iter(arrivals), accumulator, finalize=False)
    with run.tracer.span("metrics.windows.finalize") as finalized:
        summary = accumulator.finalize()
    if replay.summary is None:
        replay.summary, replay.accumulator = summary, accumulator
        replay.finalize_s = seconds(finalized)
    run.expect_equal("two run_stream summaries over the same arrivals", summary, replay.summary)
    return seconds(looped)


def _fastest(run: TracedRun, replay: _Replay, engines: dict, reps: int) -> dict[str, float]:
    """Seconds of each engine's fastest of ``reps`` runs, taken round-robin.

    The engines are compared with each other (overhead shares, slow-down
    factors), and a burst of the host that hits one single run would
    read as overhead; going round-robin, a slow phase hits all alike.
    """
    times: dict[str, list[float]] = {name: [] for name in engines}
    for _ in range(reps):
        for name, engine in engines.items():
            times[name].append(engine(run, replay))
            run.probe()
    return {name: min(values) for name, values in times.items()}


def _cluster_metrics(run: TracedRun, replay: _Replay, run_stream_s: float) -> None:
    summary, metrics = replay.summary, run.metrics
    metrics["faas.cluster.run_stream_s"] = run_stream_s
    metrics["faas.cluster.run_stream_req_per_s"] = len(replay.arrivals) / run_stream_s
    metrics["faas.cluster.completed"] = summary.completed
    metrics["faas.cluster.shed"] = summary.shed
    metrics["faas.cluster.cold_start_share"] = summary.cold_start_rate
    metrics["metrics.windows.finalize_s"] = replay.finalize_s


def _matches_cli(run: TracedRun, summary, stdout: str) -> None:
    """The in-process totals are the ones the cold CLI printed."""
    printed = {}
    for line in stdout.splitlines():
        label, _, value = line.partition(":")
        printed[label.strip()] = value.strip()
    for label, value in (
        ("arrivals", str(summary.arrivals)),
        ("completed", str(summary.completed)),
        ("shed", str(summary.shed)),
        ("cold-start rate", f"{summary.cold_start_rate:.4f}"),
        ("GB-seconds", f"{summary.gb_seconds:.1f}"),
    ):
        if printed.get(label) != value:
            run.problems.append(
                f"traced {label} {value} != CLI's {printed.get(label)!r}"
            )


def _warm_engines(run: TracedRun, replay: _Replay, reps: int) -> None:
    from repro.faas.gateway import Gateway
    from repro.faas.replaydeploy import expose_trace
    from repro.workloads.replay import as_paths

    with run.tracer.span("workloads.replay.as_paths") as pathed:
        paths = list(as_paths(replay.arrivals))

    def gateway_loop(run: TracedRun, replay: _Replay) -> float:
        gateway = Gateway(replay.deploy_cluster())
        expose_trace(gateway, replay.trace)
        with run.tracer.span("faas.gateway.submit_stream") as routed:
            summary = gateway.submit_stream(iter(paths), replay.new_accumulator())
        run.expect_equal(
            "Gateway.submit_stream and run_stream summaries", summary, replay.summary
        )
        return seconds(routed)

    fastest = _fastest(
        run, replay,
        {"faas.cluster.run_stream": _cluster_loop, "faas.gateway.submit_stream": gateway_loop},
        reps,
    )
    run_stream_s = fastest["faas.cluster.run_stream"]
    routed_s = fastest["faas.gateway.submit_stream"]
    _cluster_metrics(run, replay, run_stream_s)
    run.metrics["faas.gateway.submit_stream_s"] = routed_s
    run.metrics["faas.gateway.overhead_share"] = (
        routed_s - run_stream_s - replay.finalize_s
    ) / run_stream_s
    run.on_path["workloads.replay.as_paths"] = seconds(pathed)
    run.on_path["faas.gateway.submit_stream"] = routed_s


def _warm_wire(run: TracedRun, replay: _Replay) -> None:
    from repro.metrics import merge_wire

    with run.tracer.span("metrics.windows.to_wire") as packed:
        wire = replay.accumulator.to_wire()
    with run.tracer.span("metrics.windows.merge_wire") as merged:
        summary = merge_wire([wire])
    run.expect_equal("merge_wire([to_wire()]) and finalize() summaries", summary, replay.summary)
    run.metrics["metrics.windows.to_wire_s"] = seconds(packed)
    run.metrics["metrics.windows.merge_wire_s"] = seconds(merged)
    run.metrics["metrics.windows.wire_bytes"] = len(
        pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL)
    )


def _warm_sharded(run: TracedRun, replay: _Replay) -> None:
    if len(run.cpus) < 2:
        run.warnings.append("workloads.shard.*: fewer than 2 schedulable cores")
        return
    from repro.apps.model import bench_platform_config
    from repro.workloads.replay import make_arrival_model
    from repro.workloads.shard import ShardReplaySpec, replay_sharded, shard_trace

    args = replay.args
    spec = ShardReplaySpec(
        platform=bench_platform_config(record_traces=False),
        fleet=replay.fleet(),
        seed=args.seed,
        replay_seed=args.seed,
        model=make_arrival_model(args.arrival_model),
        scale=args.scale,
        window_s=replay.window_s,
        pricing=replay.pricing(),
        exec_ms=args.exec_ms,
        qos=replay.qos,
        qos_seed=args.seed,
    )
    summaries, spans = [], []
    os.sched_setaffinity(0, run.cpus)  # the one stage that needs two
    try:
        for workers in (1, 2):
            with run.tracer.span("workloads.shard.replay_sharded", workers=workers) as span:
                summaries.append(replay_sharded(replay.trace, spec, workers=workers))
            spans.append(span)
    finally:
        os.sched_setaffinity(0, {max(run.cpus)})
    run.probe()
    # Sharded replays charge provisioned tails to natural expiry
    # (flush_at=inf), so they equal each other, not the plain run.
    run.expect_equal("replay_sharded summaries at 1 and 2 workers", *summaries)
    if summaries[0].completed != replay.summary.completed:
        run.problems.append("replay_sharded completed != run_stream completed")
    sizes = [
        sum(app.total_invocations() for app in shard.apps)
        for shard in shard_trace(replay.trace, 2)
    ]
    run.metrics["workloads.shard.replay_sharded_s"] = seconds(spans[1])
    run.metrics["workloads.shard.speedup_x"] = seconds(spans[0]) / seconds(spans[1])
    run.metrics["workloads.shard.imbalance"] = max(sizes) / statistics.mean(sizes)


def _warm_policies(run: TracedRun, replay: _Replay) -> None:
    from repro.faas.autoscale import SCALING_POLICY_NAMES

    head = replay.arrivals[:POLICY_LOOP_ARRIVALS]
    for policy in SCALING_POLICY_NAMES:
        platform = replay.deploy_cluster(policy)
        with run.tracer.span(
            "faas.cluster.run_stream", policy=policy, arrivals=len(head)
        ) as looped:
            summary = platform.run_stream(iter(head), replay.new_accumulator())
        run.probe()
        if summary.completed + summary.shed != len(head):
            run.problems.append(f"policy {policy}: completed + shed != arrivals")
        run.metrics[f"faas.autoscale.loop_req_per_s.{policy}"] = len(head) / seconds(looped)


def _durable_engines(run: TracedRun, replay: _Replay, reps: int, scratch: Path) -> None:
    from repro.faas.snapshot import run_stream_checkpointed
    from repro.obs import JournalWriter, PhaseProfiler, summarize_journal

    scratch.mkdir(parents=True, exist_ok=True)
    checkpoint = scratch / "traced.ckpt"
    journal_path = scratch / "traced.journal.jsonl"

    def checkpointed(mode: str, journaled: bool = False, profiler=None):
        def engine(run: TracedRun, replay: _Replay) -> float:
            journal_path.unlink(missing_ok=True)
            journal = None
            if journaled:
                journal = JournalWriter(
                    journal_path,
                    window_s=replay.window_s,
                    trace_sample=replay.args.trace_sample,
                )
            platform = replay.deploy_cluster()
            with run.tracer.span("faas.snapshot.run_stream_checkpointed", mode=mode) as span:
                summary = run_stream_checkpointed(
                    platform,
                    iter(replay.arrivals),
                    replay.new_accumulator(),
                    checkpoint,
                    journal=journal,
                    profiler=profiler,
                )
            run.expect_equal(
                f"run_stream_checkpointed ({mode}) and run_stream summaries",
                summary, replay.summary,
            )
            return seconds(span)

        return engine

    try:
        # The journaled engine goes last: its journal is read back below.
        fastest = _fastest(
            run, replay,
            {
                "faas.cluster.run_stream": _cluster_loop,
                "no journal": checkpointed("no journal"),
                "journal": checkpointed("journal", journaled=True),
            },
            reps,
        )
        run_stream_s = fastest["faas.cluster.run_stream"]
        plain_s, journaled_s = fastest["no journal"], fastest["journal"]
        _cluster_metrics(run, replay, run_stream_s)
        with run.tracer.span("obs.query.summarize_journal") as read:
            digest = summarize_journal(journal_path)
        if digest["completed"] != replay.summary.completed:
            run.problems.append("journal summary completed != run_stream completed")
        with open(journal_path, "rb") as handle:
            rows = sum(1 for _ in handle)
        journal_bytes = journal_path.stat().st_size
        # profiler= swaps the loop onto probed delegates, so this run's
        # total is not used: it only reads out the checkpoint writes.
        profiler = PhaseProfiler()
        checkpointed("profiled", profiler=profiler)(run, replay)
        write_s = profiler.seconds("checkpoint-write")
        run.metrics.update(
            {
                "faas.snapshot.run_stream_checkpointed_s": journaled_s,
                "faas.snapshot.checkpoint_write_s": write_s,
                "faas.snapshot.driver_overhead_share": (
                    plain_s - write_s - run_stream_s - replay.finalize_s
                ) / run_stream_s,
                "obs.journal.overhead_share": (journaled_s - plain_s) / plain_s,
                "obs.journal.bytes": journal_bytes,
                "obs.journal.rows": rows,
                "obs.query.summarize_s": seconds(read),
            }
        )
        run.on_path["faas.snapshot.run_stream_checkpointed"] = journaled_s
    finally:
        checkpoint.unlink(missing_ok=True)
        journal_path.unlink(missing_ok=True)


def _federated_engines(run: TracedRun, replay: _Replay, reps: int) -> object:
    from repro.apps.model import bench_platform_config
    from repro.faas.region import (
        FederatedGateway,
        RegionFederation,
        RegionTopology,
        make_policy,
    )
    from repro.faas.replaydeploy import deploy_trace, expose_trace
    from repro.workloads.replay import HashAffinity, as_paths, assign_regions

    args = replay.args
    regions = [name.strip() for name in args.regions.split(",") if name.strip()]
    with run.tracer.span("workloads.replay.assign_regions") as tagged:
        stream = list(as_paths(assign_regions(replay.arrivals, HashAffinity(regions))))
    deploys, summaries = [], []

    def federation_loop(run: TracedRun, replay: _Replay) -> float:
        with run.tracer.span("faas.replaydeploy.deploy", engine="federation") as deployed:
            federation = RegionFederation(
                RegionTopology.fully_connected(regions, default_ms=args.latency),
                policy=make_policy(
                    args.routing, spillover_load=args.spillover,
                    qos_classes=replay.qos, seed=args.seed,
                ),
                platform=bench_platform_config(record_traces=False),
                fleet=replay.fleet(),
                seed=args.seed,
                qos=replay.qos,
            )
            deploy_trace(federation, replay.trace, exec_ms=args.exec_ms)
            gateway = FederatedGateway(platform=federation)
            expose_trace(gateway, replay.trace)
        with run.tracer.span("faas.region.submit_stream", arrivals=len(stream)) as routed:
            summaries.append(gateway.submit_stream(iter(stream), replay.new_accumulator()))
        run.expect_equal(
            "two federated summaries over the same arrivals", summaries[-1], summaries[0]
        )
        deploys.append(seconds(deployed))
        return seconds(routed)

    fastest = _fastest(
        run, replay,
        {"faas.cluster.run_stream": _cluster_loop, "faas.region.submit_stream": federation_loop},
        reps,
    )
    run_stream_s = fastest["faas.cluster.run_stream"]
    routed_s = fastest["faas.region.submit_stream"]
    _cluster_metrics(run, replay, run_stream_s)
    run.metrics["faas.region.submit_stream_s"] = routed_s
    run.metrics["faas.region.req_per_s"] = len(stream) / routed_s
    run.metrics["faas.region.slowdown_x"] = routed_s / run_stream_s
    # The CLI deploys the federation, not the single baseline cluster.
    run.metrics["faas.replaydeploy.deploy_s"] = min(deploys)
    run.on_path["faas.replaydeploy.deploy"] = min(deploys)
    run.on_path["workloads.replay.assign_regions"] = seconds(tagged)
    run.on_path["faas.region.submit_stream"] = routed_s
    return summaries[0]


# -- the paper's pipeline -----------------------------------------------------


def _pipeline_stages(run: TracedRun, words: list[str], table: dict) -> None:
    """``cmd_table2``'s loop, one span per stage per application."""
    from repro.apps import APP_DEFINITIONS, instantiate
    from repro.apps.model import bench_platform_config
    from repro.cli import build_parser
    from repro.core.optimizer import optimize_source
    from repro.core.pipeline import PipelineConfig, SlimStart
    from repro.core.simprofiler import bundle_from_simulation
    from repro.faas.events import InvocationStats
    from repro.faas.sim import SimPlatform, replay_workload
    from repro.metrics import SpeedupReport
    from repro.workloads.arrival import poisson_schedule

    args = build_parser().parse_args(words)
    tool = SlimStart(
        PipelineConfig(measure_cold_starts=args.cold_starts, measure_runs=args.runs)
    )
    span = run.tracer.span
    apps = []
    for definition in APP_DEFINITIONS:
        with span("apps.build", app=definition.key):
            apps.append(instantiate(definition))
    modules = samples = flagged = invocations = deferred = 0
    for app in apps:
        modules += app.module_count
        if app.definition.paper is None:
            continue
        name = app.name
        with span("pipeline.app", app=app.key) as whole:
            with span("workloads.arrival.schedule", app=app.key):
                schedule = poisson_schedule(
                    app.mix, rate_per_s=0.3, duration_s=3600.0, seed=7
                )
            with span("faas.sim.deploy", app=app.key):
                platform = SimPlatform(config=bench_platform_config())
                config = app.sim_config()
                platform.deploy(config)
            with span("faas.sim.profile_replay", app=app.key):
                platform.clear_history(name)
                replay_workload(platform, name, schedule)
            with span("core.simprofiler.bundle", app=app.key):
                bundle = bundle_from_simulation(
                    config,
                    platform.traces(name),
                    platform.records(name),
                    interval_ms=tool.config.sample_interval_ms,
                )
            with span("core.analyzer.analyze", app=app.key):
                report = tool.analyze(bundle, tool.sim_attributor(config))
            with span("faas.sim.measure", app=app.key, phase="before"):
                before_records = tool.measure_cold_starts(platform, name, app.mix)
            with span("faas.sim.redeploy", app=app.key):
                platform.clear_history(name)
                platform.redeploy(name, report.plan)
            with span("faas.sim.measure", app=app.key, phase="after"):
                after_records = tool.measure_cold_starts(platform, name, app.mix)
            with span("metrics.stats.summarize", app=app.key):
                before = InvocationStats.from_records(before_records)
                after = InvocationStats.from_records(after_records)
                s = SpeedupReport.compare(
                    before.init, after.init, before.e2e, after.e2e,
                    before.memory, after.memory,
                )
        # Not on table2's path: the source rewrite the plan would drive.
        with span("core.optimizer.rewrite", app=app.key):
            rewritten = optimize_source(
                app.handler_source(), report.plan.deferred_handler_imports
            )
        run.probe(1)
        samples += len(bundle.samples)
        flagged += len(report.flagged_modules)
        invocations += len(before_records) + len(after_records)
        deferred += len(rewritten.deferred)
        cells = [
            f"{value:.2f}"
            for value in (s.init_speedup, s.e2e_speedup, s.p99_init_speedup, s.p99_e2e_speedup)
        ]
        if table.get(app.key, [])[3:] != cells:
            run.problems.append(
                f"{app.key}: traced speedups {cells} != table2's {table.get(app.key)}"
            )
        run.rows.append(
            {"app": app.key, "modules": app.module_count, "seconds": seconds(whole),
             "init_speedup": s.init_speedup, "e2e_speedup": s.e2e_speedup}
        )
    total = run.tracer.total
    measure_s = total("faas.sim.measure")
    run.metrics.update(
        {
            "apps.build_s": total("apps.build"),
            "apps.modules_total": modules,
            "workloads.arrival.schedule_s": total("workloads.arrival.schedule"),
            "faas.sim.deploy_s": total("faas.sim.deploy"),
            "faas.sim.profile_replay_s": total("faas.sim.profile_replay"),
            "core.simprofiler.bundle_s": total("core.simprofiler.bundle"),
            "core.samples.count": samples,
            "core.analyzer.analyze_s": total("core.analyzer.analyze"),
            "core.analyzer.flagged_modules": flagged,
            "faas.sim.redeploy_s": total("faas.sim.redeploy"),
            "faas.sim.measure_s": measure_s,
            "faas.sim.invocations": invocations,
            "faas.sim.invocations_per_s": invocations / measure_s,
            "metrics.stats.summarize_s": total("metrics.stats.summarize"),
            "core.optimizer.rewrite_s": total("core.optimizer.rewrite"),
            "core.optimizer.deferred_imports": deferred,
        }
    )
    run.on_path["apps.build"] = total("apps.build")
    run.on_path["pipeline.app"] = total("pipeline.app")


# -- entry point ---------------------------------------------------------------


def _replay_stages(
    run: TracedRun, workload: Workload, words: list[str], scratch: Path,
    cli_stdout: str, reps: int,
) -> None:
    replay = _replay_inputs(run, words)
    if workload.name == "replay_warm":
        _warm_engines(run, replay, reps)
        for stage in (_warm_wire, _warm_sharded, _warm_policies):
            run.guarded(stage, replay)
        cli_summary = replay.summary  # the gateway's was checked equal
    elif workload.name == "replay_durable":
        _durable_engines(run, replay, reps, scratch)
        cli_summary = replay.summary  # the checkpointed ones were checked equal
    else:
        cli_summary = _federated_engines(run, replay, reps)
    _matches_cli(run, cli_summary, cli_stdout)


def trace_workload(
    workload: Workload, words: list[str], scratch: Path, cpus: set[int],
    quick: bool = False,
) -> TracedRun:
    """One workload's traced run, between two cold reference invocations.

    The reference wall is the faster of the invocation before and the
    one after the traced stages, as the engines' times are their fastest
    (``quick`` makes only the first, and runs each engine once).
    """
    run = TracedRun(workload.name, cpus)
    run.probe()
    _import_cost(run, scratch, reps=1 if quick else 3, lazy_numpy=workload.is_replay)
    references = [_reference(run, workload, words, scratch)]
    if workload.is_replay:
        run.guarded(
            _replay_stages, workload, words, scratch, references[0].stdout,
            1 if quick else ENGINE_REPS,
        )
    else:
        run.guarded(_pipeline_stages, words, table2_rows(references[0].stdout))
    if not quick:
        references.append(_reference(run, workload, words, scratch))
        run.expect_equal(
            "the two reference CLI invocations' stdout",
            references[0].stdout, references[1].stdout,
        )
    _account(run, min(result.wall_s for result in references))
    run.at_reference_speed()
    return run
