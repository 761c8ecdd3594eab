"""Streaming execution path: run_stream / submit_stream equivalence.

The acceptance bar for streaming replay is *record equivalence*: draining
an arrival stream incrementally through ``run_stream`` must produce
exactly the invocation records the materialized ``submit()``-then-
``run()`` path produces — same heap, same tie-breaking, same jitter
draws — while retaining none of them.
"""

import math
from types import SimpleNamespace

import pytest

from repro.common.errors import DeploymentError, WorkloadError
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.gateway import Gateway
from repro.faas.region import (
    FederatedGateway,
    LeastLoadedPolicy,
    LocalityPolicy,
    RegionFederation,
    RegionTopology,
    RoundRobinPolicy,
)
from repro.faas.replaydeploy import (
    deploy_trace,
    expose_trace,
    trace_app_config,
)
from repro.faas.sim import (
    EntryBehavior,
    SimAppConfig,
    SimPlatform,
    SimPlatformConfig,
)
from repro.metrics import PricingModel, WindowAccumulator
from repro.workloads.replay import (
    HashAffinity,
    as_paths,
    assign_regions,
    compile_trace,
)
from repro.workloads.trace import TraceGenerator

#: Jittered platform: equivalence must hold with latency noise on, since
#: jitter draws depend on the order service starts happen in.
PLATFORM = SimPlatformConfig(record_traces=False, jitter_sigma=0.05)


def small_trace(windows=2, seed=21):
    return TraceGenerator(
        app_count=3,
        duration_hours=windows * 12.0,
        window_hours=12.0,
        mean_requests_per_window=150.0,
        seed=seed,
    ).generate()


def cluster_pair(trace, **fleet_kwargs):
    def build():
        platform = ClusterPlatform(
            config=PLATFORM,
            fleet=FleetConfig(max_containers=3, keep_alive_s=60.0, **fleet_kwargs),
            seed=13,
        )
        deploy_trace(platform, trace)
        gateway = Gateway(platform)
        expose_trace(gateway, trace)
        return platform, gateway

    return build(), build()


class TestClusterStreamEquivalence:
    def test_streamed_records_equal_materialized_records(self):
        trace = small_trace()
        events = list(compile_trace(trace, seed=3, scale=0.3))
        (batch_platform, batch_gateway), (stream_platform, stream_gateway) = (
            cluster_pair(trace)
        )
        for at, path in as_paths(events):
            batch_gateway.submit(path, at)
        batch_records = batch_platform.run()

        streamed = []
        summary = stream_gateway.submit_stream(
            as_paths(iter(events)),
            WindowAccumulator(window_s=3600.0),
            on_record=streamed.append,
        )
        key = lambda r: (r.timestamp, r.app, r.entry, r.container_id)
        assert sorted(streamed, key=key) == sorted(batch_records, key=key)
        assert summary.completed == len(batch_records)
        assert summary.arrivals == len(events)

    def test_streaming_retains_no_per_request_state(self):
        trace = small_trace()
        platform = ClusterPlatform(config=PLATFORM, seed=1)
        deploy_trace(platform, trace)
        platform.run_stream(
            compile_trace(trace, seed=2, scale=0.2), WindowAccumulator(3600.0)
        )
        for app in platform.app_names():
            assert platform.records(app) == []
            assert platform.retirements(app) == []
        # Post-streaming, the platform still works in batch mode.
        app = trace.apps[0]
        record = platform.invoke(
            app.name, app.handlers[0], at=platform.clock.now() + 1.0
        )
        assert record.app == app.name

    def test_summary_totals_match_fleet_counters(self):
        trace = small_trace()
        platform = ClusterPlatform(config=PLATFORM, seed=4)
        deploy_trace(platform, trace)
        summary = platform.run_stream(
            compile_trace(trace, seed=5, scale=0.3), WindowAccumulator(3600.0)
        )
        spawned = sum(
            platform._fleet(app).spawned for app in platform.app_names()
        )
        cold = sum(
            platform._fleet(app).cold_starts for app in platform.app_names()
        )
        assert summary.cold_starts == cold
        assert sum(window.boots for window in summary.windows) == spawned

    def test_gb_seconds_match_batch_fleet_stats(self):
        trace = small_trace(windows=1)
        events = list(compile_trace(trace, seed=6, scale=0.3))
        (batch_platform, batch_gateway), (stream_platform, _) = cluster_pair(trace)
        for at, path in as_paths(events):
            batch_gateway.submit(path, at)
        batch_platform.run()
        batch_gb = sum(
            batch_platform.fleet_stats(app).gb_seconds
            for app in batch_platform.app_names()
        )
        summary = stream_platform.run_stream(
            ((at, app, entry) for at, app, entry in events),
            WindowAccumulator(window_s=3600.0),
        )
        assert summary.gb_seconds == pytest.approx(batch_gb, rel=1e-9)

    def test_shedding_streams_to_the_accumulator(self):
        trace = small_trace()
        platform = ClusterPlatform(config=PLATFORM, seed=7)
        deploy_trace(
            platform,
            trace,
            fleet=FleetConfig(max_containers=1, keep_alive_s=60.0, queue_capacity=0),
        )
        summary = platform.run_stream(
            compile_trace(trace, seed=8, scale=0.5), WindowAccumulator(3600.0)
        )
        rejected = sum(
            platform._fleet(app).rejected for app in platform.app_names()
        )
        assert rejected > 0
        assert summary.shed == rejected
        assert summary.arrivals == summary.completed + summary.shed
        assert any(window.shed_rate > 0 for window in summary.windows)

    def test_concurrent_streams_are_rejected(self):
        trace = small_trace(windows=1)
        platform = ClusterPlatform(config=PLATFORM, seed=2)
        deploy_trace(platform, trace)
        accumulator = WindowAccumulator(3600.0)

        def reentrant():
            yield 0.0, trace.apps[0].name, trace.apps[0].handlers[0]
            platform.run_stream(iter(()), WindowAccumulator(3600.0))

        with pytest.raises(WorkloadError):
            platform.run_stream(reentrant(), accumulator)
        # The guard resets, so a fresh stream still runs.
        platform.run_stream(iter(()), WindowAccumulator(3600.0))

    def test_gateway_stream_requires_streaming_backend(self):
        platform = SimPlatform()
        gateway = Gateway(platform)
        with pytest.raises(DeploymentError):
            gateway.submit_stream(iter(()), WindowAccumulator(3600.0))

    def test_gateway_stream_rejects_unknown_path(self):
        trace = small_trace(windows=1)
        platform = ClusterPlatform(config=PLATFORM, seed=2)
        deploy_trace(platform, trace)
        gateway = Gateway(platform)
        with pytest.raises(DeploymentError):
            gateway.submit_stream(
                iter([(0.0, "/ghost/entry")]), WindowAccumulator(3600.0)
            )

    def test_gateway_stream_counts_hits(self):
        trace = small_trace(windows=1)
        platform = ClusterPlatform(config=PLATFORM, seed=2)
        deploy_trace(platform, trace)
        gateway = Gateway(platform)
        expose_trace(gateway, trace)
        events = list(compile_trace(trace, seed=9, scale=0.1))
        gateway.submit_stream(as_paths(events), WindowAccumulator(3600.0))
        assert sum(gateway.hit_counts().values()) == len(events)


class TestStreamTellsTheClockWhereItStands:
    """``run_stream`` keeps time in a local and advances the clock only at
    its edges: inside the boundary hook, before the tail is stepped out,
    and on the way out."""

    @staticmethod
    def platform(small_ecosystem, handler_self_ms, warm_platform_ms):
        platform = ClusterPlatform(
            config=SimPlatformConfig(
                record_traces=False, warm_platform_ms=warm_platform_ms
            ),
            fleet=FleetConfig(max_containers=1, keep_alive_s=60.0, queue_capacity=0),
        )
        platform.deploy(
            SimAppConfig(
                name="app",
                ecosystem=small_ecosystem,
                handler_imports=("libx",),
                entries=(EntryBehavior("main", handler_self_ms=handler_self_ms),),
            )
        )
        return platform

    @pytest.mark.parametrize(
        "times, handler_self_ms, warm_platform_ms, shed",
        [
            # The last arrival is shed (the one container is busy until
            # ~3.2): the clock ends on that completion.
            ([0.0, 3.0, 3.1], 200.0, 1.5, 1),
            # Warm requests complete in zero time, at == their arrival:
            # the last one leaves the heap empty and the clock on itself.
            ([0.0, 5.0, 5.0, 9.0], 0.0, 0.0, 0),
        ],
        ids=["shed-last-arrival", "zero-service-completions"],
    )
    def test_clock_inside_the_hook_and_after_the_stream(
        self, small_ecosystem, times, handler_self_ms, warm_platform_ms, shed
    ):
        stream = self.platform(small_ecosystem, handler_self_ms, warm_platform_ms)
        seen = []
        probe = SimpleNamespace(  # a hook consulted before every arrival
            next_flush_s=-math.inf,
            flush_boundary=lambda at, fed: seen.append((fed, stream.clock.now())),
        )
        summary = stream.run_stream(
            [(at, "app", "main") for at in times],
            WindowAccumulator(3600.0),
            boundary=probe,
        )
        assert seen == list(enumerate([0.0] + times[:-1]))

        stepped = self.platform(small_ecosystem, handler_self_ms, warm_platform_ms)
        for at in times:
            stepped.submit("app", "main", at=at)
        while stepped._step():  # the event-at-a-time reference
            pass
        assert stream.clock.now() == stepped.clock.now() >= times[-1]
        # ... and already stood there when the live container's tail was
        # flushed, which truncates it at the clock.
        assert summary.gb_seconds == pytest.approx(
            stepped.fleet_stats("app").gb_seconds, rel=1e-12
        )
        assert summary.shed == stepped._fleet("app").rejected == shed
        assert (stream.clock.now() > times[-1]) == bool(shed)

    def test_an_exception_leaves_the_clock_at_the_last_accepted_arrival(
        self, small_ecosystem
    ):
        platform = self.platform(small_ecosystem, 200.0, 1.5)
        with pytest.raises(DeploymentError):
            platform.run_stream(
                [(0.0, "app", "main"), (7.0, "app", "main"), (8.0, "ghost", "main")],
                WindowAccumulator(3600.0),
            )
        assert platform.clock.now() == 7.0


class TestFederationStreamEquivalence:
    def build_federation(self, trace, policy=LeastLoadedPolicy, latency_ms=40.0):
        topology = RegionTopology.fully_connected(["us", "eu"], default_ms=latency_ms)
        federation = RegionFederation(
            topology,
            policy=policy(),
            platform=PLATFORM,
            fleet=FleetConfig(max_containers=2, keep_alive_s=60.0),
            seed=17,
        )
        deploy_trace(federation, trace)
        gateway = FederatedGateway(platform=federation)
        expose_trace(gateway, trace)
        return federation, gateway

    def test_streamed_records_equal_materialized_records(self):
        self.assert_streamed_equals_materialized(LeastLoadedPolicy, 40.0)

    @pytest.mark.parametrize("latency_ms", [0.0, 40.0])
    @pytest.mark.parametrize(
        "policy",
        [RoundRobinPolicy, LeastLoadedPolicy, lambda: LocalityPolicy(spillover_load=1)],
        ids=["round-robin", "least-loaded", "locality"],
    )
    def test_equivalence_holds_across_policies_and_latencies(self, policy, latency_ms):
        # 0 ms is the edge: a forward is due the instant it is routed but
        # must still land on the *next* advance, in both modes.
        self.assert_streamed_equals_materialized(policy, latency_ms)

    def assert_streamed_equals_materialized(self, policy, latency_ms):
        trace = small_trace()
        assigner = HashAffinity(["us", "eu"])
        tagged = list(
            assign_regions(compile_trace(trace, seed=3, scale=0.3), assigner)
        )

        batch_federation, batch_gateway = self.build_federation(
            trace, policy, latency_ms
        )
        for at, path, origin in as_paths(tagged):
            batch_gateway.submit(path, at, origin=origin)
        batch_records = batch_federation.run()

        stream_federation, stream_gateway = self.build_federation(
            trace, policy, latency_ms
        )
        streamed = []
        summary = stream_gateway.submit_stream(
            as_paths(iter(tagged)),
            WindowAccumulator(window_s=3600.0),
            on_record=streamed.append,
        )
        key = lambda r: (r.timestamp, r.app, r.entry, r.container_id)
        assert sorted(streamed, key=key) == sorted(batch_records, key=key)
        assert summary.completed == len(batch_records)
        # Routing decisions are identical too, without retaining them.
        assert stream_federation.served_counts() == batch_federation.served_counts()
        assert stream_federation.assignments == []
        assert len(batch_federation.assignments) == len(tagged)

    def test_untagged_stream_defaults_to_first_region(self):
        trace = small_trace(windows=1)
        federation, gateway = self.build_federation(trace)
        events = compile_trace(trace, seed=5, scale=0.1)
        summary = gateway.submit_stream(as_paths(events), WindowAccumulator(3600.0))
        assert summary.completed > 0


class TestTraceDeployment:
    def test_trace_app_config_shape(self):
        trace = small_trace(windows=1)
        config = trace_app_config(trace.apps[0], exec_ms=3.0)
        assert config.name == trace.apps[0].name
        assert tuple(entry.name for entry in config.entries) == trace.apps[0].handlers
        assert all(entry.handler_self_ms == 3.0 for entry in config.entries)
        assert config.handler_imports == ()

    def test_deploy_trace_deploys_every_app(self):
        trace = small_trace(windows=1)
        platform = ClusterPlatform(config=PLATFORM)
        names = deploy_trace(platform, trace)
        assert names == platform.app_names() == sorted(a.name for a in trace.apps)

    def test_pricing_flows_into_windows(self):
        trace = small_trace(windows=1)
        platform = ClusterPlatform(config=PLATFORM, seed=3)
        deploy_trace(platform, trace)
        pricing = PricingModel(
            per_gb_second=0.0, per_million_requests=1000.0, cold_start_surcharge=0.0
        )
        summary = platform.run_stream(
            compile_trace(trace, seed=4, scale=0.1),
            WindowAccumulator(window_s=3600.0, pricing=pricing),
        )
        assert summary.cost.total_cost == pytest.approx(
            summary.completed * 1000.0 / 1_000_000.0
        )
