"""The streaming execution path: run_stream / submit_stream.

``run_stream`` is the engine's one way in.  These tests pin what a
stream leaves behind (its accumulator agrees with the fleet counters,
its clock stands where the event-at-a-time drain would leave it) and
the gateway's streaming front.  The records themselves are pinned by the
goldens (``tests/faas/test_golden_regression.py``).
"""

import math
from collections import Counter
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
from repro.faas.replaydeploy import deploy_trace, expose_trace
from repro.faas.sim import (
    EntryBehavior,
    SimAppConfig,
    SimPlatform,
    SimPlatformConfig,
)
from repro.metrics import WindowAccumulator
from repro.workloads.replay import (
    HashAffinity,
    as_paths,
    assign_regions,
    compile_trace,
)
from repro.workloads.trace import TraceGenerator
from tests.faas.serving import provisioned, serve

#: Jittered platform: jitter draws depend on the order service starts
#: happen in, so the noise is on.
PLATFORM = SimPlatformConfig(record_traces=False, jitter_sigma=0.05)


def small_trace(windows=2, seed=21):
    return TraceGenerator(
        app_count=3,
        duration_hours=windows * 12.0,
        window_hours=12.0,
        mean_requests_per_window=150.0,
        seed=seed,
    ).generate()


class TestClusterStream:
    def test_a_stream_leaves_nothing_pending_and_the_next_continues(self):
        trace = small_trace()
        platform = ClusterPlatform(config=PLATFORM, seed=1)
        deploy_trace(platform, trace)
        platform.run_stream(
            compile_trace(trace, seed=2, scale=0.2), WindowAccumulator(3600.0)
        )
        assert platform._events == [] and platform.load() == 0
        app = trace.apps[0]
        (record,) = serve(
            platform, [(platform.clock.now() + 1.0, app.name, app.handlers[0])]
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

    def test_gb_seconds_match_the_fleet_counters(self):
        trace = small_trace(windows=1)
        platform = ClusterPlatform(
            config=PLATFORM,
            fleet=FleetConfig(max_containers=3, keep_alive_s=60.0),
            seed=13,
        )
        deploy_trace(platform, trace)
        records = []
        summary = platform.run_stream(
            compile_trace(trace, seed=6, scale=0.3),
            WindowAccumulator(window_s=3600.0),
            on_record=records.append,
        )
        # Streamed provisioned lifetimes vs the fleets' own counters.
        fleet_gb = sum(
            provisioned(platform, app)[1] for app in platform.app_names()
        )
        assert summary.gb_seconds == pytest.approx(fleet_gb, rel=1e-9)

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

    def test_gateway_and_direct_streams_serve_the_same_records(self):
        trace = small_trace()
        events = list(compile_trace(trace, seed=3, scale=0.3))

        def build():
            platform = ClusterPlatform(
                config=PLATFORM,
                fleet=FleetConfig(max_containers=3, keep_alive_s=60.0),
                seed=13,
            )
            deploy_trace(platform, trace)
            return platform

        direct = serve(build(), iter(events))
        gateway = Gateway(build())
        expose_trace(gateway, trace)
        through_urls = []
        summary = gateway.submit_stream(
            as_paths(iter(events)),
            WindowAccumulator(window_s=3600.0),
            on_record=through_urls.append,
        )
        assert through_urls == direct
        assert summary.completed == len(direct)
        assert summary.arrivals == len(events)


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
        records = []
        summary = stream.run_stream(
            [(at, "app", "main") for at in times],
            WindowAccumulator(3600.0),
            on_record=records.append,
            boundary=probe,
        )
        assert seen == list(enumerate([0.0] + times[:-1]))
        # The event-at-a-time reference: the clock ends on the last
        # arrival or the last completion, whichever is later ...
        last_event = max(r.timestamp + r.e2e_ms / 1000.0 for r in records)
        assert stream.clock.now() == max(times[-1], last_event)
        # ... and already stood there when the live container's tail was
        # flushed, which truncates it at the clock.
        assert summary.gb_seconds == pytest.approx(
            provisioned(stream, "app")[1], rel=1e-12
        )
        assert summary.shed == stream._fleet("app").rejected == shed
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


class TestFederationStream:
    @staticmethod
    def build_federation(trace, policy=LeastLoadedPolicy, latency_ms=40.0):
        federation = RegionFederation(
            RegionTopology.fully_connected(["us", "eu"], default_ms=latency_ms),
            policy=policy(),
            platform=PLATFORM,
            fleet=FleetConfig(max_containers=2, keep_alive_s=60.0),
            seed=17,
        )
        deploy_trace(federation, trace)
        return federation

    @pytest.mark.parametrize("latency_ms", [0.0, 40.0])
    @pytest.mark.parametrize(
        "policy",
        [RoundRobinPolicy, LeastLoadedPolicy, lambda: LocalityPolicy(spillover_load=1)],
        ids=["round-robin", "least-loaded", "locality"],
    )
    def test_taps_agree_with_the_gateway_across_policies_and_latencies(
        self, policy, latency_ms
    ):
        # 0 ms is the edge: a forward is due the instant it is routed but
        # must still land on the *next* advance, from either front.
        trace = small_trace()
        tagged = list(
            assign_regions(
                compile_trace(trace, seed=3, scale=0.3), HashAffinity(["us", "eu"])
            )
        )
        federation = self.build_federation(trace, policy, latency_ms)
        direct, routes = [], []
        federation.run_stream(
            iter(tagged),
            WindowAccumulator(window_s=3600.0),
            on_record=lambda region, record: direct.append((region, record)),
            on_route=routes.append,
        )
        twin = self.build_federation(trace, policy, latency_ms)
        gateway = FederatedGateway(platform=twin)
        expose_trace(gateway, trace)
        through_urls = []
        summary = gateway.submit_stream(
            as_paths(iter(tagged)),
            WindowAccumulator(window_s=3600.0),
            on_record=lambda region, record: through_urls.append((region, record)),
        )
        assert through_urls == direct
        assert summary.completed == len(direct)
        assert twin.served_counts() == federation.served_counts()
        # One route per arrival, in arrival order, priced at its link.
        assert [origin for origin, _, _ in routes] == [item[3] for item in tagged]
        for origin, region, network_ms in routes:
            assert network_ms == federation.topology.latency_ms(origin, region)
            assert (network_ms > 0.0) == (origin != region and latency_ms > 0.0)
        served = Counter(region for _, region, _ in routes)
        assert {r: served[r] for r in ("us", "eu")} == federation.served_counts()

    def test_untagged_stream_defaults_to_first_region(self):
        trace = small_trace(windows=1)
        federation = self.build_federation(trace)
        gateway = FederatedGateway(platform=federation)
        expose_trace(gateway, trace)
        events = compile_trace(trace, seed=5, scale=0.1)
        summary = gateway.submit_stream(as_paths(events), WindowAccumulator(3600.0))
        assert summary.completed > 0
