"""Tests for the multi-region cluster federation and routing policies."""

import pytest

from repro.common.errors import DeploymentError, SpecError, WorkloadError
from repro.core.adaptive import WorkloadMonitor
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import (
    FederatedGateway,
    LeastLoadedPolicy,
    LocalityPolicy,
    RegionFederation,
    RegionSpec,
    RegionState,
    RegionTopology,
    RoundRobinPolicy,
    make_policy,
)
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.faas.snapshot import platform_state
from repro.metrics import RoutingSummary, WindowAccumulator
from repro.workloads.arrival import (
    merge_tagged_schedules,
    poisson_schedule,
    regional_poisson_schedules,
    tag_schedule,
)
from repro.workloads.popularity import zipf_mix
from tests.faas.serving import serve, serve_federated
from tests.faas.test_golden_regression import (
    FED_WINDOW_S,
    _fed_build,
    _fed_trace,
)


@pytest.fixture()
def config(small_ecosystem) -> SimAppConfig:
    return SimAppConfig(
        name="app",
        ecosystem=small_ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=200.0),
            EntryBehavior("heavy", calls=("libx:use_extra",), handler_self_ms=200.0),
        ),
    )


@pytest.fixture()
def platform_config() -> SimPlatformConfig:
    return SimPlatformConfig(
        cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
    )


def make_federation(
    platform_config,
    policy,
    regions=("us", "eu", "ap"),
    latency_ms=80.0,
    seed=0,
    **fleet_kwargs,
) -> RegionFederation:
    return RegionFederation(
        RegionTopology.fully_connected(regions, default_ms=latency_ms),
        policy=policy,
        platform=platform_config,
        fleet=FleetConfig(**fleet_kwargs),
        seed=seed,
    )


def from_origin(origin, *times, entry="main"):
    """Federated arrivals of the test app at ``origin``."""
    return [(time, "app", entry, origin) for time in times]


class TestRegionTopology:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: RegionTopology(["us", "us"]),
            lambda: RegionTopology([]),
            lambda: RegionSpec(""),
            lambda: RegionTopology(["us", "eu"], latency_ms={("us", "eu"): -1.0}),
            lambda: RegionTopology(["us"], latency_ms={("us", "mars"): 10.0}),
            lambda: LocalityPolicy(spillover_load=0),
            lambda: make_policy("random"),
        ],
        ids=["duplicate-name", "empty", "empty-name", "negative-latency",
             "unknown-region-in-matrix", "zero-spillover", "unknown-policy"],
    )
    def test_rejected(self, build):
        with pytest.raises(SpecError):
            build()

    @pytest.mark.parametrize(
        "matrix, default_ms, pair, expected",
        [
            ({("us", "eu"): 80.0}, 200.0, ("us", "eu"), 80.0),
            ({("us", "eu"): 80.0}, 200.0, ("eu", "us"), 80.0),  # reversed pair
            ({("us", "eu"): 80.0}, 200.0, ("us", "us"), 0.0),  # self, no entry
            ({("us", "eu"): 80.0, ("eu", "us"): 95.0}, 200.0, ("eu", "us"), 95.0),
            ({}, 120.0, ("us", "ap"), 120.0),  # the default fills missing pairs
        ],
        ids=["entry", "reversed", "self", "asymmetric", "default"],
    )
    def test_latency_lookup(self, matrix, default_ms, pair, expected):
        topo = RegionTopology(["us", "eu", "ap"], latency_ms=matrix, default_ms=default_ms)
        assert topo.latency_ms(*pair) == expected

    def test_nearest_orders_by_latency_then_name(self):
        topo = RegionTopology(
            ["us", "eu", "ap"],
            latency_ms={("us", "eu"): 70.0, ("us", "ap") : 180.0},
        )
        assert topo.nearest("us") == ["us", "eu", "ap"]

    def test_per_region_overrides_reach_platforms(self, platform_config):
        slow = SimPlatformConfig(cold_platform_ms=500.0)
        topo = RegionTopology(
            [RegionSpec("us"), RegionSpec("eu", platform=slow)]
        )
        federation = RegionFederation(topo, platform=platform_config)
        assert federation.platform("us").config.cold_platform_ms == 100.0
        assert federation.platform("eu").config.cold_platform_ms == 500.0

    def test_unknown_region_lookup_rejected(self, platform_config):
        federation = make_federation(platform_config, RoundRobinPolicy())
        with pytest.raises(SpecError):
            federation.platform("mars")


class TestPolicies:
    """Each row: a policy, ``(name, load, accepts)`` per region with
    latency = 10 ms x position, and its picks for origin ``us``."""

    @pytest.mark.parametrize(
        "policy, regions, picks",
        [
            (RoundRobinPolicy, [("us", 0, True), ("eu", 0, True), ("ap", 0, True)],
             ["us", "eu", "ap", "us"]),
            (RoundRobinPolicy, [("us", 0, True), ("eu", 0, False), ("ap", 0, True)],
             ["us", "ap", "ap"]),
            # eu and ap tie on load; eu is nearer.
            (LeastLoadedPolicy, [("us", 5, True), ("eu", 2, True), ("ap", 2, True)],
             ["eu"]),
            (LeastLoadedPolicy, [("us", 0, False), ("eu", 9, True)], ["eu"]),
            (LocalityPolicy, [("us", 50, True), ("eu", 0, True)], ["us"]),
            (lambda: LocalityPolicy(spillover_load=4),
             [("us", 4, True), ("eu", 5, True), ("ap", 1, True)], ["ap"]),
            (lambda: LocalityPolicy(spillover_load=2),
             [("us", 3, True), ("eu", 7, True)], ["us"]),
            (LocalityPolicy, [("us", 0, False), ("eu", 3, True)], ["eu"]),
            (LocalityPolicy, [("us", 0, False), ("eu", 0, False)], ["us"]),
        ],
        ids=["round-robin-cycles", "round-robin-skips-shedder",
             "least-loaded-then-nearest", "least-loaded-avoids-shedder",
             "locality-stays-home", "locality-spills-to-nearest-below",
             "locality-stays-when-none-below", "locality-fails-over",
             "locality-stays-when-all-shed"],
    )
    def test_choose(self, policy, regions, picks):
        chooser = policy()
        states = [
            RegionState(name=name, load=load, accepts=accepts, latency_ms=10.0 * i)
            for i, (name, load, accepts) in enumerate(regions)
        ]
        assert [chooser.choose("us", states) for _ in picks] == picks

    def test_make_policy_registry(self):
        assert isinstance(make_policy("round-robin"), RoundRobinPolicy)
        assert isinstance(make_policy("least-loaded"), LeastLoadedPolicy)
        locality = make_policy("locality", spillover_load=6)
        assert isinstance(locality, LocalityPolicy)
        assert locality.spillover_load == 6


class TestClusterRoutingHooks:
    @staticmethod
    def probe(platform, arrivals, check, until=0.0):
        """Land ``arrivals`` simultaneous requests, drain to ``until`` and
        ``check`` the platform there, mid-stream."""

        def stream():
            yield from [(0.0, "app", "main")] * arrivals
            platform.drain_to(until)
            check(platform, platform._fleet("app"))

        serve(platform, stream())

    def test_load_counts_queued_and_in_flight(self, platform_config, config):
        platform = ClusterPlatform(
            config=platform_config, fleet=FleetConfig(max_containers=1)
        )
        platform.deploy(config)
        assert platform.load("app") == 0
        loads = []
        # One being served, two queued.
        self.probe(platform, 3, lambda platform, _: loads.append(platform.load("app")))
        assert loads == [3]
        assert platform.load("app") == 0

    def test_accepts_tracks_shedding_boundary(self, platform_config, config):
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(max_containers=1, queue_capacity=2),
        )
        platform.deploy(config)
        # Empty fleet: one bootable container + capacity-2 queue.
        assert platform.accepts("app")
        accepts = []
        self.probe(
            platform, 3, lambda platform, _: accepts.append(platform.accepts("app"))
        )
        assert accepts == [False]  # the next arrival would shed

    def test_bookable_capacity_on_three_hand_built_fleets(
        self, platform_config, config
    ):
        # cap 2 x concurrency 2 = 4 bookable slots, queue of 1.
        fleet_config = FleetConfig(
            max_containers=2, max_concurrency=2, keep_alive_s=5.0, queue_capacity=1
        )
        checked = []

        def fleet_after(arrivals, until, check):
            platform = ClusterPlatform(config=platform_config, fleet=fleet_config)
            platform.deploy(config)

            def checked_at(platform, fleet):
                check(platform, fleet)
                checked.append(until)

            self.probe(platform, arrivals, checked_at, until)

        # Idle, keep-alive long gone, nothing has reaped it yet: the slot
        # counts in full whether the scan calls the container alive or not.
        def idle(platform, fleet):
            assert [c.active for c in fleet.containers] == [0]
            assert platform._expiry(fleet, fleet.containers[0], 60.0) < 60.0
            assert platform.bookable_capacity("app") == 4
            assert platform.accepts("app", extra=4)
            assert not platform.accepts("app", extra=5)

        fleet_after(arrivals=1, until=1.0, check=idle)

        # Booting: the request waits in the queue, no slot is taken yet.
        def booting(platform, fleet):
            assert (fleet.booting, fleet.in_flight, len(fleet.queue)) == (1, 0, 1)
            assert platform.bookable_capacity("app") == 4
            assert platform.accepts("app", extra=3)  # 1 queued + 1 + 3 <= 1 + 4
            assert not platform.accepts("app", extra=4)

        fleet_after(arrivals=1, until=0.0, check=booting)

        # Saturated past the cap: every slot busy and the queue at its
        # bound (the sixth arrival was shed).
        def saturated(platform, fleet):
            assert (fleet.in_flight, len(fleet.queue), fleet.rejected) == (4, 1, 1)
            assert platform.bookable_capacity("app") == 0
            assert not platform.accepts("app")

        fleet_after(arrivals=6, until=0.3, check=saturated)
        assert checked == [1.0, 0.0, 0.3]


class TestFederationTraffic:
    def test_forwarded_request_arrives_after_network_latency(
        self, platform_config, config
    ):
        # Round-robin's second pick leaves the origin deterministically.
        federation = make_federation(
            platform_config, RoundRobinPolicy(), latency_ms=250.0
        )
        federation.deploy(config)
        # -> us (local), then -> eu (+250 ms)
        records, routes = serve_federated(federation, from_origin("us", 1.0, 1.0))
        assert routes == [("us", "us", 0.0), ("us", "eu", 250.0)]
        assert {region: len(served) for region, served in records.items()} == {
            "us": 1, "eu": 1, "ap": 0,
        }
        assert records["eu"][0].timestamp == pytest.approx(1.25)

    def test_pending_counts_forwards_until_they_land(self, platform_config, config):
        seen = []

        class Recording(RoundRobinPolicy):
            def choose(self, origin, states, at=0.0, qos=None):
                seen.append({state.name: state.load for state in states})
                return super().choose(origin, states, at=at, qos=qos)

        federation = make_federation(platform_config, Recording(), latency_ms=250.0)
        federation.deploy(config)
        on_wire = []

        def arrivals():
            for time in (1.0, 1.0, 1.1):
                yield time, "app", "main", "us"
                on_wire.append(
                    tuple(federation.pending(r, "app") for r in ("us", "eu", "ap"))
                )

        serve_federated(federation, arrivals())
        # +1 when routed, -1 when it lands: the zero-latency forward to us
        # lands on the next advance, eu's (+250 ms) not before 1.25 s.
        assert on_wire == [(1, 0, 0), (0, 1, 0), (0, 1, 1)]
        assert all(federation.pending(r, "app") == 0 for r in ("us", "eu", "ap"))
        # At 1.1 s eu's fleet has seen nothing, yet the policy's load for
        # eu counts the request still on the wire.
        assert seen[2]["eu"] == 1

    def test_a_later_stream_continues_the_federation(
        self, platform_config, config
    ):
        federation = make_federation(platform_config, RoundRobinPolicy())
        federation.deploy(config)
        first, _ = serve_federated(federation, from_origin("us", 0.0))
        second, routes = serve_federated(federation, from_origin("us", 10.0))
        # Round-robin's cursor carried over: the second stream went to eu.
        assert routes == [("us", "eu", 80.0)]
        assert len(first["us"]) == len(second["eu"]) == 1
        assert federation.served_counts("app") == {"us": 1, "eu": 1, "ap": 0}

    @pytest.mark.parametrize(
        "deployed, arrivals, error",
        [
            (True, from_origin("us", 5.0, 4.0), WorkloadError),
            (True, from_origin("mars", 0.0), SpecError),
            (False, [(0.0, "app", "main")], DeploymentError),
        ],
        ids=["origin-time-goes-back", "unknown-origin", "undeployed-app"],
    )
    def test_refused_stream(self, platform_config, config, deployed, arrivals, error):
        federation = make_federation(platform_config, RoundRobinPolicy())
        if deployed:
            federation.deploy(config)
        with pytest.raises(error):
            serve_federated(federation, arrivals)

    def test_partial_deployment_routes_to_hosting_regions_only(
        self, platform_config, config
    ):
        federation = make_federation(platform_config, LocalityPolicy())
        federation.deploy(config, regions=("eu",))
        records, routes = serve_federated(federation, from_origin("us", 0.0))
        assert routes == [("us", "eu", 80.0)]
        assert records["eu"]

    def test_locality_spillover_offloads_hot_origin(
        self, platform_config, config
    ):
        federation = make_federation(
            platform_config,
            LocalityPolicy(spillover_load=2),
            regions=("us", "eu"),
            max_containers=1,
        )
        federation.deploy(config)
        serve_federated(federation, from_origin("us", *[0.0] * 5))
        counts = federation.served_counts("app")
        assert counts["us"] >= 2  # home-served until the threshold
        assert counts["eu"] >= 1  # spillover engaged


class TestDeterminism:
    @staticmethod
    def _run(config, platform_config, policy_factory):
        federation = make_federation(
            platform_config,
            policy_factory(),
            seed=42,
            max_containers=6,
            keep_alive_s=20.0,
        )
        federation.deploy(config)
        mix = zipf_mix(["main", "heavy"], seed=3)
        schedule = regional_poisson_schedules(
            mix, {"us": 6.0, "eu": 2.0, "ap": 1.0}, duration_s=300.0, seed=9
        )
        records, routes = serve_federated(
            federation,
            ((at, "app", entry, region) for at, entry, region in schedule),
        )
        return records, routes, federation.region_stats("app", records)

    @pytest.mark.parametrize(
        "policy_factory",
        [RoundRobinPolicy, LeastLoadedPolicy, LocalityPolicy],
        ids=["round-robin", "least-loaded", "locality"],
    )
    def test_identical_runs_bit_identical(
        self, config, platform_config, policy_factory
    ):
        one = self._run(config, platform_config, policy_factory)
        two = self._run(config, platform_config, policy_factory)
        assert one == two


class TestResults:
    def test_region_stats_cover_only_serving_regions(
        self, platform_config, config
    ):
        federation = make_federation(platform_config, LocalityPolicy())
        federation.deploy(config)
        records, _ = serve_federated(federation, from_origin("eu", 0.0))
        stats = federation.region_stats("app", records)
        assert set(stats) == {"eu"}
        assert stats["eu"].completed == 1

    def test_routing_summary_aggregates_the_route_tap(
        self, platform_config, config
    ):
        federation = make_federation(
            platform_config, RoundRobinPolicy(), latency_ms=100.0
        )
        federation.deploy(config)
        _, routes = serve_federated(federation, from_origin("us", 0.0, 1.0, 2.0))
        summary = RoutingSummary.from_assignments(routes)
        assert summary.count == 3
        assert summary.local == 1  # round-robin: us, eu, ap
        assert summary.forwarded == 2
        assert summary.network_ms.max_ms == 100.0


class TestRecordAndRouteTaps:
    """``run_stream``'s taps over the federation golden's failover and
    probabilistic + QoS scenarios."""

    @pytest.mark.parametrize(
        "scenario", ["locality_40ms_bounded_queue", "probabilistic_edge_cloud_qos"]
    )
    def test_taps_change_nothing_the_federation_reports(self, scenario):
        trace = _fed_trace()
        tapped, _, stream = _fed_build(scenario, trace)
        records, routes = [], []
        with_taps = tapped.run_stream(
            stream,
            WindowAccumulator(window_s=FED_WINDOW_S),
            on_record=lambda region, record: records.append(record),
            on_route=routes.append,
        )
        untapped, _, stream = _fed_build(scenario, trace)
        without = untapped.run_stream(stream, WindowAccumulator(window_s=FED_WINDOW_S))
        assert len(records) == with_taps.completed > 0
        assert len(routes) == sum(tapped.served_counts().values())
        assert with_taps == without
        assert tapped.served_counts() == untapped.served_counts()
        assert tapped.dropped_counts() == untapped.dropped_counts()
        for region in tapped.topology.names():
            assert platform_state(tapped.platform(region)) == platform_state(
                untapped.platform(region)
            )


class TestFederatedGateway:
    def test_tagged_schedule_replays_through_urls(
        self, platform_config, config
    ):
        federation = make_federation(platform_config, LocalityPolicy())
        federation.deploy(config)
        monitor = WorkloadMonitor(window_s=50.0, epsilon=0.5)
        gateway = FederatedGateway(platform=federation, monitor=monitor)
        gateway.expose("app", ("main", "heavy"))
        mix = zipf_mix(["main", "heavy"], seed=3)
        schedule = merge_tagged_schedules(
            [
                ("us", poisson_schedule(mix, 4.0, 200.0, seed=5)),
                ("eu", poisson_schedule(mix, 1.0, 200.0, seed=6)),
            ]
        )
        served = []
        gateway.submit_stream(
            ((at, f"/app/{entry}", origin) for at, entry, origin in schedule),
            WindowAccumulator(window_s=3600.0),
            on_record=lambda region, record: served.append(region),
        )
        assert len(served) == len(schedule)
        assert sum(gateway.hit_counts().values()) == len(schedule)
        assert len(monitor.decisions) == 3
        # Strict per-origin service: locality never forwarded anything.
        origins = [origin for _, _, origin in schedule]
        assert federation.served_counts("app") == {
            "us": origins.count("us"), "eu": origins.count("eu"), "ap": 0,
        }

    def test_untagged_items_default_to_first_region(
        self, platform_config, config
    ):
        federation = make_federation(platform_config, LocalityPolicy())
        federation.deploy(config)
        gateway = FederatedGateway(platform=federation)
        gateway.expose("app", ("main",))
        gateway.submit_stream(
            [(0.0, "/app/main"), (1.0, "/app/main", "eu")],
            WindowAccumulator(window_s=3600.0),
        )
        counts = federation.served_counts("app")
        assert counts == {"us": 1, "eu": 1, "ap": 0}

    def test_unknown_path_rejected(self, platform_config, config):
        federation = make_federation(platform_config, LocalityPolicy())
        federation.deploy(config)
        gateway = FederatedGateway(platform=federation)
        with pytest.raises(DeploymentError):
            gateway.submit_stream(
                [(0.0, "/ghost/main")], WindowAccumulator(window_s=3600.0)
            )

    def test_synchronous_request_rejected_with_clear_error(
        self, platform_config, config
    ):
        federation = make_federation(platform_config, LocalityPolicy())
        federation.deploy(config)
        gateway = FederatedGateway(platform=federation)
        gateway.expose("app", ("main",))
        with pytest.raises(DeploymentError, match="synchronous"):
            gateway.request("/app/main")


class TestTaggedSchedules:
    def test_tag_schedule_attaches_region(self):
        assert tag_schedule([(0.0, "a"), (1.0, "b")], "us") == [
            (0.0, "a", "us"),
            (1.0, "b", "us"),
        ]

    @pytest.mark.parametrize(
        "streams, merged",
        [
            ([("us", [(0.0, "a"), (2.0, "b")]), ("eu", [(1.0, "c")])],
             [(0.0, "a", "us"), (1.0, "c", "eu"), (2.0, "b", "us")]),
            # Ties break by stream position.
            ([("eu", [(1.0, "x")]), ("us", [(1.0, "y")])],
             [(1.0, "x", "eu"), (1.0, "y", "us")]),
        ],
        ids=["time-order", "ties-by-position"],
    )
    def test_merge_tagged_schedules(self, streams, merged):
        assert merge_tagged_schedules(streams) == merged

    def test_regional_poisson_rates_are_independent_per_region(self):
        mix = zipf_mix(["main"], seed=1)
        both = regional_poisson_schedules(
            mix, {"us": 2.0, "eu": 1.0}, duration_s=500.0, seed=4
        )
        us_only = regional_poisson_schedules(
            mix, {"us": 2.0}, duration_s=500.0, seed=4
        )
        # Dropping a region never perturbs the other's arrivals.
        assert [item for item in both if item[2] == "us"] == us_only
        times = [at for at, _, _ in both]
        assert times == sorted(times)
