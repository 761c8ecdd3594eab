"""Property-based tests for multi-region routing.

Two invariants pin the federation to the single-region semantics it
composes from:

* **Locality reduction** — a policy that keeps every request home, over
  independent per-region traffic, is *exactly* a set of independent
  single-region replays: per-region records, rejections, and cold starts
  are bit-identical to standalone :class:`ClusterPlatform` runs.
* **Failover safety** — least-loaded never routes a request to a region
  whose load-shedder would drop it while another region still accepts.

A third pins ``run_stream``'s taps to the counters the federation keeps
either way: every arrival is one route, and every route is one record
or one shed in the region it names.  A fourth holds least-loaded's
one-pass choice to the ``min`` it replaced.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_seed
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import (
    LeastLoadedPolicy,
    LocalityPolicy,
    RegionFederation,
    RegionState,
    RegionTopology,
    RoundRobinPolicy,
    RoutingPolicy,
)
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.metrics import WindowAccumulator
from repro.workloads.arrival import merge_tagged_schedules, poisson_schedule
from repro.workloads.popularity import zipf_mix
from tests.faas.serving import serve, serve_federated

REGIONS = ("us", "eu")

_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_rates = st.floats(min_value=0.5, max_value=10.0, allow_nan=False)
_jitters = st.sampled_from([0.0, 0.05])


@pytest.fixture(scope="module")
def app_config():
    from tests.conftest import make_dependent_library, make_small_library

    from repro.synthlib.spec import Ecosystem

    ecosystem = Ecosystem([make_small_library(), make_dependent_library()])
    ecosystem.validate()
    return SimAppConfig(
        name="app",
        ecosystem=ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=200.0),
            EntryBehavior("heavy", calls=("libx:use_extra",), handler_self_ms=200.0),
        ),
    )


class AlwaysHome(RoutingPolicy):  # strict locality: every request stays home
    def choose(self, origin, states, at=0.0, qos=None):
        return origin


class TestStrictLocalityEqualsSingleRegionReplay:
    @given(seed=_seeds, rate=_rates, jitter=_jitters)
    @settings(max_examples=15, deadline=None)
    def test_per_region_records_bit_identical(
        self, app_config, seed, rate, jitter
    ):
        platform_config = SimPlatformConfig(
            cold_platform_ms=100.0,
            runtime_init_ms=30.0,
            warm_platform_ms=1.0,
            jitter_sigma=jitter,
        )
        fleet = FleetConfig(max_containers=3, keep_alive_s=20.0, queue_capacity=1)
        mix = zipf_mix(["main", "heavy"])
        per_region = {
            region: poisson_schedule(
                mix, rate, duration_s=120.0, seed=derive_seed(seed, "traffic", region)
            )
            for region in REGIONS
        }

        federation = RegionFederation(
            RegionTopology.fully_connected(REGIONS, default_ms=80.0),
            policy=AlwaysHome(),
            platform=platform_config,
            fleet=fleet,
            seed=seed,
        )
        federation.deploy(app_config)
        tagged = list(merge_tagged_schedules(sorted(per_region.items())))
        federated, _ = serve_federated(
            federation,
            ((at, app_config.name, entry, region) for at, entry, region in tagged),
        )

        for region in REGIONS:
            solo = ClusterPlatform(
                config=platform_config,
                fleet=fleet,
                seed=derive_seed(seed, "region", region),
            )
            solo.deploy(app_config)
            records = serve(
                solo,
                ((at, app_config.name, entry) for at, entry in per_region[region]),
            )
            assert federated[region] == records
            if records:
                solo_fleet = solo._fleet(app_config.name)
                fed_fleet = federation.platform(region)._fleet(app_config.name)
                assert fed_fleet.rejected == solo_fleet.rejected
                assert fed_fleet.spawned == solo_fleet.spawned


class TestLeastLoadedFailoverSafety:
    @given(
        seed=_seeds,
        burst=st.integers(min_value=1, max_value=12),
        capacity=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=25, deadline=None)
    def test_never_routes_to_shedder_while_another_accepts(
        self, app_config, seed, burst, capacity
    ):
        platform_config = SimPlatformConfig(
            cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
        )
        federation = RegionFederation(
            RegionTopology.fully_connected(REGIONS, default_ms=80.0),
            policy=LeastLoadedPolicy(),
            platform=platform_config,
            fleet=FleetConfig(
                max_containers=2, max_concurrency=1, queue_capacity=capacity
            ),
            seed=seed,
        )
        federation.deploy(app_config)

        violations = []
        routes = []
        records = {region: [] for region in REGIONS}

        def arrivals():
            for i in range(burst):
                at = 0.001 * i  # near-simultaneous: fleets cannot drain between
                # The router's information set: fleet state plus its own
                # not-yet-delivered forwards (requests still on the wire),
                # against the shedder's one bookable count.
                accepting = set()
                for region in REGIONS:
                    platform = federation.platform(region)
                    fleet = platform._fleet(app_config.name)
                    queued = len(fleet.queue) + 1
                    queued += federation._pending.get((region, app_config.name), 0)
                    if queued <= capacity + platform._bookable_capacity(fleet):
                        accepting.add(region)
                yield at, app_config.name, "main", "us"
                # Routed by the time the stream asks for the next arrival.
                (_, chosen, _) = routes[-1]
                if accepting and chosen not in accepting:
                    violations.append((i, chosen, accepting))

        federation.run_stream(
            arrivals(),
            WindowAccumulator(window_s=3600.0),
            on_record=lambda region, record: records[region].append(record),
            on_route=routes.append,
        )
        assert len(routes) == burst
        assert violations == []

        # Shedding is bounded by true overload: each region books
        # max_containers slots plus `capacity` queue places, so nothing
        # is rejected until the *whole federation* is out of capacity.
        total_capacity = len(REGIONS) * (2 + capacity)
        rejected = sum(
            federation.platform(region)._fleet(app_config.name).rejected
            for region in REGIONS
        )
        if burst <= total_capacity:
            assert rejected == 0


class TestLeastLoadedChoiceEqualsMin:
    @given(
        states=st.lists(
            st.builds(
                RegionState,
                name=st.sampled_from(["ap", "eu", "us"]),
                load=st.integers(min_value=0, max_value=3),
                accepts=st.booleans(),
                # A NaN latency (a fresh object: tuples compare the same
                # object as equal) makes the key order non-transitive, so
                # the choice depends on the order comparisons are made in.
                latency_ms=st.sampled_from([0.0, 10.0, 80.0])
                | st.builds(float, st.just("nan")),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_choose_equals_min_over_the_accepting_states(self, states):
        def key(state):
            return (state.load, state.latency_ms, state.name)

        accepting = [state for state in states if state.accepts]
        oracle = min(accepting or states, key=key).name
        assert LeastLoadedPolicy().choose("us", states) == oracle


class TestTapsBalanceTheCounters:
    @given(
        seed=_seeds,
        rate=_rates,
        capacity=st.sampled_from([0, 1, None]),
        policy=st.sampled_from(
            [RoundRobinPolicy, LeastLoadedPolicy, lambda: LocalityPolicy(spillover_load=1)]
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_route_is_one_record_or_one_shed(
        self, app_config, seed, rate, capacity, policy
    ):
        federation = RegionFederation(
            RegionTopology.fully_connected(REGIONS, default_ms=80.0),
            policy=policy(),
            platform=SimPlatformConfig(
                cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
            ),
            fleet=FleetConfig(max_containers=2, queue_capacity=capacity),
            seed=seed,
        )
        federation.deploy(app_config)
        mix = zipf_mix(["main", "heavy"])
        tagged = list(merge_tagged_schedules(
            [
                (
                    region,
                    poisson_schedule(
                        mix, rate, 60.0, seed=derive_seed(seed, "traffic", region)
                    ),
                )
                for region in REGIONS
            ]
        ))
        records, routes = serve_federated(
            federation,
            ((at, app_config.name, entry, origin) for at, entry, origin in tagged),
        )
        assert [origin for origin, _, _ in routes] == [o for _, _, o in tagged]
        served = federation.served_counts()
        for region in REGIONS:
            fleet = federation.platform(region)._fleet(app_config.name)
            assert sum(r == region for _, r, _ in routes) == served[region]
            assert served[region] == fleet.arrivals
            assert len(records[region]) == fleet.arrivals - fleet.rejected
        for origin, region, network_ms in routes:
            assert network_ms == (0.0 if origin == region else 80.0)
