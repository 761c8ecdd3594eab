"""Tests for the pluggable autoscaler policy subsystem."""

import math

import pytest

from repro.common.errors import SpecError
from repro.faas.autoscale import (
    SCALING_POLICY_NAMES,
    FleetView,
    PanicWindow,
    PerRequest,
    ScalingPolicy,
    TargetUtilization,
    make_scaling_policy,
)
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import (
    LeastLoadedPolicy,
    RegionFederation,
    RegionSpec,
    RegionTopology,
)
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.metrics import PricingModel
from tests.faas.serving import (
    container_seconds,
    serve,
    serve_federated,
    serve_with_summary,
)


@pytest.fixture()
def config(small_ecosystem) -> SimAppConfig:
    return SimAppConfig(
        name="app",
        ecosystem=small_ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=200.0),
        ),
    )


@pytest.fixture()
def platform_config() -> SimPlatformConfig:
    return SimPlatformConfig(
        cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
    )


def make_platform(platform_config, policy, **fleet_kwargs) -> ClusterPlatform:
    return ClusterPlatform(
        config=platform_config,
        fleet=FleetConfig(policy=policy, **fleet_kwargs),
    )


def view(**overrides) -> FleetView:
    base = dict(
        now=0.0,
        queued=0,
        in_flight=0,
        live_containers=0,
        booting_slots=0,
        max_containers=8,
        max_concurrency=1,
    )
    base.update(overrides)
    return FleetView(**base)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TargetUtilization(target=0.0),
        lambda: TargetUtilization(target=1.5),
        lambda: TargetUtilization(target=-0.3),
        lambda: TargetUtilization(scale_to_zero_grace_s=-1.0),
        lambda: PanicWindow(panic_window_s=0.0),
        lambda: PanicWindow(stable_window_s=-5.0),
        lambda: PanicWindow(panic_window_s=120.0, stable_window_s=60.0),
        lambda: PanicWindow(panic_threshold=1.0),
        lambda: FleetConfig(policy="per-request"),
        lambda: make_scaling_policy("reactive"),
    ],
    ids=["target-0", "target-1.5", "target-negative", "negative-grace",
         "zero-panic-window", "negative-stable-window", "panic-past-stable",
         "threshold-1", "policy-by-name", "unknown-name"],
)
def test_rejected(build):
    with pytest.raises(SpecError):
        build()


@pytest.mark.parametrize(
    "name, kwargs, expected",
    [
        *((name, {}, None) for name in SCALING_POLICY_NAMES),
        ("panic-window", dict(target=0.5, panic_window_s=3.0, panic_threshold=4.0),
         PanicWindow(target=0.5, panic_window_s=3.0, panic_threshold=4.0)),
    ],
    ids=[*SCALING_POLICY_NAMES, "panic-window-parameters"],
)
def test_make_scaling_policy(name, kwargs, expected):
    policy = make_scaling_policy(name, **kwargs)
    assert isinstance(policy, ScalingPolicy)
    assert policy.name == name
    if expected is not None:
        assert policy == expected


class TestScaleOutDecisions:
    @pytest.mark.parametrize(
        "policy, fleet, wanted",
        [
            # Per-request covers the queue, net of booting slots ...
            (PerRequest(), dict(queued=3), 3),
            (PerRequest(), dict(queued=3, booting_slots=2), 1),
            (PerRequest(), dict(queued=2, booting_slots=2), 0),
            # ... rounded up by concurrency.
            (PerRequest(), dict(queued=5, max_concurrency=4), 2),
            # 4 in flight at target 0.5 wants 8 slots; 4 live -> 4 more.
            (TargetUtilization(target=0.5), dict(in_flight=4, live_containers=4), 4),
            # Six queued need six slots; one live container holds one.
            (TargetUtilization(target=1.0), dict(queued=6, live_containers=1), 5),
        ],
        ids=["per-request-queue", "per-request-net-of-booting", "per-request-covered",
             "per-request-concurrency", "target-headroom", "target-backlog"],
    )
    def test_scale_out(self, policy, fleet, wanted):
        assert policy.scale_out(None, view(**fleet)) == wanted

    def test_panic_needs_a_baseline_to_contrast_against(self):
        policy = PanicWindow(stable_window_s=60.0, panic_window_s=6.0)
        state = policy.new_state()
        # A scale-from-zero pair is NOT a burst: with no quiet history
        # both windows see the same rate, so the ratio stays 1.
        for at in (0.0, 0.5):
            policy.observe_arrival(state, at)
            policy.scale_out(state, view(now=at, queued=1))
        assert state.panic_until <= 0.5
        assert state.episodes == []
        # Sparse baseline traffic, then a genuine burst against it.
        for at in (10.0, 20.0, 30.0, 40.0, 50.0):
            policy.observe_arrival(state, at)
            policy.scale_out(state, view(now=at, queued=1))
        assert state.panic_until <= 50.0
        last = 0.0
        for i in range(6):
            last = 60.0 + 0.1 * i
            policy.observe_arrival(state, last)
            policy.scale_out(state, view(now=last, queued=1))
        assert last < state.panic_until
        assert state.episodes
        # The episode opened at the first trigger and was extended while
        # the burst persisted: the deadline tracks the latest trigger.
        assert state.episodes[-1][1] == pytest.approx(
            last + policy.stable_window_s
        )

    def test_steady_traffic_never_panics(self):
        policy = PanicWindow(stable_window_s=60.0, panic_window_s=6.0)
        state = policy.new_state()
        # One arrival every 2 s: both windows always estimate the same
        # rate (history-normalized), so the burst factor stays 1 from
        # the very first arrival — including during startup.
        for i in range(120):
            now = 2.0 * i
            policy.observe_arrival(state, now)
            policy.scale_out(state, view(now=now, queued=1))
        assert state.episodes == []
        assert state.panic_until <= 0.0


class TestScaleDownBehaviour:
    def test_scale_to_zero_grace_extends_only_last_container(
        self, config, platform_config
    ):
        policy = TargetUtilization(target=1.0, scale_to_zero_grace_s=100.0)
        platform = make_platform(
            platform_config, policy, max_containers=8, keep_alive_s=10.0
        )
        platform.deploy(config)
        serve(platform, [(0.0, "app", "main")] * 4)
        # Past keep-alive every container but the graced last one is gone.
        assert platform.live_containers("app", at=30.0) == 1
        # Past keep-alive + grace the fleet reaches zero.
        assert platform.live_containers("app", at=130.0) == 0

    def test_panic_suspends_keep_alive_expiry(self, config, platform_config):
        policy = PanicWindow(
            target=1.0, stable_window_s=60.0, panic_window_s=6.0
        )
        platform = make_platform(
            platform_config, policy, max_containers=16, keep_alive_s=5.0
        )
        platform.deploy(config)
        # Sparse baseline (every request cold: gaps exceed keep-alive),
        # then a burst the detector can contrast against it.
        baseline = [(at, "app", "main") for at in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)]
        burst = [(60.0 + 0.001 * i, "app", "main") for i in range(8)]
        serve(platform, baseline + burst)
        state = platform.scaling_state("app")
        assert state.episodes  # the burst (not the baseline) panicked
        assert state.episodes[0][0] >= 60.0
        until = state.panic_until
        # Keep-alive (5 s) elapsed long ago, but scale-down is suspended:
        # the burst's containers all survive to the panic deadline.
        assert platform.live_containers("app", at=until - 1.0) == 8
        # After the panic deadline the fleet drains normally.
        assert platform.live_containers("app", at=until + 1.0) == 0
        (probe,) = serve(platform, [(until - 1.0, "app", "main")])
        assert not probe.cold

    def test_per_request_expiry_is_plain_keep_alive(self, config, platform_config):
        platform = make_platform(
            platform_config, PerRequest(), keep_alive_s=5.0
        )
        platform.deploy(config)
        (first,) = serve(platform, [(0.0, "app", "main")])  # drained: idle
        finished = first.timestamp + first.e2e_ms / 1000.0
        assert platform.live_containers("app", at=finished + 4.9) == 1
        assert platform.live_containers("app", at=finished + 5.1) == 0


class TestSheddingInteraction:
    """Bounded-queue shedding under each policy: a shed request must not
    trigger scale-out (and never feeds the policy's traffic estimate)."""

    @pytest.mark.parametrize(
        "policy",
        [PerRequest(), TargetUtilization(target=0.7), PanicWindow(target=0.7)],
        ids=lambda p: p.name,
    )
    def test_shed_request_boots_no_container(
        self, config, platform_config, policy
    ):
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(
                max_containers=2, queue_capacity=0, policy=policy
            ),
        )
        platform.deploy(config)
        records = serve(platform, [(0.0, "app", "main")] * 6)
        fleet = platform._fleet("app")
        # Two bookable slots: four of six arrivals are shed, and the shed
        # ones bring no containers with them.
        assert fleet.rejected == 4
        assert len(records) == 2
        assert fleet.spawned == 2

    def test_shed_requests_invisible_to_panic_estimate(
        self, config, platform_config
    ):
        policy = PanicWindow(target=1.0)
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(
                max_containers=2, queue_capacity=0, policy=policy
            ),
        )
        platform.deploy(config)
        serve(platform, [(0.001 * i, "app", "main") for i in range(10)])
        fleet = platform._fleet("app")
        state = platform.scaling_state("app")
        admitted = fleet.arrivals - fleet.rejected
        assert fleet.rejected == 8
        assert len(state.arrivals) == admitted


class TestFederationInteraction:
    """Shedding + autoscaler policies compose with cross-region failover."""

    @pytest.mark.parametrize(
        "policy",
        [PerRequest(), TargetUtilization(target=0.7), PanicWindow(target=0.7)],
        ids=lambda p: p.name,
    )
    def test_failover_routes_around_shedding_fleet(self, config, policy):
        federation = RegionFederation(
            RegionTopology.fully_connected(("us", "eu"), default_ms=50.0),
            policy=LeastLoadedPolicy(),
            platform=SimPlatformConfig(
                cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
            ),
            fleet=FleetConfig(
                max_containers=1, queue_capacity=0, policy=policy
            ),
        )
        federation.deploy(config)
        records, _ = serve_federated(
            federation, [(0.001 * i, "app", "main", "us") for i in range(4)]
        )
        served = federation.served_counts("app")
        # Two bookable slots across the topology: the router uses both
        # regions, the overflow is shed, and — the invariant under test —
        # the shed requests boot no containers anywhere.
        assert sum(served.values()) == 4
        assert min(served.values()) >= 1
        fleets = [federation.platform(region)._fleet("app") for region in ("us", "eu")]
        assert sum(fleet.rejected for fleet in fleets) == 2
        assert sum(len(served) for served in records.values()) == 2
        assert [fleet.spawned for fleet in fleets] == [1, 1]

    def test_per_region_scaling_policy_override(self, config):
        topology = RegionTopology(
            (
                RegionSpec(
                    "bursty",
                    fleet=FleetConfig(
                        max_containers=16,
                        keep_alive_s=5.0,
                        policy=PanicWindow(target=1.0),
                    ),
                ),
                RegionSpec("steady"),
            ),
            default_ms=50.0,
        )
        federation = RegionFederation(
            topology,
            policy=LeastLoadedPolicy(),
            platform=SimPlatformConfig(
                cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
            ),
            fleet=FleetConfig(max_containers=16, keep_alive_s=5.0),
        )
        federation.deploy(config)
        bursty = federation.platform("bursty")
        steady = federation.platform("steady")
        assert isinstance(
            bursty._fleet("app").policy, PanicWindow
        )
        assert steady._fleet("app").policy == PerRequest()


class TestCostView:
    def test_summary_prices_gb_seconds(self, config, platform_config):
        platform = make_platform(platform_config, PerRequest(), keep_alive_s=10.0)
        platform.deploy(config)
        pricing = PricingModel(
            per_gb_second=0.001,
            per_million_requests=100.0,
            cold_start_surcharge=0.5,
        )
        _, stats = serve_with_summary(platform, [(0.0, "app", "main")], pricing)
        assert stats.gb_seconds > 0.0
        assert stats.cost.compute_cost == pytest.approx(stats.gb_seconds * 0.001)
        assert stats.cost.request_cost == pytest.approx(1 * 100.0 / 1e6)
        assert stats.cost.cold_start_cost == pytest.approx(0.5)
        assert stats.cost.total_cost == pytest.approx(
            stats.cost.compute_cost
            + stats.cost.request_cost
            + stats.cost.cold_start_cost
        )
        assert stats.cost.per_1k_requests == pytest.approx(
            stats.cost.total_cost * 1000.0
        )

    def test_gb_seconds_weigh_lifetime_by_memory(self, config, platform_config):
        platform = make_platform(platform_config, PerRequest(), keep_alive_s=10.0)
        platform.deploy(config)
        (record,), stats = serve_with_summary(platform, [(0.0, "app", "main")])
        assert stats.gb_seconds == pytest.approx(
            container_seconds(platform, "app") * record.memory_mb / 1024.0
        )
        assert stats.cost.total_cost > 0.0  # priced at the default model

    def test_lazy_reaps_retire_at_the_expiry(self, config, platform_config):
        platform = make_platform(platform_config, PerRequest(), keep_alive_s=5.0)
        platform.deploy(config)
        fleet = platform._fleet("app")
        (first,) = serve(platform, [(0.0, "app", "main")])
        assert fleet.retired_container_seconds == 0.0  # idle, not yet reaped
        serve(platform, [(100.0, "app", "main")])
        # The next arrival reaped it, stamped at its keep-alive expiry.
        assert first.container_id not in {c.container_id for c in fleet.containers}
        finished = first.timestamp + first.e2e_ms / 1000.0
        assert fleet.retired_container_seconds == pytest.approx(finished + 5.0)


class TestFleetView:
    def test_demand_sums_queue_and_in_flight(self):
        assert view(queued=3, in_flight=2).demand == 5

    def test_view_is_immutable(self):
        with pytest.raises(Exception):
            view().queued = 7

    def test_base_idle_expiry_is_keep_alive(self):
        assert ScalingPolicy().idle_expiry(None, 10.0, 60.0, True) == 70.0

    def test_panic_idle_expiry_defers_to_panic_deadline(self):
        policy = PanicWindow()
        state = policy.new_state()
        state.panic_until = 500.0
        assert policy.idle_expiry(state, 10.0, 60.0, False) == 500.0
        assert policy.idle_expiry(state, 490.0, 60.0, False) == 550.0
        assert not math.isinf(state.panic_until)
