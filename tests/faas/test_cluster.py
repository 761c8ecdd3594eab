"""Tests for the cluster-scale concurrent FaaS simulator."""

import pytest

from repro.common.errors import DeploymentError, SpecError, WorkloadError
from repro.core.adaptive import WorkloadMonitor
from repro.faas.cluster import (
    ClusterPlatform,
    FleetConfig,
    FleetStats,
    replay_cluster_workload,
)
from repro.faas.gateway import Gateway
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.plan import DeferralPlan
from repro.synthlib.spec import ModuleKey
from repro.workloads.arrival import poisson_schedule
from repro.workloads.popularity import zipf_mix


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


def make_platform(platform_config, **fleet_kwargs) -> ClusterPlatform:
    return ClusterPlatform(
        config=platform_config, fleet=FleetConfig(**fleet_kwargs)
    )


class TestFleetConfigValidation:
    def test_rejects_zero_containers(self):
        with pytest.raises(SpecError):
            FleetConfig(max_containers=0)

    def test_rejects_zero_concurrency(self):
        with pytest.raises(SpecError):
            FleetConfig(max_concurrency=0)

    def test_rejects_negative_keep_alive(self):
        with pytest.raises(SpecError):
            FleetConfig(keep_alive_s=-1.0)

    def test_rejects_negative_queue_capacity(self):
        with pytest.raises(SpecError):
            FleetConfig(queue_capacity=-1)


class TestDeployment:
    def test_duplicate_deploy_rejected(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            platform.deploy(config)

    def test_unknown_app_rejected(self, platform_config):
        platform = make_platform(platform_config)
        with pytest.raises(DeploymentError):
            platform.submit("ghost", "main")

    def test_unknown_entry_rejected(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            platform.submit("app", "ghost")

    def test_redeploy_wrong_plan_app(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            platform.redeploy("app", DeferralPlan.empty("other"))

    def test_redeploy_with_inflight_requests_rejected(
        self, platform_config, config
    ):
        platform = make_platform(platform_config)
        platform.deploy(config)
        platform.submit("app", "main", at=0.0)
        platform.run(until=0.0)  # arrival processed, invocation in flight
        with pytest.raises(DeploymentError):
            platform.redeploy("app", DeferralPlan.empty("app"))


class TestScaleFromZero:
    def test_first_request_is_cold_and_queued_through_boot(
        self, platform_config, config
    ):
        platform = make_platform(platform_config)
        platform.deploy(config)
        record = platform.invoke("app", "main", at=0.0)
        assert record.cold
        assert record.init_ms > 0
        # The request waited through provisioning + init before service.
        boot_ms = platform_config.cold_platform_ms + record.init_ms
        assert record.queue_ms == pytest.approx(boot_ms)
        assert record.e2e_ms == pytest.approx(
            record.queue_ms + platform_config.warm_platform_ms + record.exec_ms
        )

    def test_concurrent_burst_scales_out(self, platform_config, config):
        platform = make_platform(platform_config, max_containers=16)
        platform.deploy(config)
        for _ in range(10):
            platform.submit("app", "main", at=0.0)
        records = platform.run()
        assert len(records) == 10
        assert sum(record.cold for record in records) == 10
        assert len({record.container_id for record in records}) == 10

    def test_max_containers_caps_fleet_and_queues_overflow(
        self, platform_config, config
    ):
        platform = make_platform(platform_config, max_containers=4)
        platform.deploy(config)
        for _ in range(8):
            platform.submit("app", "main", at=0.0)
        records = platform.run()
        assert len({record.container_id for record in records}) == 4
        assert sum(record.cold for record in records) == 4
        stats = platform.fleet_stats("app")
        assert stats.peak_containers == 4
        # The second wave of four waited for the first wave to finish.
        waits = sorted(record.queue_ms for record in records)
        assert waits[4] > waits[3]

    def test_warm_reuse_after_completion(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        first = platform.invoke("app", "main", at=0.0)
        second = platform.invoke("app", "main", at=10.0)
        assert first.cold and not second.cold
        assert second.container_id == first.container_id
        assert second.init_ms == 0.0
        assert second.queue_ms == 0.0


class TestConcurrencyPacking:
    def test_requests_pack_onto_one_container(self, platform_config, config):
        platform = make_platform(platform_config, max_concurrency=4)
        platform.deploy(config)
        for _ in range(4):
            platform.submit("app", "main", at=0.0)
        records = platform.run()
        assert len({record.container_id for record in records}) == 1
        assert sum(record.cold for record in records) == 1

    def test_overflow_beyond_concurrency_spawns(self, platform_config, config):
        platform = make_platform(platform_config, max_concurrency=2)
        platform.deploy(config)
        for _ in range(5):
            platform.submit("app", "main", at=0.0)
        records = platform.run()
        assert len({record.container_id for record in records}) == 3


class TestKeepAliveExpiry:
    def test_idle_expiry_forces_cold_start(self, platform_config, config):
        platform = make_platform(platform_config, keep_alive_s=5.0)
        platform.deploy(config)
        first = platform.invoke("app", "main", at=0.0)
        late = platform.invoke("app", "main", at=100.0)
        assert first.cold and late.cold
        assert late.container_id != first.container_id

    def test_reuse_within_keep_alive(self, platform_config, config):
        platform = make_platform(platform_config, keep_alive_s=1000.0)
        platform.deploy(config)
        first = platform.invoke("app", "main", at=0.0)
        later = platform.invoke("app", "main", at=900.0)
        assert not later.cold
        assert later.container_id == first.container_id

    def test_container_seconds_reflect_expiry(self, platform_config, config):
        platform = make_platform(platform_config, keep_alive_s=5.0)
        platform.deploy(config)
        first = platform.invoke("app", "main", at=0.0)
        platform.invoke("app", "main", at=100.0)
        stats = platform.fleet_stats("app")
        # First container lived boot + service + 5 s of keep-alive, then
        # retired; the second is still alive at the stats snapshot.
        first_lifetime = first.e2e_ms / 1000.0 + 5.0
        assert stats.container_seconds > first_lifetime
        assert stats.containers_spawned == 2


class TestQueueCapacity:
    def test_overflow_is_shed_and_counted(self, platform_config, config):
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(max_containers=1, queue_capacity=2),
        )
        platform.deploy(config)
        for _ in range(6):
            platform.submit("app", "main", at=0.0)
        records = platform.run()
        stats = platform.fleet_stats("app")
        # All six arrive while the only container boots: one rides the
        # booting slot, two wait in the queue, three are shed.
        assert stats.rejected == 3
        assert len(records) + stats.rejected == 6
        assert stats.arrivals == 6

    def test_zero_capacity_still_serves_bootable_requests(
        self, platform_config, config
    ):
        """capacity=0 throttles beyond fleet capacity; it is not reject-all."""
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(max_containers=2, queue_capacity=0),
        )
        platform.deploy(config)
        first = platform.invoke("app", "main", at=0.0)
        assert first.cold  # scale-from-zero served it
        warm = platform.invoke("app", "main", at=10.0)
        assert not warm.cold

    def test_sync_invoke_raises_when_shed(self, platform_config, config):
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(max_containers=1, queue_capacity=0),
        )
        platform.deploy(config)
        platform.submit("app", "main", at=0.0)
        with pytest.raises(WorkloadError):
            platform.invoke("app", "main", at=0.0)


class TestOrderingAndErrors:
    def test_past_arrival_rejected(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        platform.submit("app", "main", at=100.0)
        with pytest.raises(DeploymentError):
            platform.submit("app", "main", at=50.0)

    def test_fleet_stats_require_records(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        with pytest.raises(WorkloadError):
            platform.fleet_stats("app")

    def test_records_per_app(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        platform.invoke("app", "main", at=0.0)
        assert len(platform.records("app")) == 1
        platform.clear_history("app")
        assert platform.records("app") == []


class TestLanding:
    """``submit`` lands its arrival: an arrival is never a heap event."""

    def test_submit_is_reflected_once_it_returns(self, platform_config, config):
        platform = make_platform(platform_config, max_containers=1)
        platform.deploy(config)
        platform.submit("app", "main", at=0.0)
        # Queued through the boot it triggered: demand, no record yet.
        assert platform.load("app") == 1 and platform.records("app") == []
        assert platform.clock.now() == 0.0
        platform.submit("app", "main", at=5.0)
        # The first finished long before 5 s; the second is in service.
        assert platform.clock.now() == 5.0
        assert [r.timestamp for r in platform.records("app")] == [0.0, 5.0]
        assert platform.load("app") == 1
        # run(until=) cannot hold back what already landed.
        assert [r.timestamp for r in platform.run(until=1.0)] == [0.0, 5.0]

    def test_shed_invoke_raises_at_once(self, platform_config, config):
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(max_containers=1, queue_capacity=0),
        )
        platform.deploy(config)
        platform.submit("app", "main", at=0.0)
        pending = list(platform._events)
        with pytest.raises(
            WorkloadError, match=r"^request to 'app':'main' was shed \(queue full\)$"
        ):
            platform.invoke("app", "main", at=0.0)
        assert platform._events == pending  # no event was processed after it
        assert platform._fleet("app").rejected == 1

    def test_run_returns_each_record_exactly_once(self, platform_config, config):
        platform = make_platform(platform_config, max_containers=2)
        platform.deploy(config)
        returned = []
        platform.invoke("app", "main", at=0.0)
        platform.submit("app", "heavy", at=1.0)
        returned += platform.run(until=0.5)
        platform.submit("app", "main", at=2.0)
        platform.invoke("app", "heavy", at=3.0)
        returned += platform.run()
        assert platform.run() == []
        records = platform.records("app")
        assert len(records) == 4
        assert sorted(map(id, returned)) == sorted(map(id, records))
        platform.clear_history("app")
        platform.submit("app", "main", at=10.0)
        assert [r.timestamp for r in platform.run()] == [10.0]


class TestPlanIntegration:
    def test_deferral_plan_shortens_cold_boot(self, platform_config, config):
        plan = DeferralPlan(
            app="app", deferred_library_edges=frozenset({"libx.extra"})
        )
        baseline = make_platform(platform_config)
        baseline.deploy(config)
        optimized = make_platform(platform_config)
        optimized.deploy(config, plan=plan)
        cold_before = baseline.invoke("app", "main", at=0.0)
        cold_after = optimized.invoke("app", "main", at=0.0)
        assert cold_after.init_ms < cold_before.init_ms
        # 'main' never touches libx.extra, so no first-use penalty either.
        assert cold_after.exec_ms == pytest.approx(cold_before.exec_ms)

    def test_redeploy_applies_plan_to_next_containers(
        self, platform_config, config
    ):
        platform = make_platform(platform_config, keep_alive_s=5.0)
        platform.deploy(config)
        before = platform.invoke("app", "main", at=0.0)
        plan = DeferralPlan(
            app="app", deferred_library_edges=frozenset({"libx.extra"})
        )
        platform.run()  # drain so nothing is in flight
        platform.redeploy("app", plan)
        after = platform.invoke("app", "main", at=100.0)
        assert after.cold
        assert after.init_ms < before.init_ms


class TestSharedClosure:
    """Fleet containers share the compiled eager closure, like SimPlatform's."""

    PLAN = DeferralPlan(app="app", deferred_library_edges=frozenset({"libx.extra"}))
    EXTRA = {ModuleKey("libx", "extra"), ModuleKey("libx", "extra.heavy")}

    def test_cold_containers_share_the_compiled_closure(
        self, platform_config, config
    ):
        platform = make_platform(platform_config)
        platform.deploy(config)
        for _ in range(2):
            platform.submit("app", "main", at=0.0)
        platform.run()
        fleet = platform._fleet("app")
        first, second = fleet.containers
        assert first.loaded is fleet.compiled.eager_loaded
        assert second.loaded is fleet.compiled.eager_loaded

    def test_first_use_rebinds_one_container_only(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config, plan=self.PLAN)
        for _ in range(2):
            platform.submit("app", "main", at=0.0)
        platform.run()
        fleet = platform._fleet("app")
        eager = fleet.compiled.eager_loaded
        memory = {c.container_id: c.memory_mb for c in fleet.containers}
        record = platform.invoke("app", "heavy", at=10.0)  # warm first use
        assert not record.cold
        (served,) = [
            c for c in fleet.containers if c.container_id == record.container_id
        ]
        (sibling,) = [c for c in fleet.containers if c is not served]
        assert served.loaded == eager | self.EXTRA
        assert served.memory_mb > memory[served.container_id]
        assert sibling.loaded is eager
        assert sibling.memory_mb == memory[sibling.container_id]
        assert fleet.compiled.eager_loaded is eager
        assert eager == frozenset(fleet.compiled.eager_closure)

    def test_cold_chain_rebinds_one_container_only(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config, plan=self.PLAN)
        platform.submit("app", "heavy", at=0.0)
        platform.submit("app", "main", at=0.0)
        heavy, main = sorted(platform.run(), key=lambda record: record.entry)
        fleet = platform._fleet("app")
        eager = fleet.compiled.eager_loaded
        by_id = {c.container_id: c for c in fleet.containers}
        assert by_id[heavy.container_id].loaded == eager | self.EXTRA
        assert by_id[main.container_id].loaded is eager
        assert heavy.memory_mb > main.memory_mb
        assert eager == frozenset(fleet.compiled.eager_closure)


class TestGatewayIntegration:
    def test_sync_request_through_gateway(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        gateway = Gateway(platform)
        gateway.expose("app", ("main", "heavy"))
        record, decisions = gateway.request("/app/main", at=0.0)
        assert record.cold
        assert decisions == []

    def test_replay_workload_through_gateway(self, platform_config, config):
        platform = make_platform(platform_config, max_containers=16)
        platform.deploy(config)
        monitor = WorkloadMonitor(window_s=50.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main", "heavy"))
        mix = zipf_mix(["main", "heavy"], seed=3)
        schedule = poisson_schedule(mix, rate_per_s=4.0, duration_s=200.0, seed=5)
        records = replay_cluster_workload(platform, gateway, schedule, "app")
        assert len(records) == len(schedule)
        assert sum(gateway.hit_counts().values()) == len(schedule)
        # Arrival observation closed the expected number of windows.
        assert len(monitor.decisions) == 3


class TestDeterminism:
    @staticmethod
    def _run(config, jitter_sigma: float) -> tuple[list, FleetStats]:
        platform = ClusterPlatform(
            config=SimPlatformConfig(
                cold_platform_ms=100.0,
                runtime_init_ms=30.0,
                warm_platform_ms=1.0,
                jitter_sigma=jitter_sigma,
            ),
            fleet=FleetConfig(max_containers=12, keep_alive_s=20.0),
            seed=42,
        )
        platform.deploy(config)
        mix = zipf_mix(["main", "heavy"], seed=3)
        schedule = poisson_schedule(mix, rate_per_s=25.0, duration_s=400.0, seed=9)
        for at, entry in schedule:
            platform.submit("app", entry, at=at)
        records = platform.run()
        return records, platform.fleet_stats("app")

    def test_ten_thousand_invocations_bit_identical(self, config):
        """Acceptance: >= 10k invocations, >= 8 containers, reproducible."""
        records_one, stats_one = self._run(config, jitter_sigma=0.05)
        records_two, stats_two = self._run(config, jitter_sigma=0.05)
        assert len(records_one) >= 10_000
        assert stats_one.peak_containers >= 8
        assert stats_one.cold_starts > stats_one.peak_containers  # expiry churn
        assert records_one == records_two  # frozen dataclasses: exact floats
        assert stats_one == stats_two

    def test_jitter_free_runs_also_identical(self, config):
        records_one, _ = self._run(config, jitter_sigma=0.0)
        records_two, _ = self._run(config, jitter_sigma=0.0)
        assert records_one == records_two


class TestFleetStats:
    def test_stats_shape(self, platform_config, config):
        platform = make_platform(platform_config, max_containers=8)
        platform.deploy(config)
        mix = zipf_mix(["main", "heavy"], seed=3)
        schedule = poisson_schedule(mix, rate_per_s=5.0, duration_s=100.0, seed=2)
        for at, entry in schedule:
            platform.submit("app", entry, at=at)
        platform.run()
        stats = platform.fleet_stats("app")
        assert stats.completed == len(schedule)
        assert stats.arrivals == len(schedule)
        assert 0.0 < stats.cold_start_rate <= 1.0
        assert stats.offered_load.per_second == pytest.approx(5.0, rel=0.5)
        assert stats.queueing.count == stats.completed
        assert stats.container_seconds > 0.0
        assert stats.peak_containers <= 8
