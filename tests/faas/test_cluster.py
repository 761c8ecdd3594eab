"""Tests for the cluster-scale concurrent FaaS simulator."""

from dataclasses import replace

import pytest

from repro.common.errors import DeploymentError, SpecError, WorkloadError
from repro.common.rng import LogNormalStream, derive_seed
from repro.core.adaptive import WorkloadMonitor
from repro.faas.cluster import (
    _COMPLETE,
    _READY,
    ClusterPlatform,
    FleetConfig,
)
from repro.faas.gateway import Gateway
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.metrics import WindowAccumulator
from repro.plan import DeferralPlan
from repro.synthlib.spec import ModuleKey
from repro.workloads.arrival import poisson_schedule
from repro.workloads.popularity import zipf_mix
from tests.faas.serving import Emitted, replay, serve


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


def at(*times, entry="main"):
    """Arrivals for the test app's ``entry`` at each of ``times``."""
    return [(time, "app", entry) for time in times]


@pytest.mark.parametrize(
    "fleet",
    [dict(max_containers=0), dict(max_concurrency=0), dict(keep_alive_s=-1.0),
     dict(queue_capacity=-1)],
    ids=lambda fleet: next(iter(fleet)),
)
def test_fleet_config_rejects(fleet):
    with pytest.raises(SpecError):
        FleetConfig(**fleet)


class TestDeployment:
    @pytest.mark.parametrize(
        "act",
        [
            lambda platform, config: platform.deploy(config),
            lambda platform, config: serve(platform, [(0.0, "ghost", "main")]),
            lambda platform, config: serve(platform, at(0.0, entry="ghost")),
            lambda platform, config: platform.redeploy("app", DeferralPlan.empty("other")),
        ],
        ids=["duplicate-deploy", "unknown-app", "unknown-entry", "plan-for-another-app"],
    )
    def test_rejected(self, platform_config, config, act):
        platform = make_platform(platform_config)
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            act(platform, config)

    def test_redeploy_with_inflight_requests_rejected(
        self, platform_config, config
    ):
        platform = make_platform(platform_config)
        platform.deploy(config)

        def arrivals():
            yield 0.0, "app", "main"
            # The arrival landed and is waiting on its boot, mid-stream.
            with pytest.raises(DeploymentError, match="in flight"):
                platform.redeploy("app", DeferralPlan.empty("app"))

        assert len(serve(platform, arrivals())) == 1


class TestScaleFromZero:
    def test_first_request_is_cold_and_queued_through_boot(
        self, platform_config, config
    ):
        platform = make_platform(platform_config)
        platform.deploy(config)
        (record,) = serve(platform, at(0.0))
        assert record.cold
        assert record.init_ms > 0
        # The request waited through provisioning + init before service.
        boot_ms = platform_config.cold_platform_ms + record.init_ms
        assert record.queue_ms == pytest.approx(boot_ms)
        assert record.e2e_ms == pytest.approx(
            record.queue_ms + platform_config.warm_platform_ms + record.exec_ms
        )

    def test_max_containers_caps_fleet_and_queues_overflow(
        self, platform_config, config
    ):
        platform = make_platform(platform_config, max_containers=4)
        platform.deploy(config)
        records, _, emitted = replay(platform, at(*[0.0] * 8))
        assert len({record.container_id for record in records}) == 4
        assert sum(record.cold for record in records) == 4
        assert emitted.peak_containers() == 4
        # The second wave of four waited for the first wave to finish.
        waits = sorted(record.queue_ms for record in records)
        assert waits[4] > waits[3]


@pytest.mark.parametrize(
    "fleet, times, expected",
    [
        (dict(max_containers=16), [0.0] * 10, (10, 10, 0)),  # a burst scales out
        (dict(), [0.0, 10.0], (1, 1, 0)),  # warm reuse after completion
        (dict(max_concurrency=4), [0.0] * 4, (1, 1, 0)),  # packs onto one
        (dict(max_concurrency=2), [0.0] * 5, (3, 3, 0)),  # overflow spawns
        (dict(keep_alive_s=5.0), [0.0, 100.0], (2, 2, 0)),  # idle expiry: cold again
        (dict(keep_alive_s=1000.0), [0.0, 900.0], (1, 1, 0)),  # reuse within it
        # Six arrive while the only container boots: one rides the booting
        # slot, two wait in the queue, three are shed.
        (dict(max_containers=1, queue_capacity=2), [0.0] * 6, (1, 1, 3)),
        # capacity 0 throttles beyond fleet capacity; it is not reject-all.
        (dict(max_containers=2, queue_capacity=0), [0.0, 10.0], (1, 1, 0)),
        (dict(max_containers=1, queue_capacity=0), [0.0, 0.0], (1, 1, 1)),
    ],
    ids=["burst", "warm-reuse", "pack", "overflow-concurrency", "keep-alive-expiry",
         "keep-alive-reuse", "queue-overflow-shed", "zero-queue-serves",
         "zero-queue-sheds"],
)
def test_fleet_shape(platform_config, config, fleet, times, expected):
    """``(containers spawned, cold starts, shed)`` of one hand-built stream."""
    platform = make_platform(platform_config, **fleet)
    platform.deploy(config)
    records, summary, emitted = replay(platform, at(*times))
    cold_starts = sum(record.cold for record in records)
    assert (emitted.spawned(), cold_starts, summary.shed) == expected
    assert len({record.container_id for record in records}) == expected[0]
    assert len(records) + summary.shed == summary.arrivals == len(times)


class TestOrderingAndErrors:
    def test_past_arrival_rejected(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            serve(platform, at(100.0, 50.0))
        # A later stream may not go back behind the last one either.
        with pytest.raises(DeploymentError):
            serve(platform, at(99.0))

    def test_boots_are_per_app(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config)
        platform.deploy(replace(config, name="other"))
        records, _, emitted = replay(
            platform, [(0.0, "app", "main"), (0.0, "other", "main")]
        )
        assert [r.app for r in records] == ["app", "other"]
        for name in ("app", "other"):
            assert (emitted.spawned(name), emitted.peak_containers(name)) == (1, 1)


class TestLanding:
    """An arrival lands before the stream yields the next: never an event."""

    def test_a_landed_arrival_is_reflected_before_the_next(
        self, platform_config, config
    ):
        platform = make_platform(platform_config, max_containers=1)
        platform.deploy(config)
        records, seen = [], []

        def arrivals():
            yield 0.0, "app", "main"
            # Queued through the boot it triggered: demand, no record yet.
            seen.append((platform.load("app"), len(records)))
            yield 5.0, "app", "main"
            # The first finished long before 5 s; the second is in service.
            seen.append((platform.load("app"), len(records)))

        platform.run_stream(
            arrivals(), WindowAccumulator(window_s=3600.0), on_record=records.append
        )
        assert seen == [(1, 0), (1, 2)]
        assert [r.timestamp for r in records] == [0.0, 5.0]
        assert platform.load("app") == 0

    def test_a_shed_arrival_is_counted_before_the_next(
        self, platform_config, config
    ):
        platform = ClusterPlatform(
            config=platform_config,
            fleet=FleetConfig(max_containers=1, queue_capacity=0),
        )
        platform.deploy(config)
        emitted = Emitted()
        records, seen = [], []

        def arrivals():
            yield 0.0, "app", "main"
            pending = list(platform._events)
            yield 0.0, "app", "main"  # nothing left to book: shed
            # Emitted at once, with no event processed after it.
            seen.append((len(emitted.sheds), platform._events == pending, len(records)))

        summary = platform.run_stream(arrivals(), emitted, on_record=records.append)
        assert seen == [(1, True, 0)]
        assert len(records) == summary.completed == 1
        assert summary.shed == 1

    def test_capacity_released_at_t_serves_an_arrival_at_t(
        self, platform_config, config
    ):
        # The instant the first request finishes, read off a twin run.
        twin = make_platform(platform_config, max_containers=2)
        twin.deploy(config)
        serve(twin, at(0.0))
        (container,) = twin._fleet("app").containers
        finished = container.idle_since
        platform = make_platform(platform_config, max_containers=2)
        platform.deploy(config)
        (first, second), _, emitted = replay(platform, at(0.0, finished))
        # The completion at ``finished`` drained before the arrival landed:
        # a warm hit on the same container, and no second boot.
        assert (second.cold, second.queue_ms) == (False, 0.0)
        assert second.container_id == first.container_id
        assert emitted.spawned() == 1

    def test_equal_time_events_pop_ready_first_then_in_push_order(
        self, platform_config, config
    ):
        platform = make_platform(platform_config)
        platform.deploy(config)
        popped = []
        platform._on_ready = lambda at, name, seq: popped.append(("ready", seq))
        platform._on_complete = lambda at, name, seq, token: popped.append(
            ("complete", seq)
        )
        for kind, seq in ((_COMPLETE, 1), (_READY, 2), (_COMPLETE, 3), (_READY, 4)):
            payload = ("app", seq) if kind == _READY else ("app", seq, 0)
            platform._push(5.0, kind, payload)
        platform._drain_until(5.0)
        assert popped == [
            ("ready", 2), ("ready", 4), ("complete", 1), ("complete", 3),
        ]

    def test_the_tap_sees_each_record_exactly_once(self, platform_config, config):
        platform = make_platform(platform_config, max_containers=2)
        platform.deploy(config)
        first, one, _ = replay(platform, at(0.0) + at(1.0, entry="heavy"))
        second, two, _ = replay(platform, at(2.0) + at(3.0, entry="heavy"))
        assert [(r.timestamp, r.entry) for r in first + second] == [
            (0.0, "main"), (1.0, "heavy"), (2.0, "main"), (3.0, "heavy"),
        ]
        assert len({id(record) for record in first + second}) == 4
        assert serve(platform, []) == []
        assert one.arrivals + two.arrivals == 4


class TestJitterDrawOrder:
    """Each fleet draws its own log-normal factors: the init factor when
    a container boots, the exec factor when a request starts service."""

    def test_factors_follow_the_fleets_own_stream(self, config):
        quiet = SimPlatformConfig(
            cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
        )
        noisy = replace(quiet, jitter_sigma=0.3)
        other = replace(config, name="other")
        base = ClusterPlatform(config=quiet, seed=7)
        base.deploy(config)
        cold, warm = serve(base, at(0.0, 10.0))
        platform = ClusterPlatform(config=noisy, seed=7)
        platform.deploy(config)
        platform.deploy(other)
        # Another app's boots and requests interleave; they draw from
        # their own stream and move none of this fleet's factors.
        arrivals = [(0.0, "other", "main"), (0.0, "app", "main"),
                    (5.0, "other", "main"), (10.0, "app", "main")]
        records = [r for r in serve(platform, arrivals) if r.app == "app"]
        stream = LogNormalStream(derive_seed(7, "jitter", "app"), 0.3)
        init, first, second = (
            stream.pop() if stream else stream.refill_pop() for _ in range(3)
        )
        assert records[0].init_ms == cold.init_ms * init
        assert records[0].exec_ms == cold.exec_ms * first
        assert records[1].exec_ms == warm.exec_ms * second


class TestPlanIntegration:
    def test_deferral_plan_shortens_cold_boot(self, platform_config, config):
        plan = DeferralPlan(
            app="app", deferred_library_edges=frozenset({"libx.extra"})
        )
        baseline = make_platform(platform_config)
        baseline.deploy(config)
        optimized = make_platform(platform_config)
        optimized.deploy(config, plan=plan)
        (cold_before,) = serve(baseline, at(0.0))
        (cold_after,) = serve(optimized, at(0.0))
        assert cold_after.init_ms < cold_before.init_ms
        # 'main' never touches libx.extra, so no first-use penalty either.
        assert cold_after.exec_ms == pytest.approx(cold_before.exec_ms)

    def test_redeploy_applies_plan_to_next_containers(
        self, platform_config, config
    ):
        platform = make_platform(platform_config, keep_alive_s=5.0)
        platform.deploy(config)
        (before,) = serve(platform, at(0.0))  # drained: nothing in flight
        plan = DeferralPlan(
            app="app", deferred_library_edges=frozenset({"libx.extra"})
        )
        platform.redeploy("app", plan)
        (after,) = serve(platform, at(100.0))
        assert after.cold
        assert after.init_ms < before.init_ms

    def test_redeploy_between_streams_charges_the_retired_container_once(
        self, platform_config, config
    ):
        platform = make_platform(platform_config, keep_alive_s=1000.0)
        platform.deploy(config)
        fleet = platform._fleet("app")
        (before,), _, first = replay(platform, at(0.0))
        (container,) = fleet.containers
        # The stream's end charged the live container up to the clock ...
        ended = platform.clock.now()
        assert first.lifetimes() == [(0.0, ended, container.memory_mb)]
        # ... and no stream is open to tell when redeploy retires it.
        platform.redeploy("app", DeferralPlan.empty("app"))
        assert fleet.containers == []
        (after,), _, second = replay(platform, at(10.0))
        assert (before.cold, after.cold) == (True, True)
        assert after.container_id != before.container_id
        assert [start for start, _, _ in second.lifetimes()] == [10.0]


class TestSharedClosure:
    """Fleet containers share the compiled eager closure, like SimPlatform's."""

    PLAN = DeferralPlan(app="app", deferred_library_edges=frozenset({"libx.extra"}))
    EXTRA = {ModuleKey("libx", "extra"), ModuleKey("libx", "extra.heavy")}

    def test_first_use_rebinds_one_container_only(self, platform_config, config):
        platform = make_platform(platform_config)
        platform.deploy(config, plan=self.PLAN)
        serve(platform, at(0.0, 0.0))
        fleet = platform._fleet("app")
        eager = fleet.compiled.eager_loaded
        memory = {c.container_id: c.memory_mb for c in fleet.containers}
        (record,) = serve(platform, at(10.0, entry="heavy"))  # warm first use
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


class TestGatewayIntegration:
    def test_replay_workload_through_gateway(self, platform_config, config):
        platform = make_platform(platform_config, max_containers=16)
        platform.deploy(config)
        monitor = WorkloadMonitor(window_s=50.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main", "heavy"))
        mix = zipf_mix(["main", "heavy"])
        schedule = poisson_schedule(mix, rate_per_s=4.0, duration_s=200.0, seed=5)
        records = []
        gateway.submit_stream(
            ((at, f"/app/{entry}") for at, entry in schedule),
            WindowAccumulator(window_s=3600.0),
            on_record=records.append,
        )
        assert len(records) == len(schedule)
        # Arrival observation closed the expected number of windows.
        assert monitor._closed == 3
