"""Tests for the virtual-time FaaS simulator."""

from dataclasses import replace

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import DeploymentError, SpecError
from repro.faas.sim import (
    EntryBehavior,
    SimAppConfig,
    SimPlatform,
    SimPlatformConfig,
    compiled_app,
    replay_workload,
)
from repro.plan import DeferralPlan
from repro.synthlib.spec import ModuleKey


@pytest.fixture()
def config(small_ecosystem) -> SimAppConfig:
    return SimAppConfig(
        name="app",
        ecosystem=small_ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=2.0),
            EntryBehavior("heavy", calls=("libx:use_extra",), handler_self_ms=2.0),
        ),
        keep_alive_s=600.0,
    )


@pytest.fixture()
def platform() -> SimPlatform:
    return SimPlatform(
        config=SimPlatformConfig(
            cold_platform_ms=5.0, runtime_init_ms=30.0, warm_platform_ms=1.0
        )
    )


class TestConfigValidation:
    def test_needs_entries(self, small_ecosystem):
        with pytest.raises(SpecError):
            SimAppConfig(
                name="a", ecosystem=small_ecosystem, handler_imports=(), entries=()
            )

    def test_duplicate_entries_rejected(self, small_ecosystem):
        with pytest.raises(SpecError):
            SimAppConfig(
                name="a",
                ecosystem=small_ecosystem,
                handler_imports=(),
                entries=(EntryBehavior("x"), EntryBehavior("x")),
            )


class TestDeployment:
    def test_duplicate_deploy_rejected(self, platform, config):
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            platform.deploy(config)

    def test_unknown_app_rejected(self, platform):
        with pytest.raises(DeploymentError):
            platform.invoke("ghost", "main")

    def test_unknown_entry_rejected(self, platform, config):
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            platform.invoke("app", "ghost")

    def test_redeploy_wrong_plan_app(self, platform, config):
        platform.deploy(config)
        with pytest.raises(DeploymentError):
            platform.redeploy("app", DeferralPlan.empty("other"))


class TestColdAndWarm:
    def test_first_invocation_is_cold(self, platform, config):
        platform.deploy(config)
        record = platform.invoke("app", "main")
        assert record.cold
        # init = closure(libx = 100 ms) + runtime init 30 ms.
        assert record.init_ms == pytest.approx(130.0)
        assert record.e2e_ms == pytest.approx(5.0 + 130.0 + record.exec_ms)

    def test_sequential_second_call_is_warm(self, platform, config):
        platform.deploy(config)
        platform.invoke("app", "main")
        record = platform.invoke("app", "main")
        assert not record.cold
        assert record.init_ms == 0.0

    def test_exec_cost_matches_call_graph(self, platform, config):
        platform.deploy(config)
        record = platform.invoke("app", "main")
        # handler 2.0 + use_core 1.0 + core.run 1.0 + fast.work 2.0
        assert record.exec_ms == pytest.approx(6.0)

    def test_keep_alive_expiry_forces_cold(self, config):
        clock = VirtualClock()
        platform = SimPlatform(clock=clock)
        platform.deploy(config)
        platform.invoke("app", "main")
        clock.advance(601.0)
        record = platform.invoke("app", "main")
        assert record.cold

    def test_memory_accounting(self, platform, config):
        platform.deploy(config)
        record = platform.invoke("app", "main")
        assert record.memory_mb == pytest.approx(38.0 + 10_000.0 / 1024.0)

    def test_reset_pool_forces_cold(self, platform, config):
        platform.deploy(config)
        platform.invoke("app", "main")
        platform.reset_pool("app")
        assert platform.invoke("app", "main").cold


class TestBurst:
    def test_burst_contends_for_containers(self, platform, config):
        platform.deploy(config)
        records = platform.invoke_burst("app", ["main"] * 10)
        assert sum(record.cold for record in records) == 10

    def test_burst_reuses_one_warm_container(self, platform, config):
        platform.deploy(config)
        platform.invoke("app", "main")  # leaves one warm, idle container
        records = platform.invoke_burst("app", ["main"] * 10)
        assert sum(record.cold for record in records) == 9

    def test_past_arrival_rejected(self, platform, config):
        platform.deploy(config)
        platform.invoke("app", "main")
        with pytest.raises(DeploymentError):
            platform.invoke("app", "main", at=-1.0)


class TestDeferral:
    def test_plan_shrinks_cold_start(self, platform, config):
        platform.deploy(config)
        cold_before = platform.invoke("app", "main").init_ms
        platform.redeploy(
            "app",
            DeferralPlan(app="app", deferred_library_edges=frozenset({"libx.extra"})),
        )
        cold_after = platform.invoke("app", "main").init_ms
        assert cold_before - cold_after == pytest.approx(65.0)

    def test_redeploy_kills_warm_pool(self, platform, config):
        platform.deploy(config)
        platform.invoke("app", "main")
        platform.redeploy("app", DeferralPlan.empty("app"))
        assert platform.invoke("app", "main").cold

    def test_lazy_load_charged_to_first_use(self, platform, config):
        platform.deploy(
            config,
            plan=DeferralPlan(
                app="app", deferred_library_edges=frozenset({"libx.extra"})
            ),
        )
        platform.invoke("app", "main")  # cold; extra not loaded
        first = platform.invoke("app", "heavy")  # warm; must lazy-load extra
        second = platform.invoke("app", "heavy")
        assert first.exec_ms - second.exec_ms == pytest.approx(65.0)

    def test_lazy_load_grows_memory(self, platform, config):
        platform.deploy(
            config,
            plan=DeferralPlan(
                app="app", deferred_library_edges=frozenset({"libx.extra"})
            ),
        )
        lean = platform.invoke("app", "main").memory_mb
        grown = platform.invoke("app", "heavy").memory_mb
        assert grown - lean == pytest.approx(6500.0 / 1024.0)

    def test_deferred_handler_import_skips_whole_library(self, small_ecosystem):
        config = SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx", "liby"),
            entries=(EntryBehavior("main", calls=("libx:ping",)),),
        )
        platform = SimPlatform()
        platform.deploy(
            config,
            plan=DeferralPlan(
                app="app", deferred_handler_imports=frozenset({"liby"})
            ),
        )
        record = platform.invoke("app", "main")
        # liby (8 + 12 ms) never loads; only libx's 100 ms plus runtime.
        assert record.init_ms == pytest.approx(100.0 + 35.0)


DEFER_EXTRA = DeferralPlan(
    app="app", deferred_library_edges=frozenset({"libx.extra"})
)


class TestSharedClosure:
    """A cold container shares its app's eager closure instead of copying it."""

    def test_cold_containers_share_the_compiled_closure(self, platform, config):
        platform.deploy(config)
        platform.invoke_burst("app", ["main", "heavy"])
        app = platform._app("app")
        first, second = app.containers
        assert first.loaded is app.compiled.eager_loaded
        assert second.loaded is app.compiled.eager_loaded

    def test_warm_first_use_rebinds_one_container_only(self, platform, config):
        platform.deploy(config, plan=DEFER_EXTRA)
        platform.invoke_burst("app", ["main", "main"])
        app = platform._app("app")
        eager = app.compiled.eager_loaded
        snapshot = frozenset(app.compiled.eager_closure)
        memory = {c.container_id: c.memory_mb for c in app.containers}
        platform.clock.advance_to(10.0)  # both idle again
        record = platform.invoke("app", "heavy")  # warm; lazy-loads libx.extra
        assert not record.cold
        (served,) = [
            c for c in app.containers if c.container_id == record.container_id
        ]
        (sibling,) = [c for c in app.containers if c is not served]
        assert served.loaded == eager | {
            ModuleKey("libx", "extra"), ModuleKey("libx", "extra.heavy")
        }
        assert served.memory_mb > memory[served.container_id]
        assert sibling.loaded is eager
        assert sibling.memory_mb == memory[sibling.container_id]
        assert app.compiled.eager_loaded is eager and eager == snapshot

    def test_cold_chain_rebinds_one_container_only(self, platform, config):
        platform.deploy(config, plan=DEFER_EXTRA)
        heavy, main = platform.invoke_burst("app", ["heavy", "main"])
        app = platform._app("app")
        eager = app.compiled.eager_loaded
        with_chain, without = app.containers
        assert ModuleKey("libx", "extra.heavy") not in eager
        assert with_chain.loaded is app.entries["heavy"].cold_loaded
        assert with_chain.loaded == eager | {
            ModuleKey("libx", "extra"), ModuleKey("libx", "extra.heavy")
        }
        assert without.loaded is eager
        assert heavy.memory_mb - main.memory_mb == pytest.approx(6500.0 / 1024.0)
        assert eager == frozenset(app.compiled.eager_closure)


class TestSharedEntryWalk:
    """An entry's call-graph walk belongs to the app, not to a plan."""

    def test_plans_share_the_walk_and_differ_in_what_they_load(self, config):
        empty = compiled_app(config, DeferralPlan.empty("app"))
        deferred = compiled_app(config, DEFER_EXTRA)
        assert empty is not deferred
        for name in ("main", "heavy"):
            before, after = empty.entries[name], deferred.entries[name]
            assert before.scaled_segments is after.scaled_segments
            assert before.segments is after.segments
            assert before.needed_modules is after.needed_modules
            assert before.total_self_ms == after.total_self_ms
        assert empty.eager_closure != deferred.eager_closure
        assert not empty.entries["heavy"].cold_chains
        (chain,) = deferred.entries["heavy"].cold_chains
        assert [key.dotted for key in chain.modules] == [
            "libx.extra.heavy", "libx.extra",
        ]
        assert empty.entries["heavy"].cold_loaded is empty.eager_loaded
        assert deferred.entries["heavy"].cold_loaded == empty.eager_loaded
        assert deferred.entries["main"].cold_loaded is deferred.eager_loaded

    def test_another_cost_scale_is_another_walk(self, config):
        plain = compiled_app(config, DEFER_EXTRA).entries["main"]
        doubled = compiled_app(
            replace(config, cost_scale=2.0), DEFER_EXTRA
        ).entries["main"]
        assert doubled.scaled_segments is not plain.scaled_segments
        assert doubled.segments == plain.segments
        assert [s.self_ms for s in doubled.scaled_segments] == [
            2.0 * s.self_ms for s in plain.scaled_segments
        ]


class TestTraces:
    def test_traces_recorded(self, platform, config):
        platform.deploy(config)
        platform.invoke("app", "main")
        traces = platform.traces("app")
        assert len(traces) == 1
        assert traces[0].cold
        assert len(traces[0].init_segments) == 5

    def test_trace_recording_can_be_disabled(self, config):
        platform = SimPlatform(config=SimPlatformConfig(record_traces=False))
        platform.deploy(config)
        platform.invoke("app", "main")
        assert platform.traces("app") == []

    def test_call_segments_scaled(self, small_ecosystem):
        config = SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(EntryBehavior("main", calls=("libx:ping",)),),
            cost_scale=0.5,
        )
        platform = SimPlatform()
        platform.deploy(config)
        platform.invoke("app", "main")
        segment = platform.traces("app")[0].call_segments[0]
        assert segment.self_ms == pytest.approx(0.25)  # ping 0.5 * 0.5


class TestJitter:
    def test_jitter_produces_variance(self, config):
        platform = SimPlatform(config=SimPlatformConfig(jitter_sigma=0.1))
        platform.deploy(config)
        inits = {platform.invoke_burst("app", ["main"] * 5)[i].init_ms for i in range(5)}
        assert len(inits) > 1

    def test_jitter_deterministic_across_platforms(self, config):
        def run():
            platform = SimPlatform(config=SimPlatformConfig(jitter_sigma=0.1))
            platform.deploy(config)
            return [r.init_ms for r in platform.invoke_burst("app", ["main"] * 5)]

        assert run() == run()


def test_replay_workload(platform, config):
    platform.deploy(config)
    records = replay_workload(
        platform, "app", [(0.0, "main"), (1.0, "main"), (700.0, "main")]
    )
    assert [record.cold for record in records] == [True, False, True]
