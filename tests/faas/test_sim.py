"""Tests for the virtual-time FaaS simulator."""

import functools
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import APP_DEFINITIONS, app_by_key
from repro.apps.model import bench_platform_config, instantiate
from repro.common.clock import RealClock, VirtualClock
from repro.common.errors import DeploymentError, SpecError
from repro.core.pipeline import SlimStart
from repro.faas.sim import (
    EntryBehavior,
    SimAppConfig,
    SimPlatform,
    SimPlatformConfig,
    _SimContainer,
    compiled_app,
    replay_workload,
)
from repro.plan import DeferralPlan
from repro.synthlib.spec import Ecosystem, ModuleKey
from repro.workloads.arrival import poisson_schedule
from tests.faas.oracles import naive_burst, naive_cold_charge


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

    @pytest.mark.parametrize(
        "field, bad",
        [
            (field, bad)
            for field in (
                "cold_platform_ms", "runtime_init_ms", "warm_platform_ms", "jitter_sigma"
            )
            for bad in (math.nan, math.inf, -1e6)
        ],
    )
    def test_platform_costs_are_finite_and_non_negative(self, field, bad):
        # NaN used to reach the records (their ``< 0`` checks pass on it);
        # a negative cost surfaced as a bare ValueError from ``_execute``.
        with pytest.raises(SpecError, match=field):
            SimPlatformConfig(**{field: bad})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("base_memory_mb", math.nan), ("base_memory_mb", math.inf),
            ("base_memory_mb", -1.0),
        ],
    )
    def test_app_memory_is_sane(self, config, field, bad):
        with pytest.raises(SpecError):
            replace(config, **{field: bad})

    def test_boundary_values_stay_legal(self, config):
        replace(config, base_memory_mb=0.0)
        SimPlatformConfig(
            cold_platform_ms=0.0, runtime_init_ms=0.0, warm_platform_ms=0.0
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
        clock.advance_to(clock.now() + 601.0)
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


@functools.lru_cache(maxsize=None)
def catalog_case(key):
    """A catalog app's config and the plan the analyzer gives it."""
    app = instantiate(app_by_key(key))
    config = app.sim_config()
    platform = SimPlatform(config=bench_platform_config())
    platform.deploy(config)
    tool = SlimStart()
    schedule = poisson_schedule(app.mix, rate_per_s=0.3, duration_s=600.0, seed=7)
    bundle = tool.profile_simulated(platform, config, schedule)
    plan = tool.analyze(bundle, tool.sim_attributor(config)).plan
    return config, plan


#: Costs nothing anywhere: on a platform that charges nothing either, a
#: cold start of ``noop`` frees its container at the arrival instant.
ZERO_COST = SimAppConfig(
    name="zero",
    ecosystem=Ecosystem(),
    handler_imports=(),
    entries=(
        EntryBehavior("noop", handler_self_ms=0.0),
        EntryBehavior("work", handler_self_ms=3.0),
    ),
)
FREE_PLATFORM = dict(cold_platform_ms=0.0, runtime_init_ms=0.0, warm_platform_ms=0.0)


def platform_state(platform, name):
    """Everything a burst may touch, comparable across two platforms."""
    app = platform._app(name)
    return {
        "records": app.records,
        "traces": app.traces,
        # One compiled app serves both platforms, so shared segment
        # tuples are the same objects on both sides.
        "shared segments": [
            (id(trace.init_segments), id(trace.call_segments)) for trace in app.traces
        ],
        "containers": [
            [getattr(container, field.name) for field in fields(_SimContainer)]
            for container in app.containers
        ],
        "pool minima": (app.pool_min_free_at, app.pool_min_expires_at),
        "clock": platform.clock.now(),
        "jitter rng": platform._jitter.getstate(),
        "next container id": repr(platform._container_ids),
    }


def platform_pair(platform_config, config, plan=None):
    """Two platforms built alike: one for the burst, one for the oracle."""
    pair = SimPlatform(config=platform_config), SimPlatform(config=platform_config)
    for platform in pair:
        platform.deploy(config, plan)
    return pair


class TestBurstAgainstPerRequestLoop:
    """``invoke_burst`` equals ``[invoke(...) for entry in entries]``
    (``naive_burst``): the records and every piece of platform state."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_burst_equals_the_per_request_loop(self, data):
        draw = data.draw
        key = draw(st.sampled_from([d.key for d in APP_DEFINITIONS] + ["zero"]))
        noise = dict(
            jitter_sigma=draw(st.sampled_from([0.0, 0.05])),
            record_traces=draw(st.booleans()),
        )
        if key == "zero":
            config, plan = ZERO_COST, None
            platform_config = SimPlatformConfig(**FREE_PLATFORM, **noise)
        else:
            config, plan = catalog_case(key)
            if draw(st.booleans()):
                plan = None
            platform_config = bench_platform_config(**noise)
        fast, naive = platform_pair(platform_config, config, plan)
        name = config.name
        names = [entry.name for entry in config.entries]
        pool = draw(st.sampled_from(["empty", "one idle", "all busy"]))
        for platform in (fast, naive):  # the same history on both sides
            if pool == "one idle":
                platform.invoke(name, names[0])
            elif pool == "all busy":
                naive_burst(platform, name, names * 2)
        now = fast.clock.now()
        # Later: containers still busy / idle / past a 600 s keep-alive.
        at = draw(st.sampled_from([None, now, now + 1e-6, now + 300.0, now + 1e6]))
        length = draw(st.sampled_from([0, 1, 2, 500]))
        entries = draw(
            st.lists(st.sampled_from(names), min_size=length, max_size=length)
        )

        assert fast.invoke_burst(name, entries, at=at) == naive_burst(
            naive, name, entries, at=at
        )
        assert platform_state(fast, name) == platform_state(naive, name)

    @pytest.mark.parametrize("traced", [True, False])
    def test_an_all_cold_burst_never_calls_invoke(self, config, traced):
        # Or the property above would compare the oracle with itself.
        platform = SimPlatform(config=SimPlatformConfig(record_traces=traced))
        platform.deploy(config)
        platform.invoke = None  # calling it would be a TypeError
        records = platform.invoke_burst("app", ["main", "heavy"] * 250, at=5.0)
        assert len(records) == 500 and all(record.cold for record in records)
        assert platform.clock.now() == 5.0
        assert len(platform.traces("app")) == (500 if traced else 0)

    def test_an_instantly_free_container_ends_the_loop(self):
        fast, naive = platform_pair(SimPlatformConfig(**FREE_PLATFORM), ZERO_COST)
        entries = ["noop", "noop", "work", "noop", "work"]
        records = fast.invoke_burst("zero", entries)
        assert records == naive_burst(naive, "zero", entries)
        # The first cold start is free again at once and serves the next
        # two; while it runs "work" the fourth request boots a second.
        assert [record.cold for record in records] == [True, False, False, True, False]
        assert platform_state(fast, "zero") == platform_state(naive, "zero")

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_unknown_entry_mid_burst_keeps_what_came_before(self, config, position):
        fast, naive = platform_pair(SimPlatformConfig(), config)
        entries = ["main", "heavy", "main", "heavy"]
        entries.insert(position, "ghost")
        messages = []
        for platform, burst in ((fast, SimPlatform.invoke_burst), (naive, naive_burst)):
            with pytest.raises(DeploymentError) as refused:
                burst(platform, "app", entries, at=2.0)
            messages.append(str(refused.value))
        assert messages[0] == messages[1] == "app 'app' has no entry 'ghost'"
        assert len(fast.records("app")) == position
        assert platform_state(fast, "app") == platform_state(naive, "app")

    @pytest.mark.parametrize(
        "burst_args, complaint",
        [
            (("ghost-app", ["main"]), "unknown app: 'ghost-app'"),
            (("app", ["main"], 1.0), "arrival 1.0 is in the past (now=3.0)"),
        ],
    )
    def test_refusals_are_invokes_own(self, config, burst_args, complaint):
        platform = SimPlatform(clock=VirtualClock(start=3.0))
        platform.deploy(config)
        with pytest.raises(DeploymentError) as refused:
            platform.invoke_burst(*burst_args)
        assert str(refused.value) == complaint
        assert platform.clock.now() == 3.0 and not platform.records("app")

    def test_an_empty_burst_touches_nothing(self, config):
        platform = SimPlatform()
        platform.deploy(config)
        assert platform.invoke_burst("app", [], at=9.0) == []
        assert platform.invoke_burst("ghost-app", []) == []
        assert platform.clock.now() == 0.0

    def test_a_real_clock_takes_the_per_request_loop(self, config):
        clock = RealClock()
        platform = SimPlatform(clock=clock)
        platform.deploy(config)
        real_invoke, calls = platform.invoke, []

        def invoke(name, entry, at=None):
            calls.append(entry)
            return real_invoke(name, entry, at=at)

        platform.invoke = invoke
        entries = ["main", "heavy", "main"]
        records = platform.invoke_burst("app", entries, at=clock.now() + 60.0)
        assert calls == entries
        assert [record.cold for record in records] == [True, True, True]


class TestCompiledColdConstants:
    """What a cold start of an entry costs is summed once, at compile
    time, to the bits the per-request loop over its chains produced."""

    @pytest.mark.parametrize("key", [d.key for d in APP_DEFINITIONS])
    def test_cold_charge_equals_the_chain_walk(self, key):
        config, analyzed = catalog_case(key)
        for plan in (DeferralPlan.empty(config.name), analyzed):
            compiled = compiled_app(config, plan)

            def charged(charge, entry):
                container = _SimContainer(
                    "c", compiled.eager_loaded,
                    config.base_memory_mb + compiled.eager_memory_kb / 1024.0,
                    0.0, 0.0,
                )
                segments = []
                lazy_ms = charge(entry, container, segments)
                assert container.loaded is entry.cold_loaded
                return lazy_ms.hex(), container.memory_mb.hex(), segments

            for entry in compiled.entries.values():
                compiled_sums = charged(
                    lambda entry, container, out: compiled.charge_first_use(
                        entry, container, True, out
                    ),
                    entry,
                )
                assert compiled_sums == charged(
                    functools.partial(naive_cold_charge, compiled), entry
                )
                assert compiled_sums[2] == list(entry.cold_lazy_segments)

    def test_containers_carry_no_dict(self):
        assert not hasattr(_SimContainer("c", frozenset(), 0.0, 0.0, 0.0), "__dict__")


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
