"""Tests for deterministic profile synthesis from simulator traces."""

from dataclasses import replace

import pytest

from repro.apps.catalog import app_by_key
from repro.apps.model import bench_platform_config, instantiate
from repro.common.errors import ProfilingError
from repro.core.samples import INIT, RUNTIME, Frame
from repro.core.simprofiler import (
    SIM_PREFIX,
    bundle_from_simulation,
    frame_for_module,
    frame_for_ref,
    import_profile_from_traces,
    samples_from_traces,
)
from repro.faas.sim import (
    CallSegment,
    EntryBehavior,
    ExecutionTrace,
    SimAppConfig,
    SimPlatform,
    replay_workload,
)
from repro.plan import DeferralPlan
from repro.workloads.arrival import poisson_schedule


@pytest.fixture()
def sim_run(small_ecosystem):
    config = SimAppConfig(
        name="app",
        ecosystem=small_ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=2.0),
        ),
    )
    platform = SimPlatform()
    platform.deploy(config)
    platform.invoke("app", "main")
    platform.invoke("app", "main")
    return config, platform


class TestFrames:
    def test_frame_for_ref(self):
        frame = frame_for_ref("libx.core:run")
        assert frame.file == f"{SIM_PREFIX}/libx/core.py"
        assert frame.function == "run"

    def test_frame_for_root_ref(self):
        assert frame_for_ref("libx:ping").file == f"{SIM_PREFIX}/libx.py"

    def test_frame_for_module(self):
        frame = frame_for_module("libx.extra.heavy")
        assert frame.function == "<module>"

    def test_frames_cached(self):
        assert frame_for_ref("libx.core:run") is frame_for_ref("libx.core:run")


class TestSamples:
    def test_interval_validated(self, sim_run):
        _, platform = sim_run
        with pytest.raises(ProfilingError):
            samples_from_traces(platform.traces("app"), interval_ms=0)

    def test_runtime_weight_equals_time_over_interval(self, sim_run):
        _, platform = sim_run
        samples = samples_from_traces(platform.traces("app"), interval_ms=5.0)
        # Two invocations x library self-time (use_core 1 + run 1 + work 2).
        assert samples.runtime_weight() == pytest.approx(2 * 4.0 / 5.0)

    def test_init_weight_equals_cold_init_over_interval(self, sim_run):
        _, platform = sim_run
        samples = samples_from_traces(platform.traces("app"), interval_ms=5.0)
        # One cold start loading the whole 100 ms library.
        assert samples.init_weight() == pytest.approx(100.0 / 5.0)

    def test_aggregation_reduces_sample_count(self, sim_run):
        _, platform = sim_run
        samples = samples_from_traces(platform.traces("app"))
        # 3 distinct call paths + 5 init modules, despite 2 invocations.
        assert len(samples) == 8

    def test_kinds_assigned(self, sim_run):
        _, platform = sim_run
        samples = samples_from_traces(platform.traces("app"))
        kinds = {sample.kind for sample in samples}
        assert kinds == {RUNTIME, INIT}


def naive_rows(traces, interval_ms=5.0):
    """The per-trace fold ``samples_from_traces`` replaced, kept as its oracle.

    One dict probe and store per segment per trace; returns the samples as
    ``(kind, path, weight.hex())`` rows in emission order.
    """
    runtime_ms, init_ms = {}, {}
    for trace in traces:
        entry_key = (trace.app, trace.entry)
        for segment in trace.call_segments:
            if segment.self_ms > 0:
                key = (entry_key, segment.path)
                runtime_ms[key] = runtime_ms.get(key, 0.0) + segment.self_ms
        for segment in trace.init_segments + trace.lazy_init_segments:
            if segment.self_ms > 0:
                key = (entry_key, segment.module)
                init_ms[key] = init_ms.get(key, 0.0) + segment.self_ms
    rows = []
    for ((app, entry), path), total_ms in runtime_ms.items():
        handler = Frame(file=f"{SIM_PREFIX}/{app}/handler.py", function=entry, line=1)
        frames = (handler,) + tuple(frame_for_ref(ref) for ref in path[1:])
        rows.append((RUNTIME, frames, (total_ms / interval_ms).hex()))
    for ((app, entry), module), total_ms in init_ms.items():
        handler = Frame(file=f"{SIM_PREFIX}/{app}/handler.py", function=entry, line=1)
        frames = (handler, frame_for_module(module))
        rows.append((INIT, frames, (total_ms / interval_ms).hex()))
    return rows


def rows_of(samples):
    return [(s.kind, s.path, s.weight.hex()) for s in samples]


def hand_trace(entry, call_segments):
    return ExecutionTrace(
        app="app",
        entry=entry,
        timestamp=0.0,
        cold=False,
        init_segments=(),
        lazy_init_segments=(),
        call_segments=call_segments,
    )


class TestGroupedFoldMatchesPerTraceFold:
    """The run-length fold is the per-trace fold, sample for sample, to the bit."""

    @pytest.mark.parametrize("key", ["R-GB", "FL-PWM", "CVE"])
    def test_catalog_apps(self, key):
        app = instantiate(app_by_key(key))
        platform = SimPlatform(config=bench_platform_config())
        platform.deploy(app.sim_config())
        schedule = poisson_schedule(app.mix, rate_per_s=0.3, duration_s=900.0, seed=7)
        replay_workload(platform, app.name, schedule)
        traces = platform.traces(app.name)
        assert len({trace.entry for trace in traces}) > 1
        assert rows_of(samples_from_traces(traces)) == naive_rows(traces)

    def test_redeploy_interleaved_with_another_entry(self, small_ecosystem):
        config = SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(
                EntryBehavior("main", calls=("libx:use_core",)),
                EntryBehavior("other", calls=("libx:use_extra", "libx:ping")),
            ),
        )
        plan = DeferralPlan(
            app="app",
            deferred_handler_imports=frozenset(),
            deferred_library_edges=frozenset({"libx.extra"}),
        )
        platform = SimPlatform()
        platform.deploy(config)
        for entry in ("main", "other", "main", "main"):
            platform.invoke("app", entry)
        platform.redeploy("app", plan)
        for entry in ("other", "main", "other", "main"):
            platform.invoke("app", entry)
        traces = platform.traces("app")
        tuples = {id(t.call_segments) for t in traces if t.entry == "main"}
        assert len(tuples) == 1  # both deployed versions share the entry's walk
        assert any(trace.lazy_init_segments for trace in traces)
        assert rows_of(samples_from_traces(traces)) == naive_rows(traces)

        # A second run-length run per entry: the same app at another cost
        # scale compiles to a different tuple by construction.
        rescaled = SimPlatform()
        rescaled.deploy(replace(config, cost_scale=2.0), plan)
        for entry in ("other", "main", "other", "main"):
            rescaled.invoke("app", entry)
        traces += rescaled.traces("app")
        tuples = {id(t.call_segments) for t in traces if t.entry == "main"}
        assert len(tuples) == 2
        assert rows_of(samples_from_traces(traces)) == naive_rows(traces)

    def test_generator_input(self, sim_run):
        _, platform = sim_run
        traces = platform.traces("app")
        streamed = samples_from_traces(trace for trace in traces)
        assert rows_of(streamed) == naive_rows(traces)

    def test_entry_repeating_a_ref(self, small_ecosystem):
        config = SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(
                EntryBehavior("twice", calls=("libx:use_core", "libx:use_core")),
            ),
        )
        platform = SimPlatform()
        platform.deploy(config)
        for _ in range(7):
            platform.invoke("app", "twice")
        traces = platform.traces("app")
        paths = [segment.path for segment in traces[0].call_segments]
        assert len(paths) == 2 * len(set(paths))
        assert rows_of(samples_from_traces(traces)) == naive_rows(traces)

    def test_same_path_with_different_costs_adds_round_robin(self):
        # a+b+a+b+... and a+a+...+b+b+... differ in the last bits; only
        # the first is what consecutive traces add.
        path = ("app.handler:main", "libx:f")
        shared = (
            CallSegment(path, 0.1),
            CallSegment(path + ("libx:g",), 0.0),  # zero cost: no sample
            CallSegment(path, 0.7),
        )
        traces = [hand_trace("main", shared) for _ in range(53)]
        rows = rows_of(samples_from_traces(traces))
        assert rows == naive_rows(traces)
        blocked = 0.0
        for cost in (0.1, 0.7):
            for _ in range(53):
                blocked += cost
        assert rows[0][2] != (blocked / 5.0).hex()

    def test_new_paths_of_a_later_tuple_keep_first_seen_order(self):
        def segments(*names):
            return tuple(
                CallSegment(("app.handler:e", f"libx:{name}"), 1.0) for name in names
            )

        first, second, other = segments("p1", "p2"), segments("p2", "p3"), segments("q")
        traces = [
            hand_trace("a", first),
            hand_trace("b", other),
            hand_trace("a", first),
            hand_trace("a", second),
            hand_trace("b", other),
            hand_trace("a", first),
        ]
        rows = rows_of(samples_from_traces(traces))
        assert rows == naive_rows(traces)
        assert [(path[0].function, path[1].function) for _, path, _ in rows] == [
            ("a", "p1"), ("a", "p2"), ("b", "q"), ("a", "p3"),
        ]


class TestImportProfile:
    def test_requires_cold_traces(self):
        with pytest.raises(ProfilingError):
            import_profile_from_traces([])

    def test_per_module_averaging(self, sim_run):
        _, platform = sim_run
        profile = import_profile_from_traces(platform.traces("app"))
        assert profile._records["libx.extra"].self_ms == pytest.approx(40.0)
        assert profile.total_init_ms == pytest.approx(100.0)

    def test_parent_derived_from_dotted_path(self, sim_run):
        _, platform = sim_run
        profile = import_profile_from_traces(platform.traces("app"))
        assert profile._records["libx.core.fast"].parent == "libx.core"


class TestBundle:
    def test_bundle_assembly(self, sim_run):
        config, platform = sim_run
        bundle = bundle_from_simulation(
            config, platform.traces("app"), platform.records("app")
        )
        assert bundle.app == "app"
        assert bundle.cold_starts == 1
        assert bundle.entry_counts == {"main": 2}
        assert bundle.handler_imports == ("libx",)
        assert 0.0 < bundle.init_ratio < 1.0

    def test_bundle_requires_cold_records(self, sim_run):
        config, platform = sim_run
        warm_only = [r for r in platform.records("app") if not r.cold]
        with pytest.raises(ProfilingError):
            bundle_from_simulation(config, platform.traces("app"), warm_only)
