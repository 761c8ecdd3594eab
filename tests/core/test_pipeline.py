"""Tests for the SlimStart pipeline facade (simulated + real paths)."""

import sys
import textwrap

import pytest

from repro.core.adaptive import WorkloadMonitor
from repro.core.pipeline import (
    CICDPipeline,
    PipelineConfig,
    SlimStart,
    handler_imports_from_source,
)
from repro.faas.deployment import build_workspace
from repro.faas.local import FunctionDeployment, LocalPlatform
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatform
from repro.workloads.popularity import EntryMix


@pytest.fixture()
def app_config(small_ecosystem) -> SimAppConfig:
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
def mix() -> EntryMix:
    return EntryMix(entries=("main",), weights=(1.0,))


def make_workload(count=40, entry="main", gap=700.0):
    # Spaced arrivals so some invocations are warm, with periodic colds.
    workload = []
    t = 0.0
    for index in range(count):
        t += gap if index % 10 == 0 else 1.0
        workload.append((t, entry))
    return workload


class TestHandlerImports:
    def test_extracts_library_imports(self):
        source = textwrap.dedent(
            """
            import os
            import libx
            import libx.extra
            from liby import util
            """
        )
        imports = handler_imports_from_source(source, {"libx", "liby"})
        assert imports == ("libx", "libx.extra", "liby")


class TestSimulatedCycle:
    def test_cycle_improves_cold_start(self, app_config, mix):
        tool = SlimStart(PipelineConfig(measure_cold_starts=20, measure_runs=2))
        result = tool.run_simulated_cycle(app_config, make_workload(), mix)
        # 'heavy' never runs: libx.extra (65 of 100 ms) should be deferred.
        assert "libx.extra" in result.plan.deferred_library_edges
        assert result.speedups.init_speedup > 1.4
        assert result.speedups.memory_reduction > 1.0

    def test_cycle_report_gate(self, small_ecosystem, mix):
        # Execution-dominated app: init ratio below 10 % -> no optimization.
        config = SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(
                EntryBehavior(
                    "main", calls=("libx:use_core",), handler_self_ms=5000.0
                ),
            ),
        )
        tool = SlimStart(PipelineConfig(measure_cold_starts=10, measure_runs=1))
        result = tool.run_simulated_cycle(config, make_workload(), mix)
        assert not result.report.profiled
        assert result.plan.is_empty
        assert result.speedups.init_speedup == pytest.approx(1.0, abs=0.05)

    def test_measurement_has_expected_size(self, app_config, mix):
        tool = SlimStart(PipelineConfig(measure_cold_starts=15, measure_runs=3))
        result = tool.run_simulated_cycle(app_config, make_workload(), mix)
        assert result.before.total == 45
        assert result.before.cold_starts == 45

    def test_profile_simulated_bundle_shape(self, app_config):
        tool = SlimStart()
        platform = SimPlatform()
        platform.deploy(app_config)
        bundle = tool.profile_simulated(platform, app_config, make_workload())
        assert bundle.app == "app"
        assert bundle.cold_starts >= 1
        assert len(bundle.samples) > 0


class TestRealPath:
    HANDLER = textwrap.dedent(
        """
        import libx


        def main(event=None):
            return libx.use_core()


        def heavy(event=None):
            return libx.use_extra()
        """
    )

    @pytest.fixture()
    def deployment(self, tmp_path, session_ecosystem):
        # Full-scale costs keep library execution in the milliseconds so
        # the 1 ms sampler observes real library runtime (at tiny scales
        # all library calls fall between samples and utilization reads
        # zero, which makes the analyzer defer the whole library).
        workspace = build_workspace(
            session_ecosystem, self.HANDLER, tmp_path / "v1", scale=1.0
        )
        return FunctionDeployment(
            name="realapp", workspace=workspace, entries=("main", "heavy")
        )

    def test_profile_real_invocations(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        tool = SlimStart()
        bundle = tool.profile_real_invocations(
            platform, deployment, ["main"] * 20, {"libx"}, interval_ms=1.0
        )
        assert bundle.cold_starts == 1
        assert bundle.handler_imports == ("libx",)
        # The recorder times the handler module plus all 5 library modules.
        assert len(bundle.import_profile) == 6
        assert "libx.extra.heavy" in bundle.import_profile
        assert bundle.entry_counts == {"main": 20}

    def test_full_real_cycle(self, deployment, tmp_path):
        platform = LocalPlatform()
        platform.deploy(deployment)
        tool = SlimStart()
        bundle = tool.profile_real_invocations(
            platform, deployment, ["main"] * 60, {"libx"}, interval_ms=1.0
        )
        attributor = tool.workspace_attributor(deployment.workspace, {"libx"})
        report = tool.analyze(bundle, attributor)
        assert "libx.extra" in report.plan.deferred_library_edges

        optimized = tool.optimize_workspace(
            deployment.workspace, report.plan, tmp_path / "v2"
        )
        assert optimized.changed
        new_deployment = FunctionDeployment(
            name="realapp",
            workspace=optimized.workspace,
            entries=deployment.entries,
        )
        platform.redeploy(new_deployment)
        platform.force_cold("realapp")
        after = platform.invoke("realapp", "main")
        registry = sys.modules["_slimstart_runtime"]  # the live container's
        loaded = registry.loaded_modules()
        assert "libx.extra" not in loaded
        # Correctness: the deferred path still works on demand.
        platform.invoke("realapp", "heavy")
        assert "libx.extra" in registry.loaded_modules()

    def test_profile_requires_entries(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        tool = SlimStart()
        with pytest.raises(Exception):
            tool.profile_real_invocations(platform, deployment, [], {"libx"})


class TestAdaptiveCICD:
    def test_shift_triggers_reprofile_and_redeploy(self, app_config):
        platform = SimPlatform()
        platform.deploy(app_config)
        tool = SlimStart()
        monitor = WorkloadMonitor(window_s=100.0, epsilon=0.5)
        pipeline = CICDPipeline(tool, platform, app_config, monitor)

        # Window 1: only 'main' -> extra gets deferred at the first trigger.
        records = [platform.invoke("app", "main", at=float(t)) for t in range(0, 90, 10)]
        pipeline.observe(records)
        # Window 2: only 'heavy' -> big probability shift.
        records = [
            platform.invoke("app", "heavy", at=100.0 + t) for t in range(0, 90, 10)
        ]
        pipeline.observe(records)
        # Window 3 arrival closes window 2 and processes the shift.
        records = [platform.invoke("app", "heavy", at=200.0)]
        events = pipeline.observe(records)
        assert any(event.reprofiled for event in events)
        assert pipeline.profile_count >= 1

    def test_stable_workload_never_reprofiles(self, app_config):
        platform = SimPlatform()
        platform.deploy(app_config)
        tool = SlimStart()
        monitor = WorkloadMonitor(window_s=50.0, epsilon=0.5)
        pipeline = CICDPipeline(tool, platform, app_config, monitor)
        for window in range(4):
            records = [
                platform.invoke("app", "main", at=window * 50.0 + t)
                for t in range(0, 40, 5)
            ]
            pipeline.observe(records)
        assert pipeline.profile_count == 0
