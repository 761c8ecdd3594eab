"""Integration: the full tool on really-executing benchmark applications."""

import sys

import pytest

from repro.apps import benchmark_apps
from repro.core.pipeline import SlimStart
from repro.faas.local import FunctionDeployment, LocalPlatform


@pytest.fixture(scope="module")
def real_cycle(tmp_path_factory):
    """Profile, optimize, and redeploy graph_bfs with real execution."""
    base = tmp_path_factory.mktemp("real_e2e")
    app = benchmark_apps(("R-GB",))[0]
    deployment = app.build_real_workspace(base / "v1", scale=0.25)
    platform = LocalPlatform()
    platform.deploy(deployment)
    tool = SlimStart()
    library_names = set(app.loaded_libraries())
    entries = ["handle"] * 30 + ["process"] * 6
    bundle = tool.profile_real_invocations(
        platform, deployment, entries, library_names, interval_ms=1.0
    )
    attributor = tool.workspace_attributor(deployment.workspace, library_names)
    report = tool.analyze(bundle, attributor)
    optimized = tool.optimize_workspace(
        deployment.workspace, report.plan, base / "v2"
    )
    new_deployment = FunctionDeployment(
        name=app.name,
        workspace=optimized.workspace,
        entries=deployment.entries,
    )
    platform.redeploy(new_deployment)
    return app, platform, deployment, report, optimized


class TestRealCycle:
    def test_profiler_finds_the_drawing_stack(self, real_cycle):
        _, _, _, report, _ = real_cycle
        assert any(
            flagged.startswith("sligraph.drawing")
            for flagged in report.plan.deferred_library_edges
        )

    def test_optimization_rewrites_library(self, real_cycle):
        _, _, _, _, optimized = real_cycle
        assert optimized.stub_result.changed
        stubbed = set(optimized.stub_result.stubbed_packages)
        assert "sligraph" in stubbed

    def test_cold_start_faster_after_optimization(self, real_cycle):
        app, platform, old_deployment, _, _ = real_cycle
        platform.force_cold(app.name)
        after = platform.invoke(app.name, "handle")

        before_platform = LocalPlatform()
        before_platform.deploy(
            FunctionDeployment(
                name="before_" + app.name,
                workspace=old_deployment.workspace,
                entries=old_deployment.entries,
            )
        )
        before = before_platform.invoke("before_" + app.name, "handle")
        assert after.init_ms < before.init_ms
        assert after.memory_mb < before.memory_mb

    def test_never_used_entry_still_correct(self, real_cycle):
        app, platform, _, _, _ = real_cycle
        admin_entries = [e for e in (en.name for en in app.entries) if e.startswith("admin_")]
        # The in-process testbed supports one active workspace at a time;
        # an earlier test cold-started the unoptimized copy, so start a
        # fresh container for the optimized app before invoking it.
        platform.force_cold(app.name)
        record = platform.invoke(app.name, admin_entries[0])
        assert record.e2e_ms > 0
        registry = sys.modules["_slimstart_runtime"]  # the live container's
        assert any(
            module.startswith("sligraph.drawing")
            for module in registry.loaded_modules()
        )
