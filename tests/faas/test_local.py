"""Tests for the really-executing local platform."""

import sys
import textwrap

import pytest

from repro.common.clock import VirtualClock
from repro.common.errors import DeploymentError
from repro.faas.deployment import build_workspace
from repro.faas.local import FunctionDeployment, LocalPlatform


HANDLER = textwrap.dedent(
    """
    import libx


    def main(event=None):
        return libx.use_core()


    def heavy(event=None):
        return libx.use_extra()
    """
)


@pytest.fixture(scope="module")
def deployment(tmp_path_factory, session_ecosystem):
    workspace = tmp_path_factory.mktemp("localapp")
    build_workspace(session_ecosystem, HANDLER, workspace, scale=0.02)
    return FunctionDeployment(
        name="localapp", workspace=workspace, entries=("main", "heavy")
    )


class TestDeployment:
    def test_missing_workspace_rejected(self, tmp_path):
        platform = LocalPlatform()
        bad = FunctionDeployment(
            name="x", workspace=tmp_path / "ghost", entries=("main",)
        )
        with pytest.raises(DeploymentError):
            platform.deploy(bad)

    def test_no_entries_rejected(self, tmp_path):
        with pytest.raises(DeploymentError):
            FunctionDeployment(name="x", workspace=tmp_path, entries=())

    def test_duplicate_deploy_rejected(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        with pytest.raises(DeploymentError):
            platform.deploy(deployment)


class TestInvocation:
    def test_cold_then_warm(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        first = platform.invoke("localapp", "main")
        second = platform.invoke("localapp", "main")
        assert first.cold and not second.cold
        assert first.init_ms > 0.0
        assert second.init_ms == 0.0

    def test_handler_result_flows_through(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        record = platform.invoke("localapp", "main")
        assert record.exec_ms >= 0.0
        registry = sys.modules["_slimstart_runtime"]  # the live container's
        assert registry.call_counts().get("libx.core:run") == 1

    def test_unknown_entry(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        with pytest.raises(DeploymentError):
            platform.invoke("localapp", "ghost")

    def test_force_cold(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        platform.invoke("localapp", "main")
        platform.force_cold("localapp")
        assert platform.invoke("localapp", "main").cold

    def test_memory_tracks_loaded_modules(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        record = platform.invoke("localapp", "main")
        # base 38 MB + 10 000 kB of synthetic modules.
        assert record.memory_mb == pytest.approx(38.0 + 10_000.0 / 1024.0, rel=0.01)

    def test_keep_alive_with_virtual_clock(self, deployment):
        clock = VirtualClock()
        platform = LocalPlatform(clock=clock)
        platform.deploy(deployment)
        platform.invoke("localapp", "main")
        clock.advance_to(clock.now() + 601.0)
        assert platform.invoke("localapp", "main").cold

    def test_records_accumulate(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        platform.invoke("localapp", "main")
        platform.invoke("localapp", "heavy")
        assert len(platform.records("localapp")) == 2
        platform.clear_history("localapp")
        assert platform.records("localapp") == []

    def test_redeploy_resets_pool_and_keeps_history(self, deployment):
        platform = LocalPlatform()
        platform.deploy(deployment)
        platform.invoke("localapp", "main")
        platform.redeploy(deployment)
        assert len(platform.records("localapp")) == 1
        assert platform.invoke("localapp", "main").cold
