"""Tests for import-isolated containers."""

import sys
import textwrap

import pytest

from repro.common.errors import DeploymentError
from repro.faas.container import HANDLER_MODULE, ModuleSandbox, RealContainer
from repro.faas.deployment import build_workspace


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, session_ecosystem):
    ws = tmp_path_factory.mktemp("containerws")
    handler = textwrap.dedent(
        """
        import libx


        def main(event=None):
            return libx.ping()
        """
    )
    build_workspace(session_ecosystem, handler, ws, scale=0.01)
    return ws


class TestModuleSandbox:
    def test_mount_puts_workspace_first(self, workspace):
        ModuleSandbox.mount(workspace)
        try:
            assert sys.path[0] == str(workspace.resolve())
        finally:
            ModuleSandbox.unmount(workspace)

    def test_purge_removes_workspace_modules(self, workspace):
        ModuleSandbox.mount(workspace)
        try:
            import importlib

            importlib.import_module("libx")
            assert "libx" in sys.modules
            removed = ModuleSandbox.purge()
            assert removed >= 5
            assert "libx" not in sys.modules
            assert "libx.core" not in sys.modules
        finally:
            ModuleSandbox.unmount(workspace)

    def test_purge_leaves_stdlib_alone(self, workspace):
        ModuleSandbox.mount(workspace)
        try:
            import json  # noqa: F401 - ensure a stdlib module is loaded

            ModuleSandbox.purge()
            assert "json" in sys.modules
        finally:
            ModuleSandbox.unmount(workspace)


class TestRealContainer:
    def test_cold_start_measures_init(self, workspace):
        container = RealContainer("c1", workspace)
        init_ms = container.cold_start()
        assert init_ms > 0.0
        assert container.memory_mb() > RealContainer.BASE_MEMORY_MB
        ModuleSandbox.unmount(workspace)

    def test_repeated_cold_starts_reimport(self, workspace):
        container_a = RealContainer("c1", workspace)
        container_a.cold_start()
        first_registry = container_a.runtime
        container_b = RealContainer("c2", workspace)
        container_b.cold_start()
        # The registry module was purged and re-imported: fresh object.
        assert container_b.runtime is not first_registry
        ModuleSandbox.unmount(workspace)

    def test_invoke_without_cold_start_rejected(self, workspace):
        with pytest.raises(DeploymentError):
            RealContainer("c1", workspace).invoke("main")

    def test_missing_entry_rejected(self, workspace):
        container = RealContainer("c1", workspace)
        container.cold_start()
        with pytest.raises(DeploymentError):
            container.invoke("ghost")
        ModuleSandbox.unmount(workspace)

    def test_handler_that_fails_to_import(self, tmp_path, monkeypatch):
        # A handler imported outside any mounted workspace survives purges.
        monkeypatch.delitem(sys.modules, HANDLER_MODULE, raising=False)
        (tmp_path / f"{HANDLER_MODULE}.py").write_text("import no_such_library\n")
        with pytest.raises(DeploymentError):
            RealContainer("c1", tmp_path).cold_start()
        ModuleSandbox.unmount(tmp_path)
