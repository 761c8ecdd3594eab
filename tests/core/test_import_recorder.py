"""Tests for the meta-path import time recorder (real imports)."""

import importlib
import sys

import pytest

from repro.common.errors import ProfilingError
from repro.core.import_recorder import ImportTimeRecorder
from repro.faas.container import ModuleSandbox


@pytest.fixture()
def mounted(session_workspace):
    ModuleSandbox.mount(session_workspace)
    ModuleSandbox.purge()
    yield session_workspace
    ModuleSandbox.unmount(session_workspace)


class TestRecorder:
    def test_records_monitored_modules(self, mounted):
        with ImportTimeRecorder(["libx"]) as recorder:
            importlib.import_module("libx")
        profile = recorder.profile()
        assert len(profile) == 5
        assert "libx.core.fast" in profile

    def test_parent_relationship(self, mounted):
        with ImportTimeRecorder(["libx"]) as recorder:
            importlib.import_module("libx")
        profile = recorder.profile()
        assert profile._records["libx.core"].parent == "libx"
        assert profile._records["libx.core.fast"].parent == "libx.core"
        assert profile._records["libx"].parent is None

    def test_self_and_cumulative_times(self, mounted):
        with ImportTimeRecorder(["libx"]) as recorder:
            importlib.import_module("libx")
        profile = recorder.profile()
        root = profile._records["libx"]
        core = profile._records["libx.core"]
        fast = profile._records["libx.core.fast"]
        assert root.cumulative_ms >= core.cumulative_ms >= fast.cumulative_ms
        assert core.cumulative_ms >= core.self_ms
        # Scaled burn: libx.core burns 20 ms * 0.01 = 0.2 ms at least.
        assert core.self_ms > 0.0

    def test_unmonitored_modules_ignored(self, mounted):
        sys.modules.pop("liby", None)
        sys.modules.pop("liby.util", None)
        with ImportTimeRecorder(["libx"]) as recorder:
            importlib.import_module("liby")  # imports libx transitively
        profile = recorder.profile()
        assert "liby" not in profile
        assert "libx" in profile

    def test_cross_library_parent(self, mounted):
        with ImportTimeRecorder(["libx", "liby"]) as recorder:
            importlib.import_module("liby")
        profile = recorder.profile()
        assert profile._records["libx"].parent == "liby"

    def test_already_imported_modules_not_recorded(self, mounted):
        importlib.import_module("libx")
        with ImportTimeRecorder(["libx"]) as recorder:
            importlib.import_module("libx")  # cached in sys.modules
        assert len(recorder.profile()) == 0

    def test_double_install_rejected(self):
        recorder = ImportTimeRecorder(["libx"]).install()
        try:
            with pytest.raises(ProfilingError):
                recorder.install()
        finally:
            recorder.uninstall()

    def test_uninstall_removes_finder(self, mounted):
        recorder = ImportTimeRecorder(["libx"]).install()
        recorder.uninstall()
        before = len(recorder.profile())
        importlib.import_module("libx")
        assert len(recorder.profile()) == before

    def test_needs_prefixes(self):
        with pytest.raises(ProfilingError):
            ImportTimeRecorder([])

    def test_load_order_monotonic(self, mounted):
        with ImportTimeRecorder(["libx", "liby"]) as recorder:
            importlib.import_module("liby")
        profile = recorder.profile()
        orders = [profile._records[m].order for m in profile.modules()]
        assert sorted(orders) == list(range(1, len(orders) + 1))
