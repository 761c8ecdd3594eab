"""Tests for sample records, classification, and attribution."""

import pytest

from repro.core.samples import (
    INIT,
    RUNTIME,
    Frame,
    LibraryAttributor,
    Sample,
    SampleSet,
    classify_stack,
    is_import_machinery,
)


def frame(file="/ws/libx/core.py", function="run", line=3) -> Frame:
    return Frame(file=file, function=function, line=line)


class TestSampleValidation:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Sample(path=())

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            Sample(path=(frame(),), weight=0.0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Sample(path=(frame(),), kind="mystery")


class TestClassifyStack:
    def test_plain_runtime_stack(self):
        path = (frame(function="handler"), frame(function="run"))
        cleaned, kind = classify_stack(path)
        assert cleaned == path
        assert kind == RUNTIME

    def test_import_machinery_stripped_and_marks_init(self):
        path = (
            frame(function="handler"),
            frame(file="<frozen importlib._bootstrap>", function="_find_and_load"),
            frame(function="<module>"),
        )
        cleaned, kind = classify_stack(path)
        assert kind == INIT
        assert all(not is_import_machinery(f) for f in cleaned)

    def test_nested_module_toplevel_without_machinery_is_runtime(self):
        # Process runners (runpy, pytest __main__) put <module> frames at
        # the bottom of every stack; without importlib machinery frames
        # this is ordinary execution, not library initialization.
        path = (frame(function="<module>"), frame(function="<module>"))
        _, kind = classify_stack(path)
        assert kind == RUNTIME

    def test_root_module_frame_alone_is_runtime(self):
        path = (frame(function="<module>"), frame(function="work"))
        _, kind = classify_stack(path)
        assert kind == RUNTIME

    def test_fully_machinery_stack_gets_placeholder(self):
        path = (
            frame(file="<frozen importlib._bootstrap>", function="_load"),
        )
        cleaned, kind = classify_stack(path)
        assert kind == INIT
        assert len(cleaned) == 1


class TestSampleSet:
    def test_weights_by_kind(self):
        samples = SampleSet(
            [
                Sample(path=(frame(),), weight=2.0, kind=RUNTIME),
                Sample(path=(frame(),), weight=3.0, kind=INIT),
            ]
        )
        assert samples.runtime_weight() == 2.0
        assert samples.init_weight() == 3.0


class TestAttribution:
    @pytest.fixture()
    def attributor(self) -> LibraryAttributor:
        return LibraryAttributor(
            workspace_prefixes=("/ws", "<sim>"),
            library_names=frozenset({"libx", "liby"}),
        )

    def test_module_of_plain_module(self, attributor):
        assert attributor.module_of(frame(file="/ws/libx/core/fast.py")) == (
            "libx.core.fast"
        )

    def test_module_of_package_init(self, attributor):
        assert attributor.module_of(frame(file="/ws/libx/core/__init__.py")) == (
            "libx.core"
        )

    def test_module_of_library_root(self, attributor):
        assert attributor.module_of(frame(file="/ws/libx/__init__.py")) == "libx"

    def test_handler_is_not_a_library(self, attributor):
        assert attributor.module_of(frame(file="/ws/handler.py")) is None

    def test_outside_workspace(self, attributor):
        assert attributor.module_of(frame(file="/usr/lib/python/json.py")) is None

    def test_sim_prefix(self, attributor):
        assert attributor.module_of(frame(file="<sim>/liby/util.py")) == "liby.util"

    def test_library_of(self, attributor):
        assert attributor.library_of(frame(file="/ws/libx/extra/heavy.py")) == "libx"

    def test_libraries_in_path_deduplicated(self, attributor):
        path = (
            frame(file="/ws/handler.py"),
            frame(file="/ws/libx/__init__.py"),
            frame(file="/ws/libx/core.py"),
            frame(file="/ws/liby/__init__.py"),
        )
        assert attributor.libraries_in(path) == {"libx", "liby"}

    def test_cache_consistency(self, attributor):
        target = frame(file="/ws/libx/core.py")
        assert attributor.module_of(target) == attributor.module_of(target)
