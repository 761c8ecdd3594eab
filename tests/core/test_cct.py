"""Tests for the calling context tree."""

import pytest

from repro.core.cct import CallingContextTree
from repro.core.samples import Frame, Sample

from tests.core.oracles import paths_to


def frame(function: str, file: str = "/ws/libx/m.py") -> Frame:
    return Frame(file=file, function=function, line=1)


def sample(*functions: str, weight: float = 1.0, kind: str = "runtime") -> Sample:
    return Sample(
        path=tuple(frame(fn) for fn in functions), weight=weight, kind=kind
    )


class TestConstruction:
    def test_single_sample_path(self):
        tree = CallingContextTree.from_samples([sample("a", "b", "c")])
        assert len(dict(tree.walk())) == 3

    def test_shared_prefix_merges(self):
        tree = CallingContextTree.from_samples(
            [sample("a", "b"), sample("a", "c")]
        )
        assert len(dict(tree.walk())) == 3  # a, a->b, a->c

    def test_same_function_different_context_distinct(self):
        # Fig. 5's Lib-6: one function reached via two call paths must
        # occupy two nodes.
        tree = CallingContextTree.from_samples(
            [sample("a", "util"), sample("b", "util")]
        )
        assert len(dict(tree.walk())) == 4

    def test_weight_lands_on_leaf(self):
        tree = CallingContextTree.from_samples([sample("a", "b", weight=2.5)])
        paths = dict(tree.walk())
        leaf = paths[(frame("a"), frame("b"))]
        assert leaf.self_runtime == 2.5
        root_child = paths[(frame("a"),)]
        assert root_child.self_runtime == 0.0

    def test_init_weight_separated(self):
        tree = CallingContextTree.from_samples(
            [sample("a", kind="init", weight=3.0), sample("a", weight=1.0)]
        )
        assert tree.total_init() == 3.0
        assert tree.total_runtime() == 1.0


class TestEscalation:
    def test_total_includes_subtree(self):
        tree = CallingContextTree.from_samples(
            [sample("orchestrator", "worker", weight=99.0),
             sample("orchestrator", weight=1.0)]
        )
        nodes = dict(tree.walk())
        orchestrator = nodes[(frame("orchestrator"),)]
        # The orchestrator has 1 sample of its own but escalation credits
        # it with the worker's 99 (the Fig. 5 Lib-1 attribution fix).
        assert orchestrator.self_runtime == 1.0
        assert orchestrator.total_runtime() == 100.0

    def test_escalation_conservation(self):
        samples = [sample("a", "b"), sample("a", "c", weight=2.0), sample("d")]
        tree = CallingContextTree.from_samples(samples)
        total = sum(s.weight for s in samples)
        assert tree.total_runtime() == pytest.approx(total)


class TestQueries:
    def test_paths_to_heaviest_first(self):
        tree = CallingContextTree.from_samples(
            [sample("a", "t", weight=1.0), sample("b", "t", weight=9.0)]
        )
        matches = paths_to(tree, lambda f: f.function == "t")
        assert matches[0][1] == 9.0
        assert matches[0][0][0].function == "b"

    def test_paths_to_limit(self):
        samples = [sample(f"caller{i}", "t") for i in range(10)]
        tree = CallingContextTree.from_samples(samples)
        assert len(paths_to(tree, lambda f: f.function == "t", limit=3)) == 3

    def test_render_contains_functions(self):
        tree = CallingContextTree.from_samples([sample("alpha", "beta")])
        text = tree.render()
        assert "alpha" in text and "beta" in text
