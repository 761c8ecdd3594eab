"""Tests for procedural library construction."""

import pytest

from repro.common.errors import SpecError
from repro.synthlib.builder import ClusterPlan, build_library, _level_counts


class TestClusterPlan:
    def test_rejects_bad_share(self):
        with pytest.raises(SpecError):
            ClusterPlan("c", module_count=3, init_share=1.5)

    def test_rejects_nested_modules_at_depth_two(self):
        with pytest.raises(SpecError):
            ClusterPlan("c", module_count=5, init_share=0.2, depth=2)

    def test_rejects_zero_modules(self):
        with pytest.raises(SpecError):
            ClusterPlan("c", module_count=0, init_share=0.2)


class TestLevelCounts:
    def test_total_preserved(self):
        counts = _level_counts(100, 4)
        assert sum(counts) == 100

    def test_deeper_levels_heavier(self):
        counts = _level_counts(100, 4)
        assert counts == sorted(counts)

    def test_no_empty_intermediate_levels(self):
        counts = _level_counts(7, 5)
        deepest = max(i for i, c in enumerate(counts) if c)
        assert all(counts[i] >= 1 for i in range(deepest))

    def test_zero_levels(self):
        assert _level_counts(5, 0) == []


class TestBuildLibrary:
    @pytest.fixture(scope="class")
    def library(self):
        return build_library(
            "genlib",
            total_init_cost_ms=400.0,
            total_memory_kb=20_000.0,
            seed=3,
            clusters=[
                ClusterPlan("alpha", module_count=12, init_share=0.5, depth=4),
                ClusterPlan("beta", module_count=6, init_share=0.3, depth=3),
                ClusterPlan("util", module_count=1, init_share=0.1, depth=2),
            ],
            shared_utility="util",
        )

    def test_module_count(self, library):
        assert library.module_count == 1 + 12 + 6 + 1

    def test_total_init_cost_preserved(self, library):
        assert library.total_init_cost_ms == pytest.approx(400.0)

    def test_total_memory_preserved(self, library):
        assert sum(m.memory_kb for m in library.modules) == pytest.approx(20_000.0)

    def test_cluster_share_respected(self, library):
        assert library.subtree_init_cost_ms("alpha") == pytest.approx(200.0)
        assert library.subtree_init_cost_ms("beta") == pytest.approx(120.0)

    def test_root_gets_remainder(self, library):
        assert library.module("").init_cost_ms == pytest.approx(40.0)

    def test_root_imports_every_cluster(self, library):
        assert set(library.module("").imports) == {"alpha", "beta", "util"}

    def test_whole_library_loads_from_root(self, library):
        from repro.synthlib.spec import Ecosystem, ModuleKey

        eco = Ecosystem([library])
        closure = eco.import_closure([ModuleKey("genlib", "")])
        assert len(closure) == library.module_count

    def test_orchestrator_calls_all_children(self, library):
        run = next(f for f in library.module("alpha").functions if f.name == "run")
        children = library.children("alpha")
        called = {call.partition(":")[0] for call in run.calls}
        for child in children:
            assert f"genlib.{child}" in called

    def test_shared_utility_called_by_other_clusters(self, library):
        run = next(f for f in library.module("alpha").functions if f.name == "run")
        assert any("genlib.util" in call for call in run.calls)

    def test_package_f0_cascades_to_all_children(self, library):
        for name in library.module_names():
            children = library.children(name)
            if not children or name == "":
                continue
            f0 = next(f for f in library.module(name).functions if f.name == "f0")
            called = {call.partition(":")[0] for call in f0.calls}
            assert called == {f"genlib.{child}" for child in children}

    def test_full_coverage_cascade(self, library):
        """Calling every cluster run must touch every cluster module."""
        from repro.synthlib.spec import Ecosystem

        eco = Ecosystem([library])
        touched = set()

        def walk(qualified, stack):
            if qualified in stack:
                return
            ref = eco.parse_function(qualified)
            touched.add(ref.key.dotted)
            for target in eco.call_targets(ref):
                walk(target.qualified, stack | {qualified})

        for cluster in ("alpha", "beta", "util"):
            walk(f"genlib.{cluster}:run", set())
        cluster_modules = {
            f"genlib.{name}"
            for name in library.module_names()
            if name  # root is exercised via use_* functions instead
        }
        assert cluster_modules <= touched

    def test_deterministic_given_seed(self):
        kwargs = dict(
            total_init_cost_ms=100.0,
            total_memory_kb=1000.0,
            seed=9,
            clusters=[ClusterPlan("a", module_count=5, init_share=0.9, depth=3)],
        )
        one = build_library("det", **kwargs)
        two = build_library("det", **kwargs)
        assert one == two

    def test_equal_arguments_get_the_same_spec(self):
        def build(**overrides):
            kwargs = dict(
                total_init_cost_ms=100.0,
                total_memory_kb=1000.0,
                seed=9,
                clusters=[
                    ClusterPlan("a", module_count=5, init_share=0.8, depth=3),
                    ClusterPlan("u", module_count=1, init_share=0.1, depth=2),
                ],
                root_external_imports=["elsewhere"],
            )
            kwargs.update(overrides)
            return build_library(kwargs.pop("name", "memo"), **kwargs)

        one = build()
        # Fresh (equal) lists and plans each call: the memo is on values.
        assert build() is one
        plans = (
            ClusterPlan("a", module_count=5, init_share=0.8, depth=3),
            ClusterPlan("u", module_count=1, init_share=0.1, depth=2),
        )
        assert build(clusters=plans, root_external_imports=("elsewhere",)) is one
        for changed in (
            dict(name="memo2"),
            dict(seed=10),
            dict(total_init_cost_ms=101.0),
            dict(total_memory_kb=1001.0),
            dict(category="Other"),
            dict(root_external_imports=()),
            dict(shared_utility="u"),
            dict(clusters=plans[:1]),
            dict(clusters=plans[::-1]),
        ):
            other = build(**changed)
            assert other is not one and other != one, changed

    def test_refusals_are_not_remembered(self):
        for _ in range(2):
            with pytest.raises(SpecError, match="at least one cluster"):
                build_library(
                    "empty", total_init_cost_ms=1.0, total_memory_kb=1.0, clusters=[]
                )

    def test_shares_over_one_rejected(self):
        with pytest.raises(SpecError):
            build_library(
                "bad",
                total_init_cost_ms=10.0,
                total_memory_kb=10.0,
                clusters=[
                    ClusterPlan("a", module_count=2, init_share=0.7, depth=3),
                    ClusterPlan("b", module_count=2, init_share=0.7, depth=3),
                ],
            )

    def test_duplicate_cluster_names_rejected(self):
        with pytest.raises(SpecError):
            build_library(
                "bad",
                total_init_cost_ms=10.0,
                total_memory_kb=10.0,
                clusters=[
                    ClusterPlan("a", module_count=2, init_share=0.2, depth=3),
                    ClusterPlan("a", module_count=2, init_share=0.2, depth=3),
                ],
            )

    def test_unknown_shared_utility_rejected(self):
        with pytest.raises(SpecError):
            build_library(
                "bad",
                total_init_cost_ms=10.0,
                total_memory_kb=10.0,
                clusters=[ClusterPlan("a", module_count=2, init_share=0.2, depth=3)],
                shared_utility="ghost",
            )
