"""Tests for the profile analyzer (Eq. 4, classification, planning)."""

import pytest

from repro.apps import APP_DEFINITIONS, app_by_key, instantiate
from repro.apps.model import bench_platform_config
from repro.core.analyzer import (
    ACTIVE,
    Analyzer,
    AnalyzerConfig,
    InefficiencyReport,
    RARE,
    UNUSED,
    dynamic_categorization,
)
from repro.core.pipeline import SlimStart
from repro.core.profiles import ImportProfile, ImportRecord, ProfileBundle
from repro.core.samples import Frame, LibraryAttributor, Sample, SampleSet
from repro.faas.sim import SimPlatform
from repro.plan import DeferralPlan
from repro.workloads.arrival import poisson_schedule

from tests.core.oracles import ScannedProfile, naive_call_paths


def _record(module, self_ms, parent=None, order=1):
    return ImportRecord(
        module=module, self_ms=self_ms, cumulative_ms=self_ms, parent=parent, order=order
    )


def _lib_frame(module_path: str, function: str = "f") -> Frame:
    return Frame(file=f"/ws/{module_path}.py", function=function, line=1)


def _handler_frame(function: str = "handle") -> Frame:
    return Frame(file="/ws/handler.py", function=function, line=1)


@pytest.fixture()
def attributor() -> LibraryAttributor:
    return LibraryAttributor(
        workspace_prefixes=("/ws",),
        library_names=frozenset({"libhot", "libcold", "librare", "libtiny"}),
    )


def make_bundle(samples, init_ratio=0.5, handler_imports=("libhot", "libcold", "librare")):
    profile = ImportProfile(
        [
            _record("libhot", 50.0, order=1),
            _record("libhot.used", 150.0, "libhot", 2),
            _record("libhot.dead", 100.0, "libhot", 3),
            _record("libcold", 300.0, order=4),
            _record("librare", 200.0, order=5),
        ]
    )
    return ProfileBundle(
        app="app",
        import_profile=profile,
        samples=SampleSet(samples),
        entry_counts={"handle": 100},
        handler_imports=handler_imports,
        mean_cold_e2e_ms=1000.0,
        mean_cold_init_ms=1000.0 * init_ratio,
        cold_starts=10,
    )


def hot_sample(weight=100.0):
    return Sample(
        path=(_handler_frame(), _lib_frame("libhot/used")), weight=weight
    )


def rare_sample(weight=1.0):
    return Sample(
        path=(_handler_frame("aux"), _lib_frame("librare/__init__")), weight=weight
    )


class TestConfig:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(rare_utilization_threshold=1.5)


class TestUtilization:
    def test_library_utilization_eq4(self, attributor):
        bundle = make_bundle([hot_sample(90.0), rare_sample(10.0)])
        analyzer = Analyzer()
        utilization, denominator = analyzer.library_utilization(bundle, attributor)
        assert denominator == 100.0
        assert utilization["libhot"] == pytest.approx(0.9)
        assert utilization["librare"] == pytest.approx(0.1)

    def test_handler_only_samples_excluded_from_denominator(self, attributor):
        handler_only = Sample(path=(_handler_frame(),), weight=500.0)
        bundle = make_bundle([hot_sample(50.0), handler_only])
        utilization, denominator = Analyzer().library_utilization(
            bundle, attributor
        )
        assert denominator == 50.0
        assert utilization["libhot"] == 1.0

    def test_init_samples_excluded(self, attributor):
        init_sample = Sample(
            path=(_handler_frame(), _lib_frame("libcold/__init__", "<module>")),
            weight=400.0,
            kind="init",
        )
        bundle = make_bundle([hot_sample(), init_sample])
        utilization, _ = Analyzer().library_utilization(bundle, attributor)
        assert "libcold" not in utilization

    def test_escalation_counts_whole_path(self, attributor):
        nested = Sample(
            path=(
                _handler_frame(),
                _lib_frame("libhot/__init__", "orchestrate"),
                _lib_frame("librare/worker"),
            ),
            weight=10.0,
        )
        utilization, _ = Analyzer().library_utilization(
            make_bundle([nested]), attributor
        )
        assert utilization["libhot"] == 1.0
        assert utilization["librare"] == 1.0


class TestClassificationAndPlan:
    def test_unused_library_deferred_at_handler(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample(), rare_sample()]), attributor
        )
        row = report.row("libcold")
        assert row.classification == UNUSED
        assert "libcold" in report.plan.deferred_handler_imports

    def test_rare_library_deferred_at_handler(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample(100.0), rare_sample(1.0)]), attributor
        )
        row = report.row("librare")
        assert row.classification == RARE
        assert "librare" in report.plan.deferred_handler_imports

    def test_active_library_not_handler_deferred(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample(), rare_sample()]), attributor
        )
        assert report.row("libhot").classification == ACTIVE
        assert "libhot" not in report.plan.deferred_handler_imports

    def test_dead_subtree_inside_active_library_flagged(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample(), rare_sample()]), attributor
        )
        flagged = {flag.module for flag in report.subtree_flags}
        assert "libhot.dead" in flagged
        assert "libhot.dead" in report.plan.deferred_library_edges
        assert "libhot.used" not in report.plan.deferred_library_edges

    def test_transitively_loaded_unused_library_gets_edge(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample(), rare_sample()], handler_imports=("libhot",)),
            attributor,
        )
        assert "libcold" in report.plan.deferred_library_edges
        assert "libcold" not in report.plan.deferred_handler_imports

    def test_init_ratio_gate(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample()], init_ratio=0.05), attributor
        )
        assert not report.profiled
        assert report.plan.is_empty

    def test_min_library_share_ignores_trivia(self, attributor):
        bundle = make_bundle([hot_sample()], handler_imports=("libcold", "libtiny"))
        bundle.import_profile.add(_record("libtiny", 5.0, order=6))
        report = Analyzer().analyze(bundle, attributor)
        # Both are unused; libtiny is 5/805 < 1 % of init: not worth deferring.
        assert "libcold" in report.plan.all_deferred
        assert "libtiny" not in report.plan.all_deferred

    def test_rows_sorted_by_init_cost(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample(), rare_sample()]), attributor
        )
        init_costs = [row.init_ms for row in report.rows]
        assert init_costs == sorted(init_costs, reverse=True)

    def test_call_paths_for_flagged_modules(self, attributor):
        report = Analyzer().analyze(
            make_bundle([hot_sample(), rare_sample()]), attributor
        )
        assert "librare" in report.call_paths
        assert any("handler.py" in path for path in report.call_paths["librare"])

    def test_subtree_depth_limit(self, attributor):
        deep_profile_bundle = make_bundle([hot_sample(), rare_sample()])
        deep_profile_bundle.import_profile.add(
            _record("libhot.used.sub", 120.0, "libhot.used", 9)
        )
        report = Analyzer().analyze(deep_profile_bundle, attributor)
        assert "libhot.used.sub" not in report.plan.deferred_library_edges


class TestDynamicCategorization:
    def test_buckets_sum_to_library_share(self, attributor):
        bundle = make_bundle([hot_sample(100.0), rare_sample(1.0)])
        buckets = dynamic_categorization(bundle, attributor)
        assert sum(buckets.values()) == pytest.approx(1.0)

    def test_bucket_assignment(self, attributor):
        bundle = make_bundle([hot_sample(100.0), rare_sample(1.0)])
        buckets = dynamic_categorization(bundle, attributor)
        # libcold (300) + libhot.dead (100) + libhot root (50, untouched
        # directly... root touched? root frame not in samples) are no-sample.
        assert buckets["no_sample"] > buckets["rare"] > 0.0
        assert buckets["hot"] > 0.0


def profiled_catalog_app(definition):
    """``(bundle, attributor)`` of a catalog app after ten minutes of its mix."""
    app = instantiate(definition)
    config = app.sim_config()
    platform = SimPlatform(config=bench_platform_config())
    platform.deploy(config)
    tool = SlimStart()
    schedule = poisson_schedule(app.mix, rate_per_s=0.3, duration_s=600.0, seed=7)
    return (
        tool.profile_simulated(platform, config, schedule),
        tool.sim_attributor(config),
    )


class TestOneWalkMatchesAWalkPerModule:
    """``_call_paths`` against ``paths_to`` asked once per flagged module."""

    @pytest.mark.parametrize(
        "definition", APP_DEFINITIONS, ids=[d.key for d in APP_DEFINITIONS]
    )
    def test_every_catalog_app(self, definition):
        bundle, attributor = profiled_catalog_app(definition)
        analyzer = Analyzer()
        report = analyzer.analyze(bundle, attributor)
        expected = naive_call_paths(bundle, attributor, report)
        assert report.call_paths == expected
        assert list(report.call_paths) == list(expected)  # same key order
        assert report.flagged_modules == [] or expected

    def test_nested_flags_weight_ties_and_a_frameless_module(self, attributor):
        def sample(weight, *modules, kind="runtime"):
            return Sample(
                path=(_handler_frame(),) + tuple(_lib_frame(m) for m in modules),
                weight=weight,
                kind=kind,
            )

        bundle = make_bundle(
            [
                # Two callers reach libhot.dead.inner with equal weight: the
                # path itself breaks the tie.
                sample(4.0, "libhot/used", "libhot/dead/inner"),
                sample(4.0, "librare/__init__", "libhot/dead/inner"),
                # More candidates for libhot.dead than the three it keeps.
                sample(9.0, "libhot/dead/__init__"),
                sample(1.0, "libhot/dead/other"),
                sample(2.0, "libhot/dead/other", "libhot/dead/inner"),
                sample(3.0, "libhot/dead/__init__", kind="init"),
            ]
        )
        report = InefficiencyReport(
            app="app",
            profiled=True,
            init_ratio=0.5,
            total_init_ms=800.0,
            total_runtime_weight=0.0,
            plan=DeferralPlan(
                app="app",
                # libcold has no frames; libhot.dead.inner nests in libhot.dead.
                deferred_handler_imports=frozenset({"libcold"}),
                deferred_library_edges=frozenset(
                    {"libhot.dead", "libhot.dead.inner"}
                ),
            ),
        )
        found = Analyzer()._call_paths(bundle, attributor, report)
        assert found == naive_call_paths(bundle, attributor, report)
        assert list(found) == ["libhot.dead", "libhot.dead.inner"]
        assert len(found["libhot.dead"]) == 3
        assert found["libhot.dead.inner"][:2] == [  # /ws/libhot < /ws/librare
            "handler.py:handle -> used.py:f -> inner.py:f",
            "handler.py:handle -> __init__.py:f -> inner.py:f",
        ]


class TestIndexedScanMatchesPrefixScans:
    @pytest.mark.parametrize("key", ["R-GB", "FL-SA", "CVE"])
    def test_subtree_flags_are_bit_identical(self, key):
        bundle, attributor = profiled_catalog_app(app_by_key(key))
        analyzer = Analyzer()
        module_util = analyzer.module_utilization(bundle, attributor)
        profile = bundle.import_profile
        flagged = 0
        for library in profile.library_names():
            flags, scanned = (
                [
                    (f.module, f.init_ms.hex(), f.init_share.hex(),
                     float(f.utilization).hex())
                    for f in analyzer._scan_subtrees(
                        source, module_util, library, profile.total_init_ms
                    )
                ]
                for source in (profile, ScannedProfile(profile))
            )
            assert flags == scanned
            flagged += len(flags)
        assert flagged  # the scan found something to compare
