"""Tests for the 22-application catalog (Table II population)."""

import pytest

from repro.apps.catalog import (
    APP_DEFINITIONS,
    FAASLIGHT_STUDY_KEYS,
    OPTIMIZABLE_KEYS,
    app_by_key,
    benchmark_apps,
)
from repro.apps.model import instantiate
from repro.common.errors import SpecError

from tests.apps.oracles import expected_init_speedup


@pytest.fixture(scope="module")
def suite():
    return benchmark_apps()


class TestCatalogShape:
    def test_twenty_two_applications(self):
        assert len(APP_DEFINITIONS) == 22

    def test_unique_keys_and_names(self):
        keys = [d.key for d in APP_DEFINITIONS]
        names = [d.name for d in APP_DEFINITIONS]
        assert len(set(keys)) == 22
        assert len(set(names)) == 22

    def test_seventeen_optimizable(self):
        assert len(OPTIMIZABLE_KEYS) == 17

    def test_faaslight_study_apps_present(self):
        assert set(FAASLIGHT_STUDY_KEYS) <= set(OPTIMIZABLE_KEYS)
        assert len(FAASLIGHT_STUDY_KEYS) == 5

    def test_suites_covered(self):
        suites = {d.suite for d in APP_DEFINITIONS}
        assert suites == {"RainbowCake", "FaaSLight", "FaaSWorkbench", "RealWorld"}

    def test_four_real_world_optimizable(self):
        real = [
            d
            for d in APP_DEFINITIONS
            if d.suite == "RealWorld" and d.paper is not None
        ]
        assert len(real) == 4

    def test_unknown_key_raises(self):
        with pytest.raises(SpecError, match="'NOPE'.*R-DV.*FWB-MP"):
            app_by_key("NOPE")


class TestTable2ProgramInformation:
    @pytest.mark.parametrize(
        "key",
        [d.key for d in APP_DEFINITIONS if d.paper is not None],
    )
    def test_library_and_module_counts_match_paper(self, key, suite):
        app = next(a for a in suite if a.key == key)
        paper = app.definition.paper
        assert app.library_count == paper.lib_count
        assert app.module_count == paper.module_count

    @pytest.mark.parametrize(
        "key",
        [d.key for d in APP_DEFINITIONS if d.paper is not None],
    )
    def test_expected_init_speedup_within_band(self, key, suite):
        app = next(a for a in suite if a.key == key)
        paper = app.definition.paper
        assert expected_init_speedup(app) == pytest.approx(
            paper.init_speedup, rel=0.12
        )

    def test_all_apps_instantiate_and_validate(self, suite):
        for app in suite:
            app.ecosystem.validate()
            assert app.entries
            assert app.mix.entries


class TestSharedLibraries:
    """Apps that name the same library hold the same (frozen) spec."""

    def test_two_apps_share_one_numpy(self):
        one = instantiate(app_by_key("R-DV"))
        two = instantiate(app_by_key("FL-PWM"))
        assert one.ecosystem is not two.ecosystem
        assert one.ecosystem.library("slnumpy") is two.ecosystem.library("slnumpy")

    def test_generic_libraries_are_told_apart_by_every_argument(self):
        from repro.apps.catalog import _generic

        base = _generic("sljoblib", 160, 6, 420.0, 26_000.0, seed=105)()
        assert _generic("sljoblib", 160, 6, 420.0, 26_000.0, seed=105)() is base
        assert instantiate(app_by_key("FL-PWM")).ecosystem.library("sljoblib") is base
        for other in (
            _generic("sljoblib", 161, 6, 420.0, 26_000.0, seed=105),
            _generic("sljoblib", 160, 5, 420.0, 26_000.0, seed=105),
            _generic("sljoblib", 160, 6, 421.0, 26_000.0, seed=105),
            _generic("sljoblib", 160, 6, 420.0, 26_001.0, seed=105),
            _generic("sljoblib", 160, 6, 420.0, 26_000.0, seed=106),
            _generic("sljoblib", 160, 6, 420.0, 26_000.0, seed=105, deps=("slnumpy",)),
        ):
            built = other()
            assert built is not base and built != base

    def test_the_catalog_builds_83_libraries_for_109_uses(self, suite):
        held = [
            app.ecosystem.library(name)
            for app in suite
            for name in app.ecosystem.library_names()
        ]
        assert len(held) == 109
        assert len({id(library) for library in held}) == 83
        assert sum(app.module_count for app in suite) == 12_371
