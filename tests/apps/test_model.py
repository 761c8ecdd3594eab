"""Tests for benchmark application instantiation and calibration."""

import pytest

from repro.apps.catalog import app_by_key
from repro.apps.model import instantiate
from repro.common.errors import SpecError

from tests.apps.oracles import expected_init_ms, expected_init_speedup


@pytest.fixture(scope="module")
def graph_bfs():
    return instantiate(app_by_key("R-GB"))


@pytest.fixture(scope="module")
def cve():
    return instantiate(app_by_key("CVE"))


class TestEntryConstruction:
    def test_main_entry_exists(self, graph_bfs):
        names = [entry.name for entry in graph_bfs.entries]
        assert "handle" in names

    def test_secondary_entry(self, graph_bfs):
        names = [entry.name for entry in graph_bfs.entries]
        assert "process" in names

    def test_never_entries_have_zero_popularity(self, graph_bfs):
        mix_entries = set(graph_bfs.mix.entries)
        admin = [e.name for e in graph_bfs.entries if e.name.startswith("admin_")]
        assert admin
        assert not (set(admin) & mix_entries)

    def test_rare_entries_have_small_popularity(self, cve):
        aux = [name for name in cve.mix.entries if name.startswith("aux_")]
        assert aux
        for name in aux:
            assert cve.mix.probability(name) == pytest.approx(0.01, abs=0.002)

    def test_main_entry_dominates_mix(self, graph_bfs):
        assert graph_bfs.mix.probability("handle") > 0.8


class TestProgramInformation:
    def test_loaded_libraries(self, cve):
        assert cve.library_count == 6
        assert "slelementpath" in cve.loaded_libraries()

    def test_module_count_counts_loaded_libraries(self, cve):
        assert cve.module_count == 760

    def test_average_depth_positive(self, graph_bfs):
        assert graph_bfs.average_depth > 2.0


class TestCalibration:
    def test_expected_speedup_close_to_paper(self, graph_bfs):
        paper = graph_bfs.definition.paper
        assert expected_init_speedup(graph_bfs) == pytest.approx(
            paper.init_speedup, rel=0.10
        )

    def test_removable_below_total(self, graph_bfs):
        removable, total = expected_init_ms(graph_bfs)
        assert 0 < removable < total

    def test_clean_app_has_nothing_removable(self):
        app = instantiate(app_by_key("R-FC"))
        assert expected_init_ms(app)[0] == 0.0
        assert expected_init_speedup(app) == 1.0


class TestMaterialization:
    def test_sim_config_valid(self, graph_bfs):
        config = graph_bfs.sim_config()
        assert config.name == "graph_bfs"
        assert config.handler_imports == ("sligraph",)

    def test_handler_source_parses_and_mentions_entries(self, graph_bfs):
        import ast

        source = graph_bfs.handler_source()
        tree = ast.parse(source)
        defs = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        for entry in graph_bfs.entries:
            assert entry.name in defs

    def test_real_workspace_runs(self, tmp_path):
        from repro.faas.local import LocalPlatform

        app = instantiate(app_by_key("R-GB"))
        deployment = app.build_real_workspace(tmp_path / "ws", scale=0.01)
        platform = LocalPlatform()
        platform.deploy(deployment)
        record = platform.invoke("graph_bfs", "handle")
        assert record.cold
        assert record.init_ms > 0

    def test_bad_definition_rejected(self):
        from repro.apps.model import AppDefinition

        with pytest.raises(SpecError):
            AppDefinition(
                key="X",
                name="bad app",  # not an identifier
                suite="s",
                category="c",
                description="d",
                library_builders=(),
                hot=("libx",),
            )
