"""Tests for the cost model."""

import pytest

from repro.synthlib.costmodel import CostModel, env_scale
from repro.synthlib.spec import ModuleKey


@pytest.fixture()
def model(small_ecosystem) -> CostModel:
    return CostModel(ecosystem=small_ecosystem, scale=0.5)


def test_scale_must_be_positive(small_ecosystem):
    with pytest.raises(ValueError):
        CostModel(ecosystem=small_ecosystem, scale=0.0)


def test_init_cost_scaled(model):
    keys = [ModuleKey("libx", ""), ModuleKey("libx", "core")]
    assert model.init_cost_ms(keys) == pytest.approx((10 + 20) * 0.5)


def test_memory_not_scaled(model):
    keys = [ModuleKey("libx", "core")]
    assert model.memory_kb(keys) == 2000.0


def test_cold_start_closure_cost(model):
    assert model.cold_start_init_ms([ModuleKey("libx", "")]) == pytest.approx(50.0)


def test_cold_start_with_deferral(model):
    cost = model.cold_start_init_ms(
        [ModuleKey("libx", "")],
        deferred=frozenset({ModuleKey("libx", "extra")}),
    )
    assert cost == pytest.approx((100 - 65) * 0.5)


def test_function_cost(model):
    assert model.function_cost_ms("libx.core.fast:work") == pytest.approx(1.0)


class TestEnvScale:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("SLIMSTART_COST_SCALE", raising=False)
        assert env_scale(2.0) == 2.0

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv("SLIMSTART_COST_SCALE", "0.25")
        assert env_scale() == 0.25

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("SLIMSTART_COST_SCALE", "fast")
        with pytest.raises(ValueError):
            env_scale()

    def test_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv("SLIMSTART_COST_SCALE", "0")
        with pytest.raises(ValueError):
            env_scale()
