"""Sharded replay: app-hash splitting and the wire's refusals.

That any partition merges to the whole trace's replay is checked against
the reference engine (``tests/reference/test_engines.py``); these tests
pin which shard an app lands on and how a bad wire is refused.
"""

import pytest

from repro.common.errors import WorkloadError
from repro.faas.cluster import FleetConfig
from repro.faas.sim import SimPlatformConfig
from repro.metrics import PricingModel, merge_wire
from repro.workloads.shard import (
    ShardReplaySpec,
    replay_shard_wire,
    shard_index,
    shard_trace,
)
from repro.workloads.trace import ProductionTrace, TraceGenerator

#: Small but non-trivial: multi-entry apps, jitter on, keep-alive churn.
TRACE = TraceGenerator(
    app_count=8,
    duration_hours=24.0,
    window_hours=12.0,
    mean_requests_per_window=250.0,
    seed=5,
).generate()
SPEC = ShardReplaySpec(
    platform=SimPlatformConfig(record_traces=False, jitter_sigma=0.05),
    fleet=FleetConfig(max_containers=3, keep_alive_s=60.0),
    seed=13,
    replay_seed=3,
    scale=0.4,
    window_s=3600.0,
)


class TestShardSplit:
    def test_every_app_lands_in_exactly_one_shard(self):
        shards = shard_trace(TRACE, 3)
        names = sorted(app.name for shard in shards for app in shard.apps)
        assert names == sorted(app.name for app in TRACE.apps)

    def test_assignment_is_stable_and_order_free(self):
        for app in TRACE.apps:
            assert shard_index(app.name, 4) == shard_index(app.name, 4)
        shuffled = ProductionTrace(
            window_hours=TRACE.window_hours, apps=list(reversed(TRACE.apps))
        )
        by_name = {
            app.name: index
            for index, shard in enumerate(shard_trace(TRACE, 4))
            for app in shard.apps
        }
        for index, shard in enumerate(shard_trace(shuffled, 4)):
            for app in shard.apps:
                assert by_name[app.name] == index

    def test_zero_shards_rejected(self):
        with pytest.raises(WorkloadError):
            shard_trace(TRACE, 0)


class TestWireTransfer:
    """The wire workers ship (the accumulator's plain state behind a
    version number) is refused when it cannot merge."""

    def test_version_mismatch_fails_loudly(self):
        wire = replay_shard_wire(SPEC, TRACE)
        with pytest.raises(ValueError):
            merge_wire([(99,) + wire[1:]])

    def test_merge_rejects_window_mismatch(self):
        other_spec = ShardReplaySpec(
            platform=SPEC.platform,
            fleet=SPEC.fleet,
            seed=SPEC.seed,
            replay_seed=SPEC.replay_seed,
            scale=SPEC.scale,
            window_s=7200.0,
        )
        with pytest.raises(ValueError):
            merge_wire(
                [replay_shard_wire(SPEC, TRACE), replay_shard_wire(other_spec, TRACE)]
            )

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_wire([])


class TestMergeValidation:
    # The empty and window-mismatch refusals live in TestWireTransfer
    # (the one merge left); pricing is refused by the same reader.
    def test_merge_rejects_pricing_mismatch(self):
        priced_spec = ShardReplaySpec(
            platform=SPEC.platform,
            fleet=SPEC.fleet,
            seed=SPEC.seed,
            replay_seed=SPEC.replay_seed,
            scale=SPEC.scale,
            window_s=SPEC.window_s,
            pricing=PricingModel(per_gb_second=99.0),
        )
        with pytest.raises(ValueError, match="pricing mismatch"):
            merge_wire(
                [replay_shard_wire(SPEC, TRACE), replay_shard_wire(priced_spec, TRACE)]
            )
