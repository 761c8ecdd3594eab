"""Sharded replay: app-hash splitting and the bit-identical merge property.

The exactness claim of :mod:`repro.workloads.shard` is strong — *any*
partition of a trace's apps, replayed on independent platforms and merged
through :func:`repro.metrics.merge_wire`, equals the unsharded replay bit
for bit.  These tests pin it property-style (arbitrary partitions and
shard counts under hypothesis) and once through a real
``ProcessPoolExecutor`` so the pickling path is exercised too.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.faas.autoscale import PanicWindow
from repro.faas.cluster import FleetConfig
from repro.faas.sim import SimPlatformConfig
from repro.metrics import (
    QOS_PRESETS,
    PricingModel,
    from_wire,
    merge_wire,
)
from repro.workloads.shard import (
    ShardReplaySpec,
    replay_shard_wire,
    replay_sharded,
    shard_index,
    shard_trace,
)
from repro.workloads.trace import ProductionTrace, TraceGenerator
from tests.faas.oracles import unsharded_replay

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
#: The unsharded ground truth every property compares against.
REFERENCE = unsharded_replay(SPEC, TRACE)

#: The same replay carrying a three-class QoS mix (tight deadlines so the
#: per-class violation/utility series is non-trivial) — exercises the
#: merge path for ``qos_counts``/``qos_sums`` under arbitrary partitions.
QOS_SPEC = ShardReplaySpec(
    platform=SPEC.platform,
    fleet=SPEC.fleet,
    seed=SPEC.seed,
    replay_seed=SPEC.replay_seed,
    scale=SPEC.scale,
    window_s=SPEC.window_s,
    qos=(QOS_PRESETS["critical"], QOS_PRESETS["standard"], QOS_PRESETS["batch"]),
    qos_seed=11,
)
QOS_REFERENCE = unsharded_replay(QOS_SPEC, TRACE)


def as_checkpointed(wire: tuple) -> tuple:
    """``wire`` with its state sent through JSON, as a shard checkpoint does."""
    version, state = wire
    return version, json.loads(json.dumps(state))


def partition(assignment: list[int]) -> list[ProductionTrace]:
    """Split TRACE by an arbitrary app -> shard assignment."""
    shards: dict[int, ProductionTrace] = {}
    for app, shard in zip(TRACE.apps, assignment):
        shards.setdefault(
            shard, ProductionTrace(window_hours=TRACE.window_hours)
        ).apps.append(app)
    return list(shards.values())


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


class TestMergeExactness:
    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_any_worker_count_is_bit_identical(self, workers):
        assert replay_sharded(TRACE, SPEC, workers=workers) == REFERENCE

    @given(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(TRACE.apps),
            max_size=len(TRACE.apps),
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_any_app_partition_merges_bit_identical(self, assignment):
        # The wire's state is the checkpoint's: merging what came back
        # from JSON is what a resumed sharded run does.
        shards = partition(assignment)
        wires = [as_checkpointed(replay_shard_wire(SPEC, shard)) for shard in shards]
        assert merge_wire(wires) == REFERENCE

    @given(st.permutations(range(3)))
    @settings(max_examples=6, deadline=None)
    def test_merge_order_is_irrelevant(self, order):
        shards = shard_trace(TRACE, 3)
        wires = [replay_shard_wire(SPEC, shard) for shard in shards]
        assert merge_wire([wires[i] for i in order]) == REFERENCE

    @given(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(TRACE.apps),
            max_size=len(TRACE.apps),
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_qos_series_merges_bit_identical_under_any_partition(self, assignment):
        # QoS tagging is per-app-seeded, so the per-class deadline/utility
        # series survives arbitrary partitions bit for bit — including the
        # per-(class, source) float utility partials.
        shards = partition(assignment)
        wires = [
            as_checkpointed(replay_shard_wire(QOS_SPEC, shard)) for shard in shards
        ]
        assert merge_wire(wires) == QOS_REFERENCE

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=5, deadline=None)
    def test_qos_any_worker_count_is_bit_identical(self, workers):
        assert replay_sharded(TRACE, QOS_SPEC, workers=workers) == QOS_REFERENCE

    def test_qos_reference_series_is_nontrivial(self):
        # Guard the properties above against vacuous success: the mix must
        # actually produce per-class series with activity in them.
        assert len(QOS_REFERENCE.qos) == 3
        assert sum(entry.completed for entry in QOS_REFERENCE.qos) > 0
        assert QOS_REFERENCE.utility != 0.0
        # Untagged replays stay untouched by the QoS machinery.
        assert REFERENCE.qos == ()

    def test_stateful_policy_shards_exactly_too(self):
        spec = ShardReplaySpec(
            platform=SPEC.platform,
            fleet=FleetConfig(
                max_containers=3,
                keep_alive_s=60.0,
                policy=PanicWindow(
                    target=0.6, stable_window_s=600.0, panic_window_s=60.0
                ),
            ),
            seed=SPEC.seed,
            replay_seed=SPEC.replay_seed,
            scale=SPEC.scale,
            window_s=SPEC.window_s,
        )
        assert replay_sharded(TRACE, spec, workers=3) == unsharded_replay(spec, TRACE)


@pytest.mark.slow
def test_process_pool_path_matches_inline():
    # workers > 1 actually crosses process boundaries (pickled spec and
    # sub-traces, pickled wires back); must equal the inline result.
    assert replay_sharded(TRACE, SPEC, workers=2) == REFERENCE


class TestWireTransfer:
    """The wire workers ship instead of pickled summaries (the
    accumulator's plain state behind a version number): loss-free,
    merge-equivalent, and no bigger."""

    def test_single_wire_roundtrips_to_reference(self):
        wire = replay_shard_wire(SPEC, TRACE)
        assert merge_wire([wire]) == REFERENCE
        assert from_wire(wire).finalize() == REFERENCE

    @given(
        st.lists(
            st.integers(min_value=0, max_value=3),
            min_size=len(TRACE.apps),
            max_size=len(TRACE.apps),
        )
    )
    @settings(max_examples=5, deadline=None)
    def test_any_partition_merges_bit_identical_over_the_wire(self, assignment):
        shards = partition(assignment)
        wires = [replay_shard_wire(SPEC, shard) for shard in shards]
        assert merge_wire(wires) == REFERENCE

    def test_qos_series_survive_the_wire(self):
        shards = shard_trace(TRACE, 3)
        wires = [replay_shard_wire(QOS_SPEC, shard) for shard in shards]
        assert merge_wire(wires) == QOS_REFERENCE

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

    def test_flush_charges_natural_expiry(self):
        # Sharded runs charge containers to their keep-alive expiry, so
        # the provisioned tail never depends on which shard saw the last
        # global event: totals must exceed a clock-truncated flush.
        truncated = unsharded_replay(SPEC, TRACE)
        assert truncated.gb_seconds == REFERENCE.gb_seconds  # deterministic
        assert math.isfinite(REFERENCE.gb_seconds)
        assert REFERENCE.gb_seconds > 0
