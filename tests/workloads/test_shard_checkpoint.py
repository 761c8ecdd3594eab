"""Per-shard checkpoint/resume: sharded replays survive a mid-trace kill.

``repro.workloads.shard.replay_sharded(checkpoint=)`` promises that a
sharded replay killed at any point and resumed in fresh processes merges
**bit-identically** to an uninterrupted run — at any worker count,
including the 1-worker and unsharded references.  These tests pin that,
the manifest validation matrix (worker count / fingerprint / partition /
missing shard files all fail loudly), and the kind-confusion errors
between manifests and single-run checkpoints.  The kill-at-any-point
claim is property-tested under hypothesis for 1/2/4 workers.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CheckpointError, WorkloadError
from repro.faas.cluster import FleetConfig
from repro.faas.sim import SimPlatformConfig
from repro.faas.snapshot import (
    load_checkpoint,
    load_manifest,
    run_stream_checkpointed,
    shard_checkpoint_path,
    write_manifest,
)
from repro.workloads.shard import (
    ShardReplaySpec,
    build_shard_replay,
    prepare_sharded_checkpoint,
    replay_sharded,
    shard_trace,
)
from repro.workloads.trace import ProductionTrace, TraceGenerator
from tests.faas.oracles import unsharded_replay

#: Small but non-trivial: multi-entry apps, jitter on, keep-alive churn.
TRACE = TraceGenerator(
    app_count=4,
    duration_hours=24.0,
    window_hours=6.0,
    mean_requests_per_window=200.0,
    seed=5,
).generate()
SPEC = ShardReplaySpec(
    platform=SimPlatformConfig(record_traces=False, jitter_sigma=0.05),
    fleet=FleetConfig(max_containers=3, keep_alive_s=60.0),
    seed=13,
    replay_seed=3,
    scale=0.3,
    window_s=3600.0,
)
#: The unsharded ground truth every resume compares against.
REFERENCE = unsharded_replay(SPEC, TRACE)
FINGERPRINT = {"apps": 4, "scale": 0.3, "seed": 13}


class _Interrupt(Exception):
    """Simulated kill: raised from inside the arrival stream."""


def interrupt_after(stream, count):
    """Yield ``count`` arrivals from ``stream``, then die mid-trace."""
    for fed, item in enumerate(stream):
        if fed == count:
            raise _Interrupt
        yield item


def kill_all_shards(tmp, workers, kill_at, fingerprint=FINGERPRINT, spec=SPEC):
    """Set up a checkpointed sharded run and kill every shard mid-trace.

    Runs each shard in-process through the same
    :func:`run_stream_checkpointed` driver the pool workers use, with the
    stream wrapped to raise after ``kill_at`` arrivals — the on-disk
    state afterwards is exactly what a hard-killed run leaves behind.
    Returns the manifest path.
    """
    path = Path(tmp) / "ckpt.json"
    shards, shard_paths, fingerprints, resumed = prepare_sharded_checkpoint(
        TRACE, path, spec, workers, fingerprint
    )
    assert not resumed
    for shard, shard_path, shard_fp in zip(shards, shard_paths, fingerprints):
        platform, stream, accumulator = build_shard_replay(spec, shard)
        try:
            run_stream_checkpointed(
                platform,
                interrupt_after(stream, kill_at),
                accumulator,
                shard_path,
                flush_at=math.inf,
                keep=True,
                fingerprint=shard_fp,
            )
        except _Interrupt:
            pass
    return path


# -- uninterrupted runs ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_uninterrupted_matches_unsharded_and_cleans_up(tmp_path, workers):
    path = tmp_path / "ckpt.json"
    summary = replay_sharded(
        TRACE, SPEC, workers=workers, checkpoint=path, fingerprint=FINGERPRINT
    )
    assert summary == REFERENCE
    assert summary == replay_sharded(TRACE, SPEC, workers=workers)
    assert list(tmp_path.iterdir()) == []


def test_keep_leaves_manifest_and_shards(tmp_path):
    path = tmp_path / "ckpt.json"
    replay_sharded(
        TRACE, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT, keep=True
    )
    assert path.exists()
    manifest = load_manifest(path)
    assert manifest["workers"] == 2
    for shard in range(2):
        assert shard_checkpoint_path(path, shard, 2).exists()


@pytest.mark.parametrize("checkpoint", [None, "ckpt.json"])
def test_empty_shard_adds_nothing_to_the_merge(tmp_path, checkpoint):
    """More workers than apps: every worker replays its shard, empty or
    not, and the merge still equals the unsharded replay."""
    one_app = ProductionTrace(window_hours=TRACE.window_hours, apps=TRACE.apps[:1])
    assert [bool(shard.apps) for shard in shard_trace(one_app, 2)].count(False) == 1
    path = None if checkpoint is None else tmp_path / checkpoint
    summary = replay_sharded(
        one_app, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
    )
    assert summary == unsharded_replay(SPEC, one_app)
    assert summary.arrivals > 0
    assert list(tmp_path.iterdir()) == []


def test_journal_needs_a_checkpoint(tmp_path):
    """The library twin of the plan's ``--journal --workers`` rule:
    per-shard journals resume in lockstep with per-shard checkpoints."""
    with pytest.raises(WorkloadError, match="needs checkpoint="):
        replay_sharded(TRACE, SPEC, workers=2, journal=tmp_path / "j.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_rejects_nonpositive_workers(tmp_path):
    with pytest.raises(WorkloadError, match="at least one worker"):
        replay_sharded(TRACE, SPEC, workers=0, checkpoint=tmp_path / "ckpt.json")


# -- kill and resume ---------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_kill_and_resume_is_bit_identical(tmp_path, workers):
    """A killed sharded run resumes (fresh processes) to the exact summary."""
    path = kill_all_shards(tmp_path, workers, kill_at=40)
    # The manifest and one checkpoint per shard survived the kill.
    assert path.exists()
    summary = replay_sharded(
        TRACE, SPEC, workers=workers, checkpoint=path, fingerprint=FINGERPRINT
    )
    assert summary == REFERENCE
    assert list(tmp_path.iterdir()) == []


def test_fast_path_policy_kill_and_resume_is_bit_identical(tmp_path):
    """TargetUtilization — the tier-1 warm-hit fast-path policy — killed
    mid-trace resumes to the exact uncheckpointed summary: the fast path
    leaves nothing out of the snapshots that a resume would need."""
    import dataclasses

    from repro.faas.autoscale import TargetUtilization

    spec = dataclasses.replace(
        SPEC,
        fleet=FleetConfig(
            max_containers=3,
            keep_alive_s=60.0,
            policy=TargetUtilization(target=0.6, scale_to_zero_grace_s=30.0),
        ),
    )
    reference = unsharded_replay(spec, TRACE)
    path = kill_all_shards(tmp_path, 2, kill_at=200, spec=spec)
    summary = replay_sharded(
        TRACE, spec, workers=2, checkpoint=path, fingerprint=FINGERPRINT
    )
    assert summary == reference


def test_resume_skips_consumed_prefix(tmp_path):
    """The shard checkpoints record real progress, not a restart marker."""
    path = kill_all_shards(tmp_path, 2, kill_at=200)
    consumed = [
        load_checkpoint(shard_checkpoint_path(path, shard, 2))["consumed"]
        for shard in range(2)
    ]
    assert all(count > 0 for count in consumed)
    shards, _, _, resumed = prepare_sharded_checkpoint(
        TRACE, path, SPEC, 2, FINGERPRINT
    )
    assert resumed
    assert shards[0].apps and shards[1].apps


def test_kill_before_any_boundary_resumes_from_zero(tmp_path):
    """A kill before the first window boundary leaves the consumed-0
    initial checkpoints; resume replays every shard from scratch."""
    path = kill_all_shards(tmp_path, 2, kill_at=1)
    summary = replay_sharded(
        TRACE, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
    )
    assert summary == REFERENCE


# -- manifest validation -----------------------------------------------------


def test_resume_with_wrong_worker_count_fails_loudly(tmp_path):
    path = kill_all_shards(tmp_path, 4, kill_at=40)
    with pytest.raises(CheckpointError, match="4-worker replay.*--workers 2"):
        replay_sharded(
            TRACE, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
        )


def test_resume_with_wrong_fingerprint_fails_loudly(tmp_path):
    path = kill_all_shards(tmp_path, 2, kill_at=40)
    with pytest.raises(CheckpointError, match="differently-configured"):
        replay_sharded(
            TRACE, SPEC, workers=2, checkpoint=path, fingerprint={"scale": 0.9}
        )


def test_resume_with_different_trace_fails_on_partition(tmp_path):
    path = kill_all_shards(tmp_path, 2, kill_at=40)
    other = TraceGenerator(
        app_count=6,
        duration_hours=24.0,
        window_hours=6.0,
        mean_requests_per_window=200.0,
        seed=7,
    ).generate()
    with pytest.raises(CheckpointError, match="partitions a different trace"):
        replay_sharded(
            other, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
        )


def test_resume_with_missing_shard_file_fails_loudly(tmp_path):
    path = kill_all_shards(tmp_path, 2, kill_at=40)
    shard_checkpoint_path(path, 1, 2).unlink()
    with pytest.raises(CheckpointError, match="shard-1-of-2.*missing"):
        replay_sharded(
            TRACE, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
        )


def test_corrupted_manifest_fails_loudly(tmp_path):
    path = kill_all_shards(tmp_path, 2, kill_at=40)
    path.write_text(path.read_text()[:25])
    with pytest.raises(CheckpointError, match="corrupted"):
        replay_sharded(
            TRACE, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
        )


def test_stale_scratch_next_to_manifest_fails_loudly(tmp_path):
    path = kill_all_shards(tmp_path, 2, kill_at=40)
    scratch = tmp_path / "ckpt.json.shard-0-of-2.json.12345.tmp"
    scratch.write_text("{")
    with pytest.raises(CheckpointError, match="crashed mid-write"):
        replay_sharded(
            TRACE, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
        )


def test_single_run_checkpoint_at_manifest_path_is_rejected(tmp_path):
    """--checkpoint without --workers wrote here; --workers resume refuses."""
    path = tmp_path / "ckpt.json"
    shard = shard_trace(TRACE, 1)[0]
    platform, stream, accumulator = build_shard_replay(SPEC, shard)
    try:
        run_stream_checkpointed(
            platform,
            interrupt_after(stream, 400),
            accumulator,
            path,
            flush_at=math.inf,
            fingerprint=FINGERPRINT,
        )
    except _Interrupt:
        pass
    assert path.exists()
    with pytest.raises(CheckpointError, match="not a sharded-replay manifest"):
        replay_sharded(
            TRACE, SPEC, workers=2, checkpoint=path, fingerprint=FINGERPRINT
        )


def test_manifest_at_single_checkpoint_path_is_rejected(tmp_path):
    """The reverse confusion: load_checkpoint on a manifest says so."""
    path = tmp_path / "ckpt.json"
    write_manifest(path, 2, {"app-0": 0}, FINGERPRINT)
    with pytest.raises(CheckpointError, match="sharded-replay manifest"):
        load_checkpoint(path)


def test_unsupported_manifest_format_is_rejected(tmp_path):
    path = tmp_path / "ckpt.json"
    write_manifest(path, 2, {"app-0": 0}, FINGERPRINT)
    data = json.loads(path.read_text())
    data["format"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(CheckpointError, match="unsupported manifest format"):
        load_manifest(path)


# -- kill at any point: the property -----------------------------------------


@settings(max_examples=6, deadline=None)
@given(
    workers=st.sampled_from([1, 2, 4]),
    kill_at=st.integers(min_value=0, max_value=600),
)
def test_kill_anywhere_resume_is_bit_identical(workers, kill_at):
    """Killing every shard after *any* number of arrivals and resuming in
    fresh processes still merges to the unsharded reference."""
    with tempfile.TemporaryDirectory() as tmp:
        path = kill_all_shards(tmp, workers, kill_at)
        summary = replay_sharded(
            TRACE, SPEC, workers=workers, checkpoint=path, fingerprint=FINGERPRINT
        )
        assert summary == REFERENCE
