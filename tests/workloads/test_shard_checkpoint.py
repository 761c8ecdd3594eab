"""Per-shard checkpoints: the manifest and its refusals.

That a killed sharded replay resumes to the whole trace's replay is
checked against the reference engine (``tests/reference/test_engines.py``).
These tests pin the manifest validation matrix (worker count /
fingerprint / partition / missing shard files all fail loudly) and the
kind-confusion errors between manifests and single-run checkpoints.
"""

import json
import math
from pathlib import Path

import pytest

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
from repro.workloads.trace import TraceGenerator

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
FINGERPRINT = {"apps": 4, "scale": 0.3, "seed": 13}


class _Interrupt(Exception):
    """Simulated kill: raised from inside the arrival stream."""


def interrupt_after(stream, count):
    """Yield ``count`` arrivals from ``stream``, then die mid-trace."""
    for fed, item in enumerate(stream):
        if fed == count:
            raise _Interrupt
        yield item


def kill_all_shards(tmp, workers, kill_at, fingerprint=FINGERPRINT):
    """Set up a checkpointed sharded run and kill every shard mid-trace.

    Runs each shard in-process through the same
    :func:`run_stream_checkpointed` driver the pool workers use, with the
    stream wrapped to raise after ``kill_at`` arrivals — the on-disk
    state afterwards is exactly what a hard-killed run leaves behind.
    Returns the manifest path.
    """
    path = Path(tmp) / "ckpt.json"
    shards, shard_paths, fingerprints, resumed = prepare_sharded_checkpoint(
        TRACE, path, SPEC, workers, fingerprint
    )
    assert not resumed
    for shard, shard_path, shard_fp in zip(shards, shard_paths, fingerprints):
        platform, stream, accumulator = build_shard_replay(SPEC, shard)
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


def test_journal_needs_a_checkpoint(tmp_path):
    """The library twin of the plan's ``--journal --workers`` rule:
    per-shard journals resume in lockstep with per-shard checkpoints."""
    with pytest.raises(WorkloadError, match="needs checkpoint="):
        replay_sharded(TRACE, SPEC, workers=2, journal=tmp_path / "j.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_rejects_nonpositive_workers(tmp_path):
    with pytest.raises(WorkloadError, match="at least one worker"):
        replay_sharded(TRACE, SPEC, workers=0, checkpoint=tmp_path / "ckpt.json")


# -- manifest validation -----------------------------------------------------


OTHER_TRACE = TraceGenerator(
    app_count=6, duration_hours=24.0, window_hours=6.0, mean_requests_per_window=200.0,
    seed=7,
).generate()


def _stale_scratch(path):
    (path.parent / "ckpt.json.shard-0-of-2.json.12345.tmp").write_text("{")


@pytest.mark.parametrize(
    "killed_workers, damage, resume, match",
    [
        (4, None, {}, "4-worker replay.*--workers 2"),
        (2, None, dict(fingerprint={"scale": 0.9}), "differently-configured"),
        (2, None, dict(trace=OTHER_TRACE), "partitions a different trace"),
        (2, lambda path: shard_checkpoint_path(path, 1, 2).unlink(), {},
         "shard-1-of-2.*missing"),
        (2, lambda path: path.write_text(path.read_text()[:25]), {}, "corrupted"),
        (2, _stale_scratch, {}, "crashed mid-write"),
    ],
    ids=["worker-count", "fingerprint", "trace", "missing-shard", "corrupted-manifest",
         "stale-scratch"],
)
def test_a_mismatched_or_damaged_resume_fails_loudly(
    tmp_path, killed_workers, damage, resume, match
):
    path = kill_all_shards(tmp_path, killed_workers, kill_at=40)
    if damage:
        damage(path)
    with pytest.raises(CheckpointError, match=match):
        replay_sharded(
            resume.get("trace", TRACE), SPEC, workers=2, checkpoint=path,
            fingerprint=resume.get("fingerprint", FINGERPRINT),
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
