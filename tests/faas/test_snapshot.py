"""Checkpoints: state round-trips, byte pins, durability and refusals.

That a replay interrupted at an arbitrary point and resumed, in a fresh
process too, finishes with the uninterrupted replay's records, summary
and journal is checked against the reference engine
(``tests/reference/test_engines.py``).  These tests pin what a
checkpoint holds and how a bad one is refused.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from itertools import islice

import pytest

import repro.faas.snapshot as snapshot
from repro.common.errors import CheckpointError, DeploymentError, WorkloadError
from repro.faas.autoscale import PanicWindow, TargetUtilization
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.forecast import HoltWintersForecaster, Predictive
from repro.faas.replaydeploy import deploy_trace
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.faas.snapshot import (
    load_checkpoint,
    platform_state,
    restore_accumulator,
    restore_platform,
    run_stream_checkpointed,
    write_checkpoint,
)
from repro.metrics import PricingModel, WindowAccumulator
from repro.plan import DeferralPlan
from repro.workloads.replay import compile_trace
from repro.workloads.trace import TraceGenerator

TRACE = dict(
    app_count=4,
    duration_hours=24.0,
    window_hours=6.0,
    mean_requests_per_window=300.0,
    seed=5,
)
PLATFORM = SimPlatformConfig(record_traces=False, jitter_sigma=0.05)
#: A stateful policy on purpose: the panic history and episode state
#: must survive the checkpoint too.
FLEET = FleetConfig(
    max_containers=3,
    keep_alive_s=60.0,
    policy=PanicWindow(target=0.6, stable_window_s=600.0, panic_window_s=60.0),
)
SCALE = 0.5


#: Forecaster state is the newest serialization surface: a seasonal
#: model mid-fit (one-hour windows, 6-window season over the trace's
#: diurnal day) plus the prewarm ratio/hold bookkeeping must all
#: survive the checkpoint.
PREDICTIVE_FLEET = FleetConfig(
    max_containers=3,
    keep_alive_s=60.0,
    policy=Predictive(
        base=TargetUtilization(target=0.6),
        forecaster=HoltWintersForecaster(season_windows=6),
        window_s=3600.0,
        prewarm_lead_s=600.0,
    ),
)


def build_platform(fleet=FLEET):
    trace = TraceGenerator(**TRACE).generate()
    platform = ClusterPlatform(config=PLATFORM, fleet=fleet, seed=13)
    deploy_trace(platform, trace)
    return platform, compile_trace(trace, seed=3, scale=SCALE)


class _Interrupt(Exception):
    pass


def interrupt_after(stream, count):
    for index, event in enumerate(stream):
        if index >= count:
            raise _Interrupt()
        yield event


class TestCheckpointResume:
    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"format": 999}))
        with pytest.raises(WorkloadError):
            load_checkpoint(path)

    def test_resume_with_different_apps_rejected(self, tmp_path):
        platform, stream = build_platform()
        path = tmp_path / "ckpt.json"
        with pytest.raises(_Interrupt):
            run_stream_checkpointed(
                platform,
                interrupt_after(stream, 4000),
                WindowAccumulator(3600.0),
                path,
            )
        other = ClusterPlatform(config=PLATFORM, fleet=FLEET, seed=13)
        deploy_trace(
            other,
            TraceGenerator(**{**TRACE, "app_count": 2}).generate(),
        )
        with pytest.raises(DeploymentError):
            run_stream_checkpointed(
                other, iter(()), WindowAccumulator(3600.0), path
            )

    def test_resume_with_different_fingerprint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        platform, stream = build_platform()
        with pytest.raises(_Interrupt):
            run_stream_checkpointed(
                platform,
                interrupt_after(stream, 4000),
                WindowAccumulator(3600.0),
                path,
                fingerprint={"seed": 3, "scale": SCALE},
            )
        # Different replay parameters: refuse to blend two workloads.
        platform, stream = build_platform()
        with pytest.raises(WorkloadError):
            run_stream_checkpointed(
                platform,
                stream,
                WindowAccumulator(3600.0),
                path,
                fingerprint={"seed": 99, "scale": SCALE},
            )
        # The matching fingerprint still resumes.
        platform, stream = build_platform()
        run_stream_checkpointed(
            platform,
            stream,
            WindowAccumulator(3600.0),
            path,
            fingerprint={"seed": 3, "scale": SCALE},
        )
        assert not path.exists()

    def test_every_checkpoint_records_the_stream_position(
        self, tmp_path, monkeypatch
    ):
        # run_stream keeps its token / last-arrival counters in locals
        # and stores them back only around the boundary hook; a
        # checkpoint that missed the store would resume with a stale
        # token stream (span sampling, request identity).  No journal on
        # purpose: the journaled suites would catch that indirectly.
        platform, stream = build_platform()
        arrivals = list(stream)
        path = tmp_path / "ckpt.json"
        written = []
        original = snapshot.write_checkpoint

        def spy(target, *args, **kwargs):
            original(target, *args, **kwargs)
            written.append(load_checkpoint(target))

        monkeypatch.setattr(snapshot, "write_checkpoint", spy)
        run_stream_checkpointed(
            platform, iter(arrivals), WindowAccumulator(3600.0), path
        )
        assert len(written) >= 20  # one per crossed hourly window
        for data in written:
            consumed = data["consumed"]
            assert data["platform"]["next_token"] == consumed
            assert data["platform"]["last_arrival"] == arrivals[consumed - 1][0]
        consumed = [data["consumed"] for data in written]
        assert consumed == sorted(set(consumed))

    @pytest.mark.parametrize("blocker", ["missing", "a-file"])
    def test_unwritable_checkpoint_directory_fails_before_any_arrival(
        self, tmp_path, blocker
    ):
        (tmp_path / "a-file").write_text("not a directory")
        path = tmp_path / blocker / "ckpt.json"
        platform, _ = build_platform()

        def untouched():
            raise AssertionError("an arrival was pulled")
            yield

        with pytest.raises(CheckpointError) as err:
            run_stream_checkpointed(
                platform, untouched(), WindowAccumulator(3600.0), path
            )
        assert str(path) in str(err.value)


class TestPredictiveCheckpoint:
    """The forecaster fit (plus window counters) is the new surface."""

    def test_platform_state_round_trips_with_forecaster_state(self, tmp_path):
        path = tmp_path / "ckpt.json"
        platform, stream = build_platform(PREDICTIVE_FLEET)
        with pytest.raises(_Interrupt):
            run_stream_checkpointed(
                platform,
                interrupt_after(stream, 1500),
                WindowAccumulator(3600.0),
                path,
            )
        data = load_checkpoint(path)
        # The window counters made it into the fleet snapshot...
        fleet_state = next(iter(data["platform"]["fleets"].values()))
        assert fleet_state["window_index"] is not None
        assert fleet_state["policy_state"]["forecaster"]["n"] > 0
        # ...and restoring + re-serializing reproduces the exact state.
        fresh, _ = build_platform(PREDICTIVE_FLEET)
        restore_platform(fresh, data["platform"])
        assert platform_state(fresh) == data["platform"]


class TestStateSerialization:
    def test_a_record_tap_leaves_the_state_unchanged(self):
        # Records live in the tap, never on the platform: a tapped prefix
        # and an untapped one leave the same state and the same summary.
        tapped, stream = build_platform()
        records = []
        with_tap = tapped.run_stream(
            islice(stream, 2500), WindowAccumulator(3600.0), on_record=records.append
        )
        untapped, stream = build_platform()
        without = untapped.run_stream(islice(stream, 2500), WindowAccumulator(3600.0))
        assert len(records) == with_tap.completed > 0
        assert with_tap == without
        assert platform_state(tapped) == platform_state(untapped)

    def test_restored_containers_keep_their_loaded_sets(self, small_ecosystem):
        # Containers share the compiled closure until a first-use chain
        # loads (then hold their own frozenset); both kinds must come
        # back from a mid-run checkpoint equal to the live sets.
        config = SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(
                EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=200.0),
                EntryBehavior("heavy", calls=("libx:use_extra",), handler_self_ms=200.0),
            ),
        )
        plan = DeferralPlan(app="app", deferred_library_edges=frozenset({"libx.extra"}))

        def deployed():
            platform = ClusterPlatform(config=PLATFORM, fleet=FLEET, seed=13)
            platform.deploy(config, plan=plan)
            return platform

        platform = deployed()

        class MidRun:
            """Boundary hook: snapshot once, ahead of the arrival at 10 s."""

            next_flush_s = 10.0

            def flush_boundary(self, at, fed):
                assert (at, fed) == (10.0, 4)
                self.live = {
                    c.seq: c.loaded for c in platform._fleet("app").containers
                }
                self.state = json.loads(json.dumps(platform_state(platform)))
                self.next_flush_s = math.inf

        hook = MidRun()
        platform.run_stream(
            [
                (at, "app", entry)
                for at, entry in [
                    (0.0, "main"), (0.0, "heavy"), (0.0, "main"),
                    (5.0, "main"), (10.0, "main"),
                ]
            ],
            WindowAccumulator(3600.0),
            boundary=hook,
        )
        live = hook.live
        eager = platform._fleet("app").compiled.eager_loaded
        assert len(live) == 3
        assert sum(loaded is eager for loaded in live.values()) == 2
        fresh = deployed()
        restore_platform(fresh, hook.state)
        restored = {c.seq: c.loaded for c in fresh._fleet("app").containers}
        assert restored == live
        assert all(type(loaded) is frozenset for loaded in restored.values())

    def test_accumulator_restore_rejects_config_mismatch(self):
        accumulator = WindowAccumulator(60.0)
        state = accumulator.state()
        with pytest.raises(WorkloadError):
            restore_accumulator(WindowAccumulator(30.0), state)
        priced = WindowAccumulator(60.0, pricing=PricingModel(per_gb_second=9.0))
        with pytest.raises(WorkloadError):
            restore_accumulator(priced, state)

    def test_accumulator_mismatch_names_path_and_both_values(self):
        # Every CheckpointError names the offending file (when known) and
        # shows expected-vs-found, so a failed resume is diagnosable from
        # the message alone.
        state = WindowAccumulator(60.0).state()
        with pytest.raises(CheckpointError) as err:
            restore_accumulator(
                WindowAccumulator(30.0), state, path="runs/replay.ckpt"
            )
        message = str(err.value)
        assert "runs/replay.ckpt" in message
        assert "60.0" in message and "30.0" in message

    def test_restore_rejects_unknown_apps(self):
        platform, _ = build_platform()
        state = platform_state(platform)
        other = ClusterPlatform(config=PLATFORM, fleet=FLEET, seed=13)
        with pytest.raises(DeploymentError):
            restore_platform(other, state)

    def test_panic_state_survives_export(self):
        policy = PanicWindow(stable_window_s=60.0, panic_window_s=6.0)
        state = policy.new_state()
        for at in (0.0, 0.1, 0.2, 50.0, 50.01, 50.02, 50.03):
            policy.observe_arrival(state, at)
        state.panic_until = 110.0
        state.panic_peak = 4
        state.episodes.append([50.0, 110.0])
        restored = policy.restore_state(policy.export_state(state))
        assert list(restored.arrivals) == list(state.arrivals)
        assert restored.started_at == state.started_at
        assert restored.panic_until == state.panic_until
        assert restored.panic_peak == state.panic_peak
        assert restored.episodes == state.episodes

    def test_write_checkpoint_is_atomic(self, tmp_path):
        platform, _ = build_platform()
        accumulator = WindowAccumulator(3600.0)
        path = tmp_path / "ckpt.json"
        write_checkpoint(path, platform, accumulator, consumed=0)
        assert load_checkpoint(path)["consumed"] == 0
        assert list(tmp_path.glob("*.tmp")) == []


def _odd_fleets(platform_data: dict) -> list[str]:
    """Fleets whose jitter generator holds a pending ``gauss_next``: an
    odd number of factors consumed."""
    return [
        name
        for name, fleet in platform_data["fleets"].items()
        if fleet["jitter_rng"] is not None and fleet["jitter_rng"][2] is not None
    ]


class TestCheckpointBytesPinned:
    """Checkpoint bytes written from commit c7e1627, before the jitter
    factors were drawn a block at a time: the read-ahead of a block never
    reaches a checkpoint, at even or odd draw counts.  Format 5 pins are
    those bytes with each fleet's nine dropped counters removed and the
    format number bumped, and nothing else changed."""

    def test_kept_checkpoint_bytes(self, tmp_path):
        platform, stream = build_platform()
        path = tmp_path / "ckpt.json"
        run_stream_checkpointed(
            platform, stream, WindowAccumulator(3600.0), path, keep=True
        )
        data = path.read_bytes()
        assert _odd_fleets(json.loads(data)["platform"]) == ["app000", "app002"]
        assert hashlib.sha256(data).hexdigest() == (
            "907e201a5b7db2712da8401fc29460d3fd2ad5a38d5558ed3748f178420d5020"
        )

    def test_platform_state_bytes_after_a_prefix(self):
        platform, stream = build_platform()
        platform.run_stream(islice(stream, 2500), WindowAccumulator(3600.0))
        text = json.dumps(platform_state(platform))
        assert _odd_fleets(json.loads(text)) == ["app000", "app003"]
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a5bf0c1f0569cf0e272fe5ad584694306abdda73565ca610a2252ba71df15733"
        )


class TestDurability:
    """The atomic-write guarantees: no scratch leaks, fsync before rename.

    A checkpoint is only worth keeping if it is *durable* (fsynced before
    the rename publishes it) and the scratch machinery never leaves
    wreckage behind when serialization itself explodes — the two bugs
    these tests pin closed.
    """

    def test_failed_serialization_leaks_no_scratch(self, tmp_path, monkeypatch):
        """json.dumps raising must not leave a ``.tmp`` next to the path."""
        platform, _ = build_platform()
        path = tmp_path / "ckpt.json"

        def explode(payload):
            raise ValueError("unserializable")

        monkeypatch.setattr(snapshot.json, "dumps", explode)
        with pytest.raises(ValueError):
            write_checkpoint(path, platform, WindowAccumulator(3600.0), 0)
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no scratch

    def test_scratch_is_fsynced_before_rename(self, tmp_path, monkeypatch):
        """Durability ordering: data hits disk before the rename publishes."""
        platform, _ = build_platform()
        path = tmp_path / "ckpt.json"
        calls: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            snapshot.os,
            "fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            snapshot.os,
            "replace",
            lambda src, dst: (calls.append("replace"), real_replace(src, dst))[1],
        )
        write_checkpoint(path, platform, WindowAccumulator(3600.0), 0)
        assert calls == ["fsync", "replace"]

    def test_scratch_name_is_per_process_unique(self, tmp_path, monkeypatch):
        """Concurrent shard workers must never collide on a scratch name."""
        platform, _ = build_platform()
        path = tmp_path / "ckpt.json"
        seen: list[str] = []
        real_replace = os.replace
        monkeypatch.setattr(
            snapshot.os,
            "replace",
            lambda src, dst: (seen.append(str(src)), real_replace(src, dst))[1],
        )
        write_checkpoint(path, platform, WindowAccumulator(3600.0), 0)
        assert seen == [str(tmp_path / f"ckpt.json.{os.getpid()}.tmp")]

    def test_truncated_checkpoint_fails_loudly(self, tmp_path):
        platform, stream = build_platform()
        path = tmp_path / "ckpt.json"
        with pytest.raises(_Interrupt):
            run_stream_checkpointed(
                platform,
                interrupt_after(stream, 4000),
                WindowAccumulator(3600.0),
                path,
            )
        path.write_text(path.read_text()[:40])  # simulate a torn write
        platform, stream = build_platform()
        with pytest.raises(CheckpointError, match="corrupted"):
            run_stream_checkpointed(
                platform, stream, WindowAccumulator(3600.0), path
            )

    def test_non_object_checkpoint_fails_loudly(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="JSON object"):
            load_checkpoint(path)

    def test_stale_scratch_blocks_resume(self, tmp_path):
        """A crashed writer's leftover ``.tmp`` must stop the next run."""
        platform, stream = build_platform()
        path = tmp_path / "ckpt.json"
        (tmp_path / "ckpt.json.99999.tmp").write_text('{"format"')
        with pytest.raises(CheckpointError, match="crashed mid-write"):
            run_stream_checkpointed(
                platform, stream, WindowAccumulator(3600.0), path
            )
