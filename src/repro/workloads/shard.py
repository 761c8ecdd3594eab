"""Sharded multi-process trace replay: split by app, replay, merge exactly.

A compiled trace drives one :class:`~repro.faas.cluster.ClusterPlatform`
event loop on one core.  But the cluster gives every application its own
container fleet, and fleets share *no* capacity, no queue, no RNG stream
— each app's event sequence is a pure function of that app's arrivals.
A single-cluster replay therefore factorizes: split the trace's apps into
shards (a stable hash of the app name), replay each shard on its own
platform — in its own *process* — and merge the per-shard windowed
summaries.  The merge is **bit-identical** to the unsharded replay
because:

* per-app arrival streams are independent by construction
  (:func:`~repro.workloads.replay.compile_trace` derives one RNG per
  (app, window, handler));
* container ids/sequence numbers only break ties *within* a fleet, and
  relative order within a fleet is preserved under sharding;
* every float the summary reports is accumulated **per app** inside the
  :class:`~repro.metrics.WindowAccumulator` and recombined in one
  canonical order — every worker, checkpointed or not, returns its
  accumulator's raw state (:meth:`~repro.metrics.WindowAccumulator.to_wire`,
  the same plain structure a checkpoint embeds) and the coordinator
  absorbs them in worker order with :func:`repro.metrics.merge_wire`,
  summarizing once;
* provisioned tails are flushed at the container's natural keep-alive
  expiry (``flush_at=math.inf``) rather than at the shard's last event
  time, which would differ between shards and the full run.

``tests/reference/test_engines.py`` checks the exactness property for
arbitrary shard counts and app partitions against a naive reference
replay of the whole trace; the federation is *not* shardable this way
(regions share routing state), so sharding is a single-cluster
capability.

Process orchestration uses :class:`concurrent.futures.ProcessPoolExecutor`;
everything a worker needs (the sub-trace, the :class:`ShardReplaySpec`)
is a plain picklable dataclass.  The traced run of ``bench/run.py``
measures the two-worker replay (``workloads.shard.*``) and the wire
(``metrics.windows.wire_bytes`` / ``to_wire_s`` / ``merge_wire_s``).

Sharded replays are also *resumable*: ``replay_sharded(checkpoint=)``
gives every worker its own durable checkpoint file plus a coordinator
manifest, so a multi-day sharded run killed mid-trace picks up from the
last window boundary of every shard and still merges bit-identically
(``tests/reference/test_engines.py`` kills every shard at drawn points
and checks the merged summary and journal against the reference).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import CheckpointError, WorkloadError
from repro.common.rng import derive_seed
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.replaydeploy import deploy_trace
from repro.faas.sim import SimPlatformConfig
from repro.faas.snapshot import (
    load_manifest,
    reject_stale_scratch,
    require_writable_directory,
    run_stream_checkpointed,
    shard_checkpoint_path,
    write_checkpoint,
    write_manifest,
)
from repro.metrics import (
    PricingModel,
    QoSClass,
    WindowAccumulator,
    WindowedSummary,
    merge_wire,
)
from repro.obs.journal import (
    JournalWriter,
    merge_journals,
    open_journal,
    shard_journal_path,
)
from repro.workloads.replay import (
    ArrivalModel,
    assign_qos,
    compile_trace,
    progress_stream,
)
from repro.workloads.trace import ProductionTrace


def shard_index(app: str, shards: int) -> int:
    """The shard a given application hashes to.

    Uses the repo's process-stable BLAKE2 hash (never Python's ``hash``),
    so the same app lands on the same shard in every worker process and
    on every machine.
    """
    if shards < 1:
        raise WorkloadError(f"need at least one shard: {shards}")
    return derive_seed(0, "shard", app) % shards


def shard_trace(trace: ProductionTrace, shards: int) -> list[ProductionTrace]:
    """Split a trace into ``shards`` app-disjoint sub-traces by app hash.

    Every app appears in exactly one shard (some shards may be empty for
    small fleets); window geometry is shared.  App objects are shared,
    not copied — traces are read-only inputs to replay.
    """
    out = [ProductionTrace(window_hours=trace.window_hours) for _ in range(shards)]
    for app in trace.apps:
        out[shard_index(app.name, shards)].apps.append(app)
    return out


@dataclass(frozen=True)
class ShardReplaySpec:
    """Everything one shard worker needs to replay its sub-trace.

    A frozen, picklable bundle of the replay parameters every shard must
    agree on — one spec drives all workers, so shards cannot diverge in
    configuration.

    Attributes:
        platform: Platform cost constants for the per-shard cluster.
        fleet: Fleet/autoscaler configuration deployed for every app.
        seed: Cluster seed (jitter streams derive per app, so sharding
            never perturbs them).
        replay_seed: Seed for :func:`~repro.workloads.replay.compile_trace`.
        model: Intra-window arrival model (``None`` = uniform).
        scale: Trace volume multiplier.
        window_s: Accumulator window size in seconds.
        pricing: Pricing model for the windowed cost series.
        exec_ms: Trace-app handler self-time
            (see :func:`repro.faas.replaydeploy.trace_app_config`).
        qos: QoS classes to tag arrivals with
            (:func:`~repro.workloads.replay.assign_qos`); ``None`` leaves
            the stream untagged.  Tagging is per-app-seeded, so it is
            partition-independent and the merge stays bit-identical.
        qos_seed: Seed for the per-app QoS assignment draws.
        progress: Emit a per-shard heartbeat line to stderr at every
            window boundary (:func:`~repro.workloads.replay.progress_stream`).
            Diagnostics only — never affects the replay result, so it is
            deliberately *not* part of the replay fingerprint.
    """

    platform: SimPlatformConfig = SimPlatformConfig(record_traces=False)
    fleet: FleetConfig = FleetConfig()
    seed: int = 0
    replay_seed: int = 0
    model: ArrivalModel | None = None
    scale: float = 1.0
    window_s: float = 3600.0
    pricing: PricingModel | None = None
    exec_ms: float = 2.0
    qos: tuple[QoSClass, ...] | None = None
    qos_seed: int = 0
    progress: bool = False


def compile_shard_stream(spec: ShardReplaySpec, trace: ProductionTrace):
    """The spec's lazy arrival stream over ``trace``, QoS-tagged if it says so."""
    stream = compile_trace(
        trace, model=spec.model, seed=spec.replay_seed, scale=spec.scale
    )
    if spec.qos is not None:
        stream = assign_qos(stream, spec.qos, seed=spec.qos_seed)
    return stream


def build_shard_replay(
    spec: ShardReplaySpec, trace: ProductionTrace
) -> tuple[ClusterPlatform, object, WindowAccumulator]:
    """Build one shard's deployed platform, compiled stream, and accumulator.

    Everything here is deterministic in ``(spec, trace)``: per-(app,
    window, handler) replay RNGs and per-app jitter/QoS seeds mean the
    same sub-trace always compiles to the same stream on the same
    platform — the property both the sharded merge and checkpoint resume
    lean on.
    """
    platform = ClusterPlatform(
        config=spec.platform, fleet=spec.fleet, seed=spec.seed, qos=spec.qos
    )
    deploy_trace(platform, trace, exec_ms=spec.exec_ms)
    accumulator = WindowAccumulator(window_s=spec.window_s, pricing=spec.pricing)
    return platform, compile_shard_stream(spec, trace), accumulator


def replay_stream(
    engine,
    stream,
    accumulator: WindowAccumulator,
    *,
    progress: bool = False,
    label: str = "",
    profiler=None,
    journal: str | Path | None = None,
    fingerprint: dict | None = None,
    trace_sample: float = 0.0,
    checkpoint: str | Path | None = None,
    keep: bool = False,
    flush_at: float | None = None,
) -> WindowedSummary:
    """Replay ``stream`` on ``engine`` into ``accumulator``: the one replay body.

    ``engine`` is a deployed cluster or federation.  ``profiler`` credits
    the stream's own time to ``compile``, ``progress`` heartbeats at
    window edges, and ``journal`` (a path) journals the run at the
    accumulator's window size, stamped with ``fingerprint``.  With
    ``checkpoint`` (a cluster only) the run goes through
    :func:`~repro.faas.snapshot.run_stream_checkpointed`, which resumes
    from that file and removes it at the end unless ``keep``.
    ``flush_at`` is the cluster's tail flush (see module docstring).
    """
    if profiler is not None:
        # Wrapped before any passthrough, so only compile time is credited.
        stream = profiler.wrap_iter(stream, "compile")
    if progress:
        stream = progress_stream(stream, accumulator.window_s, label=label)
    if journal is not None:
        journal = JournalWriter(
            journal,
            window_s=accumulator.window_s,
            fingerprint=fingerprint,
            trace_sample=trace_sample,
        )
    if checkpoint is not None:
        # run_stream_checkpointed owns the journal's lifecycle (resume/truncate).
        return run_stream_checkpointed(
            engine,
            stream,
            accumulator,
            checkpoint,
            flush_at=flush_at,
            keep=keep,
            fingerprint=fingerprint,
            journal=journal,
            profiler=profiler,
        )
    # The federation's run_stream flushes its own tails and takes no flush_at.
    tail = {} if flush_at is None else {"flush_at": flush_at}
    with nullcontext() if journal is None else journal.begin():
        return engine.run_stream(stream, accumulator, obs=journal, **tail)


def replay_shard_wire(
    spec: ShardReplaySpec,
    trace: ProductionTrace,
    path: str | Path | None = None,
    fingerprint: dict | None = None,
    journal_path: str | Path | None = None,
    trace_sample: float = 0.0,
) -> tuple:
    """Replay one (sub-)trace on a fresh cluster; the one shard worker body.

    Returns the accumulator's wire form
    (:meth:`~repro.metrics.WindowAccumulator.to_wire`) rather than a
    summary: the coordinator absorbs every shard's raw state and
    summarizes exactly once, after the merge.  Tails flush at natural
    expiry (see module docstring).  With ``path`` the worker resumes from
    and checkpoints to its shard file and *keeps* it — only the
    coordinator deletes shard files, after the merge, so a kill between
    one shard finishing and the run completing stays resumable
    everywhere; ``journal_path`` journals the shard, stamped with its
    shard ``fingerprint``.
    """
    platform, stream, accumulator = build_shard_replay(spec, trace)
    replay_stream(
        platform,
        stream,
        accumulator,
        progress=spec.progress,
        label="" if path is None else Path(path).name,
        journal=journal_path,
        fingerprint=fingerprint,
        trace_sample=trace_sample,
        checkpoint=path,
        keep=True,
        flush_at=math.inf,
    )
    return accumulator.to_wire()


def replay_sharded(
    trace: ProductionTrace,
    spec: ShardReplaySpec | None = None,
    workers: int = 1,
    checkpoint: str | Path | None = None,
    fingerprint: dict | None = None,
    journal: str | Path | None = None,
    trace_sample: float = 0.0,
    keep: bool = False,
) -> WindowedSummary:
    """Replay ``trace`` across ``workers`` processes; merge exactly.

    ``workers=1`` runs inline (no pool) but through the identical
    per-shard code path, so scaling the worker count never changes the
    result — only the wall time.  Every worker gets its shard; an empty
    one's wire adds nothing to the merge.

    ``checkpoint`` makes the run resumable: each worker checkpoints its
    own event loop + accumulator at window boundaries
    (``<checkpoint>.shard-K-of-N.json``), coordinated by the manifest at
    ``checkpoint`` (see :func:`prepare_sharded_checkpoint`).  If the
    manifest exists the run *resumes*: every worker restores its last
    boundary state and skips its consumed prefix, and the wires merge
    bit-identically to an uninterrupted run at any worker count.  On
    success every checkpoint file is removed unless ``keep``.

    ``journal`` (checkpointed runs only: per-shard journals resume and
    truncate in lockstep with their checkpoints) has every worker write
    ``<journal>.shard-K-of-N.jsonl``, merged after the run into one
    window-ordered journal at ``journal``.  Its window, shed and scale
    rows are partition-independent like the summary; the sampled *span*
    rows (rate ``trace_sample``) key off each shard's own stream
    position, so the sampled subset varies with the partition.
    """
    if workers < 1:
        raise WorkloadError(f"need at least one worker: {workers}")
    spec = spec if spec is not None else ShardReplaySpec()
    if journal is not None and Path(journal).exists():
        # The merge's own open, tried before any shard runs: the shard
        # journals beside it open fine even when it is a directory.
        open_journal(journal, "a").close()
    if checkpoint is None:
        if journal is not None:
            raise WorkloadError(
                "a sharded journal needs checkpoint=: per-shard journals "
                "flush and resume in lockstep with the per-shard checkpoints"
            )
        shards = shard_trace(trace, workers)
        paths = fingerprints = [None] * workers
    else:
        shards, paths, fingerprints, _ = prepare_sharded_checkpoint(
            trace, checkpoint, spec, workers, fingerprint
        )
    journals = [None] * workers
    if journal is not None:
        journals = [shard_journal_path(journal, k, workers) for k in range(workers)]
    samples = [trace_sample] * workers
    jobs = [spec] * workers, shards, paths, fingerprints, journals, samples
    if workers == 1:
        wires = list(map(replay_shard_wire, *jobs))
    else:
        # Imported where the pool is made: concurrent.futures.process drags
        # in multiprocessing and ~35 more modules no other command needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            wires = list(pool.map(replay_shard_wire, *jobs))
    summary = merge_wire(wires)
    if journal is not None:
        merge_journals(
            journals,
            journal,
            window_s=spec.window_s,
            fingerprint=fingerprint,
            trace_sample=trace_sample,
        )
    if checkpoint is not None and not keep:
        for leftover in [*paths, *journals, checkpoint]:
            if leftover is not None:
                Path(leftover).unlink(missing_ok=True)
    return summary


# -- checkpointed sharded replay ---------------------------------------------


def prepare_sharded_checkpoint(
    trace: ProductionTrace,
    path: str | Path,
    spec: ShardReplaySpec,
    workers: int,
    fingerprint: dict | None = None,
) -> tuple[list[ProductionTrace], list[Path], list[dict], bool]:
    """Validate-or-create the on-disk state of a checkpointed sharded run.

    Returns ``(shards, shard_paths, shard_fingerprints, resumed)``.

    Fresh run (no manifest at ``path``): every shard's *initial*
    checkpoint (consumed ``0``, freshly deployed platform, empty
    accumulator) is written **before** the manifest, so the manifest's
    invariant — every shard file it references exists — holds from the
    instant it appears on disk, whatever gets killed when.

    Resume (manifest present): the manifest's format, worker count,
    fingerprint, and re-derived app partition are all validated, and
    every referenced shard file must exist; any mismatch raises
    :class:`CheckpointError` *before* a single worker starts, so a wrong
    ``--workers`` or a different trace can never skip a shard into the
    wrong deterministic stream (nor silently restart one from zero).
    """
    path = Path(path)
    require_writable_directory(path)
    reject_stale_scratch(path)
    # Read first: a directory (``.`` has no name to derive shard files
    # from) fails here with one line.
    resumed = path.exists()
    manifest = load_manifest(path) if resumed else None
    shards = shard_trace(trace, workers)
    partition = {app.name: shard_index(app.name, workers) for app in trace.apps}
    shard_paths = [
        shard_checkpoint_path(path, shard, workers) for shard in range(workers)
    ]
    # The run-wide fingerprint wrapped in the shard's identity: a shard
    # file renamed, copied between runs or resumed under another
    # partition fails run_stream_checkpointed's check even when the
    # run-wide flags match.
    fingerprints = [
        {"replay": fingerprint, "shard": shard, "workers": workers}
        for shard in range(workers)
    ]
    if resumed:
        if manifest["workers"] != workers:
            raise CheckpointError(
                f"checkpoint manifest {path} was written by a "
                f"{manifest['workers']}-worker replay; this run has "
                f"--workers {workers}. Shard checkpoints only resume under "
                f"the worker count that wrote them — re-run with --workers "
                f"{manifest['workers']}, or delete the checkpoint files to "
                "start over"
            )
        if manifest.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint manifest {path} was written by a "
                f"differently-configured replay (manifest fingerprint "
                f"{manifest.get('fingerprint')!r}, this run {fingerprint!r}); "
                "resuming would blend two workloads — delete the checkpoint "
                "files or re-run with the original flags"
            )
        if manifest.get("partition") != partition:
            raise CheckpointError(
                f"checkpoint manifest {path} partitions a different trace "
                "across its shards; resuming would blend two workloads — "
                "delete the checkpoint files or re-run with the original "
                "trace flags"
            )
        for shard_path in shard_paths:
            if not shard_path.exists():
                raise CheckpointError(
                    f"manifest {path} references shard checkpoint "
                    f"{shard_path.name}, which is missing — a partial resume "
                    "would silently restart that shard from zero; delete the "
                    "manifest and remaining shard files to start over"
                )
    else:
        for shard, shard_path, fp in zip(shards, shard_paths, fingerprints):
            platform, _, accumulator = build_shard_replay(spec, shard)
            write_checkpoint(shard_path, platform, accumulator, 0, fp)
        write_manifest(path, workers, partition, fingerprint)
    return shards, shard_paths, fingerprints, resumed
