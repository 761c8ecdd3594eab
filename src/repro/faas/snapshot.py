"""Checkpoint/resume for streaming replays: serialize the simulator frontier.

A multi-week production replay is hours of wall time even at the event
loop's optimized throughput; losing it to a crash (or wanting to shard it
across machines over time) calls for durable checkpoints.  This module
serializes everything a mid-stream :class:`~repro.faas.cluster.ClusterPlatform`
needs to continue *bit-identically* — as a JSON-safe dict, so checkpoints
survive process boundaries and interpreter restarts:

* **Fleet state** — every live container (boot/ready times, in-flight
  count, loaded-module closure by dotted name, memory, idle bookkeeping),
  the FIFO queue, the keep-alive reap hint, the observation-window
  counters, and the scaling policy's per-fleet mutable state (via
  :meth:`~repro.faas.autoscale.ScalingPolicy.export_state`).
* **Event-heap frontier** — the pending ``READY``/``COMPLETE`` events
  (arrivals are never events).  The heap never holds more than the
  causal frontier during a streamed replay, so this stays small no
  matter how long the replay ran.
* **RNG state** — each fleet's jitter generator after the factors its
  requests consumed (not after the block drawn ahead), so latency noise
  resumes mid-stream instead of replaying from the seed.
* **Accumulator state** — :meth:`repro.metrics.WindowAccumulator.state`,
  read back by its validating :meth:`~repro.metrics.WindowAccumulator.absorb`.

Floats round-trip through JSON losslessly (shortest-repr), so a resumed
replay's final :class:`~repro.metrics.WindowedSummary` equals an
uninterrupted run's bit for bit (``tests/reference/test_engines.py``
checks resumed replays against a naive reference).

The arrival *stream* itself is not serialized — compiled traces are lazy
generators.  Instead :func:`run_stream_checkpointed` records how many
arrivals were consumed; on resume the caller passes a freshly compiled
(deterministic) stream and the driver skips that many events.  Checkpoints
are written at window boundaries, where they cost one JSON dump per
simulated window.

Sharded replays checkpoint **per shard**: each worker writes its own
checkpoint file (``<path>.shard-K-of-N.json``, via the same
:func:`write_checkpoint`) and a coordinator *manifest* at ``<path>``
records the worker count, the app → shard partition, and the shared
replay fingerprint (:func:`write_manifest`/:func:`load_manifest`).  The
coordinator is :func:`repro.workloads.shard.replay_sharded`'s ``checkpoint=``.
All writes are atomic (scratch + fsync + rename, per-process-unique
scratch names) and every inconsistency — truncated JSON, a crashed
writer's leftover scratch, a manifest whose shard files are missing, a
mismatched worker count — raises :class:`~repro.common.errors.CheckpointError`
instead of silently blending or restarting a replay.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable

from repro.common.errors import CheckpointError, DeploymentError, WorkloadError
from repro.faas.cluster import (
    _COMPLETE,
    _READY,
    ClusterPlatform,
    _FleetContainer,
    _PendingRequest,
)
from repro.faas.events import InvocationRecord
from repro.metrics import WindowAccumulator, WindowedSummary

#: Bumped whenever the checkpoint layout changes incompatibly.
#: 2: queue entries carry QoS class + wire latency; accumulator windows
#: carry per-class counters and utility sums.
#: 3: fleets carry observation-window counters (window_index /
#: window_arrivals) feeding ScalingPolicy.observe_window.
#: 4: the accumulator is WindowAccumulator.state() — one per-source
#: structure per window, histogram totals derived from the buckets.
#: 5: fleets drop nine aggregate counters (arrivals, rejected, cold
#: starts, spawned, peak, retired seconds and GB-seconds, first and last
#: arrival) that only the checkpoint read; a run's totals are the
#: accumulator's.
CHECKPOINT_FORMAT = 5

#: Bumped whenever the shard-manifest layout changes incompatibly.
MANIFEST_FORMAT = 1

#: Discriminator field value for shard manifests, so a manifest handed to
#: :func:`load_checkpoint` (or a checkpoint handed to
#: :func:`load_manifest`) fails with a targeted message instead of a
#: confusing format error.
MANIFEST_KIND = "shard-manifest"


# -- RNG state ---------------------------------------------------------------


def _rng_state(state: tuple | None) -> list | None:
    if state is None:
        return None
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _restore_rng(data: list | None) -> tuple | None:
    if data is None:
        return None
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


# -- platform state ----------------------------------------------------------


def platform_state(platform: ClusterPlatform) -> dict:
    """Serialize a cluster's runtime state as a JSON-safe dict.

    Captures replay state: the fleets, their containers and queues, the
    event heap and the sequence counters.  Records are never on the
    platform (an ``on_record`` tap holds them), so there is nothing else
    to keep.
    """
    fleets: dict[str, dict] = {}
    for name, fleet in platform._fleets.items():
        fleets[name] = {
            "reap_until": (
                None if math.isinf(fleet.reap_until) else fleet.reap_until
            ),
            "queue": [
                [
                    request.token,
                    request.entry,
                    request.arrival,
                    request.qos,
                    request.wire_ms,
                ]
                for request in fleet.queue
            ],
            "containers": [
                {
                    "container_id": container.container_id,
                    "seq": container.seq,
                    "spawned_at": container.spawned_at,
                    "ready_at": container.ready_at,
                    "init_ms": container.init_ms,
                    "loaded": sorted(key.dotted for key in container.loaded),
                    "memory_mb": container.memory_mb,
                    "seen_entries": sorted(container.seen_entries),
                    "active": container.active,
                    "virgin": container.virgin,
                    "idle_since": container.idle_since,
                    "last_release": container.last_release,
                }
                for container in fleet.containers
            ],
            "policy_state": fleet.policy.export_state(fleet.policy_state),
            "window_index": fleet.window_index,
            "window_arrivals": fleet.window_arrivals,
            "jitter_rng": _rng_state(fleet.jitter.getstate()),
        }
    return {
        "clock_s": platform.clock.now(),
        "last_arrival": platform._last_arrival,
        "next_container_seq": platform._next_container_seq,
        "next_event_seq": platform._next_event_seq,
        "next_token": platform._next_token,
        "events": [
            [at, kind, seq, list(payload)] for at, kind, seq, payload in platform._events
        ],
        "fleets": fleets,
    }


#: Payload length of each event kind a checkpoint may hold: READY
#: ``[app, container_seq]`` and COMPLETE ``[app, container_seq, token]``.
_EVENT_ARITY = {_READY: 2, _COMPLETE: 3}


def restore_platform(
    platform: ClusterPlatform, state: dict, path: str | Path | None = None
) -> None:
    """Restore :func:`platform_state` output onto a freshly deployed cluster.

    ``platform`` must already carry the same deployments (apps, plans,
    fleet configs, platform config, seed) the snapshot was taken under —
    the snapshot holds runtime state, not specifications.  App-name
    mismatches raise :class:`DeploymentError`; spec divergence beyond the
    names is the caller's contract, exactly like handing ``run_stream`` a
    different trace.  A heap event that is not a READY or COMPLETE event
    of a deployed app, or a queued request naming none of its app's
    entries, raises :class:`CheckpointError` naming ``path`` (when known).
    """
    if set(state["fleets"]) != set(platform._fleets):
        raise DeploymentError(
            f"snapshot covers apps {sorted(state['fleets'])}, platform has "
            f"{platform.app_names()}"
        )
    events = []
    for row in state["events"]:
        at, kind, seq, payload = row
        if _EVENT_ARITY.get(kind) != len(payload) or payload[0] not in platform._fleets:
            raise _malformed(
                path,
                f"platform state: event {row!r} is not a READY or COMPLETE "
                "event of a deployed app",
            )
        events.append((at, kind, seq, tuple(payload)))
    events.sort()  # heap invariant (serialized order is the heap's)
    platform.clock.advance_to(state["clock_s"])
    platform._last_arrival = state["last_arrival"]
    platform._next_container_seq = state["next_container_seq"]
    platform._next_event_seq = state["next_event_seq"]
    platform._next_token = state["next_token"]
    platform._events = events
    for name, data in state["fleets"].items():
        fleet = platform._fleets[name]
        ecosystem = fleet.config.ecosystem
        fleet.reap_until = (
            -math.inf if data["reap_until"] is None else data["reap_until"]
        )
        fleet.queue.clear()
        for token, entry, arrival, qos, wire_ms in data["queue"]:
            if entry not in fleet.entries:
                raise _malformed(
                    path, f"platform state: {name!r} queues unknown entry {entry!r}"
                )
            fleet.queue.append(
                _PendingRequest(
                    token=token,
                    entry=entry,
                    arrival=arrival,
                    qos=qos,
                    wire_ms=wire_ms,
                )
            )
        fleet.containers = [
            _FleetContainer(
                container_id=item["container_id"],
                seq=item["seq"],
                spawned_at=item["spawned_at"],
                ready_at=item["ready_at"],
                init_ms=item["init_ms"],
                loaded=frozenset(
                    ecosystem.parse_module(dotted) for dotted in item["loaded"]
                ),
                memory_mb=item["memory_mb"],
                seen_entries=set(item["seen_entries"]),
                active=item["active"],
                virgin=item["virgin"],
                idle_since=item["idle_since"],
                last_release=item["last_release"],
            )
            for item in data["containers"]
        ]
        fleet.by_seq = {container.seq: container for container in fleet.containers}
        fleet.refresh_quiet()
        # Recompute the incremental counters the O(1) FleetView refresh
        # reads (see ClusterPlatform._view).  Exact: every pending heap
        # event has time > clock_s (the stream drained to the last
        # arrival before the checkpoint), so a container is booting iff
        # its ready_at is still in the future at the restored clock.
        clock_s = state["clock_s"]
        fleet.in_flight = sum(c.active for c in fleet.containers)
        fleet.booting = sum(1 for c in fleet.containers if c.ready_at > clock_s)
        fleet.policy_state = fleet.policy.restore_state(data["policy_state"])
        fleet.window_index = data["window_index"]
        fleet.window_arrivals = data["window_arrivals"]
        fleet.jitter.setstate(_restore_rng(data["jitter_rng"]))


# -- accumulator state -------------------------------------------------------


def _named(path: str | Path | None) -> str:
    """``checkpoint <path>`` when a file is known — every resume-validation
    error names its offending file (diagnosable from stderr alone)."""
    return "checkpoint" if path is None else f"checkpoint {path}"


def _malformed(path: str | Path | None, what: object) -> CheckpointError:
    return CheckpointError(
        f"{_named(path)} is malformed ({what}) — delete it to restart from scratch"
    )


def restore_accumulator(
    accumulator: WindowAccumulator, state: dict, path: str | Path | None = None
) -> None:
    """Restore ``accumulator.state()`` output onto a fresh accumulator.

    The accumulator must be configured as the snapshot was (window size,
    pricing) — a mismatch means the resume got different CLI flags than
    the original run, which would silently corrupt the series.  Anything
    else the accumulator's reader refuses is a damaged file.  ``path``
    (when known) names the checkpoint file in both errors.
    """
    mine = accumulator.state()
    theirs = state if isinstance(state, dict) else {}
    for key in ("window_s", "pricing"):
        if theirs.get(key, mine[key]) != mine[key]:
            raise CheckpointError(
                f"{_named(path)} used {key}={theirs[key]}, accumulator has "
                f"{mine[key]}"
            )
    try:
        accumulator.absorb(state)
    except ValueError as error:
        raise _malformed(path, error) from error


# -- the checkpointed streaming driver --------------------------------------


def _write_json_atomic(path: Path, payload: dict) -> None:
    """Durably, atomically write ``payload`` as JSON to ``path``.

    The payload lands in a scratch file first and is ``os.replace``d over
    the destination, so readers only ever see a complete document.  The
    scratch is fsynced before the rename — without it, "atomic" only
    orders the metadata, and a power loss could publish a zero-length
    checkpoint.  The scratch name carries the writer's pid so concurrent
    shard workers can never collide on it, and it is removed on any
    failure between creation and rename, so an exploded serialization
    never leaks a ``.tmp`` next to the checkpoint.
    """
    scratch = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(scratch, "w") as handle:
            handle.write(json.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)


def reject_stale_scratch(path: str | Path) -> None:
    """Fail loudly when a crashed writer left scratch files near ``path``.

    A ``<path>*.tmp`` leftover means a writer died *mid-write* (only a
    hard kill can leak one past :func:`_write_json_atomic`'s cleanup).
    The published checkpoint — if any — is still the last consistent
    state, but silently ignoring the wreckage invites exactly the
    half-written-state confusion checkpoints exist to prevent, so resume
    refuses until the user deletes the scratch.
    """
    path = Path(path)
    stale = sorted(path.parent.glob(path.name + "*.tmp"))
    if stale:
        names = ", ".join(item.name for item in stale)
        raise CheckpointError(
            f"stale checkpoint scratch file(s) next to {path}: {names} — a "
            "previous writer crashed mid-write; the checkpoint itself is the "
            "last consistent state, delete the scratch file(s) to resume"
        )


def require_writable_directory(path: str | Path) -> None:
    """Fail now if ``path``'s directory cannot take a checkpoint later.

    The first checkpoint write happens at the first window boundary —
    after a window's worth of work — so a mistyped directory is refused
    up front instead of surfacing there as a bare ``OSError``.
    """
    parent = Path(path).parent
    if not parent.is_dir() or not os.access(parent, os.W_OK | os.X_OK):
        raise CheckpointError(
            f"cannot write checkpoint {path}: {parent} is not a writable "
            "directory"
        )


def write_checkpoint(
    path: str | Path,
    platform: ClusterPlatform,
    accumulator: WindowAccumulator,
    consumed: int,
    fingerprint: dict | None = None,
) -> None:
    """Atomically and durably persist a replay checkpoint to ``path``.

    ``consumed`` is the number of arrivals already fed from the
    (deterministic, recompilable) stream; resume skips exactly that many.
    ``fingerprint`` is an opaque JSON-safe description of everything the
    stream and platform were built from (seeds, scales, fleet flags…);
    resume refuses a checkpoint whose fingerprint differs, since skipping
    into a *different* deterministic stream would silently blend two
    workloads into one report.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "consumed": consumed,
        "apps": sorted(platform.app_names()),
        "fingerprint": fingerprint,
        "platform": platform_state(platform),
        "accumulator": accumulator.state(),
    }
    _write_json_atomic(Path(path), payload)


def _load_json(path: Path, what: str) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as error:
        raise CheckpointError(
            f"{what} {path} is corrupted (not UTF-8: {error.reason} at byte "
            f"{error.start}) — delete it to restart from scratch"
        ) from error
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"{what} {path} is corrupted (truncated or partial JSON: "
            f"{error}) — delete it to restart from scratch"
        ) from error
    except OSError as error:
        raise CheckpointError(f"cannot read {what} {path}: {error.strerror}") from error
    if not isinstance(data, dict):
        raise CheckpointError(
            f"{what} {path} does not hold a JSON object — delete it to "
            "restart from scratch"
        )
    return data


def load_checkpoint(path: str | Path) -> dict:
    """Read a checkpoint written by :func:`write_checkpoint`."""
    path = Path(path)
    data = _load_json(path, "checkpoint")
    if data.get("kind") == MANIFEST_KIND:
        raise CheckpointError(
            f"{path} is a sharded-replay manifest, not a single-run "
            "checkpoint — resume it with the original --workers count"
        )
    if data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {data.get('format')!r} in {path} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    for key in ("apps", "consumed", "fingerprint", "platform", "accumulator"):
        if key not in data:
            raise CheckpointError(
                f"checkpoint {path} is missing key {key!r} — delete it to "
                "restart from scratch"
            )
    consumed = data["consumed"]
    if type(consumed) is not int or consumed < 0:
        raise _malformed(path, f"consumed is not a count of arrivals: {consumed!r}")
    return data


# -- the per-shard manifest --------------------------------------------------


def shard_checkpoint_path(path: str | Path, shard: int, shards: int) -> Path:
    """Where shard ``shard`` of ``shards`` checkpoints, for manifest ``path``."""
    path = Path(path)
    return path.with_name(f"{path.name}.shard-{shard}-of-{shards}.json")


def write_manifest(
    path: str | Path,
    workers: int,
    partition: dict[str, int],
    fingerprint: dict | None = None,
) -> None:
    """Atomically persist the coordinator manifest of a sharded replay.

    The manifest is the rendezvous point of per-shard checkpointing
    (:func:`repro.workloads.shard.replay_sharded`): it records
    the worker count, the app-name → shard-index partition, and the
    shared replay fingerprint, plus the shard checkpoint filenames it
    governs.  Resume validates all three before any worker starts, so a
    mismatched ``--workers`` (or a different trace) fails loudly instead
    of each shard skipping into the wrong deterministic stream.
    """
    payload = {
        "kind": MANIFEST_KIND,
        "format": MANIFEST_FORMAT,
        "workers": workers,
        "partition": dict(sorted(partition.items())),
        "fingerprint": fingerprint,
        "shards": [
            shard_checkpoint_path(path, shard, workers).name
            for shard in range(workers)
        ],
    }
    _write_json_atomic(Path(path), payload)


def load_manifest(path: str | Path) -> dict:
    """Read a manifest written by :func:`write_manifest`."""
    path = Path(path)
    data = _load_json(path, "manifest")
    if data.get("kind") != MANIFEST_KIND:
        raise CheckpointError(
            f"{path} is not a sharded-replay manifest (a single-run "
            "checkpoint from a --workers-less replay?) — resume it without "
            "--workers, or delete it to restart"
        )
    if data.get("format") != MANIFEST_FORMAT:
        raise CheckpointError(
            f"unsupported manifest format {data.get('format')!r} in {path}"
        )
    workers = data.get("workers")
    if type(workers) is not int or workers < 1:
        damage = f"workers is not a worker count: {workers!r}"
    elif not isinstance(data.get("partition"), dict):
        damage = f"partition is not an app -> shard map: {data.get('partition')!r}"
    elif "fingerprint" not in data:
        damage = "missing key 'fingerprint'"
    else:
        return data
    raise CheckpointError(
        f"manifest {path} is malformed ({damage}) — delete it and the shard "
        "files to restart"
    )


class _CheckpointBoundary:
    """The window-edge hook of a checkpointed ``run_stream``.

    Speaks the ``boundary=`` protocol of
    :meth:`ClusterPlatform.run_stream` (``next_flush_s`` +
    ``flush_boundary(at, fed)``).  The first call only anchors the
    window — the first arrival of a fresh run, or the crossing arrival
    of a resumed one, whose checkpoint and journal marker are already on
    disk; every later call that enters a new window flushes the journal
    and then writes the checkpoint, in that order, so the journal's
    boundary marker is always at least as durable as the checkpoint that
    will look for it on resume.
    """

    def __init__(self, write: Callable[[int], None], every_s, resumed, journal):
        self.next_flush_s = -math.inf
        self._write = write
        self._every_s = every_s
        self._resumed = resumed
        self._journal = journal
        self._window: int | None = None

    def flush_boundary(self, at: float, fed: int) -> None:
        consumed = self._resumed + fed
        if self._journal is not None:
            self._journal.flush_boundary(at, consumed)
        window = int(at // self._every_s)
        if self._window is not None and window > self._window:
            self._write(consumed)
        self._window = window
        self.next_flush_s = (window + 1) * self._every_s


def run_stream_checkpointed(
    platform: ClusterPlatform,
    arrivals: Iterable[tuple[float, str, str]],
    accumulator: WindowAccumulator,
    path: str | Path,
    on_record: Callable[[InvocationRecord], None] | None = None,
    flush_at: float | None = None,
    keep: bool = False,
    fingerprint: dict | None = None,
    journal=None,
    profiler=None,
) -> WindowedSummary:
    """:meth:`ClusterPlatform.run_stream` with durable window checkpoints.

    It *is* one ``run_stream`` call over the same arrivals — so
    bit-identical to a plain one — with a boundary hook installed
    (:class:`_CheckpointBoundary`): before the first arrival of each new
    accumulator window is processed, the platform + accumulator state
    and the count of arrivals consumed so far are written to ``path``.
    If ``path`` already exists, the run *resumes* from it instead of
    starting over: the caller hands in the platform freshly deployed,
    the accumulator freshly configured, and the arrival stream freshly
    compiled — everything deterministic — and the driver restores the
    serialized state and skips the consumed prefix.  On success the
    checkpoint is deleted unless ``keep``.

    An interrupted run (crash, KeyboardInterrupt) leaves the newest
    checkpoint on disk; rerunning the same command continues it.  A
    ``path`` (or journal) in a missing or unwritable directory raises
    :class:`CheckpointError` before the first arrival is processed.

    ``journal`` (a not-yet-opened :class:`repro.obs.journal.JournalWriter`)
    journals the run: the driver opens it — truncating to the restored
    boundary on resume — installs it as the platform's observability
    sink, flushes it *before* every checkpoint write, seals it when the
    stream completes, and on an interrupt closes it at its last durable
    boundary.  Its window size must equal the accumulator's, or marker
    and checkpoint boundaries would drift apart.  ``profiler``
    (:class:`repro.obs.profile.PhaseProfiler`) accumulates
    checkpoint-write wall time under the ``"checkpoint-write"`` phase.
    """
    path = Path(path)
    require_writable_directory(path)
    reject_stale_scratch(path)
    consumed = 0
    if path.exists():
        data = load_checkpoint(path)
        if data["apps"] != sorted(platform.app_names()):
            raise DeploymentError(
                f"checkpoint {path} covers apps {data['apps']}, "
                f"platform has {platform.app_names()}"
            )
        if data.get("fingerprint") != fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written by a differently-configured "
                f"replay (checkpoint fingerprint {data.get('fingerprint')!r}, "
                f"this run {fingerprint!r}); resuming would blend two "
                "workloads — delete the checkpoint or rerun with the "
                "original flags"
            )
        try:
            restore_platform(platform, data["platform"], path)
        except KeyError as error:
            raise _malformed(
                path, f"platform state has no {error.args[0]!r}"
            ) from error
        except (TypeError, IndexError, ValueError, AttributeError) as error:
            raise _malformed(path, f"platform state: {error!r}") from error
        restore_accumulator(accumulator, data["accumulator"], path=path)
        consumed = data["consumed"]
    every = accumulator.window_s
    if journal is not None and journal.window_s != every:
        raise WorkloadError(
            f"journal window_s={journal.window_s} must equal the "
            f"checkpoint period {every}: their boundaries are one "
            "protocol"
        )

    def write(consumed: int) -> None:
        with (
            nullcontext()
            if profiler is None
            else profiler.phase("checkpoint-write")
        ):
            write_checkpoint(path, platform, accumulator, consumed, fingerprint)

    # The journal's context closes it on success and, on any exception,
    # aborts it — the file stays at its last durable boundary, next to
    # the newest checkpoint, for the resume.
    with nullcontext() if journal is None else journal.resume(consumed):
        summary = platform.run_stream(
            islice(arrivals, consumed, None),
            accumulator,
            on_record,
            flush_at,
            obs=journal,
            boundary=_CheckpointBoundary(write, every, consumed, journal),
        )
    if not keep:
        path.unlink(missing_ok=True)
    return summary
