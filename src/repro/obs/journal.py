"""Append-only JSONL run journal: the durable telemetry behind a replay.

A streamed replay deliberately forgets — the accumulator folds millions
of requests into O(windows) state and :meth:`finalize` returns one
summary object.  The journal is the part that *remembers*: an
append-only JSONL file written at window boundaries recording per-app
window rows (with their provisioned GB-seconds, container boots and
scaling-decision counts), shed events, the scaling policies' structured
records whenever a fleet's scaling regime changes, and (optionally)
sampled per-request trace spans.  ``slimstart obs`` (see
:mod:`repro.obs.query`) stream-scans the result at O(1) memory.

The journal's size follows windows and regime changes, not container
churn: a per-window dump, like a periodic stats print, rather than a
row per boot.  Format 1 wrote a ``scale`` and a ``provision`` row for
every boot, which under a 1 s keep-alive is a row pair for every few
arrivals; format 2 folds the boots and the lifetimes into the window
rows and keeps only the decisions that change a fleet's regime.

Design constraints, in order:

* **Determinism.**  A journaled replay must produce byte-identical
  journals whether or not it was killed and resumed, and a sharded
  journaled replay must merge to the same rows as a 1-worker one.  All
  buffering is flushed at deterministic stream positions (the window
  boundaries the checkpoint protocol already uses), window rows are
  *delta* rows (counts since the previous flush, summed by the query
  surface), and span sampling keys off the platform's submission token —
  the stream position, which the checkpoint restores exactly.
* **Durability.**  Each flush ends with ``flush()`` + ``fsync`` and a
  ``boundary`` marker row carrying the arrivals-consumed count, written
  *before* the matching checkpoint (see
  :func:`repro.faas.snapshot.run_stream_checkpointed`) — so on resume
  the journal's marker for the restored boundary is always on disk and
  :meth:`JournalWriter.resume` can truncate everything after it.  A torn
  trailing line from a mid-flush kill is detected and discarded by the
  same scan.
* **Zero cost when off.**  No journal code runs inside the event loop's
  fast paths (``_arrive`` / ``_on_ready``); the platforms consult the
  sink only through pre-built closures installed when ``run_stream``
  starts, identical to the non-journaled ones when no sink is given.

Row kinds (every row is one JSON object per line, with a ``kind`` key):

``journal``
    Header (first line): format, window size, fingerprint, sampling rate.
``window``
    Per-(window, app) **delta** counters flushed at a boundary:
    arrivals/completed/shed/cold_starts plus the exact queue-wait sum and
    the derived ``cold_start_rate`` / ``queue_mean_ms`` (via
    :func:`repro.metrics.windows.population_rate`); ``gb_seconds``, the
    provisioned memory-time the accumulator spread onto the window
    (diffed like the counters); ``boots`` and ``decisions``, the
    containers booted by and the number of scaling decisions taken in
    the window (decisions that wanted capacity, i.e. ``want > 0``).  An
    app active across a boundary yields several delta rows for one
    window; ``obs summarize`` sums them.
``scale``
    A scaling decision whose **regime** — ``(want, desired, panicking,
    forecast, prewarm)``, absent fields as ``None`` — differs from the
    last one written for its app in the current flush block: the
    policy's own :meth:`~repro.faas.autoscale.ScalingPolicy.decision`
    record (policy name, queued/in-flight/live, want, booted, plus
    policy-specific fields such as a forecast value or panic rates).
    Every decision is still counted in its window row.
``shed``
    Individual rejection events.
``span``
    One sampled request trace: trace id (= stream position), app, entry,
    and the phase breakdown (queue wait, cold boot, execute, cross-region
    hop).
``boundary`` / ``end``
    Control rows: flush markers (window boundary + consumed count) and
    the final end-of-run marker.  Dropped by queries and merges.

The last-written regime is forgotten at every flush, so each flush
block opens with each deciding app's first decision.  That keeps the
determinism above: at a flush nothing is pending, so a resumed run — or
a shard, whose flushes fall between two of an app's decisions exactly
when the single-process run's do (decisions happen at the app's own
arrivals, and a flush precedes the first arrival past a window edge) —
starts each block from the same empty state without the checkpoint
carrying any of it.

Format 1 journals (``provision`` rows, one ``scale`` row per decision,
window rows without the three fields) stay readable by
:mod:`repro.obs.query`; this module writes and merges format 2 only.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import os
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.common.errors import CheckpointError
from repro.metrics.windows import population_rate

#: Bump when a row's schema changes incompatibly.  2: window rows carry
#: ``gb_seconds`` / ``boots`` / ``decisions``, ``provision`` rows are
#: gone and ``scale`` rows mark regime changes.
JOURNAL_FORMAT = 2

#: A ``(window, app)`` the accumulator holds nothing for yet.
_NOTHING = (0, 0, 0, 0.0, 0.0)

__all__ = [
    "JOURNAL_FORMAT",
    "JournalWriter",
    "merge_journals",
    "open_journal",
    "shard_journal_path",
]

#: One row -> its journal line, byte for byte what ``json.dumps`` with
#: ``sort_keys=True`` returns: that call builds a fresh encoder per row
#: whenever ``sort_keys`` is set, so the journal keeps one.
_encode_row = json.JSONEncoder(sort_keys=True).encode


def open_journal(path: str | Path, mode: str):
    """Open a journal for writing; a refusal names the path.

    Every writer opens before the first arrival is fed, so a missing or
    unwritable directory costs no simulated work.
    """
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as error:
        raise CheckpointError(
            f"cannot write journal {path}: {error.strerror}"
        ) from error


def shard_journal_path(path: str | Path, shard: int, shards: int) -> Path:
    """Where shard ``shard`` of ``shards`` writes its private journal.

    Mirrors :func:`repro.faas.snapshot.shard_checkpoint_path` so a
    journaled checkpointed sharded run keeps all its scratch files next
    to the final artifacts.
    """
    path = Path(path)
    return path.with_name(f"{path.name}.shard-{shard}-of-{shards}.jsonl")


def _cumulative(accumulator) -> dict[tuple[int, str], tuple]:
    """``(completed, shed, cold_starts, queue_ms_sum, gb_seconds)`` per
    ``(window, app)``: everything the accumulator holds now."""
    totals = {
        (index, app): (tally[0], tally[1], tally[2], tally[3], 0.0)
        for index, counts in accumulator.source_counters()
        for app, tally in counts.items()
    }
    for index, sums in accumulator.source_gb_seconds():
        for app, gb in sums.items():
            totals[index, app] = totals.get((index, app), _NOTHING)[:4] + (gb,)
    return totals


class JournalWriter:
    """Writes one run's telemetry to an append-only JSONL file.

    Doubles as the ``ObsSink`` the platforms feed: the ``shed`` /
    ``scaling_decision`` / ``span`` methods accumulate in memory and
    everything is written (and fsynced) at window boundaries.
    Flushing is *driver-screened*: the stream loop compares each arrival
    time against :attr:`next_flush_s` (one float compare per request) and
    calls :meth:`flush_boundary` only at window edges — a checkpointed
    run's boundary hook (:func:`repro.faas.snapshot.run_stream_checkpointed`)
    forwards that call just *before* writing its checkpoint, so the
    journal is never behind the checkpoint.

    Lifecycle: construct, then :meth:`begin` (fresh file) or
    :meth:`resume` (truncate to a restored checkpoint's boundary), feed,
    then :meth:`close` (flush the tail and write the ``end`` row) — or
    :meth:`abort` on failure, which closes without flushing so the file
    stays exactly at its last durable boundary.
    """

    def __init__(
        self,
        path: str | Path,
        window_s: float,
        fingerprint: Any = None,
        trace_sample: float = 0.0,
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"journal window must be positive: {window_s}")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(f"trace sample rate out of [0, 1]: {trace_sample}")
        self.path = Path(path)
        self.window_s = float(window_s)
        self.fingerprint = fingerprint
        self.trace_sample = float(trace_sample)
        #: Every ``interval``-th submission token gets a span (0 = none).
        #: The *caller* applies this modulo (see ``_StreamSinks``) so a
        #: non-sampled request costs one integer test, not a call.
        self.span_interval = (
            max(1, round(1.0 / trace_sample)) if trace_sample > 0.0 else 0
        )
        #: The arrival time at which the stream driver must call
        #: :meth:`flush_boundary` next.  The driver screens each arrival
        #: with one float compare (``at >= next_flush_s``) — the journal's
        #: only per-request footprint.
        self.next_flush_s = -math.inf
        self._file = None
        self._boundary: int | None = None
        self._consumed = 0
        #: Buffered event rows (scale/shed/span) in emission order,
        #: written verbatim at the next flush.
        self._events: list[dict] = []
        #: ``[boots, decisions]`` per ``(decision window, app)`` since the
        #: last flush, written into that flush's window rows.
        self._decided: dict[tuple[int, str], list[int]] = {}
        #: The regime of the last ``scale`` row written per app in the
        #: current flush block (see the module docstring).
        self._regimes: dict[str, tuple] = {}
        #: The run's window accumulator, installed by :meth:`attach` at
        #: stream-begin time.  Window delta rows are *derived* from its
        #: cumulative per-source counters and GB-second sums at each
        #: flush — the journal itself runs no code per completion.
        self._accumulator = None
        #: Cumulative ``(completed, shed, cold, queue_ms_sum, gb_seconds)``
        #: per ``(window_index, app)`` as of the last flush; the next
        #: flush emits the difference.  Seeded by :meth:`attach` from the
        #: accumulator's current state, which on a resumed run is exactly
        #: the restored checkpoint's — so resumed delta rows match the
        #: uninterrupted run's byte for byte.
        self._flushed: dict[tuple[int, str], tuple] = {}

    # -- lifecycle ---------------------------------------------------------

    def _header(self) -> dict:
        return {
            "kind": "journal",
            "format": JOURNAL_FORMAT,
            "window_s": self.window_s,
            "fingerprint": self.fingerprint,
            "trace_sample": self.trace_sample,
        }

    def begin(self) -> "JournalWriter":
        """Open a fresh journal (truncating any previous file)."""
        self._file = open_journal(self.path, "w")
        self._file.write(_encode_row(self._header()) + "\n")
        self._file.flush()
        self.next_flush_s = -math.inf
        return self

    def resume(self, consumed: int) -> "JournalWriter":
        """Re-open after a restored checkpoint that had fed ``consumed``.

        Scans the existing journal, validates its header against this
        writer's configuration, finds the ``boundary`` marker whose
        consumed count matches the checkpoint's, and truncates everything
        after it — rows for arrivals the resumed run will replay again.
        A torn trailing line (mid-flush kill) simply ends the scan.
        ``consumed == 0`` (or no journal on disk) starts fresh.
        """
        if consumed == 0 or not self.path.exists():
            return self.begin()
        marker_end: int | None = None
        marker_row: dict | None = None
        offset = 0
        with open(self.path, "rb") as handle:
            for index, line in enumerate(handle):
                offset += len(line)
                if not line.endswith(b"\n"):
                    break  # torn tail from a mid-flush kill
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    break
                if index == 0:
                    self._check_header(row)
                    continue
                if row.get("kind") == "boundary" and row.get("consumed") == consumed:
                    marker_end = offset
                    marker_row = row
                    break
        if marker_end is None:
            raise CheckpointError(
                f"journal {self.path} has no boundary marker for "
                f"consumed={consumed}; it does not belong to the checkpoint "
                f"being resumed"
            )
        self._file = open_journal(self.path, "r+")
        self._file.truncate(marker_end)
        self._file.seek(0, os.SEEK_END)
        self._boundary = int(marker_row["boundary"])
        self._consumed = consumed
        self.next_flush_s = (self._boundary + 1) * self.window_s
        return self

    def _check_header(self, row: dict) -> None:
        if row.get("kind") != "journal":
            raise CheckpointError(
                f"{self.path} is not a run journal (first row kind "
                f"{row.get('kind')!r}, expected 'journal')"
            )
        if row.get("format") != JOURNAL_FORMAT:
            raise CheckpointError(
                f"unsupported journal format {row.get('format')!r} in "
                f"{self.path} (this build writes format {JOURNAL_FORMAT})"
            )
        for key, expected in (
            ("window_s", self.window_s),
            ("fingerprint", self.fingerprint),
            ("trace_sample", self.trace_sample),
        ):
            if row.get(key) != expected:
                raise CheckpointError(
                    f"journal {self.path} was written by a "
                    f"differently-configured run: {key} is {row.get(key)!r}, "
                    f"this run uses {expected!r}"
                )

    def close(self) -> None:
        """Flush the tail (post-boundary deltas) and seal the journal."""
        if self._file is None:
            return
        self._write_pending()
        self._write_row({"kind": "end"})
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        self._file = None

    def abort(self) -> None:
        """Close without flushing: the file stays at its last boundary."""
        if self._file is None:
            return
        self._file.close()
        self._file = None
        self._events.clear()
        self._decided.clear()
        self._regimes.clear()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    # -- flush protocol ----------------------------------------------------

    def attach(self, accumulator) -> None:
        """Install the run's accumulator as the window-row source.

        Called by the platforms' sink construction at stream-begin time.
        The accumulator's current cumulative per-source counters and
        GB-second sums
        (:meth:`~repro.metrics.windows.WindowAccumulator.source_counters`,
        :meth:`~repro.metrics.windows.WindowAccumulator.source_gb_seconds`)
        are snapshotted as the already-flushed base: zero for a fresh run,
        the restored checkpoint's exact state for a resumed one — either
        way the next flush emits only what this run's stream added, and
        resumed delta rows match the uninterrupted run's byte for byte.
        """
        self._accumulator = accumulator
        self._flushed = _cumulative(accumulator)

    def flush_boundary(self, at_s: float, consumed: int) -> None:
        """Advance to the window holding arrival time ``at_s``, flushing.

        The stream driver calls this whenever an arrival passes the
        ``next_flush_s`` screen, *before* feeding it, with ``consumed``
        the count of arrivals already fed — the same position the
        checkpoint protocol records, so the boundary marker written here
        lands just ahead of the matching checkpoint.  The first call of a
        run only anchors the boundary; later calls whose window index
        advanced flush the pending block.  Either way ``next_flush_s``
        moves to the next window edge, re-arming the screen.
        """
        self._consumed = consumed
        index = int(at_s // self.window_s)
        if self._boundary is None:
            self._boundary = index
        elif index > self._boundary:
            self._flush(index)
        self.next_flush_s = (index + 1) * self.window_s

    def _flush(self, new_boundary: int) -> None:
        self._write_pending()
        self._write_row(
            {
                "kind": "boundary",
                "boundary": new_boundary,
                "consumed": self._consumed,
            }
        )
        self._file.flush()
        os.fsync(self._file.fileno())
        self._boundary = new_boundary

    def _write_pending(self) -> None:
        for row in self._events:
            self._write_row(row)
        self._events.clear()
        self._regimes.clear()
        acc = self._accumulator
        if acc is None:
            return
        flushed = self._flushed
        decided = self._decided
        current = _cumulative(acc)
        for key in sorted(current.keys() | decided.keys()):
            cur = current.get(key, _NOTHING)
            prev = flushed.get(key, _NOTHING)
            boots, decisions = decided.get(key, (0, 0))
            if prev == cur and not decisions:
                continue
            # x - 0 is exactly x, so a key's first row carries its
            # cumulative values unchanged.
            completed, shed, cold, queue_ms, gb_seconds = map(
                operator.sub, cur, prev
            )
            flushed[key] = cur
            index, app = key
            undefined = completed == 0
            self._write_row(
                {
                    "kind": "window",
                    "window": index,
                    "start_s": index * self.window_s,
                    "app": app,
                    "arrivals": completed + shed,
                    "completed": completed,
                    "shed": shed,
                    "cold_starts": cold,
                    "queue_ms_sum": queue_ms,
                    "cold_start_rate": population_rate(
                        cold, completed, undefined
                    ),
                    "queue_mean_ms": population_rate(
                        queue_ms, completed, undefined
                    ),
                    "gb_seconds": gb_seconds,
                    "boots": boots,
                    "decisions": decisions,
                }
            )
        decided.clear()

    def _write_row(self, row: dict) -> None:
        self._file.write(_encode_row(row) + "\n")

    # -- ObsSink surface (fed by the platforms) ----------------------------
    #
    # There is deliberately no per-arrival or per-completion method: the
    # stream drivers screen arrivals against ``next_flush_s`` themselves
    # and only call :meth:`flush_boundary` at window edges, and window
    # rows are derived at flush time by diffing the accumulator's
    # cumulative per-source counters (see :meth:`attach`) — a journaled
    # completion runs the exact same code a plain one does.

    def shed(self, at_s: float, app: str) -> None:
        """One rejected request's event row.

        The per-app window tally comes from the accumulator's counted
        shed path; this only records the individual event.
        """
        self._events.append({"kind": "shed", "at_s": at_s, "app": app})

    def scaling_decision(self, at_s: float, app: str, record: dict) -> None:
        """One policy decision (see ``ScalingPolicy.decision``).

        Counted into its window row's ``boots`` / ``decisions``; journaled
        as a ``scale`` row only when its regime differs from the last one
        written for ``app`` in this flush block.
        """
        key = (int(at_s // self.window_s), app)
        tally = self._decided.get(key)
        if tally is None:
            self._decided[key] = [record["booted"], 1]
        else:
            tally[0] += record["booted"]
            tally[1] += 1
        regime = (
            record["want"],
            record.get("desired"),
            record.get("panicking"),
            record.get("forecast"),
            record.get("prewarm"),
        )
        if self._regimes.get(app) != regime:
            self._regimes[app] = regime
            row = {"kind": "scale", "at_s": at_s, "app": app}
            row.update(record)
            self._events.append(row)

    def samples_spans(self) -> bool:
        """Whether any span will ever be recorded (installs the hook)."""
        return self.span_interval > 0

    def span(
        self,
        token: int,
        app: str,
        entry: str,
        arrival_s: float,
        queue_ms: float,
        cold: bool,
        cold_boot_ms: float,
        exec_ms: float,
        hop_ms: float,
    ) -> None:
        """One sampled request's phase breakdown.

        The caller has already applied the ``span_interval`` modulo to
        ``token`` — the platform's submission counter, i.e. the stream
        position, restored exactly by the checkpoint protocol — so the
        sampled set is identical across kill/resume.
        """
        self._events.append(
            {
                "kind": "span",
                "trace_id": token,
                "app": app,
                "entry": entry,
                "arrival_s": arrival_s,
                "cold": cold,
                "queue_ms": queue_ms,
                "cold_boot_ms": cold_boot_ms,
                "execute_ms": exec_ms,
                "hop_ms": hop_ms,
            }
        )


# -- merging -----------------------------------------------------------------

#: Each data row's position on the replay clock, for the readers' time
#: filters (``provision`` rows exist in format-1 journals only).
_TIME_KEYS = {
    "window": "start_s",
    "scale": "at_s",
    "shed": "at_s",
    "provision": "start_s",
    "span": "arrival_s",
}


def row_time(row: dict) -> float | None:
    """A data row's replay-clock time; ``None`` for control rows."""
    key = _TIME_KEYS.get(row.get("kind"))
    return None if key is None else row[key]


def _shard_blocks(
    path: Path, shard: int
) -> Iterator[tuple[float, int, int, dict]]:
    """Yield merge keys + rows for one shard journal, block by block.

    A shard journal is a sequence of *flush blocks* — the rows written
    between consecutive ``boundary`` markers, each block belonging to the
    marker that follows it — and block boundaries are strictly
    increasing, so keying every row by ``(block_boundary, shard, seq)``
    gives :func:`heapq.merge` the sorted inputs it requires (rows
    *within* a block are in emission order, not time order: a window
    row can carry the ``start_s`` of a window long before the flush
    that wrote its delta).  The tail block sealed by
    :meth:`JournalWriter.close` sorts after every marked block.  Control
    rows are dropped; the header is validated — a shard journal of
    another format is refused, since its rows would not merge into this
    format's.
    """
    pending: list[tuple[int, dict]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for seq, line in enumerate(handle):
            row = json.loads(line)
            if seq == 0:
                if row.get("kind") != "journal" or row.get("format") != JOURNAL_FORMAT:
                    raise CheckpointError(
                        f"{path} is not a format-{JOURNAL_FORMAT} run journal "
                        f"(kind {row.get('kind')!r}, format {row.get('format')!r})"
                    )
                continue
            kind = row.get("kind")
            if kind == "boundary":
                block = float(row["boundary"])
                for item_seq, item in pending:
                    yield (block, shard, item_seq, item)
                pending.clear()
            elif kind == "end":
                for item_seq, item in pending:
                    yield (math.inf, shard, item_seq, item)
                pending.clear()
            else:
                pending.append((seq, row))
    for item_seq, item in pending:  # no end marker: aborted tail
        yield (math.inf, shard, item_seq, item)


def merge_journals(
    shard_paths: Iterable[str | Path],
    out_path: str | Path,
    window_s: float,
    fingerprint: Any = None,
    trace_sample: float = 0.0,
) -> Path:
    """Merge per-shard journals into one window-ordered run journal.

    The journal analogue of :func:`repro.metrics.merge_wire`: flush blocks
    from all shards interleave by their window boundary (ties broken by
    shard index, rows within a block staying in emission order — all
    deterministic), per-shard control markers are dropped, and a fresh
    header describing the *merged* run is written first.  Merging the
    per-shard journals of a killed-and-resumed run therefore reproduces
    the uninterrupted run's merged journal row for row — the per-shard
    files are byte-identical, and the merge is a pure function of them.
    Streaming block by block: peak memory is O(one window's events per
    shard), never O(journal).
    """
    out_path = Path(out_path)
    header = {
        "kind": "journal",
        "format": JOURNAL_FORMAT,
        "window_s": float(window_s),
        "fingerprint": fingerprint,
        "trace_sample": float(trace_sample),
    }
    streams = [
        _shard_blocks(Path(path), shard)
        for shard, path in enumerate(shard_paths)
    ]
    with open_journal(out_path, "w") as out:
        out.write(_encode_row(header) + "\n")
        for _, _, _, row in heapq.merge(*streams):
            out.write(_encode_row(row) + "\n")
        out.flush()
        os.fsync(out.fileno())
    return out_path
