"""The format-2 journal a replay must write, derived from what the reference
emitted: rule 37's boundary hook, rule 40's flush blocks, rule 41's scale
regimes, rule 43's spans, and a sharded run's merge of flush blocks.

A :class:`ReferenceJournal` rides a reference replay as its ``hook`` and
reads the emission log (``sinks().log``) at every flush, so it shares
nothing with ``repro.obs.journal`` but the row schema.
:func:`first_divergence` explains a mismatch row by row.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from repro.metrics import UNDEFINED_RATE

NOTHING = (0, 0, 0, 0.0, 0.0)  # completed, shed, cold starts, queue ms, GB-s


def header(window_s, fingerprint=None, trace_sample=0.0):
    return {"kind": "journal", "format": 2, "window_s": window_s,
            "fingerprint": fingerprint, "trace_sample": trace_sample}


class ReferenceJournal:
    def __init__(self, out, window_s, trace_sample=0.0):
        self.out, self.window_s = out, window_s
        self.span_interval = max(1, round(1 / trace_sample)) if trace_sample else 0
        self.edge = -math.inf  # rule 37: the first arrival always reaches the hook
        self.window = None  # where the open block began; None until anchored
        self.read = 0  # how much of the log the closed blocks hold
        self.totals, self.flushed = {}, {}  # (window, app) -> NOTHING's fields
        #: ``(boundary, rows, consumed, records emitted before it)`` per flush,
        #: the tail last at boundary ``inf``.
        self.blocks = []

    def hook(self, at, fed):
        """Rule 38: the first call anchors, a call in a later window flushes."""
        if at < self.edge:
            return
        index = int(at // self.window_s)
        if self.window is not None and index > self.window:
            self.blocks.append((index, self.pending(), fed, len(self.out.records)))
        self.window = index
        self.edge = (index + 1) * self.window_s

    def close(self):
        self.blocks.append((math.inf, self.pending(), None, len(self.out.records)))
        return self

    def tally(self, window, app, field, amount):
        row = self.totals.setdefault((window, app), list(NOTHING))
        row[field] += amount

    def pending(self):
        """Rule 40: the block's event rows in emission order, then a delta row
        per (window, app) that moved, by key; rule 41's regimes start empty."""
        rows, regimes, decided, w = [], {}, {}, self.window_s
        for kind, item, *facts in self.out.log[self.read:]:
            if kind == "sheds":
                at, app = item
                rows.append({"kind": "shed", "at_s": at, "app": app})
                self.tally(int(at // w), app, 1, 1)
            elif kind == "decisions":
                at, app, record = item
                boots, count = decided.get((int(at // w), app), (0, 0))
                decided[int(at // w), app] = (boots + record["booted"], count + 1)
                regime = tuple(record.get(k) for k in (
                    "want", "desired", "panicking", "forecast", "prewarm"))
                if regimes.get(app) != regime:
                    regimes[app] = regime
                    rows.append({"kind": "scale", "at_s": at, "app": app, **record})
            elif kind == "records":
                (_, r), (token, wire_ms) = item, facts
                window = int(r.timestamp // w)  # rule 24: the arrival's window
                for field, amount in ((0, 1), (2, int(r.cold)), (3, r.queue_ms)):
                    self.tally(window, r.app, field, amount)
                if self.span_interval and token % self.span_interval == 0:  # rule 43
                    rows.append({
                        "kind": "span", "trace_id": token, "app": r.app, "entry": r.entry,
                        "arrival_s": r.timestamp, "cold": r.cold, "queue_ms": r.queue_ms,
                        "cold_boot_ms": r.init_ms, "execute_ms": r.exec_ms, "hop_ms": wire_ms})
            else:  # rule 25: a lifetime spread over the windows it overlaps
                start, end, memory_mb, app = item
                for index in range(int(start // w), int(end // w) + 1):
                    lo, hi = max(start, index * w), min(end, (index + 1) * w)
                    if hi > lo:
                        self.tally(int(lo // w), app, 4, (hi - lo) * (memory_mb / 1024.0))
        self.read = len(self.out.log)
        for key in sorted(self.totals.keys() | decided.keys()):
            now, then = tuple(self.totals.get(key, NOTHING)), self.flushed.get(key, NOTHING)
            boots, decisions = decided.get(key, (0, 0))
            if now == then and not decisions:
                continue
            self.flushed[key] = now
            completed, shed, cold, queue_ms, gb_seconds = (a - b for a, b in zip(now, then))
            rows.append({
                "kind": "window", "window": key[0], "start_s": key[0] * w, "app": key[1],
                "arrivals": completed + shed, "completed": completed, "shed": shed,
                "cold_starts": cold, "queue_ms_sum": queue_ms,
                "cold_start_rate": cold / completed if completed else UNDEFINED_RATE,
                "queue_mean_ms": queue_ms / completed if completed else UNDEFINED_RATE,
                "gb_seconds": gb_seconds, "boots": boots, "decisions": decisions})
        return rows

    def rows(self, head):
        """The journal file: header, each block and its marker, the end row."""
        out = [head]
        for boundary, rows, consumed, _ in self.blocks:
            out += rows
            marker = {"kind": "boundary", "boundary": boundary, "consumed": consumed}
            out.append(marker if consumed is not None else {"kind": "end"})
        return out

    def checkpoint_before(self, kill_at):
        """``(consumed, records emitted before it)`` of the last flush a run
        killed on pulling arrival ``kill_at`` made; ``(None, 0)`` if none."""
        flushes = [(b[2], b[3]) for b in self.blocks if b[2] is not None and b[2] < kill_at]
        return flushes[-1] if flushes else (None, 0)


def merged(journals, head):
    """Shard journals merged: every block by ``(boundary, shard)``, no markers."""
    blocks = sorted((boundary, shard, rows) for shard, journal in enumerate(journals)
                    for boundary, rows, _, _ in journal.blocks)
    return [head] + [row for _, _, rows in blocks for row in rows]


def first_divergence(engine, reference, context=3):
    """``None`` when the two row lists are equal, else the first row where
    they part, after the ``context`` rows before it, with the keys that differ."""
    for index, (ours, theirs) in enumerate(zip_longest(engine, reference)):
        if ours != theirs:
            keys = sorted(k for k in (ours or {}).keys() | (theirs or {}).keys()
                          if (ours or {}).get(k) != (theirs or {}).get(k))
            lines = [f"journal rows part at row {index} (differing keys: {keys}):"]
            lines += [f"    {engine[i]}" for i in range(max(0, index - context), index)]
            return "\n".join(lines + [f"  engine    {ours}", f"  reference {theirs}"])
    return None
