"""Stream-scanning queries over run journals — O(1) memory, any size.

The read side of :mod:`repro.obs.journal`: every function here consumes
the journal as a line stream and retains only fixed-size state (a
running aggregate, or a bounded tail deque), so querying a multi-week
soak run's journal costs the same memory as querying a toy one.
``slimstart obs query|tail|summarize`` are thin CLI wrappers over these.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Iterator

from repro.common.errors import WorkloadError
from repro.metrics.windows import population_rate
from repro.obs.journal import JOURNAL_FORMAT, row_time

__all__ = ["READ_FORMATS", "query_rows", "read_rows", "summarize_journal", "tail_rows"]

#: The journal formats this build reads; it writes the last.
READ_FORMATS = (1, JOURNAL_FORMAT)

_NUMBER = (int, float)  # exact JSON types: a ``bool`` is neither
_WHOLE = (int,)
_STRING = (str,)
_NOUNS = {_NUMBER: "a number", _WHOLE: "a whole number", _STRING: "a string"}

#: The keys this module's readers index a data row by, per format and
#: kind (the row's time key first), with the type they rely on — what
#: :func:`summarize_journal` adds, :func:`~repro.obs.journal.row_time`
#: compares and the CLI formats with ``d``.  A row of a known kind that
#: lacks one, or holds another type in it, is damage, refused by
#: :func:`read_rows` rather than met as a ``KeyError`` / ``TypeError``.
_WINDOW_KEYS = {
    "start_s": _NUMBER, "window": _WHOLE, "app": _STRING,
    "arrivals": _WHOLE, "completed": _WHOLE, "shed": _WHOLE,
    "cold_starts": _WHOLE, "queue_ms_sum": _NUMBER,
}
_EVENT_KEYS = {
    "scale": {"at_s": _NUMBER},
    "shed": {"at_s": _NUMBER},
    "span": {"arrival_s": _NUMBER},
}
_ROW_KEYS = {
    1: {
        "window": _WINDOW_KEYS,
        **_EVENT_KEYS,
        "provision": {"start_s": _NUMBER, "end_s": _NUMBER, "memory_mb": _NUMBER},
    },
    2: {
        "window": {
            **_WINDOW_KEYS,
            "gb_seconds": _NUMBER, "boots": _WHOLE, "decisions": _WHOLE,
        },
        **_EVENT_KEYS,
    },
}
#: Keys a row of any kind may omit, typed when present (``app`` is
#: filtered on and rendered as a string, a scale row's ``booted`` summed).
_OPTIONAL_KEYS = {"app": _STRING, "booted": _WHOLE}
_TYPED_ANY_KIND = tuple(_OPTIONAL_KEYS.items())


def _rows(path: str | Path, control: bool = False) -> Iterator[dict]:
    """:func:`read_rows`, led by the validated header row."""
    path = Path(path)
    if not path.exists():
        raise WorkloadError(f"journal not found: {path}")
    with open(path, "rb") as handle:
        index = -1
        for index, line in enumerate(handle):
            try:
                row = json.loads(line)
            except UnicodeDecodeError:
                raise WorkloadError(
                    f"{path} is not valid UTF-8 JSONL at line {index + 1}"
                ) from None
            except json.JSONDecodeError:
                if index == 0:
                    raise WorkloadError(f"{path} is not a JSONL run journal")
                return  # torn tail from a mid-flush kill
            if not isinstance(row, dict):
                # Valid JSON that is not a row: never a torn tail (a
                # prefix of a row does not parse), so never tolerated.
                found = f"found a JSON {type(row).__name__}, not a row object"
                if index == 0:
                    raise WorkloadError(f"{path} is not a run journal ({found})")
                raise WorkloadError(
                    f"{path} is not valid JSONL at line {index + 1} ({found})"
                )
            if index == 0:
                if row.get("kind") != "journal":
                    raise WorkloadError(
                        f"{path} is not a run journal (first row kind "
                        f"{row.get('kind')!r}, expected 'journal')"
                    )
                if row.get("format") not in READ_FORMATS:
                    raise WorkloadError(
                        f"unsupported journal format {row.get('format')!r} "
                        f"in {path} (this build reads formats "
                        f"{' and '.join(map(str, READ_FORMATS))})"
                    )
                row_keys = _ROW_KEYS[row["format"]]
                typed = {
                    kind: tuple({**_OPTIONAL_KEYS, **keys}.items())
                    for kind, keys in row_keys.items()
                }
                yield row
                continue
            kind = row.get("kind")
            if not isinstance(kind, str):
                found = (
                    f"row kind is {kind!r}" if "kind" in row else "row has no 'kind'"
                )
                raise WorkloadError(
                    f"{path} is not valid JSONL at line {index + 1} ({found})"
                )
            if not control and kind in ("boundary", "end"):
                continue
            missing = next(
                (key for key in row_keys.get(kind, ()) if key not in row), None
            )
            if missing is not None:
                raise WorkloadError(
                    f"{path} is not valid JSONL at line {index + 1} "
                    f"({kind} row has no {missing!r})"
                )
            for key, types in typed.get(kind, _TYPED_ANY_KIND):
                if key in row and type(row[key]) not in types:
                    raise WorkloadError(
                        f"{path} is not valid JSONL at line {index + 1} "
                        f"({kind} row {key!r} is {row[key]!r}, "
                        f"not {_NOUNS[types]})"
                    )
            yield row
        if index < 0:
            raise WorkloadError(f"{path} is not a run journal (empty file)")


def read_rows(path: str | Path, control: bool = False) -> Iterator[dict]:
    """Yield a journal's rows one at a time (header validated, skipped).

    Reads every format in :data:`READ_FORMATS`, each row checked against
    its own format's keys.  ``control`` includes the ``boundary``/``end``
    bookkeeping rows, which queries normally ignore.  A torn trailing
    line (journaled run killed mid-flush) ends the stream instead of
    raising — everything before it is durable by construction.
    """
    rows = _rows(path, control)
    next(rows)
    yield from rows


def query_rows(
    path: str | Path,
    kind: str | None = None,
    app: str | None = None,
    since: float | None = None,
    until: float | None = None,
) -> Iterator[dict]:
    """Filtered journal rows, streamed.

    Filters compose conjunctively; each is independent, so
    ``query(A and B)`` is always a subset of ``query(A)`` (the property
    the test suite pins).  ``since``/``until`` bound the row's
    replay-clock time (inclusive / exclusive); rows without a time (none
    today) never match a time filter.
    """
    for row in read_rows(path):
        if kind is not None and row.get("kind") != kind:
            continue
        if app is not None and row.get("app") != app:
            continue
        if since is not None or until is not None:
            at = row_time(row)
            if at is None:
                continue
            if since is not None and at < since:
                continue
            if until is not None and at >= until:
                continue
        yield row


def tail_rows(path: str | Path, count: int) -> list[dict]:
    """The journal's last ``count`` data rows (O(count) memory)."""
    return list(deque(read_rows(path), maxlen=max(0, count)))


def summarize_journal(path: str | Path) -> dict:
    """One pass over the journal → run- and per-app totals.

    Window *delta* rows are summed here (an app active across several
    flushes writes several rows per window — see the journal's flush
    protocol), which is what makes the totals identical between a
    straight run and a killed-and-resumed one.

    ``scaling_decisions``, ``containers_booted`` and ``gb_seconds`` sum
    the window rows' ``decisions`` / ``boots`` / ``gb_seconds`` in a
    format-2 journal; a format-1 journal has one ``scale`` row per
    decision and one ``provision`` row per container lifetime, summed
    instead — the same totals for the same run.  ``windows`` counts the
    windows that saw arrivals.
    """
    rows = _rows(path)
    format1 = next(rows)["format"] == 1
    per_app: dict[str, list] = {}
    counts = {"span": 0, "shed_events": 0}
    windows: set[int] = set()
    gb_seconds = 0.0
    booted = 0
    decisions = 0
    start: float | None = None
    end: float | None = None
    for row in rows:
        kind = row["kind"]
        at = row_time(row)
        if at is not None:
            start = at if start is None else min(start, at)
            end = at if end is None else max(end, at)
        if kind == "window":
            if row["arrivals"]:
                windows.add(row["window"])
            tally = per_app.get(row["app"])
            if tally is None:
                tally = per_app[row["app"]] = [0, 0, 0, 0, 0.0]
            tally[0] += row["arrivals"]
            tally[1] += row["completed"]
            tally[2] += row["shed"]
            tally[3] += row["cold_starts"]
            tally[4] += row["queue_ms_sum"]
            if not format1:
                gb_seconds += row["gb_seconds"]
                booted += row["boots"]
                decisions += row["decisions"]
        elif kind == "span":
            counts["span"] += 1
        elif kind == "shed":
            counts["shed_events"] += 1
        elif not format1:
            continue
        elif kind == "scale":
            decisions += 1
            booted += row.get("booted", 0)
        elif kind == "provision":
            gb_seconds += (
                (row["end_s"] - row["start_s"]) * row["memory_mb"] / 1024.0
            )
    apps = {}
    for name in sorted(per_app):
        arrivals, completed, shed, cold, queue_ms = per_app[name]
        undefined = arrivals > 0 and completed == 0
        apps[name] = {
            "arrivals": arrivals,
            "completed": completed,
            "shed": shed,
            "cold_starts": cold,
            "cold_start_rate": population_rate(cold, completed, undefined),
            "queue_mean_ms": population_rate(queue_ms, completed, undefined),
        }
    return {
        "apps": apps,
        "windows": len(windows),
        "arrivals": sum(a["arrivals"] for a in apps.values()),
        "completed": sum(a["completed"] for a in apps.values()),
        "shed": sum(a["shed"] for a in apps.values()),
        "cold_starts": sum(a["cold_starts"] for a in apps.values()),
        "scaling_decisions": decisions,
        "containers_booted": booted,
        "spans": counts["span"],
        "shed_events": counts["shed_events"],
        "gb_seconds": round(gb_seconds, 6),
        "start_s": start,
        "end_s": end,
    }
