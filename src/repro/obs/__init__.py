"""Run observability: append-only journals, trace spans, phase profiling.

``repro.obs`` is the telemetry layer the streaming replay feeds: a
durable JSONL journal of window stats / scaling decisions / sampled
request spans (:mod:`repro.obs.journal`), a stream-scanning query
surface behind ``slimstart obs`` (:mod:`repro.obs.query`), and a
wall-clock phase profiler for the replay hot path
(:mod:`repro.obs.profile`).  The platforms know it only as an opaque
sink handed to ``run_stream(obs=…)`` — with no sink installed the
event loop runs the exact pre-observability code paths.
"""

from repro.obs.journal import (
    JOURNAL_FORMAT,
    JournalWriter,
    merge_journals,
    shard_journal_path,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.query import query_rows, read_rows, summarize_journal, tail_rows

__all__ = [
    "JOURNAL_FORMAT",
    "JournalWriter",
    "PhaseProfiler",
    "merge_journals",
    "query_rows",
    "read_rows",
    "shard_journal_path",
    "summarize_journal",
    "tail_rows",
]
