"""The read side: stream queries, tails, and run summaries.

``slimstart obs`` must answer questions about a journal without loading
it — these tests pin the filters' conjunctive semantics (including the
hypothesis property that adding a filter never adds rows), the bounded
tail, and the summary totals' agreement with the run's own report.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.obs.journal import row_time
from repro.obs.query import query_rows, read_rows, summarize_journal, tail_rows

from tests.obs.conftest import SPEC, TRACE, journaled_run
from repro.workloads.shard import build_shard_replay

import math

#: A journal a format-1 build wrote: the base for ``provision`` rows,
#: which exist in that format only.
FORMAT1 = Path(__file__).parents[1] / "fixtures" / "journal_format1.jsonl"

#: A whole format-1 window row: complete in format 1, short in format 2.
FORMAT1_WINDOW = (
    b'{"kind": "window", "start_s": 0.0, "window": 0, "app": "app001", '
    b'"arrivals": 0, "completed": 0, "shed": 0, "cold_starts": 0, '
    b'"queue_ms_sum": 0.0}'
)


class TestReadRows:
    def test_skips_header_and_control_rows(self, journal_path):
        rows = list(read_rows(journal_path))
        assert rows
        assert not [
            r for r in rows if r["kind"] in ("journal", "boundary", "end")
        ]

    def test_control_flag_includes_markers(self, journal_path):
        kinds = {r["kind"] for r in read_rows(journal_path, control=True)}
        assert "boundary" in kinds and "end" in kinds

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(WorkloadError, match="not found"):
            list(read_rows(tmp_path / "absent.jsonl"))

    def test_non_journal_file_raises(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"kind": "checkpoint"}\n')
        with pytest.raises(WorkloadError, match="not a run journal"):
            list(read_rows(path))

    def test_torn_tail_ends_the_stream(self, journal_path, tmp_path):
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(journal_path.read_bytes() + b'{"kind": "win')
        assert list(read_rows(torn)) == list(read_rows(journal_path))

    @pytest.mark.parametrize(
        "line, complaint",
        [
            # Both used to surface as a KeyError inside summarize_journal.
            (b"{}", "(row has no 'kind')"),
            (b'{"kind": "window"}', "(window row has no 'start_s')"),
            (b'{"kind": "window", "start_s": 0.0, "window": 0}',
             "(window row has no 'app')"),
            (b'{"kind": "provision", "app": "a", "start_s": 0.0}',
             "(provision row has no 'end_s')"),
            (b'{"kind": ["window"]}', "(row kind is ['window'])"),
            (FORMAT1_WINDOW, "(window row has no 'gb_seconds')"),
        ],
        ids=["empty-object", "kind-only", "half-a-window", "open-provision",
             "kind-not-a-string", "format-1-window"],
    )
    @pytest.mark.parametrize(
        "reader",
        [
            summarize_journal,
            lambda path: list(query_rows(path, since=0.0)),
            lambda path: tail_rows(path, 5),
        ],
        ids=["summarize", "query", "tail"],
    )
    def test_row_without_the_keys_readers_use_is_refused(
        self, journal_path, tmp_path, line, complaint, reader
    ):
        base = FORMAT1 if "provision" in complaint else journal_path
        lines = base.read_bytes().splitlines(True)
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_bytes(b"".join(lines[:3] + [line + b"\n"] + lines[3:]))
        with pytest.raises(WorkloadError) as refusal:
            reader(damaged)
        assert str(refusal.value) == (
            f"{damaged} is not valid JSONL at line 4 {complaint}"
        )

    @pytest.mark.parametrize(
        "kind, key, value, complaint",
        [
            # Used to end ``obs summarize`` in "TypeError: unsupported
            # operand type(s) for +=: 'int' and 'str'".
            ("window", "arrivals", "x",
             "(window row 'arrivals' is 'x', not a whole number)"),
            # ... and the text summary's ``:9d`` in a ValueError.
            ("window", "completed", 1.5,
             "(window row 'completed' is 1.5, not a whole number)"),
            ("window", "queue_ms_sum", "x",
             "(window row 'queue_ms_sum' is 'x', not a number)"),
            ("window", "start_s", True, "(window row 'start_s' is True, not a number)"),
            ("window", "window", [0], "(window row 'window' is [0], not a whole number)"),
            ("window", "app", 7, "(window row 'app' is 7, not a string)"),
            ("window", "gb_seconds", "x",
             "(window row 'gb_seconds' is 'x', not a number)"),
            ("window", "boots", 1.5, "(window row 'boots' is 1.5, not a whole number)"),
            ("window", "decisions", None,
             "(window row 'decisions' is None, not a whole number)"),
            ("provision", "memory_mb", None,
             "(provision row 'memory_mb' is None, not a number)"),
            ("provision", "end_s", "later", "(provision row 'end_s' is 'later', not a number)"),
            ("scale", "at_s", {}, "(scale row 'at_s' is {}, not a number)"),
            ("scale", "booted", "many", "(scale row 'booted' is 'many', not a whole number)"),
            ("scale", "app", None, "(scale row 'app' is None, not a string)"),
            ("note", "app", ["a"], "(note row 'app' is ['a'], not a string)"),
        ],
    )
    @pytest.mark.parametrize(
        "reader",
        [
            summarize_journal,
            lambda path: list(query_rows(path, since=0.0)),
            lambda path: tail_rows(path, 5),
        ],
        ids=["summarize", "query", "tail"],
    )
    def test_row_holding_another_type_than_readers_use_is_refused(
        self, journal_path, tmp_path, kind, key, value, complaint, reader
    ):
        base = FORMAT1 if kind == "provision" else journal_path
        rows = list(read_rows(base))
        row = next((dict(r) for r in rows if r["kind"] == kind), {"kind": kind})
        row[key] = value
        lines = base.read_bytes().splitlines(True)
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_bytes(
            b"".join(lines[:3] + [json.dumps(row).encode() + b"\n"] + lines[3:])
        )
        with pytest.raises(WorkloadError) as refusal:
            reader(damaged)
        assert str(refusal.value) == (
            f"{damaged} is not valid JSONL at line 4 {complaint}"
        )

    def test_rows_of_an_unknown_kind_pass_through(self, journal_path, tmp_path):
        lines = journal_path.read_bytes().splitlines(True)
        extended = tmp_path / "extended.jsonl"
        extended.write_bytes(
            b"".join(lines[:3] + [b'{"kind": "note"}\n'] + lines[3:])
        )
        assert {"kind": "note"} in list(read_rows(extended))
        assert summarize_journal(extended) == summarize_journal(journal_path)

    def test_format_1_window_rows_need_no_format_2_fields(self, tmp_path):
        lines = FORMAT1.read_bytes().splitlines(True)
        extended = tmp_path / "extended.jsonl"
        extended.write_bytes(b"".join(lines[:3] + [FORMAT1_WINDOW + b"\n"] + lines[3:]))
        assert json.loads(FORMAT1_WINDOW) in list(read_rows(extended))
        assert summarize_journal(extended) == summarize_journal(FORMAT1)

    def test_provision_rows_are_an_unknown_kind_in_format_2(
        self, journal_path, tmp_path
    ):
        # Format 2 carries GB-seconds on window rows; a provision row in
        # it is read like any unknown kind, and not summed a second time.
        lines = journal_path.read_bytes().splitlines(True)
        extended = tmp_path / "extended.jsonl"
        extended.write_bytes(b"".join(
            lines[:3]
            + [b'{"kind": "provision", "app": "a", "start_s": 0.0}\n']
            + lines[3:]
        ))
        assert summarize_journal(extended) == summarize_journal(journal_path)


class TestQueryRows:
    def test_kind_filter(self, journal_path):
        rows = list(query_rows(journal_path, kind="scale"))
        assert rows
        assert all(r["kind"] == "scale" for r in rows)

    def test_app_filter(self, journal_path):
        apps = {r["app"] for r in read_rows(journal_path) if "app" in r}
        target = sorted(apps)[0]
        rows = list(query_rows(journal_path, app=target))
        assert rows
        assert all(r["app"] == target for r in rows)

    def test_time_window_is_inclusive_exclusive(self, journal_path):
        times = sorted(row_time(r) for r in read_rows(journal_path))
        lo, hi = times[len(times) // 4], times[3 * len(times) // 4]
        rows = list(query_rows(journal_path, since=lo, until=hi))
        assert rows
        assert all(lo <= row_time(r) < hi for r in rows)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(
            [None, "window", "scale", "shed", "provision", "span"]
        ),
        app=st.sampled_from([None, "app000", "app001", "app002", "ghost"]),
        since=st.one_of(st.none(), st.floats(0.0, 48 * 3600.0)),
        until=st.one_of(st.none(), st.floats(0.0, 48 * 3600.0)),
    )
    def test_filters_compose_conjunctively(
        self, journal_path, kind, app, since, until
    ):
        """query(A ∧ B) ⊆ query(A): adding a filter never adds rows."""

        def keyed(rows):
            return [json.dumps(r, sort_keys=True) for r in rows]

        both = set(
            keyed(
                query_rows(
                    journal_path, kind=kind, app=app, since=since, until=until
                )
            )
        )
        for loosened in (
            query_rows(journal_path, kind=kind, app=app),
            query_rows(journal_path, kind=kind, since=since, until=until),
            query_rows(journal_path, app=app, since=since, until=until),
        ):
            assert both <= set(keyed(loosened))


class TestTailRows:
    def test_returns_last_n_data_rows(self, journal_path):
        everything = list(read_rows(journal_path))
        assert tail_rows(journal_path, 5) == everything[-5:]

    def test_count_larger_than_journal_returns_all(self, journal_path):
        everything = list(read_rows(journal_path))
        assert tail_rows(journal_path, 10**6) == everything

    def test_nonpositive_count_is_empty(self, journal_path):
        assert tail_rows(journal_path, 0) == []
        assert tail_rows(journal_path, -3) == []


class TestSummarize:
    def test_totals_match_the_run_report(self, journal_path):
        platform, stream, accumulator = build_shard_replay(SPEC, TRACE)
        report = platform.run_stream(stream, accumulator, flush_at=math.inf)
        summary = summarize_journal(journal_path)
        assert summary["arrivals"] == report.arrivals
        assert summary["completed"] == report.completed
        assert summary["shed"] == report.shed
        assert summary["windows"] >= 1
        assert summary["gb_seconds"] == pytest.approx(report.gb_seconds, rel=1e-9)
        assert summary["containers_booted"] == sum(w.boots for w in report.windows)
        assert summary["start_s"] is not None
        assert summary["end_s"] >= summary["start_s"]

    def test_per_app_rates_are_population_rates(self, journal_path):
        summary = summarize_journal(journal_path)
        assert summary["apps"]
        for app in summary["apps"].values():
            assert app["arrivals"] == app["completed"] + app["shed"]
            if app["completed"]:
                assert (
                    app["cold_start_rate"]
                    == app["cold_starts"] / app["completed"]
                )

    def test_counts_follow_the_event_rows(self, journal_path):
        rows = list(read_rows(journal_path))
        summary = summarize_journal(journal_path)
        by_kind = {}
        for row in rows:
            by_kind[row["kind"]] = by_kind.get(row["kind"], 0) + 1
        windows = [r for r in rows if r["kind"] == "window"]
        assert summary["scaling_decisions"] == sum(r["decisions"] for r in windows)
        assert summary["containers_booted"] == sum(r["boots"] for r in windows)
        assert 0 < by_kind["scale"] <= summary["scaling_decisions"]
        assert summary["spans"] == by_kind.get("span", 0)
        assert "provision" not in by_kind

    def test_summary_survives_kill_and_resume_decomposition(self, tmp_path):
        # Two delta rows for one (window, app) must sum exactly like one.
        journaled_run(tmp_path / "run.jsonl")
        reference = summarize_journal(tmp_path / "run.jsonl")
        # Rewrite the journal with every window row split into two deltas.
        split = tmp_path / "split.jsonl"
        with open(split, "w", encoding="utf-8") as out:
            for line in (tmp_path / "run.jsonl").read_text().splitlines():
                row = json.loads(line)
                if row.get("kind") == "window" and row["completed"] >= 2:
                    half = dict(row)
                    half["completed"] = row["completed"] // 2
                    half["arrivals"] = half["completed"] + half["shed"]
                    rest = dict(row)
                    rest["completed"] = row["completed"] - half["completed"]
                    rest["arrivals"] = rest["completed"] + rest["shed"]
                    rest["cold_starts"] = 0
                    half["queue_ms_sum"] = 0.0
                    out.write(json.dumps(half, sort_keys=True) + "\n")
                    out.write(json.dumps(rest, sort_keys=True) + "\n")
                else:
                    out.write(line + "\n")
        recomposed = summarize_journal(split)
        for field in ("arrivals", "completed", "shed", "cold_starts"):
            assert recomposed[field] == reference[field]
