"""The journal's structure, refusals and writer.

That a journal's rows — plain, resumed after a kill, or merged from
shards — are the rows the replay must write is checked against the
reference engine (``tests/reference/test_engines.py``).  These tests pin
the header, markers and fields, and how a journal that does not belong
to a run is refused.
"""

import json
import math

import pytest

from repro.common.errors import CheckpointError
from repro.faas.autoscale import make_scaling_policy
from repro.faas.cluster import FleetConfig
from repro.metrics import WindowAccumulator
from repro.obs.journal import (
    JOURNAL_FORMAT,
    JournalWriter,
    merge_journals,
    row_time,
)
from repro.workloads.shard import build_shard_replay

from tests.obs.conftest import (
    FINGERPRINT,
    SPEC,
    TRACE,
    TRACE_SAMPLE,
    journaled_run,
)


def rows_of(path, control=False):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    if control:
        return rows
    return [r for r in rows if r["kind"] not in ("journal", "boundary", "end")]


class _Interrupt(Exception):
    """Simulated kill: raised from inside the arrival stream."""


def interrupt_after(stream, count):
    for fed, item in enumerate(stream):
        if fed == count:
            raise _Interrupt
        yield item


class TestStructure:
    def test_header_and_kinds(self, journal_path):
        rows = rows_of(journal_path, control=True)
        header = rows[0]
        assert header["kind"] == "journal"
        assert header["format"] == JOURNAL_FORMAT
        assert header["window_s"] == SPEC.window_s
        assert header["trace_sample"] == TRACE_SAMPLE
        assert rows[-1] == {"kind": "end"}
        kinds = {r["kind"] for r in rows}
        assert {"window", "scale", "span", "boundary"} <= kinds
        assert "provision" not in kinds  # lifetimes are window GB-seconds

    def test_boundary_markers_are_strictly_monotonic(self, journal_path):
        markers = [
            r for r in rows_of(journal_path, control=True)
            if r["kind"] == "boundary"
        ]
        boundaries = [m["boundary"] for m in markers]
        consumed = [m["consumed"] for m in markers]
        assert boundaries == sorted(set(boundaries))
        assert consumed == sorted(consumed)

    def test_window_rows_conserve_arrivals(self, journal_path):
        windows = [r for r in rows_of(journal_path) if r["kind"] == "window"]
        assert windows, "no window rows journaled"
        for row in windows:
            assert row["arrivals"] == row["completed"] + row["shed"]
            assert row["start_s"] == row["window"] * SPEC.window_s

    def test_every_data_row_has_a_time(self, journal_path):
        for row in rows_of(journal_path):
            assert row_time(row) is not None

    def test_span_rows_sample_the_token_stream(self, journal_path):
        spans = [r for r in rows_of(journal_path) if r["kind"] == "span"]
        assert spans, "no spans sampled"
        interval = max(1, round(1.0 / TRACE_SAMPLE))
        assert all(s["trace_id"] % interval == 0 for s in spans)
        for span in spans:
            assert {
                "app", "entry", "arrival_s", "queue_ms", "cold",
                "cold_boot_ms", "execute_ms", "hop_ms",
            } <= span.keys()

    def test_zero_sample_rate_journals_no_spans(self, tmp_path):
        journaled_run(tmp_path / "run.jsonl", trace_sample=0.0)
        assert not [
            r for r in rows_of(tmp_path / "run.jsonl") if r["kind"] == "span"
        ]


class TestScalingDecisions:
    @pytest.mark.parametrize(
        "policy, extras",
        [
            ("per-request", set()),
            ("target-utilization", {"target", "desired"}),
            ("panic-window", {"stable_rate", "panic_rate", "panicking"}),
            ("predictive", {"ratio", "forecast", "prewarm"}),
        ],
    )
    def test_policy_records_reach_the_journal(self, tmp_path, policy, extras):
        import dataclasses

        spec = dataclasses.replace(
            SPEC,
            fleet=FleetConfig(
                max_containers=3,
                keep_alive_s=60.0,
                policy=make_scaling_policy(policy),
            ),
        )
        journaled_run(tmp_path / "run.jsonl", spec=spec)
        scales = [
            r for r in rows_of(tmp_path / "run.jsonl") if r["kind"] == "scale"
        ]
        assert scales, f"{policy} journaled no scaling decisions"
        base = {"policy", "queued", "in_flight", "live", "want", "booted"}
        for row in scales:
            assert row["policy"] == policy
            assert base | extras <= row.keys()
            assert 0 <= row["booted"] <= row["want"]

    def test_scale_regimes_are_forgotten_at_every_flush(self, tmp_path):
        journal = JournalWriter(tmp_path / "run.jsonl", window_s=10.0).begin()
        record = {"policy": "per-request", "queued": 1, "in_flight": 0,
                  "live": 0, "want": 1, "booted": 1}
        journal.flush_boundary(1.0, 0)  # anchors window 0
        journal.scaling_decision(1.0, "app", record)
        journal.scaling_decision(2.0, "app", record)  # same regime: no row
        journal.flush_boundary(12.0, 2)  # window 1: a flush block ends
        journal.scaling_decision(12.0, "app", record)  # same regime, new block
        journal.close()
        scales = [r for r in rows_of(tmp_path / "run.jsonl") if r["kind"] == "scale"]
        assert [row["at_s"] for row in scales] == [1.0, 12.0]


class TestKillAndResume:
    def test_resume_rejects_foreign_journal(self, tmp_path):
        journaled_run(tmp_path / "run.jsonl")
        journal = JournalWriter(
            tmp_path / "run.jsonl",
            window_s=SPEC.window_s,
            fingerprint=FINGERPRINT,
            trace_sample=TRACE_SAMPLE,
        )
        with pytest.raises(CheckpointError) as err:
            journal.resume(consumed=10**9)
        assert "run.jsonl" in str(err.value)
        assert str(10**9) in str(err.value)

    def test_unopenable_journal_names_the_path(self, tmp_path):
        path = tmp_path / "missing" / "run.jsonl"
        journal = JournalWriter(path, window_s=SPEC.window_s)
        for open_it in (journal.begin, lambda: journal.resume(consumed=0)):
            with pytest.raises(CheckpointError) as err:
                open_it()
            assert str(path) in str(err.value)

    def test_abort_keeps_only_durable_boundaries(self, tmp_path):
        platform, stream, accumulator = build_shard_replay(SPEC, TRACE)
        journal = JournalWriter(
            tmp_path / "run.jsonl",
            window_s=SPEC.window_s,
            fingerprint=FINGERPRINT,
        )
        with pytest.raises(_Interrupt), journal.begin():
            platform.run_stream(
                interrupt_after(stream, 500),
                accumulator,
                flush_at=math.inf,
                obs=journal,
            )
        rows = rows_of(tmp_path / "run.jsonl", control=True)
        assert rows[-1]["kind"] == "boundary"  # no tail, no end row
        # The interrupted run_stream uninstalled its own sinks, so the
        # platform is not stuck "already streaming": a second one starts.
        platform.run_stream(iter(()), WindowAccumulator(SPEC.window_s))


class TestHeaderValidation:
    @pytest.mark.parametrize(
        "override, fragment",
        [
            ({"window_s": 60.0}, "window_s"),
            ({"fingerprint": {"other": 1}}, "fingerprint"),
            ({"trace_sample": 0.5}, "trace_sample"),
        ],
    )
    def test_mismatched_config_names_field_and_values(
        self, journal_path, override, fragment
    ):
        config = dict(
            window_s=SPEC.window_s,
            fingerprint=FINGERPRINT,
            trace_sample=TRACE_SAMPLE,
        )
        config.update(override)
        journal = JournalWriter(journal_path, **config)
        with pytest.raises(CheckpointError) as err:
            journal.resume(consumed=1)
        message = str(err.value)
        assert str(journal_path) in message
        assert fragment in message
        # expected-vs-found: both values appear in the message
        assert repr(override[fragment]) in message

    def test_non_journal_file_is_named(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "checkpoint"}) + "\n")
        journal = JournalWriter(path, window_s=SPEC.window_s)
        with pytest.raises(CheckpointError) as err:
            journal.resume(consumed=1)
        assert "'checkpoint'" in str(err.value)
        assert "'journal'" in str(err.value)


class TestShardedMerge:
    def test_merge_validates_shard_headers(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text(json.dumps({"kind": "nope"}) + "\n")
        with pytest.raises(CheckpointError) as err:
            merge_journals(
                [bogus], tmp_path / "out.jsonl", window_s=SPEC.window_s
            )
        assert "bogus.jsonl" in str(err.value)


class TestWriterValidation:
    def test_rejects_nonpositive_window(self, tmp_path):
        with pytest.raises(ValueError):
            JournalWriter(tmp_path / "j.jsonl", window_s=0.0)

    def test_rejects_out_of_range_sample_rate(self, tmp_path):
        with pytest.raises(ValueError):
            JournalWriter(tmp_path / "j.jsonl", window_s=1.0, trace_sample=1.5)

    def test_sample_rate_rounds_to_span_interval(self, tmp_path):
        journal = JournalWriter(
            tmp_path / "j.jsonl", window_s=1.0, trace_sample=0.01
        )
        assert journal.span_interval == 100
        assert journal.samples_spans()
        off = JournalWriter(tmp_path / "k.jsonl", window_s=1.0)
        assert off.span_interval == 0
        assert not off.samples_spans()

    def test_a_row_is_written_as_json_dumps_with_sorted_keys(self, tmp_path):
        # The writer keeps one encoder instead of json.dumps building one
        # per row; the line is the same bytes (non-ASCII escaped, floats
        # by repr, non-finite floats as their JSON extensions).
        row = {
            "kind": "scale",
            "at_s": 0.1 + 0.2,
            "app": "naïve ☃",
            "zero": -0.0,
            "nested": {"b": [1, 2.5, None, True], "a": math.inf},
        }
        path = tmp_path / "j.jsonl"
        with JournalWriter(path, window_s=1.0).begin() as journal:
            journal._write_row(row)
        header, written, end = path.read_bytes().splitlines(True)
        assert written == (json.dumps(row, sort_keys=True) + "\n").encode()
        assert json.loads(end) == {"kind": "end"}
