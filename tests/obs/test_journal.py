"""The journal's contract: exact rows, durable boundaries, zero drift.

Everything observability promises hangs off three properties pinned
here: a journaled replay reports *exactly* what a plain one does, a
killed-and-resumed journaled run leaves a byte-identical journal, and a
sharded run's merged journal matches the 1-worker one row for row.
"""

import dataclasses
import json
import math

import pytest

from repro.common.errors import CheckpointError
from repro.faas.autoscale import make_scaling_policy
from repro.faas.cluster import FleetConfig
from repro.faas.snapshot import run_stream_checkpointed
from repro.metrics import WindowAccumulator
from repro.obs.journal import (
    JOURNAL_FORMAT,
    JournalWriter,
    merge_journals,
    row_time,
    shard_journal_path,
)
from repro.workloads.shard import (
    build_shard_replay,
    prepare_sharded_checkpoint,
    replay_sharded,
)

from tests.obs.conftest import (
    FINGERPRINT,
    PANIC_SPEC,
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


class TestBehaviourIdentity:
    def test_journaled_summary_equals_plain(self, tmp_path):
        platform, stream, accumulator = build_shard_replay(SPEC, TRACE)
        plain = platform.run_stream(stream, accumulator, flush_at=math.inf)
        assert journaled_run(tmp_path / "run.jsonl") == plain

    def test_checkpointed_journal_is_byte_identical_to_plain(self, tmp_path):
        journaled_run(tmp_path / "plain.jsonl")
        platform, stream, accumulator = build_shard_replay(SPEC, TRACE)
        journal = JournalWriter(
            tmp_path / "ckpt.jsonl",
            window_s=SPEC.window_s,
            fingerprint=FINGERPRINT,
            trace_sample=TRACE_SAMPLE,
        )
        run_stream_checkpointed(
            platform,
            stream,
            accumulator,
            tmp_path / "replay.ckpt",
            flush_at=math.inf,
            fingerprint=FINGERPRINT,
            journal=journal,
        )
        assert (tmp_path / "ckpt.jsonl").read_bytes() == (
            tmp_path / "plain.jsonl"
        ).read_bytes()


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


def checkpointed(spec, directory, journal_file, stream_wrap=lambda s: s, keep=False):
    """One checkpointed, journaled run of ``spec`` with its checkpoint in
    ``directory``."""
    platform, stream, accumulator = build_shard_replay(spec, TRACE)
    journal = JournalWriter(
        journal_file,
        window_s=spec.window_s,
        fingerprint=FINGERPRINT,
        trace_sample=TRACE_SAMPLE,
    )
    return run_stream_checkpointed(
        platform,
        stream_wrap(stream),
        accumulator,
        directory / "replay.ckpt",
        flush_at=math.inf,
        fingerprint=FINGERPRINT,
        journal=journal,
        keep=keep,
    )


SPECS = pytest.mark.parametrize(
    "spec", [SPEC, PANIC_SPEC], ids=["keep-alive-60", "panic-keep-alive-1"]
)


class TestKillAndResume:
    @SPECS
    @pytest.mark.parametrize("kill_at", [40, 300, 900])
    def test_resumed_journal_is_byte_identical(self, tmp_path, spec, kill_at):
        reference = checkpointed(spec, tmp_path, tmp_path / "ref.jsonl")
        with pytest.raises(_Interrupt):
            checkpointed(
                spec,
                tmp_path,
                tmp_path / "killed.jsonl",
                stream_wrap=lambda s: interrupt_after(s, kill_at),
                keep=True,
            )
        resumed = checkpointed(spec, tmp_path, tmp_path / "killed.jsonl")
        assert resumed == reference
        assert (tmp_path / "killed.jsonl").read_bytes() == (
            tmp_path / "ref.jsonl"
        ).read_bytes()

    @SPECS
    def test_killed_on_either_side_of_every_boundary(self, tmp_path, spec):
        """A kill just before a boundary's crossing arrival (its flush
        not yet written) and just after it (flushed and checkpointed)
        both resume to the same bytes: the regimes the journal forgets
        at a flush are state no checkpoint needs to carry."""
        checkpointed(spec, tmp_path, tmp_path / "ref.jsonl")
        reference = (tmp_path / "ref.jsonl").read_bytes()
        markers = [
            row["consumed"]
            for row in rows_of(tmp_path / "ref.jsonl", control=True)
            if row["kind"] == "boundary"
        ]
        assert len(markers) >= 3
        for consumed in markers:
            for kill_at in (consumed, consumed + 1):
                killed = tmp_path / f"killed-{kill_at}.jsonl"
                with pytest.raises(_Interrupt):
                    checkpointed(
                        spec,
                        tmp_path,
                        killed,
                        stream_wrap=lambda s: interrupt_after(s, kill_at),
                        keep=True,
                    )
                checkpointed(spec, tmp_path, killed)
                assert killed.read_bytes() == reference, kill_at

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
    @SPECS
    def test_merged_journal_matches_single_worker(self, tmp_path, spec):
        single = replay_sharded(
            TRACE,
            spec,
            workers=1,
            checkpoint=tmp_path / "one.ckpt",
            fingerprint=FINGERPRINT,
            journal=tmp_path / "one.jsonl",
            trace_sample=TRACE_SAMPLE,
        )
        sharded = replay_sharded(
            TRACE,
            spec,
            workers=2,
            checkpoint=tmp_path / "two.ckpt",
            fingerprint=FINGERPRINT,
            journal=tmp_path / "two.jsonl",
            trace_sample=TRACE_SAMPLE,
        )
        assert sharded == single
        # Shard scratch journals are cleaned up with the checkpoints.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "one.jsonl",
            "two.jsonl",
        ]
        # Scale and shed rows are partition-independent: each app lives
        # wholly in one shard, so its fleet's event history does not
        # depend on the worker count, and a flush falls between two of
        # its decisions exactly when they lie in different windows, so
        # the per-flush regime reset writes the same scale rows.  Window
        # *delta* rows decompose differently — each shard flushes on its
        # own stream's boundaries — but their per-(window, app) sums are
        # exact.  Span rows sample per-shard token streams and are only
        # compared at a fixed worker count (kill/resume identity, pinned
        # below).
        def events(path):
            return sorted(
                json.dumps(r, sort_keys=True)
                for r in rows_of(path)
                if r["kind"] in ("scale", "shed")
            )

        def window_sums(path):
            sums = {}
            for r in rows_of(path):
                if r["kind"] != "window":
                    continue
                tally = sums.setdefault(
                    (r["window"], r["app"]), [0, 0, 0.0, 0.0, 0, 0]
                )
                tally[0] += r["completed"]
                tally[1] += r["shed"]
                tally[2] += r["queue_ms_sum"]
                tally[3] += r["gb_seconds"]
                tally[4] += r["boots"]
                tally[5] += r["decisions"]
            return sums

        assert events(tmp_path / "two.jsonl") == events(tmp_path / "one.jsonl")
        assert window_sums(tmp_path / "two.jsonl") == window_sums(
            tmp_path / "one.jsonl"
        )

    @SPECS
    def test_sharded_kill_resume_merges_byte_identical(self, tmp_path, spec):
        workers = 2
        reference = replay_sharded(
            TRACE,
            spec,
            workers=workers,
            checkpoint=tmp_path / "ref.ckpt",
            fingerprint=FINGERPRINT,
            journal=tmp_path / "ref.jsonl",
            trace_sample=TRACE_SAMPLE,
        )
        # Kill every shard mid-trace, in-process, exactly as the pool
        # workers would die: per-shard checkpoints and journals survive.
        path = tmp_path / "bench.ckpt"
        shards, shard_paths, fingerprints, resumed = prepare_sharded_checkpoint(
            TRACE, path, spec, workers, FINGERPRINT
        )
        assert not resumed
        for shard_index, (shard, shard_path, shard_fp) in enumerate(
            zip(shards, shard_paths, fingerprints)
        ):
            platform, stream, accumulator = build_shard_replay(spec, shard)
            journal = JournalWriter(
                shard_journal_path(tmp_path / "bench.jsonl", shard_index, workers),
                window_s=spec.window_s,
                fingerprint=shard_fp,
                trace_sample=TRACE_SAMPLE,
            )
            with pytest.raises(_Interrupt):
                run_stream_checkpointed(
                    platform,
                    interrupt_after(stream, 150),
                    accumulator,
                    shard_path,
                    flush_at=math.inf,
                    keep=True,
                    fingerprint=shard_fp,
                    journal=journal,
                )
        summary = replay_sharded(
            TRACE,
            spec,
            workers=workers,
            checkpoint=path,
            fingerprint=FINGERPRINT,
            journal=tmp_path / "bench.jsonl",
            trace_sample=TRACE_SAMPLE,
        )
        assert summary == reference
        assert (tmp_path / "bench.jsonl").read_bytes() == (
            tmp_path / "ref.jsonl"
        ).read_bytes()

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
