"""``slimstart replay --journal`` and the ``slimstart obs`` surface."""

import collections
import json
import sys

import pytest

from repro.cli import build_parser, main
from repro.faas import autoscale, forecast
from repro.faas.autoscale import SCALING_POLICY_NAMES, PanicWindow, make_scaling_policy
from repro.faas.cluster import ClusterPlatform

REPLAY = [
    "replay",
    "--apps", "3",
    "--duration-hours", "24",
    "--window-hours", "12",
    "--scale", "0.05",
    "--seed", "7",
]


def journaled_replay(tmp_path, capsys, extra=()):
    journal = tmp_path / "run.jsonl"
    assert main(REPLAY + ["--journal", str(journal), *extra]) == 0
    return journal, capsys.readouterr().out


class TestReplayFlags:
    def test_journal_flag_writes_and_announces(self, tmp_path, capsys):
        journal, out = journaled_replay(tmp_path, capsys)
        assert journal.exists()
        assert f"journal written to {journal}" in out
        header = json.loads(journal.read_text().splitlines()[0])
        assert header["kind"] == "journal"

    def test_journaled_report_matches_plain(self, tmp_path, capsys):
        assert main(REPLAY) == 0
        plain = capsys.readouterr().out
        _, journaled = journaled_replay(tmp_path, capsys)
        stop = journaled.index("journal written to")
        assert journaled[:stop].rstrip() == plain.rstrip()

    def test_trace_sample_requires_journal(self, capsys):
        assert main(REPLAY + ["--trace-sample", "0.5"]) == 1
        assert "--journal" in capsys.readouterr().err

    def test_trace_sample_range_is_validated(self, capsys):
        assert main(REPLAY + ["--trace-sample", "1.5"]) == 1
        assert "[0, 1]" in capsys.readouterr().err

    def test_journal_with_workers_needs_checkpoint(self, capsys):
        assert main(REPLAY + ["--journal", "j.jsonl", "--workers", "2"]) == 1
        assert "--checkpoint" in capsys.readouterr().err

    def test_profile_is_single_process_only(self, capsys):
        assert main(REPLAY + ["--profile", "--workers", "2"]) == 1
        assert "--profile" in capsys.readouterr().err

    def test_profile_prints_phase_table(self, capsys, tmp_path):
        assert main(
            REPLAY
            + ["--profile", "--checkpoint", str(tmp_path / "replay.ckpt")]
        ) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        for phase in ("compile", "event-loop", "checkpoint-write", "total"):
            assert phase in out

    def test_progress_heartbeats_on_stderr(self, capsys):
        assert main(REPLAY + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "window(s) flushed" in err
        assert "events/s" in err

    def test_federated_journal_records_hop_phases(self, tmp_path, capsys):
        journal, _ = journaled_replay(
            tmp_path,
            capsys,
            extra=["--regions", "us,eu", "--trace-sample", "0.1"],
        )
        rows = [
            json.loads(line)
            for line in journal.read_text().splitlines()[1:]
        ]
        spans = [r for r in rows if r["kind"] == "span"]
        assert spans, "federated replay journaled no spans"
        assert all("hop_ms" in s for s in spans)
        assert any(r["kind"] == "window" for r in rows)

    def test_sharded_journal_composes_with_checkpoint(self, tmp_path, capsys):
        journal, out = journaled_replay(
            tmp_path,
            capsys,
            extra=[
                "--workers", "2",
                "--checkpoint", str(tmp_path / "replay.ckpt"),
            ],
        )
        assert journal.exists()
        # Scratch (per-shard journals, checkpoints, manifest) is gone.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.jsonl"]


class TestObsCommands:
    @pytest.fixture()
    def journal(self, tmp_path, capsys):
        journal, _ = journaled_replay(
            tmp_path, capsys, extra=["--trace-sample", "0.05"]
        )
        return journal

    def test_summarize_prints_per_app_table(self, journal, capsys):
        assert main(["obs", "summarize", str(journal)]) == 0
        out = capsys.readouterr().out
        assert f"journal  : {journal}" in out
        for field in (
            "arrivals", "completed", "scaling decisions",
            "containers booted", "GB-seconds", "trace spans",
        ):
            assert field in out

    def test_summarize_json_round_trips(self, journal, capsys):
        assert main(["obs", "summarize", str(journal), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["arrivals"] == payload["completed"] + payload["shed"]

    def test_query_filters_by_kind_and_app(self, journal, capsys):
        assert main(
            ["obs", "query", str(journal), "--kind", "window", "--json"]
        ) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert rows and all(r["kind"] == "window" for r in rows)
        app = rows[0]["app"]
        assert main(
            ["obs", "query", str(journal), "--kind", "window", "--app", app]
        ) == 0
        out = capsys.readouterr().out
        assert out and all(app in line for line in out.splitlines())

    def test_query_field_projection(self, journal, capsys):
        assert main(
            ["obs", "query", str(journal), "--kind", "scale",
             "--field", "booted"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out and all(line.isdigit() for line in out)

    def test_query_time_bounds(self, journal, capsys):
        assert main(
            ["obs", "query", str(journal), "--kind", "window", "--json",
             "--since", "0", "--until", "43200"]
        ) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
        ]
        assert rows and all(0 <= r["start_s"] < 43200 for r in rows)

    def test_tail_returns_last_lines(self, journal, capsys):
        assert main(["obs", "tail", str(journal), "-n", "3", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3

    def test_missing_journal_fails_loudly(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_kind_choices_are_validated_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["obs", "query", "j.jsonl", "--kind", "bogus"]
            )

    def test_obs_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestRowBudget:
    """The journal grows with windows and regime changes, not with boots.

    Under a 1 s keep-alive, panic-window scaling boots a container for
    about every other arrival here (3 602 of 7 115); format 1 wrote a
    ``scale`` and a ``provision`` row for each.  The counts repeat
    exactly: the run is deterministic.
    """

    ARGV = [
        "replay", "--apps", "4", "--duration-hours", "12", "--window-hours", "1",
        "--requests-per-window", "300", "--scale", "0.15", "--shift-hours", "6",
        "--arrival-model", "diurnal", "--seed", "5", "--keep-alive", "1",
        "--policy", "panic-window",
    ]

    @staticmethod
    def policy_calls(argv):
        """Calls of every function the two policy modules define, by name."""
        files = {autoscale.__file__, forecast.__file__}
        calls = collections.Counter()

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename in files:
                calls[frame.f_code.co_qualname] += 1

        sys.setprofile(hook)
        try:
            assert main(argv) == 0
        finally:
            sys.setprofile(None)
        return calls

    @pytest.mark.parametrize("policy", SCALING_POLICY_NAMES)
    def test_a_journal_consults_the_policy_no_more_often(
        self, policy, tmp_path, capsys
    ):
        # The journal's scale record is what scale_out computed while it
        # decided: no method of a policy (or its forecaster) runs again.
        argv = self.ARGV[:-1] + [policy]
        plain = self.policy_calls(argv)
        journaled = self.policy_calls(argv + ["--journal", str(tmp_path / "J")])
        capsys.readouterr()
        scales = [
            row for row in map(json.loads, (tmp_path / "J").read_text().splitlines())
            if row["kind"] == "scale"
        ]
        assert scales and {row["policy"] for row in scales} == {policy}
        assert plain[f"{type(make_scaling_policy(policy)).__name__}.scale_out"] > 1000
        assert (journaled - plain, plain - journaled) == ({}, {})

    def test_rows_per_boot_and_counts_per_call(self, tmp_path, capsys, monkeypatch):
        calls = collections.Counter()
        spawn, scale_out = ClusterPlatform._spawn, PanicWindow.scale_out

        def counting_spawn(self, fleet, now):
            calls["spawn"] += 1
            return spawn(self, fleet, now)

        def counting_scale_out(self, state, view, record=None):
            want = scale_out(self, state, view, record)
            calls["want > 0"] += want > 0
            return want

        monkeypatch.setattr(ClusterPlatform, "_spawn", counting_spawn)
        monkeypatch.setattr(PanicWindow, "scale_out", counting_scale_out)
        journal = tmp_path / "run.jsonl"
        assert main(self.ARGV + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        rows = [json.loads(line) for line in journal.read_text().splitlines()]
        kinds = collections.Counter(row["kind"] for row in rows)
        windows = [row for row in rows if row["kind"] == "window"]
        boots = sum(row["boots"] for row in windows)
        assert "provision" not in kinds
        assert boots == calls["spawn"] > 1000
        assert sum(row["decisions"] for row in windows) == calls["want > 0"]
        assert kinds["scale"] <= 0.6 * boots
