"""Tests for the slimstart CLI."""

import difflib
import gc
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cli
from repro.cli import build_parser, main

#: Every top-level key ``write_checkpoint`` emits.
CHECKPOINT_KEYS = ("format", "consumed", "apps", "fingerprint", "platform", "accumulator")


def _first_window(checkpoint):
    windows = checkpoint["accumulator"]["windows"]
    return windows, next(iter(windows))


def _rekey_window(checkpoint):
    windows, first = _first_window(checkpoint)
    windows["x"] = windows.pop(first)


def _drop_histogram(checkpoint):
    windows, first = _first_window(checkpoint)
    del windows[first]["queue_counts"]


def _shorten_histogram(checkpoint):
    windows, first = _first_window(checkpoint)
    windows[first]["queue_counts"] = [1]


def _one_event(checkpoint):
    """The checkpoint's one heap event; a finished shard's empty heap gets
    a COMPLETE of its first app to damage."""
    platform = checkpoint["platform"]
    if not platform["events"]:
        app = min(platform["fleets"])
        platform["events"].append(
            [platform["clock_s"] + 1.0, 1, platform["next_event_seq"], [app, 1, 0]]
        )
    (event,) = platform["events"]
    return event


def _event_for_ghost_app(checkpoint):
    _one_event(checkpoint)[3][0] = "ghost"


def _event_of_kind(kind):
    def edit(checkpoint):
        _one_event(checkpoint)[1] = kind

    return edit


def _first_fleet(checkpoint):
    fleets = checkpoint["platform"]["fleets"]
    return fleets[min(fleets)]


def _queue_ghost_entry(checkpoint):
    platform = checkpoint["platform"]
    _first_fleet(checkpoint)["queue"].append(
        [platform["next_token"], "ghost", platform["clock_s"], None, 0.0]
    )


NOT_AN_EVENT = "is not a READY or COMPLETE event of a deployed app"

#: Edits of a real mid-run checkpoint's *contents* (the top-level keys all
#: stay): ``(id, edit, what the one-line refusal must mention)``.
CHECKPOINT_MUTATIONS = [
    ("empty-accumulator", lambda c: c.update(accumulator={}), "state has no 'window_s'"),
    ("window-keyed-x", _rekey_window, "window key 'x' is not an integer"),
    ("no-histogram", _drop_histogram, "has no 'queue_counts'"),
    ("short-histogram", _shorten_histogram, "malformed 'queue_counts': [1]"),
    ("empty-platform", lambda c: c.update(platform={}), "platform state has no 'fleets'"),
    ("fleet-without-containers", lambda c: _first_fleet(c).pop("containers"),
     "platform state has no 'containers'"),
    # These used to resume and die in a KeyError traceback once the loop
    # met them: the unknown app or entry, or a container seq read as an
    # entry name.
    ("event-of-ghost-app", _event_for_ghost_app, NOT_AN_EVENT),
    ("event-of-kind-2", _event_of_kind(2), NOT_AN_EVENT),
    ("event-of-kind-7", _event_of_kind(7), NOT_AN_EVENT),
    ("queued-ghost-entry", _queue_ghost_entry, "queues unknown entry 'ghost'"),
    ("consumed-text", lambda c: c.update(consumed="abc"), "consumed is not a count of arrivals: 'abc'"),
    ("consumed-negative", lambda c: c.update(consumed=-5), "consumed is not a count of arrivals: -5"),
]


#: Edits of a real two-shard manifest that keep its kind and format.
MANIFEST_MUTATIONS = [
    ("only-kind-and-format",
     lambda m: [m.pop(k) for k in list(m) if k not in ("kind", "format")],
     "workers is not a worker count: None"),
    ("no-workers", lambda m: m.pop("workers"), "workers is not a worker count: None"),
    ("workers-true", lambda m: m.update(workers=True), "workers is not a worker count: True"),
    ("workers-text", lambda m: m.update(workers="2"), "workers is not a worker count: '2'"),
    ("workers-zero", lambda m: m.update(workers=0), "workers is not a worker count: 0"),
    ("no-partition", lambda m: m.pop("partition"), "partition is not an app -> shard map: None"),
    ("partition-list", lambda m: m.update(partition=[0, 1]), "partition is not an app -> shard map: [0, 1]"),
    ("no-fingerprint", lambda m: m.pop("fingerprint"), "missing key 'fingerprint'"),
]


def assert_one_line_error(capsys, argv):
    """A library ``ReproError`` surfaces as exit 1 plus one stderr line."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # errors never pollute the report stream
    (line,) = captured.err.strip().splitlines()  # so: no traceback either
    assert line.startswith(f"slimstart {argv[0]}: ")
    return line


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["report"],
            ["cluster", "--app", "R-GB", "--policy", "reactive"],
            ["regions", "--app", "R-GB", "--policy", "random"],
            ["cluster", "--app", "R-GB", "--policy", "predictive", "--forecaster", "arima"],
            ["replay", "--arrival-model", "fractal"],
        ],
        ids=["no-command", "report-without-app", "unknown-scaling-policy",
             "unknown-routing-policy", "unknown-forecaster", "unknown-arrival-model"],
    )
    def test_refused_by_the_parser(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    GLOBAL = ["--cold-starts", "10", "--runs", "2", "cycle", "--app", "R-GB"]
    PANIC = ["cluster", "--app", "R-GB", "--policy", "panic-window", "--target", "0.5",
             "--panic-threshold", "3.0"]
    # The routing and the scaling policy are two flags on ``regions``.
    SPLIT = ["regions", "--app", "R-GB", "--policy", "locality",
             "--scaling-policy", "target-utilization", "--grace", "30"]
    PREDICTIVE = ["cluster", "--app", "R-GB", "--policy", "predictive",
                  "--forecaster", "holt-winters", "--season-windows", "24",
                  "--forecast-window", "3600", "--prewarm-lead", "300",
                  "--prewarm-headroom", "1.5"]
    QOS = ["replay", "--qos-mix", "critical=1,standard=5,batch=4", "--regions", "us,eu",
           "--routing", "probabilistic"]
    PARSED = [
        (PANIC, "scaling_policy", "panic-window"),
        (PANIC, "target", 0.5),
        (PANIC, "panic_threshold", 3.0),
        (SPLIT, "policy", "locality"),
        (SPLIT, "scaling_policy", "target-utilization"),
        (SPLIT, "grace", 30.0),
        (PREDICTIVE, "scaling_policy", "predictive"),
        (PREDICTIVE, "forecaster", "holt-winters"),
        (PREDICTIVE, "season_windows", 24),
        (PREDICTIVE, "forecast_window", 3600.0),
        (PREDICTIVE, "prewarm_lead", 300.0),
        (PREDICTIVE, "prewarm_headroom", 1.5),
        # Every subcommand takes the forecaster flags.
        (["regions", "--app", "R-GB", "--scaling-policy", "predictive",
          "--forecaster", "ewma"], "forecaster", "ewma"),
        (["replay", "--policy", "predictive", "--forecaster", "ewma"], "forecaster", "ewma"),
        (QOS, "qos_mix", "critical=1,standard=5,batch=4"),
        (QOS, "routing", "probabilistic"),
        (["apps"], "command", "apps"),
        (GLOBAL, "cold_starts", 10),
        (GLOBAL, "runs", 2),
        (["cluster", "--app", "R-SA"], "max_containers", 16),
        (["cluster", "--app", "R-SA"], "max_concurrency", 1),
        (["cluster", "--app", "R-SA"], "scaling_policy", "per-request"),
        (["regions", "--app", "R-SA"], "regions", "us-east,eu-west,ap-south"),
        (["regions", "--app", "R-SA"], "policy", "least-loaded"),
        (["regions", "--app", "R-SA"], "latency", 80.0),
        (["regions", "--app", "R-SA"], "queue_capacity", None),
        (["replay"], "apps", 24),
        (["replay"], "arrival_model", "uniform"),
        (["replay"], "scaling_policy", "per-request"),
        (["replay"], "regions", None),
        (["replay"], "max_containers", 8),
        (["replay"], "queue_capacity", None),
    ]

    @pytest.mark.parametrize(
        "argv, name, value",
        PARSED,
        ids=[f"{next(a for a in argv if a.isalpha())}-{name}={value}"
             for argv, name, value in PARSED],
    )
    def test_parsed_value(self, argv, name, value):
        assert getattr(build_parser().parse_args(argv), name) == value


@pytest.fixture(scope="module")
def quick_table2():
    """``slimstart --cold-starts 50 --runs 1 table2`` in a fresh interpreter,
    run once for the golden and for the cold-start budget: ``(exit code,
    stdout, numpy loaded, multiprocessing loaded, modules added to a bare
    interpreter's)``."""
    script = (
        "import contextlib, io, sys\n"
        "bare = len(sys.modules)\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = repro.cli.main(['--cold-starts', '50', '--runs', '1', 'table2'])\n"
        "loaded = ['numpy' in sys.modules, 'multiprocessing' in sys.modules]\n"
        "added = len(sys.modules) - bare\n"
        "import json\n"
        "print(json.dumps([code, out.getvalue(), *loaded, added]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(result.stdout)


class TestOwnColdStart:
    """The pipeline's own cold start: what ``import repro.cli`` + ``table2`` load."""

    #: Modules loaded beyond a bare interpreter's.  135 today; the
    #: headroom absorbs stdlib drift, not a new dependency.
    MODULE_BUDGET = 150

    def test_table2_path_stays_numpy_free_and_within_budget(self, quick_table2):
        code, stdout, numpy_loaded, pool_loaded, added = quick_table2
        rows = stdout.splitlines()[2:]
        assert (code, len(rows), numpy_loaded, pool_loaded) == (0, 17, False, False)
        assert added <= self.MODULE_BUDGET


class TestCollectorHandback:
    """``main()`` runs a command with the automatic cyclic collector off and
    hands the caller's setting back however the command ends."""

    def test_command_runs_with_the_collector_off(self, monkeypatch):
        seen = []
        monkeypatch.setattr(repro.cli, "cmd_apps", lambda args: seen.append(gc.isenabled()) or 0)
        assert main(["apps"]) == 0
        assert seen == [False]

    @pytest.mark.parametrize(
        "argv, code",
        [(["apps"], 0), (["cycle", "--app", "NOPE"], 1), (["replay", "--scale", "x"], None)],
        ids=["returns-0", "repro-error", "argparse-exit"],
    )
    def test_enabled_however_main_ends(self, capsys, argv, code):
        if code is None:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled()

    def test_a_disabled_caller_stays_disabled(self, capsys):
        gc.disable()
        try:
            assert main(["apps"]) == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestCommands:
    def test_apps_lists_catalog(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "R-GB" in out
        assert "CVE" in out
        assert out.count("\n") >= 23

    def test_report_prints_summary_and_plan(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        code = main(
            [
                "--cold-starts",
                "5",
                "--runs",
                "1",
                "report",
                "--app",
                "R-GB",
                "--plan-out",
                str(plan_file),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SLIMSTART Summary" in out
        payload = json.loads(plan_file.read_text())
        assert payload["app"] == "graph_bfs"
        assert "sligraph.drawing" in payload["deferred_library_edges"]

    def test_cluster_help_names_no_retired_entry_point(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--help"])
        assert "submit_stream" not in capsys.readouterr().out

    def test_regions_help_names_every_routing_policy(self, capsys, monkeypatch):
        from repro.faas.region import POLICY_NAMES

        monkeypatch.setenv("COLUMNS", "1000")  # the epilog on one line
        with pytest.raises(SystemExit):
            build_parser().parse_args(["regions", "--help"])
        (epilog,) = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("Each region runs")]
        assert all(name in epilog for name in POLICY_NAMES)

    def test_regions_reports_per_region_served_counts(self, capsys):
        code = main(
            [
                "regions",
                "--app",
                "R-GB",
                "--regions",
                "us,eu",
                "--rates",
                "4,1",
                "--duration",
                "90",
                "--policy",
                "locality",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "source   : R-GB (graph_bfs), Poisson 4,1 req/s for 90 s, seed 7" in out
        (routing,) = [line for line in out.splitlines() if line.startswith("routing")]
        served = dict(item.split("=") for item in routing.split("served: ")[1].split())
        assert routing.startswith("routing  : locality   served: ")
        assert list(served) == ["us", "eu"]
        # Every arrival is routed once, served or shed.
        arrivals = next(line for line in out.splitlines() if line.startswith("arrivals"))
        assert sum(map(int, served.values())) == int(arrivals.split(":")[1])

    @pytest.mark.parametrize(
        "tail, expected",
        [
            (["--regions", "us,eu,ap", "--rates", "4,1"], "--rates needs"),
            (["--rates", "4,x"], "comma-separated numbers"),
            (["--regions", ""], "--regions names no region"),
            (["--regions", ","], "--regions names no region"),
            (["--regions", "us,us"], "duplicate region names"),
        ],
        ids=["mismatched-rates", "malformed-rates", "empty-regions", "blank-regions",
             "duplicate-regions"],
    )
    def test_regions_refusals(self, capsys, tail, expected):
        assert expected in assert_one_line_error(capsys, ["regions", "--app", "R-GB", *tail])

    def test_cycle_reports_speedups(self, capsys):
        code = main(["--cold-starts", "20", "--runs", "1", "cycle", "--app", "R-GB"])
        assert code == 0
        out = capsys.readouterr().out
        assert "initialization speedup" in out
        assert "memory reduction" in out

    def test_optimize_applies_plan_to_workspace(self, capsys, tmp_path):
        from repro.apps import benchmark_apps

        app = benchmark_apps(("R-GB",))[0]
        deployment = app.build_real_workspace(tmp_path / "v1", scale=0.01)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            json.dumps(
                {
                    "app": "graph_bfs",
                    "deferred_handler_imports": [],
                    "deferred_library_edges": ["sligraph.drawing"],
                }
            )
        )
        code = main(
            [
                "optimize",
                "--workspace",
                str(deployment.workspace),
                "--plan",
                str(plan_file),
                "--out",
                str(tmp_path / "v2"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimized workspace written" in out
        assert (tmp_path / "v2" / "handler.py").is_file()


class TestAutoscalerFlags:
    def test_cluster_reports_cost_view(self, capsys):
        code = main(
            ["cluster", "--app", "R-GB", "--rate", "4", "--duration", "60",
             "--keep-alive", "30", "--policy", "target-utilization",
             "--target", "0.6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy   : target-utilization" in out
        assert "GB-seconds" in out
        assert "cost per 1k req" in out

    def test_regions_reports_cost_view(self, capsys):
        code = main(
            ["regions", "--app", "R-GB", "--regions", "us,eu",
             "--rates", "4,1", "--duration", "60",
             "--scaling-policy", "panic-window"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy   : panic-window" in out
        assert "routing  : least-loaded   served: us=" in out
        assert "cost per 1k req" in out

    @pytest.mark.parametrize(
        "tail",
        [
            # --target with the default per-request policy is a forgotten
            # --policy, not a silent no-op.
            ["--target", "0.5"],
            ["--policy", "target-utilization", "--panic-window", "3"],
            ["--forecaster", "ewma"],
            ["--policy", "panic-window", "--prewarm-lead", "60"],
            ["--policy", "predictive", "--panic-threshold", "3.0"],
            # EWMA, the default forecaster, has no season: a silently
            # ignored --season-windows would misconfigure the model.
            ["--policy", "predictive", "--season-windows", "24"],
        ],
        ids=" ".join,
    )
    def test_stray_policy_flags_fail_loudly(self, capsys, tail):
        assert_one_line_error(capsys, ["cluster", "--app", "R-GB", "--duration", "30", *tail])

    def test_zeroed_pricing_flags_zero_the_cost(self, capsys):
        code = main(
            ["cluster", "--app", "R-GB", "--rate", "2", "--duration", "60",
             "--price-gb-second", "0", "--price-million-requests", "0",
             "--cold-start-surcharge", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total cost         : $0.000000" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--app", "NOPE"],
            ["cycle", "--app", "NOPE"],
            ["cluster", "--app", "NOPE"],
            ["regions", "--app", "NOPE"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_app_is_one_line_not_a_traceback(self, capsys, argv):
        line = assert_one_line_error(capsys, argv)  # one line: no traceback
        assert "'NOPE'" in line and "R-GB" in line  # names the known keys

    @pytest.mark.parametrize(
        "command, argv",
        [
            ("table2", ["--cold-starts", "0", "table2"]),
            ("table2", ["--runs", "0", "table2"]),
            ("cycle", ["--cold-starts", "-5", "cycle", "--app", "R-GB"]),
        ],
        ids=["cold-starts-0", "runs-0", "cold-starts-negative"],
    )
    def test_empty_measurement_protocol_is_one_line_not_a_traceback(
        self, capsys, command, argv
    ):
        # Used to reach InvocationStats.from_records with no records and
        # end in a bare ValueError traceback (table2 after its header).
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"slimstart {command}: need at least one ")

    @pytest.mark.parametrize(
        "argv",
        [
            # Built a billion-entry burst list: a MemoryError traceback
            # under a 1 GB address-space cap.
            ["--cold-starts", "1000000000", "table2"],
            # One cold start a run, a billion runs: never finished.
            ["--runs", "1000000000", "--cold-starts", "1", "table2"],
        ],
        ids=["cold-starts-1e9", "runs-1e9"],
    )
    def test_oversized_measurement_protocol_is_one_line(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith("slimstart table2: too many measured cold starts: ")
        assert line.endswith("(at most 1,048,576, 1 GiB of records)")

    def test_bad_policy_parameter_is_a_spec_error(self, capsys):
        assert_one_line_error(
            capsys,
            ["cluster", "--app", "R-GB", "--duration", "30", "--policy",
             "target-utilization", "--target", "1.5"],
        )

    @pytest.mark.parametrize(
        "policy, flag",
        [
            ("panic-window", "--stable-window"),
            ("panic-window", "--panic-window"),
            ("panic-window", "--panic-threshold"),
            ("target-utilization", "--grace"),
            ("predictive", "--prewarm-headroom"),
            ("predictive", "--forecast-window"),
        ],
    )
    def test_nan_policy_parameter_is_one_line(self, capsys, policy, flag):
        # NaN fails no ``x <= 0`` check: each of these used to print a
        # full report (``--stable-window nan`` never pruned its history
        # and never panicked).
        line = assert_one_line_error(
            capsys, ["cluster", "--app", "R-SA", "--policy", policy, flag, "nan"]
        )
        assert "nan" in line

    @pytest.mark.parametrize(
        "command, flag, bad",
        [
            (command, flag, bad)
            for command, own in (
                ("cluster", ("--rate",)), ("regions", ("--rates", "--latency"))
            )
            for flag in own + ("--duration", "--keep-alive", "--max-containers",
                               "--max-concurrency", "--queue-capacity")
            for bad in ("nan", "inf", "-1", "x", "0")
            # 0 is a meaningful keep-alive, latency and queue capacity.
            if bad != "0" or flag not in ("--keep-alive", "--latency", "--queue-capacity")
        ],
    )
    def test_cluster_and_regions_refuse_nonsense_numeric_flags(
        self, capsys, command, flag, bad
    ):
        # --rate nan, --duration nan|inf and --rates nan used to append to
        # the schedule forever (NaN fails ``<= 0``; expovariate(inf) is 0).
        try:  # argparse types leave through SystemExit, SpecErrors return
            code = main([command, "--app", "R-SA", flag, bad])
        except SystemExit as refused:
            code = refused.code
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"slimstart {command}: ")
        assert "Traceback" not in captured.err

    def test_regions_refuses_spillover_without_locality(self, capsys):
        # Used to print a full report: only locality reads --spillover.
        argv = ["regions", "--app", "R-SA", "--policy", "least-loaded", "--spillover", "3"]
        line = assert_one_line_error(capsys, argv + ["--duration", "5"])
        assert line.endswith("--spillover has no effect without --policy locality")


class TestPredictiveFlags:
    def test_cluster_runs_predictive_end_to_end(self, capsys):
        code = main(
            ["cluster", "--app", "R-GB", "--rate", "4", "--duration", "60",
             "--policy", "predictive", "--forecaster", "ewma",
             "--forecast-window", "20", "--target", "0.6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy   : predictive" in out


class TestReplayCommand:
    def test_replay_prints_window_series(self, capsys):
        code = main(
            ["replay", "--apps", "4", "--duration-hours", "24",
             "--window-hours", "12", "--scale", "0.05", "--seed", "11"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "window" in out and "cold%" in out and "GB-s" in out
        assert "cold-start rate" in out
        assert "cost per 1k req" in out
        assert "qos mix" not in out and "total utility" not in out

    def test_replay_is_deterministic_under_seed(self, capsys):
        argv = ["replay", "--apps", "3", "--duration-hours", "24",
                "--window-hours", "12", "--scale", "0.05", "--seed", "23",
                "--arrival-model", "diurnal"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_replay_federated_mode_reports_routing(self, capsys):
        code = main(
            ["replay", "--apps", "4", "--duration-hours", "24",
             "--window-hours", "12", "--scale", "0.05", "--seed", "3",
             "--regions", "us,eu", "--routing", "locality",
             "--assignment", "popularity-weighted", "--region-weights", "3,1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "routing  : locality (popularity-weighted)" in out
        assert "us=" in out and "eu=" in out

    def test_replay_accepts_scaling_policy_flags(self, capsys):
        code = main(
            ["replay", "--apps", "3", "--duration-hours", "24",
             "--window-hours", "12", "--scale", "0.05", "--seed", "3",
             "--policy", "panic-window", "--panic-threshold", "3.0"]
        )
        assert code == 0
        assert "policy   : panic-window" in capsys.readouterr().out

    def test_library_errors_exit_one_without_a_traceback(self, capsys):
        # --duration-hours below the default 12 h window: TraceGenerator
        # raises WorkloadError, which main() turns into one stderr line.
        line = assert_one_line_error(capsys, ["replay", "--duration-hours", "10"])
        assert line == "slimstart replay: invalid window/duration configuration"

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("--window-hours", "nan"),
            ("--duration-hours", "nan"),
            ("--duration-hours", "inf"),
            ("--scale", "nan"),
            ("--exec-ms", "nan"),
            ("--keep-alive", "nan"),
            ("--requests-per-window", "nan"),
            ("--requests-per-window", "-5"),
        ],
    )
    def test_replay_rejects_nonsense_numeric_flags(self, capsys, flag, bad):
        # Each of these used to end in an int(NaN) traceback or — worse
        # (--keep-alive, --requests-per-window) — a plausible-looking
        # summary of a different run.
        with pytest.raises(SystemExit) as refused:
            main(["replay", "--apps", "2", flag, bad])
        assert refused.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"slimstart replay: argument {flag}: ")
        assert repr(bad) in line

    @pytest.mark.parametrize(
        "flags",
        [["--checkpoint"], ["--journal"], ["--workers", "2", "--checkpoint"]],
        ids=" ".join,
    )
    def test_replay_refuses_a_missing_output_directory(
        self, capsys, tmp_path, flags
    ):
        path = tmp_path / "missing" / "out"
        line = assert_one_line_error(
            capsys,
            ["replay", "--apps", "2", "--duration-hours", "24",
             "--scale", "0.05", *flags, str(path)],
        )
        assert str(path) in line and "cannot write" in line

    def test_replay_workers_is_bit_identical_to_default_totals(self, capsys):
        base = ["replay", "--apps", "4", "--duration-hours", "24",
                "--window-hours", "12", "--scale", "0.05", "--seed", "11"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        assert "engine   : sharded, 2 worker process(es)" in sharded

        def totals(out, field):
            line = next(l for l in out.splitlines() if l.startswith(field))
            return line.split(":")[1].strip()

        # Arrival/completion counts match the plain engine exactly; the
        # GB-second/cost lines differ only by the natural-expiry tail
        # flush, so they are not compared here (test_shard pins the
        # sharded engine's own exactness bit-for-bit).
        for field in ("arrivals", "completed", "shed", "cold-start rate"):
            assert totals(sharded, field) == totals(plain, field)

    def test_replay_checkpoint_resumes_to_identical_report(self, capsys, tmp_path):
        path = tmp_path / "replay.ckpt"
        base = ["replay", "--apps", "3", "--duration-hours", "24",
                "--window-hours", "12", "--scale", "0.05", "--seed", "7"]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--checkpoint", str(path)]) == 0
        checkpointed = capsys.readouterr().out
        assert checkpointed == plain  # fresh run: same engine, no resume line
        assert not path.exists()  # completed runs clean up

    def test_replay_checkpoint_refuses_mismatched_flags(self, capsys, tmp_path):
        # A leftover checkpoint from a differently-configured replay must
        # fail loudly instead of silently blending two workloads.
        from repro.faas.cluster import ClusterPlatform
        from repro.faas.replaydeploy import deploy_trace
        from repro.faas.snapshot import write_checkpoint
        from repro.metrics import WindowAccumulator
        from repro.workloads.trace import TraceGenerator

        trace = TraceGenerator(
            app_count=3, duration_hours=36.0, window_hours=12.0, seed=999
        ).generate()
        platform = ClusterPlatform(seed=999)
        deploy_trace(platform, trace)  # same app names as the CLI's trace
        path = tmp_path / "stale.ckpt"
        write_checkpoint(
            path, platform, WindowAccumulator(12 * 3600.0),
            consumed=5, fingerprint={"seed": 999},
        )
        code = main(
            ["replay", "--apps", "3", "--duration-hours", "36",
             "--window-hours", "12", "--scale", "0.05", "--seed", "7",
             "--checkpoint", str(path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "cannot resume" in captured.err
        assert "differently-configured" in captured.err
        assert path.exists()  # the stale checkpoint is left for the user

    def test_replay_single_worker_with_checkpoint_really_checkpoints(
        self, capsys, tmp_path, monkeypatch
    ):
        # --workers 1 --checkpoint must use the checkpointed sharded
        # engine: boundary checkpoints land in the per-shard file, the
        # manifest at the given path, and everything is cleaned up.
        from repro.faas import snapshot
        from repro.faas.snapshot import shard_checkpoint_path

        path = tmp_path / "w1.ckpt"
        written = []
        original = snapshot.write_checkpoint

        def spy(target, *args, **kwargs):
            written.append(target)
            return original(target, *args, **kwargs)

        monkeypatch.setattr(snapshot, "write_checkpoint", spy)
        code = main(
            ["replay", "--apps", "3", "--duration-hours", "36",
             "--window-hours", "12", "--scale", "0.05", "--seed", "7",
             "--workers", "1", "--checkpoint", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "engine   : sharded, 1 worker process(es), checkpointed" in out
        shard_path = shard_checkpoint_path(path, 0, 1)
        assert written and all(Path(p) == shard_path for p in map(Path, written))
        assert list(tmp_path.iterdir()) == []  # cleaned up on success

    def test_replay_workers_and_checkpoint_compose(self, capsys, tmp_path):
        # The old --workers x --checkpoint exclusion is gone: the
        # composed run produces the exact sharded report and cleans up
        # its manifest + per-shard checkpoint files.
        path = tmp_path / "sharded.ckpt"
        base = ["replay", "--apps", "3", "--duration-hours", "36",
                "--window-hours", "12", "--scale", "0.05", "--seed", "7"]
        assert main(base + ["--workers", "2"]) == 0
        sharded = capsys.readouterr().out
        assert main(base + ["--workers", "2", "--checkpoint", str(path)]) == 0
        checkpointed = capsys.readouterr().out
        assert (
            "engine   : sharded, 2 worker process(es), checkpointed"
            in checkpointed
        )
        # Identical report modulo the engine line's ", checkpointed" tag.
        assert checkpointed.replace(", checkpointed", "") == sharded
        assert list(tmp_path.iterdir()) == []

    def test_replay_checkpoint_rejects_mismatched_worker_count(
        self, capsys, tmp_path
    ):
        # Satellite: resuming a 4-worker manifest with --workers 2 must
        # fail loudly and point at the worker count that wrote it.
        from repro.faas.snapshot import write_manifest

        path = tmp_path / "sharded.ckpt"
        write_manifest(path, workers=4, partition={})
        code = main(
            ["replay", "--apps", "2", "--workers", "2",
             "--checkpoint", str(path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "cannot resume" in captured.err
        assert "4-worker replay" in captured.err
        assert "--workers 4" in captured.err  # tells the user the way out
        assert captured.out == ""
        assert path.exists()  # the manifest is left for the user


class TestQoSFlags:
    BASE = ["replay", "--apps", "4", "--duration-hours", "24",
            "--window-hours", "12", "--scale", "0.05", "--seed", "11"]

    def test_qos_mix_adds_a_per_class_report_deterministically(self, capsys):
        argv = self.BASE + ["--qos-mix", "critical=1,standard=5,batch=4"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "qos mix  : critical=1, standard=5, batch=4" in out
        for name in ("critical", "standard", "batch"):
            assert name in out
        assert "total utility" in out
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_qos_mix_sharded_matches_plain_per_class_totals(self, capsys):
        argv = self.BASE + ["--qos-mix", "critical=1,standard=5,batch=4"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        sharded = capsys.readouterr().out

        def qos_lines(out):
            return [line for line in out.splitlines()
                    if line.startswith(("critical", "standard", "batch"))]

        assert qos_lines(sharded) == qos_lines(plain)

    def test_qos_mix_federated_with_probabilistic_routing(self, capsys):
        code = main(
            self.BASE + ["--qos-mix", "critical=1,standard=5,batch=4",
                         "--regions", "us,eu", "--routing", "probabilistic"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "routing  : probabilistic" in out
        assert "total utility" in out


SMALL_REPLAY = ["replay", "--apps", "2", "--duration-hours", "24", "--scale", "0.05"]

#: One argv tail per row of ``replayplan._RULES``, in table order.
RULE_ROWS = [
    ["--shift-hours=2,nan,-6"],
    ["--workers", "0"],
    ["--workers", "3"],
    ["--regions", "us,eu", "--workers", "2"],
    ["--trace-sample", "2"],
    ["--trace-sample", "0.1"],
    ["--journal", "run.jsonl", "--workers", "2"],
    ["--profile", "--workers", "2"],
    ["regions", "--app", "R-GB", "--policy", "least-loaded", "--spillover", "3"],
    ["--spillover", "3"],
    ["--region-weights", "3,1"],
    ["--routing", "probabilistic"],
    ["--latency", "5"],
    ["--assignment", "popularity-weighted"],
    ["--exec-ms", "1e308"],
    ["--journal", "run.out", "--checkpoint", "./run.out"],
    ["regions", "--app", "R-GB", "--rates", "4,nan"],
    ["--regions", "us,us"],
    ["regions", "--app", "R-GB", "--regions", "us,eu,ap", "--rates", "4,1"],
    ["cluster", "--app", "R-GB", "--rate", "0.0001", "--duration", "1"],
    ["regions", "--app", "R-GB", "--rates", "0.0001", "--duration", "1"],
]

#: The same rows reached another way, then what fails while the flag
#: strings are parsed into the plan: ``(argv tail, expected substring)``.
OTHER_REFUSALS = [
    (["--regions", "us,eu", "--checkpoint", "replay.ckpt"], "single-cluster"),
    (["--profile", "--workers", "2", "--checkpoint", "replay.ckpt"],
     "--profile times"),
    (["--regions", "us,eu", "--spillover", "3"], "--spillover has no effect"),
    (["--regions", "us,eu", "--routing", "round-robin", "--spillover", "3"],
     "--spillover has no effect"),
    (["--regions", "us,eu", "--region-weights", "3,1"],
     "--region-weights has no effect"),
    (["--assignment", "popularity-weighted", "--region-weights", "3,1"],
     "--region-weights has no effect"),
    (["--trace-sample", "nan", "--journal", "run.jsonl"], "[0, 1]"),
    (["--shift-hours", "x"], "--shift-hours must be comma-separated numbers"),
    # float() parses 'nan'/'inf', and a negative hour can never fire: a
    # replay with a shift event that never happens must not run silently.
    *((["--shift-hours=" + bad], "--shift-hours must be finite and >= 0")
      for bad in ("nan", "inf", "-inf", "-4", "2,nan,6")),
    (["--requests-per-window", "0.0001", "--scale", "0.0001"], "zero arrivals"),
    (["--regions", "us,eu", "--assignment", "popularity-weighted",
      "--region-weights", "1,x"],
     "--region-weights must be comma-separated numbers"),
    (["--regions", "us,eu", "--assignment", "popularity-weighted",
      "--region-weights", "1,2,3", "--journal", "run.jsonl"],
     "--region-weights invalid: 2 regions but 3 weights"),
    (["--regions", "us,eu", "--assignment", "popularity-weighted",
      "--region-weights", "nan,1"], "--region-weights invalid: invalid region weights"),
    (["--regions", "us,eu", "--assignment", "popularity-weighted",
      "--region-weights", "inf,1"], "--region-weights invalid: invalid region weights"),
    (["--qos-mix", "bogus"], "--qos-mix invalid"),
    (["--qos-mix", "platinum=1"], "--qos-mix invalid: unknown QoS class 'platinum'"),
    (["--qos-mix", "critical=fast"], "must be a number"),
    (["--qos-mix", "critical=nan,standard=1"], "--qos-mix invalid: arrival weight"),
    (["--qos-mix", "critical=inf,standard=1"], "--qos-mix invalid: arrival weight"),
    (["--target", "0.5", "--checkpoint", "replay.ckpt"],
     "--target have no effect with scaling policy 'per-request'"),
    # An existing directory is no checkpoint: the working directory itself.
    (["--checkpoint", "."], "cannot read checkpoint .: Is a directory"),
    (["--checkpoint", ".", "--workers", "2"], "cannot read manifest .: Is a directory"),
    # Refused before a shard runs: a journal directory or a checkpoint's file.
    (["--workers", "2", "--checkpoint", "C", "--journal", "."], "journal .: Is a dir"),
    (["--workers", "2", "--checkpoint", "C", "--journal", ".."], "journal ..: Is a dir"),
    (["--workers", "2", "--checkpoint", "C", "--journal", "C.shard-0-of-2.json"],
     "would write C.shard-0-of-2.json as both"),
    (["--workers", "2", "--checkpoint", "J.shard-1-of-2.jsonl", "--journal", "J"],
     "would write J.shard-1-of-2.jsonl as both"),
    (["--scale", "1e308"], "scale 1e+308 overflows an arrival count"),
    (["--window-hours", "1e-308"], "too many windows to count: 24 h of 1e-308 h"),
    # A count past MAX_COUNT is refused before the loop that would draw it;
    # a row that names its own command is the whole command line.
    (["--requests-per-window", "1e308"], "requests per window is more than 100,000,000"),
    (["--duration-hours", "1e308"], "too many windows to count: 1e+308 h"),
    (["--apps", "1000000000"], "too many app windows to generate: 1,000,000,000 apps"),
    # Under MAX_COUNT, but its 8e7 trace cells would not fit in 1 GiB.
    (["replay", "--apps", "40000000", "--duration-hours", "2", "--window-hours", "1",
      "--scale", "0.001"], "too many app windows to generate: 40,000,000 apps x 2 windows"),
    (["cluster", "--app", "R-GB", "--rate", "1e308"], "more than 100,000,000 arrivals"),
    (["cluster", "--app", "R-GB", "--duration", "1e308"], "more than 100,000,000 arrivals"),
    (["regions", "--app", "R-GB", "--duration", "1e308"], "more than 100,000,000 arrivals"),
]


class TestReplayRefusals:
    """Every way a replay is refused: one stderr line, nothing on disk."""

    def refused(self, capsys, tmp_path, monkeypatch, tail):
        monkeypatch.chdir(tmp_path)  # relative --journal/--checkpoint paths
        argv = SMALL_REPLAY + tail if tail[0].startswith("-") else tail
        line = assert_one_line_error(capsys, argv)
        assert list(tmp_path.iterdir()) == []  # no checkpoint, no journal
        return line

    def test_the_rule_table_is_the_test_table(self):
        from repro.workloads.replayplan import _RULES

        assert len(RULE_ROWS) == len(_RULES)

    @pytest.mark.parametrize("row", range(len(RULE_ROWS)))
    def test_each_rule_row_refuses(self, capsys, tmp_path, monkeypatch, row):
        from repro.workloads.replayplan import _RULES

        line = self.refused(capsys, tmp_path, monkeypatch, RULE_ROWS[row])
        _, message = _RULES[row]
        assert message.split("{")[0] in line  # that row's message, no other

    @pytest.mark.parametrize(
        "tail, expected", OTHER_REFUSALS, ids=[" ".join(t) for t, _ in OTHER_REFUSALS]
    )
    def test_other_refusals(self, capsys, tmp_path, monkeypatch, tail, expected):
        assert expected in self.refused(capsys, tmp_path, monkeypatch, tail)

    def test_shift_hours_rule_names_the_offenders(self, capsys, tmp_path, monkeypatch):
        line = self.refused(capsys, tmp_path, monkeypatch, RULE_ROWS[0])
        assert line.endswith("got nan, -6")

    def test_accepted_topology_flags_still_run(self, capsys):
        # The two "has no effect" rows must not refuse the combinations
        # the flags are for.
        assert main(
            SMALL_REPLAY + ["--regions", "us,eu", "--routing", "locality",
                            "--spillover", "3", "--assignment",
                            "popularity-weighted", "--region-weights", "3,1"]
        ) == 0
        assert "routing  : locality (popularity-weighted)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, flag, bad",
        [
            (["replay"], "--cold-start-surcharge", "-1"),
            (["replay"], "--price-gb-second", "-1"),
            (["replay"], "--price-gb-second", "nan"),
            (["replay"], "--price-million-requests", "inf"),
            (["cluster", "--app", "R-GB"], "--price-gb-second", "-1"),
            (["regions", "--app", "R-GB"], "--price-gb-second", "-1"),
            (["replay", "--regions", "us,eu"], "--latency", "nan"),
            (["replay", "--regions", "us,eu"], "--latency", "inf"),
            (["regions", "--app", "R-GB"], "--latency", "-5"),
        ],
    )
    def test_pricing_and_latency_flags_are_finite_and_non_negative(
        self, capsys, argv, flag, bad
    ):
        # These used to end in a PricingModel ValueError traceback, a
        # "total cost : $nan" report with exit 0, or a NaN link latency.
        with pytest.raises(SystemExit) as refused:
            main(argv + [flag, bad])
        assert refused.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line.startswith(f"slimstart {argv[0]}: argument {flag}: ")
        assert "Traceback" not in captured.err

    def test_equivalent_shift_hour_spellings_share_a_fingerprint(self):
        # The fingerprint holds the parsed hours, not the flag's text, so
        # retyping "48,72" as "48, 72" still resumes the checkpoint.
        from repro.cli import _replay_plan

        def fingerprint(text):
            args = build_parser().parse_args(["replay", "--shift-hours", text])
            return _replay_plan(args).fingerprint()

        assert fingerprint("48, 72") == fingerprint("48,72")
        assert fingerprint("48,72")["shift_hours"] == [48.0, 72.0]
        assert fingerprint("48") != fingerprint("48,72")


class TestHostileFiles:
    """A damaged file argument ends in one line naming the file, exit 1."""

    REPLAY = ["replay", "--apps", "3", "--duration-hours", "36",
              "--window-hours", "12", "--scale", "0.05", "--seed", "7"]

    @pytest.mark.parametrize(
        "command", [["summarize"], ["query"], ["tail", "-n", "500"]],
        ids=["summarize", "query", "tail"],
    )
    def test_journal_with_bytes_overwritten_mid_file(
        self, capsys, tmp_path, command
    ):
        # Used to die in UnicodeDecodeError from the line iterator.
        journal = tmp_path / "run.jsonl"
        assert main(self.REPLAY + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        damaged = bytearray(journal.read_bytes())
        middle = len(damaged) // 2
        damaged[middle:middle + 3] = b"\xff\xfe\xfd"
        journal.write_bytes(bytes(damaged))
        hit = damaged[:middle].count(b"\n") + 1
        assert main(["obs", command[0], str(journal)] + command[1:]) == 1
        # Rows before the damage may already have streamed to stdout.
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert line == (
            f"slimstart obs: {journal} is not valid UTF-8 JSONL at line {hit}"
        )

    @pytest.mark.parametrize(
        "command", [["summarize"], ["query"], ["tail", "-n", "500"]],
        ids=["summarize", "query", "tail"],
    )
    @pytest.mark.parametrize(
        "damage, complaint",
        [
            # Both used to die in AttributeError: … has no attribute 'get'.
            (lambda lines: [b"[1]\n"] + lines[1:],
             "is not a run journal (found a JSON list, not a row object)"),
            (lambda lines: lines[:1] + [b"7\n"] + lines[1:],
             "is not valid JSONL at line 2 (found a JSON int, not a row object)"),
            # Used to print an all-zero summary with exit 0.
            (lambda lines: [], "is not a run journal (empty file)"),
            # Used to die in KeyError: 'kind' / 'start_s' under summarize.
            (lambda lines: lines[:1] + [b"{}\n"] + lines[1:],
             "is not valid JSONL at line 2 (row has no 'kind')"),
            (lambda lines: lines[:1] + [b'{"kind": "window"}\n'] + lines[1:],
             "is not valid JSONL at line 2 (window row has no 'start_s')"),
            # Used to die in TypeError: … += 'int' and 'str' under summarize.
            (lambda lines: lines[:1] + [
                b'{"kind": "window", "window": 0, "start_s": 0.0, "app": "a", '
                b'"arrivals": "x", "completed": 0, "shed": 0, "cold_starts": 0, '
                b'"queue_ms_sum": 0.0, "gb_seconds": 0.0, "boots": 0, '
                b'"decisions": 0}\n'
            ] + lines[1:],
             "is not valid JSONL at line 2 "
             "(window row 'arrivals' is 'x', not a whole number)"),
        ],
        ids=["first-line-a-list", "number-after-header", "zero-bytes",
             "object-without-kind", "window-without-keys", "window-count-a-string"],
    )
    def test_journal_with_rows_that_are_not_objects(
        self, capsys, tmp_path, command, damage, complaint
    ):
        journal = tmp_path / "run.jsonl"
        assert main(self.REPLAY + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        journal.write_bytes(b"".join(damage(journal.read_bytes().splitlines(True))))
        line = assert_one_line_error(
            capsys, ["obs", command[0], str(journal)] + command[1:]
        )
        assert line == f"slimstart obs: {journal} {complaint}"

    @pytest.mark.parametrize(
        "content, complaint",
        [
            # The four tracebacks: UnicodeDecodeError, KeyError: 'app',
            # TypeError: list indices ..., FileNotFoundError; and a fifth,
            # JSONDecodeError.
            (b"\xff\xfe", "is not UTF-8"),
            (b'{"a": 1}', "is missing key 'app'"),
            (b"[1]", "is not a JSON object"),
            (None, "is unreadable (No such file or directory)"),
            (b'{"app": "graph_bfs",\n "deferred_handler_imports": [',
             "is not JSON at line 2"),
            (b'{"app": "a", "deferred_handler_imports": "sligraph", '
             b'"deferred_library_edges": []}',
             "key 'deferred_handler_imports' is not a list of strings"),
            (b'{"app": "a", "deferred_handler_imports": [], '
             b'"deferred_library_edges": ["not a module"]}',
             "is malformed (invalid dotted module name in plan: 'not a module')"),
        ],
        ids=["not-utf8", "wrong-keys", "a-list", "missing-file", "truncated",
             "names-not-a-list", "name-not-dotted"],
    )
    def test_plan_that_is_not_a_plan(self, capsys, tmp_path, content, complaint):
        path = tmp_path / "plan.json"
        if content is not None:
            path.write_bytes(content)
        line = assert_one_line_error(
            capsys,
            ["optimize", "--workspace", str(tmp_path / "v1"), "--plan", str(path),
             "--out", str(tmp_path / "v2")],
        )
        assert line == f"slimstart optimize: plan {path} {complaint}"

    @pytest.mark.parametrize(
        "text, complaint",
        [('{"format": 4, "garbage": 1}', "is missing key 'apps'")],
        ids=["valid-json-wrong-keys"],
    )
    def test_checkpoint_holding_the_wrong_json(
        self, capsys, tmp_path, text, complaint
    ):
        # Used to die in KeyError: 'apps'.
        path = tmp_path / "C.ckpt"
        path.write_text(text)
        line = assert_one_line_error(
            capsys, self.REPLAY + ["--checkpoint", str(path)]
        )
        assert f"cannot resume from {path}: checkpoint {path} {complaint}" in line
        assert path.read_text() == text  # left for the user to inspect

    #: The replay whose checkpoints the content mutations damage.
    DURABLE = ["replay", "--apps", "4", "--duration-hours", "6",
               "--window-hours", "1", "--requests-per-window", "200",
               "--seed", "3"]

    @pytest.fixture(scope="class")
    def midrun_checkpoint(self, tmp_path_factory):
        """The text of the checkpoint a real run wrote at its third boundary."""
        from repro.faas import snapshot

        path = tmp_path_factory.mktemp("midrun") / "C.ckpt"
        texts = []
        original = snapshot.write_checkpoint

        def spy(target, *args, **kwargs):
            original(target, *args, **kwargs)
            texts.append(Path(target).read_text())

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(snapshot, "write_checkpoint", spy)
            assert main(self.DURABLE + ["--checkpoint", str(path)]) == 0
        assert len(texts) >= 3 and not path.exists()
        return texts[2]

    @pytest.fixture(scope="class")
    def finished_shards(self, tmp_path_factory):
        """``{file name: text}`` of a 2-worker run killed just before its merge."""
        from repro.workloads import shard

        class Killed(Exception):
            pass

        def die(wires):
            raise Killed

        scratch = tmp_path_factory.mktemp("shards")
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(scratch)
            patch.setattr(shard, "merge_wire", die)
            with pytest.raises(Killed):
                main(self.DURABLE + ["--workers", "2", "--checkpoint", "C.ckpt"])
        files = {path.name: path.read_text() for path in scratch.iterdir()}
        assert sorted(files) == [
            "C.ckpt", "C.ckpt.shard-0-of-2.json", "C.ckpt.shard-1-of-2.json"
        ]
        return files

    @pytest.mark.parametrize(
        "edit, complaint",
        [case[1:] for case in CHECKPOINT_MUTATIONS],
        ids=[case[0] for case in CHECKPOINT_MUTATIONS],
    )
    def test_checkpoint_with_damaged_contents(
        self, capsys, tmp_path, midrun_checkpoint, edit, complaint
    ):
        # Used to die in KeyError / islice ValueError tracebacks; the
        # short histogram used to *resume*, exit 0, into a 1-bucket window.
        capsys.readouterr()
        checkpoint = json.loads(midrun_checkpoint)
        assert checkpoint["consumed"] > 0 and len(checkpoint["accumulator"]["windows"]) == 3
        edit(checkpoint)
        path = tmp_path / "C.ckpt"
        path.write_text(damaged := json.dumps(checkpoint))
        line = assert_one_line_error(
            capsys, self.DURABLE + ["--checkpoint", str(path)]
        )
        assert f"checkpoint {path} is malformed (" in line
        assert complaint in line
        assert line.endswith("delete it to restart from scratch")
        assert path.read_text() == damaged

    @pytest.mark.parametrize(
        "edit, complaint",
        [case[1:] for case in CHECKPOINT_MUTATIONS],
        ids=[case[0] for case in CHECKPOINT_MUTATIONS],
    )
    def test_shard_checkpoint_with_damaged_contents(
        self, capsys, tmp_path, finished_shards, edit, complaint
    ):
        capsys.readouterr()
        for name, text in finished_shards.items():
            (tmp_path / name).write_text(text)
        shard_path = tmp_path / "C.ckpt.shard-0-of-2.json"
        checkpoint = json.loads(shard_path.read_text())
        edit(checkpoint)
        shard_path.write_text(json.dumps(checkpoint))
        line = assert_one_line_error(
            capsys,
            self.DURABLE + ["--workers", "2", "--checkpoint", str(tmp_path / "C.ckpt")],
        )
        assert f"checkpoint {shard_path} is malformed (" in line
        assert complaint in line
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(finished_shards)

    def test_checkpoint_of_the_previous_format_is_refused(self, capsys, tmp_path):
        # tests/fixtures/checkpoint_format3.json is a real mid-run
        # checkpoint (three windows) written by the last format-3 commit
        # for exactly this command.
        path = tmp_path / "C.ckpt"
        fixture = Path(__file__).parent / "fixtures" / "checkpoint_format3.json"
        path.write_text(fixture.read_text())
        assert json.loads(path.read_text())["format"] == 3
        line = assert_one_line_error(
            capsys,
            ["replay", "--apps", "2", "--duration-hours", "6", "--window-hours", "1",
             "--requests-per-window", "200", "--seed", "3", "--checkpoint", str(path)],
        )
        assert f"unsupported checkpoint format 3 in {path}" in line
        assert "this build reads format 4" in line

    @pytest.mark.parametrize(
        "edit, complaint",
        [case[1:] for case in MANIFEST_MUTATIONS],
        ids=[case[0] for case in MANIFEST_MUTATIONS],
    )
    def test_manifest_with_damaged_contents(
        self, capsys, tmp_path, finished_shards, edit, complaint
    ):
        # {"kind": "shard-manifest", "format": 1} used to die in
        # KeyError: 'workers' inside prepare_sharded_checkpoint.
        capsys.readouterr()
        for name, text in finished_shards.items():
            (tmp_path / name).write_text(text)
        path = tmp_path / "C.ckpt"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        line = assert_one_line_error(
            capsys, self.DURABLE + ["--workers", "2", "--checkpoint", str(path)]
        )
        assert f"manifest {path} is malformed ({complaint})" in line
        assert line.endswith("delete it and the shard files to restart")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(finished_shards)

    def test_manifest_fixture_of_format_1_loads(self, finished_shards):
        # tests/fixtures/manifest_format1.json is the manifest a real
        # two-worker run of DURABLE wrote; today's writes the same keys.
        from repro.faas.snapshot import MANIFEST_FORMAT, load_manifest

        fixture = Path(__file__).parent / "fixtures" / "manifest_format1.json"
        manifest = load_manifest(fixture)
        assert manifest["format"] == MANIFEST_FORMAT == 1
        assert manifest["workers"] == 2 and len(manifest["shards"]) == 2
        assert manifest == json.loads(finished_shards["C.ckpt"])

    #: tests/fixtures/journal_format1.jsonl is the journal a real run wrote:
    #: ``replay --apps 2 --duration-hours 3 --window-hours 1
    #: --requests-per-window 30 --scale 0.006 --seed 5 --keep-alive 60
    #: --max-containers 1 --queue-capacity 1 --policy panic-window
    #: --trace-sample 0.1 --journal …`` (30 requests, 69 rows).
    JOURNAL_FIXTURE = Path(__file__).parent / "fixtures" / "journal_format1.jsonl"

    @pytest.mark.parametrize(
        "command, flag, bad",
        [("query", "--since", "nan"), ("query", "--until", "inf"), ("tail", "-n", "-1")],
        ids=["since", "until", "lines"],
    )
    def test_obs_refuses_a_nonsense_window_or_count(self, capsys, command, flag, bad):
        # --since nan filtered nothing (NaN compares false), -n -1 printed
        # nothing; each exited 0.
        with pytest.raises(SystemExit, match="^1$"):
            main(["obs", command, str(self.JOURNAL_FIXTURE), flag, bad])
        captured = capsys.readouterr()
        (line,) = (captured.out + captured.err).strip().splitlines()
        assert line.startswith(f"slimstart obs {command}: argument {flag}")

    def test_journal_fixture_of_format_1_is_read(self, capsys):
        from repro.obs.query import READ_FORMATS

        lines = self.JOURNAL_FIXTURE.read_text().splitlines()
        assert json.loads(lines[0])["format"] == 1 and 1 in READ_FORMATS
        rows = [json.loads(line) for line in lines]
        kinds = [row["kind"] for row in rows]
        assert set(kinds) == {
            "journal", "scale", "window", "provision", "span", "boundary", "end",
        }
        data_rows = sum(kind not in ("journal", "boundary", "end") for kind in kinds)

        assert main(["obs", "summarize", str(self.JOURNAL_FIXTURE), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["arrivals"] == summary["completed"] == 30
        assert summary["shed"] == 0 and summary["windows"] == 3
        # Format 1: one scale row per decision, one provision row per
        # container lifetime.
        assert summary["scaling_decisions"] == kinds.count("scale")
        assert summary["containers_booted"] == kinds.count("provision") == sum(
            row["booted"] for row in rows if row["kind"] == "scale"
        )
        assert "provisions" not in summary
        assert summary["spans"] == kinds.count("span")
        assert main(["obs", "summarize", str(self.JOURNAL_FIXTURE)]) == 0
        assert "arrivals           :         30" in capsys.readouterr().out
        for as_json in ([], ["--json"]):
            assert main(["obs", "query", str(self.JOURNAL_FIXTURE)] + as_json) == 0
            assert len(capsys.readouterr().out.splitlines()) == data_rows
            assert main(
                ["obs", "tail", str(self.JOURNAL_FIXTURE), "-n", "500"] + as_json
            ) == 0
            assert len(capsys.readouterr().out.splitlines()) == data_rows

    def test_format_1_fixtures_summarize_as_the_parent_printed(
        self, capsys, monkeypatch
    ):
        # tests/golden/obs_summarize_format1.txt is what commit 5d30af6 (the
        # last to write format 1) printed for both format-1 fixtures, less
        # its "provisions" line, which on a sealed format-1 journal always
        # equalled "containers booted".
        monkeypatch.chdir(self.JOURNAL_FIXTURE.parent)
        assert_stdout_matches_golden(
            capsys,
            [["obs", "summarize", self.JOURNAL_FIXTURE.name],
             ["obs", "summarize", self.SHED_FIXTURE.name]],
            "obs_summarize_format1.txt", "obs summarize of a format-1 journal",
        )

    #: tests/fixtures/journal_format2.jsonl is the journal the first
    #: format-2 build wrote for JOURNAL_FIXTURE's command: the same run,
    #: so the same totals, in 20 rows instead of 69.
    FORMAT2_FIXTURE = Path(__file__).parent / "fixtures" / "journal_format2.jsonl"

    def test_journal_fixture_of_format_2_is_read(self, capsys):
        from repro.obs.journal import JOURNAL_FORMAT
        from repro.obs.query import read_rows, summarize_journal

        rows = list(read_rows(self.FORMAT2_FIXTURE))
        assert json.loads(self.FORMAT2_FIXTURE.read_text().splitlines()[0])[
            "format"] == JOURNAL_FORMAT == 2
        assert {row["kind"] for row in rows} == {"scale", "window", "span"}
        windows = [row for row in rows if row["kind"] == "window"]
        assert main(["obs", "query", str(self.FORMAT2_FIXTURE), "--kind", "window",
                     "--field", "gb_seconds"]) == 0
        printed = [float(line) for line in capsys.readouterr().out.splitlines()]
        assert printed == [row["gb_seconds"] for row in windows]
        summary = summarize_journal(self.FORMAT2_FIXTURE)
        assert summary["gb_seconds"] == round(sum(printed), 6)
        assert summary["containers_booted"] == sum(row["boots"] for row in windows)
        assert summary["scaling_decisions"] == sum(row["decisions"] for row in windows)
        assert summary == summarize_journal(self.JOURNAL_FIXTURE)
        assert main(["obs", "summarize", str(self.FORMAT2_FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "containers booted  :         27" in out and "provisions" not in out
        assert main(["obs", "tail", str(self.FORMAT2_FIXTURE), "-n", "500", "--json"]) == 0
        assert [json.loads(line) for line in capsys.readouterr().out.splitlines()] == rows

    #: tests/fixtures/journal_format1_shed.jsonl is the journal commit
    #: 41f7f92 wrote for ``replay --apps 2 --duration-hours 0.002
    #: --window-hours 0.001 --requests-per-window 20 --scale 0.02 --seed 5
    #: --queue-capacity 0 --max-containers 1 --keep-alive 1 --trace-sample
    #: 0.1 --journal …`` (74 requests, 4 shed).
    SHED_FIXTURE = Path(__file__).parent / "fixtures" / "journal_format1_shed.jsonl"

    def test_journal_fixture_with_shed_rows_is_read(self, capsys):
        from repro.obs.query import read_rows

        sheds = [row for row in read_rows(self.SHED_FIXTURE) if row["kind"] == "shed"]
        assert len(sheds) == 4 and all(row["app"] == "app001" for row in sheds)
        assert main(["obs", "summarize", str(self.SHED_FIXTURE), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["arrivals"] == 74 and summary["completed"] == 70
        assert summary["shed"] == summary["shed_events"] == 4
        assert summary["apps"]["app001"]["shed"] == 4
        assert main(["obs", "query", str(self.SHED_FIXTURE), "--kind", "shed", "--json"]) == 0
        printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert printed == sheds

    @pytest.mark.parametrize(
        "command", [["summarize"], ["query"], ["tail", "-n", "500"]],
        ids=["summarize", "query", "tail"],
    )
    def test_journal_of_a_later_format_is_refused(self, capsys, tmp_path, command):
        header, _, rows = self.JOURNAL_FIXTURE.read_text().partition("\n")
        assert '"format": 1' in header
        path = tmp_path / "run.jsonl"
        path.write_text(header.replace('"format": 1', '"format": 3') + "\n" + rows)
        line = assert_one_line_error(
            capsys, ["obs", command[0], str(path)] + command[1:]
        )
        assert line == (
            f"slimstart obs: unsupported journal format 3 in {path} "
            "(this build reads formats 1 and 2)"
        )

    # -- format skew: a journal an older build left beside a checkpoint --

    @pytest.fixture(scope="class")
    def midrun_journal(self, tmp_path_factory):
        """``(checkpoint text, journal bytes)`` a journaled run left at its
        third boundary."""
        from repro.faas import snapshot

        scratch = tmp_path_factory.mktemp("midrun-journal")
        saved = []
        original = snapshot.write_checkpoint

        def spy(target, *args, **kwargs):
            original(target, *args, **kwargs)
            saved.append((Path(target).read_text(), (scratch / "J.jsonl").read_bytes()))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(snapshot, "write_checkpoint", spy)
            assert main(self.DURABLE + ["--checkpoint", str(scratch / "C.ckpt"),
                                        "--journal", str(scratch / "J.jsonl")]) == 0
        return saved[2]

    @staticmethod
    def as_format_1(journal: bytes) -> bytes:
        header, newline, rest = journal.partition(b"\n")
        assert b'"format": 2' in header
        return header.replace(b'"format": 2', b'"format": 1') + newline + rest

    def test_resume_onto_a_journal_of_the_previous_format(
        self, capsys, tmp_path, midrun_journal
    ):
        checkpoint, journal = midrun_journal
        path, journal_path = tmp_path / "C.ckpt", tmp_path / "J.jsonl"
        path.write_text(checkpoint)
        journal_path.write_bytes(damaged := self.as_format_1(journal))
        line = assert_one_line_error(
            capsys,
            self.DURABLE + ["--checkpoint", str(path), "--journal", str(journal_path)],
        )
        assert line == (
            f"slimstart replay: cannot resume from {path}: unsupported journal "
            f"format 1 in {journal_path} (this build writes format 2)"
        )
        assert journal_path.read_bytes() == damaged  # left for the user

    def test_sharded_resume_onto_a_shard_journal_of_the_previous_format(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.workloads import shard

        class Killed(Exception):
            pass

        def die(wires):
            raise Killed

        monkeypatch.chdir(tmp_path)
        argv = self.DURABLE + ["--workers", "2", "--checkpoint", "C.ckpt",
                               "--journal", "J.jsonl"]
        with monkeypatch.context() as patch:
            patch.setattr(shard, "merge_wire", die)
            with pytest.raises(Killed):
                main(argv)
        shard_journal = tmp_path / "J.jsonl.shard-0-of-2.jsonl"
        shard_journal.write_bytes(self.as_format_1(shard_journal.read_bytes()))
        line = assert_one_line_error(capsys, argv)
        assert line == (
            "slimstart replay: cannot resume from C.ckpt: unsupported journal "
            "format 1 in J.jsonl.shard-0-of-2.jsonl (this build writes format 2)"
        )

    def test_merge_over_a_shard_journal_of_the_previous_format(self, tmp_path):
        from repro.common.errors import CheckpointError
        from repro.obs.journal import merge_journals

        with pytest.raises(CheckpointError) as refused:
            merge_journals([self.JOURNAL_FIXTURE], tmp_path / "J.jsonl", window_s=3600.0)
        assert str(refused.value) == (
            f"{self.JOURNAL_FIXTURE} is not a format-2 run journal "
            "(kind 'journal', format 1)"
        )

    @settings(max_examples=25, deadline=None)
    @given(dropped=st.sets(st.sampled_from(CHECKPOINT_KEYS), min_size=1))
    def test_checkpoint_with_top_level_keys_dropped(self, dropped):
        from repro.common.errors import CheckpointError
        from repro.faas.cluster import ClusterPlatform
        from repro.faas.snapshot import load_checkpoint, write_checkpoint
        from repro.metrics import WindowAccumulator

        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "C.ckpt"
            write_checkpoint(
                path, ClusterPlatform(seed=1), WindowAccumulator(3600.0),
                consumed=0, fingerprint={"seed": 1},
            )
            whole = json.loads(path.read_text())
            assert sorted(whole) == sorted(CHECKPOINT_KEYS)
            assert load_checkpoint(path) == whole
            path.write_text(
                json.dumps({k: v for k, v in whole.items() if k not in dropped})
            )
            with pytest.raises(CheckpointError) as refused:
                load_checkpoint(path)
        assert str(path) in str(refused.value)  # names the file

    # -- destinations that cannot be written, sources that are not there -----

    @pytest.mark.parametrize(
        "case", ["report-plan-out", "optimize-out", "optimize-no-handler"]
    )
    def test_no_unwritable_destination_ends_in_a_traceback(
        self, capsys, tmp_path, monkeypatch, written_plan, case
    ):
        # The first two used to die in FileNotFoundError tracebacks — the
        # report after profiling the whole hour; the third named the
        # destination's handler.py and left an empty-handed copy behind.
        workspace = tmp_path / "v1"
        workspace.mkdir()
        (workspace / "notes.py").write_text("x = 1\n")
        plan = tmp_path / "plan.json"
        plan.write_bytes(written_plan)
        missing = tmp_path / "nonexistent" / "dir"
        if case == "report-plan-out":
            from repro.core import pipeline

            def profiled(*args, **kwargs):
                raise AssertionError("profiled before checking the destination")

            monkeypatch.setattr(pipeline.SlimStart, "profile_simulated", profiled)
            argv = ["report", "--app", "R-GB", "--plan-out", str(missing / "x.json")]
            complaint = f"cannot write {missing / 'x.json'}: No such file or directory"
        elif case == "optimize-out":
            (workspace / "handler.py").write_text("import os\n")
            # makedirs would create a missing parent; it cannot go through a file.
            argv = ["optimize", "--workspace", str(workspace), "--plan", str(plan),
                    "--out", str(plan / "o")]
            complaint = f"cannot write workspace {plan / 'o'}: Not a directory"
        else:
            argv = ["optimize", "--workspace", str(workspace), "--plan", str(plan),
                    "--out", str(tmp_path / "v2")]
            complaint = f"no handler module at {workspace / 'handler.py'}"
        before = sorted(path.name for path in tmp_path.iterdir())
        line = assert_one_line_error(capsys, argv)
        assert line == f"slimstart {argv[0]}: {complaint}"
        assert sorted(path.name for path in tmp_path.iterdir()) == before

    # -- the sweep: every file argument x every generic damage ---------------

    @pytest.fixture(scope="class")
    def written_plan(self, tmp_path_factory):
        """The bytes ``report --plan-out`` writes for R-GB."""
        path = tmp_path_factory.mktemp("plan") / "plan.json"
        assert main(["--cold-starts", "20", "--runs", "1", "report", "--app", "R-GB",
                     "--plan-out", str(path)]) == 0
        return path.read_bytes()

    #: Damage a reader accepts on purpose (exit 0, silent): a journal cut
    #: anywhere is a run killed mid-flush, durable up to its torn tail;
    #: the other keys are written for people and read by nothing.
    TOLERATED = {
        "journal": {"cut-third", "cut-two-thirds", "drop-fingerprint",
                    "drop-trace_sample", "drop-window_s"},
        "manifest": {"drop-shards"},
    }

    @staticmethod
    def damaged(data, damage, jsonl):
        """``[(damage id, bytes)]``: one entry, or one per top-level key."""
        if damage == "cut-third":
            return [(damage, data[: len(data) // 3])]
        if damage == "cut-two-thirds":
            return [(damage, data[: 2 * len(data) // 3])]
        if damage == "flip-byte":
            flipped = bytearray(data)
            flipped[len(data) // 2] = 0xFF
            return [(damage, bytes(flipped))]
        if damage == "empty-list":
            return [(damage, b"[]")]
        # drop-key: of the document, or of a journal's header row.
        head, newline, rest = data.partition(b"\n") if jsonl else (data, b"", b"")
        document = json.loads(head)
        return [
            (f"drop-{key}",
             json.dumps({k: v for k, v in document.items() if k != key}).encode()
             + newline + rest)
            for key in document
        ]

    @pytest.mark.parametrize(
        "damage", ["cut-third", "cut-two-thirds", "flip-byte", "drop-key", "empty-list"]
    )
    @pytest.mark.parametrize(
        "reader",
        ["optimize", "obs-summarize", "obs-query", "obs-tail",
         "checkpoint", "checkpoint-format3", "shard", "manifest"],
    )
    def test_no_damaged_file_argument_ends_in_a_traceback(
        self, capsys, tmp_path, written_plan, midrun_checkpoint, finished_shards,
        reader, damage,
    ):
        fixtures = Path(__file__).parent / "fixtures"
        target = tmp_path / "C.ckpt"
        if reader == "optimize":
            data, kind = written_plan, "plan"
            argv = ["optimize", "--workspace", str(tmp_path / "v1"),
                    "--plan", str(target), "--out", str(tmp_path / "v2")]
        elif reader.startswith("obs-"):
            data, kind = self.JOURNAL_FIXTURE.read_bytes(), "journal"
            argv = ["obs", reader[4:], str(target)]
        elif reader == "checkpoint":
            data, kind = midrun_checkpoint.encode(), "checkpoint"
            argv = self.DURABLE + ["--checkpoint", str(target)]
        elif reader == "checkpoint-format3":
            data = (fixtures / "checkpoint_format3.json").read_bytes()
            kind = "checkpoint"
            argv = self.DURABLE + ["--checkpoint", str(target)]
        else:
            for name, text in finished_shards.items():
                (tmp_path / name).write_text(text)
            argv = self.DURABLE + ["--workers", "2", "--checkpoint", str(target)]
            if reader == "shard":
                target = tmp_path / "C.ckpt.shard-0-of-2.json"
            data, kind = target.read_bytes(), reader
            assert reader != "manifest" or json.loads(data) == json.loads(
                (fixtures / "manifest_format1.json").read_text()
            )
        capsys.readouterr()
        for name, damaged in self.damaged(data, damage, jsonl=kind == "journal"):
            target.write_bytes(damaged)
            code = main(argv)  # any exception here is the traceback
            captured = capsys.readouterr()
            assert "Traceback" not in captured.out + captured.err
            if name in self.TOLERATED.get(kind, ()):
                assert (code, captured.err) == (0, ""), name
            else:
                assert code == 1, name
                (line,) = captured.err.strip().splitlines()
                assert line.startswith(f"slimstart {argv[0]}: "), name


def _golden_cases(name):
    return json.loads((Path(__file__).parent / "golden" / name).read_text())["cases"]


GOLDEN_ENGINES = _golden_cases("cli_replay_engines.json")
GOLDEN_POLICIES = _golden_cases("cli_replay_policies.json")


def assert_report_matches_golden(case, capsys, tmp_path, monkeypatch):
    """Run one golden case; its stdout and journal rows are the pinned bytes.

    Journal rows are compared after the header line, which embeds the
    plan's fingerprint.  ``journal_summary`` is ``obs summarize --json``
    of the format-1 journal commit 5d30af6 wrote for the case (less
    ``provisions`` / ``start_s`` / ``end_s``): the format-2 journal must
    total the same — exactly, but for ``gb_seconds``, which sums per-window
    deltas instead of container lifetimes.
    """
    from repro.obs.query import summarize_journal

    monkeypatch.chdir(tmp_path)  # the argv's J.jsonl / C.ckpt are relative
    assert main(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
    left_behind = sorted(path.name for path in tmp_path.iterdir())
    if "journal_rows_sha256" in case:
        assert left_behind == ["J.jsonl"]
        summary = summarize_journal(tmp_path / "J.jsonl")
        expected = dict(case["journal_summary"])
        assert summary.pop("gb_seconds") == pytest.approx(
            expected.pop("gb_seconds"), rel=1e-9
        )
        del summary["start_s"], summary["end_s"]
        assert summary == expected
        rows = (tmp_path / "J.jsonl").read_bytes().split(b"\n", 1)[1]
        assert hashlib.sha256(rows).hexdigest() == case["journal_rows_sha256"]
    else:
        assert left_behind == []  # checkpoints are cleaned up on success


def assert_stdout_matches_golden(capsys, argvs, golden_name, what):
    """``main(argv)`` for each of ``argvs``, in turn, prints the bytes of
    ``tests/golden/<golden_name>``."""
    for argv in argvs:
        assert main(argv) == 0
    assert_matches_golden(capsys.readouterr().out, golden_name, what)


def assert_matches_golden(printed, golden_name, what):
    """``printed`` is the bytes of ``tests/golden/<golden_name>``."""
    golden = (Path(__file__).parent / "golden" / golden_name).read_text()
    if printed != golden:
        pytest.fail(
            f"{what} moved:\n"
            + "\n".join(
                difflib.unified_diff(
                    golden.splitlines(), printed.splitlines(),
                    "golden", "printed", lineterm="",
                )
            )
        )


class TestTable2Golden:
    """Table II at quick volume, pinned in tier-1.

    ``tests/golden/table2_quick.txt`` is the stdout of ``slimstart
    --cold-starts 50 --runs 1 table2`` written from commit 365b48f,
    before ``invoke_burst`` ran a burst in one loop and before a cold
    start's costs were compiled per entry — every cold start of that
    run went through ``SimPlatform.invoke``.  ``bench/expected.json``
    pins the full-volume table, which tier-1 never runs.  The run is the
    fresh interpreter ``TestOwnColdStart`` counts modules in.
    """

    def test_quick_table_is_byte_identical(self, quick_table2):
        assert_matches_golden(quick_table2[1], "table2_quick.txt", "Table II")


class TestAppsGolden:
    """The set-up command's whole listing, not three substrings of it.

    ``tests/golden/apps.txt`` is the stdout of ``slimstart apps`` written
    from commit 5862f1f, whose ``ModuleKey`` was a frozen dataclass:
    ``libs`` / ``modules`` / ``depth`` of the 22 apps are exactly what
    ``ModuleKey`` and ``Ecosystem.import_closure`` compute.
    """

    def test_listing_is_byte_identical(self, capsys):
        assert_stdout_matches_golden(capsys, [["apps"]], "apps.txt", "slimstart apps")


class TestClusterAndRegionsGolden:
    """``slimstart cluster`` and ``slimstart regions``, pinned.

    ``tests/golden/cluster.txt`` and ``regions.txt`` are the stdout of
    the argv lists below, one after the other.  Both commands are
    ``ReplayPlan`` runs with a Poisson arrival source and print the
    windowed summary ``replay`` prints.  Their totals (completed, shed,
    GB-seconds, cost) and ``regions``' served counts are the numbers the
    earlier record-keeping reports printed for the same argv lists.  The
    second command of each sheds.
    """

    CLUSTER = [
        ["cluster", "--app", "R-SA"],
        ["cluster", "--app", "R-GB", "--policy", "panic-window", "--queue-capacity", "2",
         "--rate", "40", "--keep-alive", "1", "--duration", "200"],
    ]
    REGIONS = [
        ["regions", "--app", "R-SA"],
        ["regions", "--app", "R-SA", "--policy", "locality", "--spillover", "2",
         "--queue-capacity", "1", "--rates", "30", "--duration", "150"],
    ]

    def test_cluster_is_byte_identical(self, capsys):
        assert_stdout_matches_golden(capsys, self.CLUSTER, "cluster.txt", "slimstart cluster")

    def test_regions_is_byte_identical(self, capsys):
        assert_stdout_matches_golden(capsys, self.REGIONS, "regions.txt", "slimstart regions")


class TestReplayPoliciesGolden:
    """Every scaling policy's report and journal, short and default keep-alive.

    ``tests/golden/cli_replay_policies.json`` was written by commit
    aa07d23, whose every tier-0 / tier-1-miss arrival was queued and
    dispatched and whose every expiry test asked the policy: the four
    ``--policy`` values x ``--keep-alive`` {1, default} on a small
    diurnal QoS trace.  The journal's window rows hold every decision
    count, boot count and GB-second delta, and its scale rows every regime
    change, so its digest is the strict pin; the digests are the first
    format-2 build's, and ``journal_summary`` ties them to the format-1
    journals commit 5d30af6 wrote.
    """

    @pytest.mark.parametrize(
        "case", GOLDEN_POLICIES, ids=[case["id"] for case in GOLDEN_POLICIES]
    )
    def test_report_and_journal_are_byte_identical(
        self, capsys, tmp_path, monkeypatch, case
    ):
        assert_report_matches_golden(case, capsys, tmp_path, monkeypatch)


class TestReplayEnginesGolden:
    """Every engine's report, pinned from the commit before ``ReplayPlan``.

    ``tests/golden/cli_replay_engines.json`` was written by the parent
    commit's hand-wired ``cmd_replay`` (five engine branches, the plain
    and federated ones through the gateway's URL round-trip); the plan
    must print the same bytes.
    """

    @pytest.mark.parametrize(
        "case", GOLDEN_ENGINES, ids=[case["id"] for case in GOLDEN_ENGINES]
    )
    def test_report_is_byte_identical(self, capsys, tmp_path, monkeypatch, case):
        assert_report_matches_golden(case, capsys, tmp_path, monkeypatch)

    @pytest.mark.parametrize(
        "case_id, extra, phases",
        [
            ("plain", [], ["compile", "event-loop", "total"]),
            ("plain", ["--checkpoint", "C.ckpt"],
             ["checkpoint-write", "compile", "event-loop", "total"]),
            ("federated-qos-probabilistic", [],
             ["compile", "event-loop", "total"]),
        ],
        ids=["plain", "checkpoint", "federated"],
    )
    def test_profile_prints_the_same_phase_rows(
        self, capsys, tmp_path, monkeypatch, case_id, extra, phases
    ):
        # Seconds are wall time and stay out of the golden; the phase
        # names are the same for every single-process engine.
        monkeypatch.chdir(tmp_path)
        case = next(case for case in GOLDEN_ENGINES if case["id"] == case_id)
        assert main(case["argv"] + ["--profile"] + extra) == 0
        out = capsys.readouterr().out
        report, _, table = out.partition("\nphase ")
        assert report == case["stdout"]
        assert [line.split()[0] for line in table.splitlines()[2:]] == phases
