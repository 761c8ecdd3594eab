"""``slimstart`` command-line interface.

Sub-commands mirror the tool's workflow plus the evaluation harness:

* ``slimstart apps``                      — list the 22 benchmark apps
* ``slimstart report --app R-SA``         — profile one app on the
  simulator and print its SLIMSTART summary (Tables IV/V shape)
* ``slimstart cycle --app R-GB``          — full optimize cycle + speedups
* ``slimstart table2``                    — regenerate Table II
* ``slimstart replay --apps 24``          — stream a production-shaped
  trace fleet (Zipf handlers, workload-shift events) through the cluster
  simulator — or, with ``--regions``, the federation — at bounded
  memory, printing the per-window time series (cold-start rate, p95
  queueing, shed rate, GB-seconds, $) that makes shift transients
  visible
* ``slimstart cluster --app R-SA``        — the same replay, whose arrival
  source is one app's Poisson traffic at ``--rate`` against a container
  fleet under a pluggable autoscaler (``--policy
  per-request|target-utilization|panic-window|predictive``, the last
  pre-warming ahead of a window-count forecast chosen via
  ``--forecaster ewma|holt-winters``)
* ``slimstart regions --app R-SA``        — the same, with per-region
  ``--rates`` across federated fleets under a latency-aware routing
  policy (``--policy``; the autoscaler is ``--scaling-policy``), with
  each region's routed count on the ``routing`` line
* ``slimstart optimize --workspace DIR``  — rewrite a real workspace from
  a plan JSON file
* ``slimstart obs summarize out.jsonl``   — query the append-only run
  journal a journaled replay wrote (``slimstart replay --journal
  out.jsonl``): ``query`` filters rows by kind/app/time window, ``tail``
  shows the last events, ``summarize`` aggregates per-app and run
  totals — all stream-scanning at O(1) memory
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

# What build_parser() and `replay` need; every other command imports its
# own machinery (pipeline, report, gateways, journal reader) when it runs.
from repro.common.errors import DeploymentError, ReproError, SpecError
from repro.apps.catalog import APP_DEFINITIONS, app_by_key
from repro.apps.model import bench_platform_config, instantiate
from repro.faas.autoscale import (
    SCALING_POLICY_NAMES,
    PanicWindow,
    TargetUtilization,
    make_scaling_policy,
)
from repro.faas.cluster import FleetConfig
from repro.faas.forecast import FORECASTER_NAMES
from repro.metrics import DEFAULT_PRICING, QOS_PRESETS, PricingModel, parse_qos_mix
from repro.faas.region import POLICY_NAMES
from repro.plan import DeferralPlan
from repro.workloads.replay import ARRIVAL_MODEL_NAMES
from repro.workloads.replayplan import ReplayPlan


def _build_tool(args: argparse.Namespace):
    from repro.core.pipeline import PipelineConfig, SlimStart

    return SlimStart(
        PipelineConfig(
            measure_cold_starts=args.cold_starts,
            measure_runs=args.runs,
        )
    )


def _paper_setup(definition):
    """The paper's measurement setup for one app: the app, a fresh
    simulator, and one hour of Poisson traffic over its entry mix."""
    from repro.faas.sim import SimPlatform
    from repro.workloads.arrival import poisson_schedule

    app = instantiate(definition)
    schedule = poisson_schedule(app.mix, rate_per_s=0.3, duration_s=3600.0, seed=7)
    return app, SimPlatform(config=bench_platform_config()), schedule


def cmd_apps(args: argparse.Namespace) -> int:
    print(f"{'key':10s} {'suite':14s} {'libs':>5s} {'modules':>8s} {'depth':>6s}  name")
    for definition in APP_DEFINITIONS:
        app = instantiate(definition)
        print(
            f"{app.key:10s} {definition.suite:14s} {app.library_count:5d} "
            f"{app.module_count:8d} {app.average_depth:6.2f}  {app.name}"
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import render_report

    tool = _build_tool(args)
    app, platform, schedule = _paper_setup(app_by_key(args.app))
    if args.plan_out:
        try:  # refuse a bad destination before the work, as --journal does
            open(args.plan_out, "a").close()
        except OSError as error:
            raise DeploymentError(
                f"cannot write {args.plan_out}: {error.strerror}"
            ) from error
    config = app.sim_config()
    platform.deploy(config)
    bundle = tool.profile_simulated(platform, config, schedule)
    report = tool.analyze(bundle, tool.sim_attributor(config))
    print(render_report(report))
    if args.plan_out:
        payload = {
            "app": report.plan.app,
            "deferred_handler_imports": sorted(report.plan.deferred_handler_imports),
            "deferred_library_edges": sorted(report.plan.deferred_library_edges),
        }
        with open(args.plan_out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nplan written to {args.plan_out}")
    return 0


def cmd_cycle(args: argparse.Namespace) -> int:
    from repro.core.report import render_report

    tool = _build_tool(args)
    app, platform, schedule = _paper_setup(app_by_key(args.app))
    result = tool.run_simulated_cycle(
        app.sim_config(), schedule, app.mix, platform=platform
    )
    print(render_report(result.report))
    speedups = result.speedups
    print()
    print(f"initialization speedup : {speedups.init_speedup:5.2f}x")
    print(f"end-to-end speedup     : {speedups.e2e_speedup:5.2f}x")
    print(f"p99 init speedup       : {speedups.p99_init_speedup:5.2f}x")
    print(f"p99 end-to-end speedup : {speedups.p99_e2e_speedup:5.2f}x")
    print(f"memory reduction       : {speedups.memory_reduction:5.2f}x")
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    tool = _build_tool(args)
    header = (
        f"{'App':10s} {'Libs':>4s} {'Mods':>5s} {'Depth':>5s} "
        f"{'Init x':>7s} {'E2E x':>6s} {'p99 Init':>8s} {'p99 E2E':>8s}"
    )
    print(header)
    print("-" * len(header))
    for definition in APP_DEFINITIONS:
        if definition.paper is None:
            continue
        app, platform, schedule = _paper_setup(definition)
        result = tool.run_simulated_cycle(
            app.sim_config(), schedule, app.mix, platform=platform
        )
        s = result.speedups
        print(
            f"{app.key:10s} {app.library_count:4d} {app.module_count:5d} "
            f"{app.average_depth:5.2f} {s.init_speedup:7.2f} {s.e2e_speedup:6.2f} "
            f"{s.p99_init_speedup:8.2f} {s.p99_e2e_speedup:8.2f}"
        )
    return 0


_REACTIVE = ("target-utilization", "panic-window", "predictive")

#: The autoscaler tuning flags, once: ``(flag, make_scaling_policy kwarg,
#: policies that honour it, add_argument kwargs)``.  --target/--grace also
#: configure predictive's reactive TargetUtilization base.
_POLICY_FLAGS = (
    ("--target", "target", _REACTIVE, dict(
        type=float,
        help="target in-flight utilization, in (0, 1] "
        f"(default {TargetUtilization.target})",
    )),
    ("--grace", "scale_to_zero_grace_s", _REACTIVE, dict(
        type=float,
        help="scale-to-zero grace: extra idle seconds for the last container "
        f"(default {TargetUtilization.scale_to_zero_grace_s})",
    )),
    ("--stable-window", "stable_window_s", ("panic-window",), dict(
        type=float,
        help=f"panic-window: stable window, s (default {PanicWindow.stable_window_s})",
    )),
    ("--panic-window", "panic_window_s", ("panic-window",), dict(
        type=float,
        help=f"panic-window: panic window, s (default {PanicWindow.panic_window_s})",
    )),
    ("--panic-threshold", "panic_threshold", ("panic-window",), dict(
        type=float,
        help="panic-window: burst factor that triggers panic (> 1) "
        f"(default {PanicWindow.panic_threshold})",
    )),
    ("--forecaster", "forecaster", ("predictive",), dict(
        choices=FORECASTER_NAMES,
        help="predictive: window-count forecast model (default ewma)",
    )),
    ("--season-windows", "season_windows", ("predictive",), dict(
        type=int,
        help="predictive + holt-winters: observation windows per season "
        "(default 24; e.g. 24 one-hour windows for a diurnal day)",
    )),
    ("--forecast-window", "forecast_window_s", ("predictive",), dict(
        type=float,
        help="predictive: observation window width, s (default 3600)",
    )),
    ("--prewarm-lead", "prewarm_lead_s", ("predictive",), dict(
        type=float,
        help="predictive: seconds before a window boundary to start "
        "provisioning for the next window (default 0)",
    )),
    ("--prewarm-headroom", "prewarm_headroom", ("predictive",), dict(
        type=float,
        help="predictive: multiplier on the forecast demand (default 1.2)",
    )),
)


def _scaling_policy(args: argparse.Namespace, name: str):
    """Build the scaling policy, rejecting flags the policy ignores.

    Flags default to ``None`` so only explicitly-passed values reach the
    factory — a `--target` sweep that forgot `--policy` fails loudly
    instead of silently producing identical per-request runs.
    """
    given = [
        (flag, kwarg, policies, value)
        for flag, kwarg, policies, _ in _POLICY_FLAGS
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
    ]
    stray = sorted(flag for flag, _, policies, _ in given if name not in policies)
    if stray:
        raise SpecError(
            f"{', '.join(stray)} have no effect with scaling policy {name!r}"
        )
    return make_scaling_policy(
        name, **{kwarg: value for _, kwarg, _, value in given}
    )


def _pricing(args: argparse.Namespace) -> PricingModel:
    return PricingModel(
        per_gb_second=args.price_gb_second,
        per_million_requests=args.price_million_requests,
        cold_start_surcharge=args.cold_start_surcharge,
    )


def _finite(text: str, allow_zero: bool) -> float:
    # float() happily parses "nan"/"inf"/"-5", none of which is a
    # duration, a rate or a volume: NaN poisons every comparison
    # downstream (int() tracebacks, or a quietly wrong summary).
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0 or (value == 0 and not allow_zero):
        bound = ">= 0" if allow_zero else "> 0"
        raise argparse.ArgumentTypeError(
            f"must be a finite number {bound}; got {text!r}"
        )
    return value


def _positive(text: str) -> float:
    """argparse ``type=`` for flags that must be finite and > 0."""
    return _finite(text, allow_zero=False)


def _non_negative(text: str) -> float:
    """argparse ``type=`` for flags that must be finite and >= 0."""
    return _finite(text, allow_zero=True)


def _count(text: str) -> int:
    """argparse ``type=`` for a count: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0; got {text!r}")
    return value


class _OneLineErrors(argparse.ArgumentParser):
    """Usage errors reported the way ``main()`` reports library errors.

    argparse's default buries the message under the whole usage block
    and exits 2; a refused flag value should read like every other bad
    input — one ``slimstart <cmd>: <message>`` line on stderr, exit 1.
    Subparsers inherit the class, so ``prog`` names the subcommand.
    """

    def error(self, message: str):
        self.exit(1, f"{self.prog}: {message}\n")


def _add_fleet_arguments(
    parser: argparse.ArgumentParser, scaling_flag: str, max_containers: int
) -> None:
    """The fleet/autoscaler/pricing flag block every replay command shares.

    ``cluster``, ``regions``, and ``replay`` all configure the same
    :class:`FleetConfig` surface; this helper (plus :func:`_fleet_config`
    on the consuming side) keeps the plumbing in one place so a new flag
    lands on all three subcommands at once.
    """
    parser.add_argument("--max-containers", type=int, default=max_containers)
    parser.add_argument("--max-concurrency", type=int, default=1)
    parser.add_argument("--keep-alive", type=_non_negative, default=120.0)
    parser.add_argument(
        "--queue-capacity", type=int, default=None, help="bounded queue; sheds beyond"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        scaling_flag,
        dest="scaling_policy",
        choices=SCALING_POLICY_NAMES,
        default="per-request",
        help="autoscaler policy for every fleet",
    )
    for flag, _, _, kwargs in _POLICY_FLAGS:
        parser.add_argument(flag, default=None, **kwargs)
    parser.add_argument(
        "--price-gb-second",
        type=_non_negative,
        default=DEFAULT_PRICING.per_gb_second,
        help="$ per provisioned GB-second",
    )
    parser.add_argument(
        "--price-million-requests",
        type=_non_negative,
        default=DEFAULT_PRICING.per_million_requests,
        help="$ per million served requests",
    )
    parser.add_argument(
        "--cold-start-surcharge",
        type=_non_negative,
        default=DEFAULT_PRICING.cold_start_surcharge,
        help="$ charged per container boot",
    )


def _fleet_config(args: argparse.Namespace) -> FleetConfig:
    """Build the fleet every subcommand deploys from the shared flags."""
    return FleetConfig(
        max_containers=args.max_containers,
        max_concurrency=args.max_concurrency,
        keep_alive_s=args.keep_alive,
        queue_capacity=args.queue_capacity,
        policy=_scaling_policy(args, args.scaling_policy),
    )


def _numbers(flag: str, text: str) -> tuple[float, ...]:
    """A comma-separated numeric flag value (blank items are skipped)."""
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SpecError(
            f"{flag} must be comma-separated numbers; got {text!r}"
        ) from None


def _regions(text: str) -> tuple[str, ...]:
    """The comma-separated ``--regions`` list (blank items are skipped)."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise SpecError(f"--regions names no region; got {text!r}")
    return names


def _replay_plan(args: argparse.Namespace) -> ReplayPlan:
    """The parsed flags as the one run description every replay executes.

    ``cluster`` is a plan whose arrival source is ``--app``'s Poisson
    traffic at ``--rate``; ``regions`` the same at per-region ``--rates``
    on the federation, whose ``--policy`` is the routing policy.
    """
    parsed = {"fleet": _fleet_config(args), "pricing": _pricing(args)}
    if args.command == "replay":
        try:
            qos_mix = parse_qos_mix(args.qos_mix) if args.qos_mix else None
        except SpecError as error:
            raise SpecError(f"--qos-mix invalid: {error}") from None
        parsed.update(
            shift_hours=_numbers("--shift-hours", args.shift_hours),
            qos_mix=qos_mix,
            regions=_regions(args.regions) if args.regions else None,
            region_weights=(
                _numbers("--region-weights", args.region_weights)
                if args.region_weights
                else None
            ),
        )
    elif args.command == "cluster":
        parsed.update(rates=(args.rate,), duration_s=args.duration)
    else:
        parsed.update(
            regions=_regions(args.regions),
            rates=_numbers("--rates", args.rates),
            duration_s=args.duration,
            routing=args.policy,
        )
    if args.command != "cluster":
        parsed["latency_ms"] = args.latency
    # Every other plan field is the flag of the same name, as argparse
    # typed it — so a new field needs no line here to reach the plan.
    return ReplayPlan(
        **parsed,
        **{
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(ReplayPlan)
            if f.name not in parsed and hasattr(args, f.name)
        },
    )


def cmd_replay(args: argparse.Namespace) -> int:
    """``replay``, ``cluster`` and ``regions``: run the plan, print its summary."""
    plan = _replay_plan(args)
    run = plan.run()
    summary = run.summary
    if run.resumed:
        print(f"resumed from checkpoint {plan.checkpoint}")
    if plan.app is None:
        print(
            f"trace    : {plan.apps} apps x {len(summary.windows)} windows "
            f"({plan.window_hours:.0f} h), model {plan.arrival_model}, "
            f"scale {plan.scale:g}, seed {plan.seed}"
        )
        shifts = ",".join(f"{hour:g}" for hour in plan.shift_hours) or "none"
        print(f"policy   : {plan.fleet.policy.name}   shift hours : {shifts}")
    else:
        rates = ",".join(f"{rate:g}" for rate in plan.rates)
        print(
            f"source   : {plan.app} ({app_by_key(plan.app).name}), Poisson "
            f"{rates} req/s for {plan.duration_s:g} s, seed {plan.seed}"
        )
        print(f"policy   : {plan.fleet.policy.name}")
    if plan.qos_mix is not None:
        mix = ", ".join(
            f"{cls.name}={cls.arrival_weight:g}" for cls in plan.qos_mix
        )
        print(f"qos mix  : {mix}")
    if plan.workers is not None:
        checkpointed = ", checkpointed" if plan.checkpoint else ""
        print(
            f"engine   : sharded, {plan.workers} worker process(es){checkpointed}"
        )
    if run.served is not None:
        routed = "  ".join(
            f"{region}={count}" for region, count in run.served.items()
        )
        assigned = f" ({plan.assignment})" if plan.app is None else ""
        print(f"routing  : {plan.routing}{assigned}   served: {routed}")
    print()
    header = (
        f"{'window':>6s} {'start h':>8s} {'arrivals':>8s} {'done':>8s} "
        f"{'shed%':>6s} {'cold%':>6s} {'q p95 ms':>9s} {'GB-s':>9s} {'$':>10s}"
    )
    print(header)
    print("-" * len(header))
    for window in summary.windows:
        # Windows that completed nothing despite arrivals carry the
        # UNDEFINED_RATE sentinel (< 0) — print a dash, not a rate.
        cold = (
            f"{window.cold_start_rate:6.1%}" if window.cold_start_rate >= 0 else f"{'-':>6s}"
        )
        p95 = (
            f"{window.queue_p95_ms:9.2f}" if window.queue_p95_ms >= 0 else f"{'-':>9s}"
        )
        print(
            f"{window.index:6d} {window.start_s / 3600.0:8.1f} "
            f"{window.arrivals:8d} {window.completed:8d} "
            f"{window.shed_rate:6.1%} {cold} "
            f"{p95} {window.gb_seconds:9.1f} "
            f"{window.cost.total_cost:10.6f}"
        )
    print()
    print(f"arrivals           : {summary.arrivals:10d}")
    print(f"completed          : {summary.completed:10d}")
    print(f"shed               : {summary.shed:10d}")
    print(f"cold-start rate    : {summary.cold_start_rate:10.4f}")
    print(f"GB-seconds         : {summary.gb_seconds:10.1f}")
    print(f"total cost         : ${summary.cost.total_cost:.6f}")
    print(f"cost per 1k req    : ${summary.cost.per_1k_requests:.6f}")
    if summary.qos:
        print()
        qos_header = (
            f"{'class':10s} {'completed':>9s} {'late':>8s} {'late%':>6s} "
            f"{'dropped':>8s} {'utility':>12s}"
        )
        print(qos_header)
        print("-" * len(qos_header))
        for entry in summary.qos:
            print(
                f"{entry.qos_class:10s} {entry.completed:9d} "
                f"{entry.violations:8d} {entry.violation_rate:6.1%} "
                f"{entry.dropped:8d} {entry.utility:12.2f}"
            )
        print()
        print(f"total utility      : {summary.utility:10.2f}")
    if plan.journal:
        print()
        print(f"journal written to {plan.journal} (inspect with slimstart obs)")
    if run.phases is not None:
        print()
        header = f"{'phase':18s} {'seconds':>10s} {'req/s':>12s}"
        print(header)
        print("-" * len(header))
        for name, entry in run.phases.items():
            rate = entry.get("requests_per_s")
            rate_text = f"{rate:12.0f}" if rate is not None else f"{'-':>12s}"
            print(f"{name:18s} {entry['seconds']:10.4f} {rate_text}")
    return 0


def _render_obs_row(row: dict) -> str:
    """One journal row as an aligned ``kind app field=value...`` line."""
    rest = " ".join(
        f"{key}={row[key]}" for key in sorted(row) if key not in ("kind", "app")
    )
    return f"{row.get('kind', '?'):10s} {row.get('app', '-'):14s} {rest}"


def cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import query_rows, summarize_journal, tail_rows

    try:
        if args.obs_command == "query":
            for row in query_rows(
                args.journal,
                kind=args.kind,
                app=args.app,
                since=args.since,
                until=args.until,
            ):
                if args.field is not None:
                    if args.field not in row:
                        continue
                    value = row[args.field]
                    print(json.dumps(value) if args.json else value)
                elif args.json:
                    print(json.dumps(row, sort_keys=True))
                else:
                    print(_render_obs_row(row))
        elif args.obs_command == "tail":
            for row in tail_rows(args.journal, args.lines):
                if args.json:
                    print(json.dumps(row, sort_keys=True))
                else:
                    print(_render_obs_row(row))
        else:  # summarize
            summary = summarize_journal(args.journal)
            if args.json:
                print(json.dumps(summary, sort_keys=True, indent=2))
                return 0
            start = summary["start_s"]
            end = summary["end_s"]
            span = (
                f"{start:.0f}s .. {end:.0f}s" if start is not None else "empty"
            )
            print(f"journal  : {args.journal}")
            print(f"windows  : {summary['windows']}   span: {span}")
            print()
            header = (
                f"{'app':14s} {'arrivals':>9s} {'done':>9s} {'shed':>6s} "
                f"{'cold':>6s} {'cold%':>7s} {'q mean ms':>10s}"
            )
            print(header)
            print("-" * len(header))
            for name, app in summary["apps"].items():
                cold_rate = (
                    f"{app['cold_start_rate']:7.1%}"
                    if app["cold_start_rate"] >= 0
                    else f"{'-':>7s}"
                )
                queue_mean = (
                    f"{app['queue_mean_ms']:10.2f}"
                    if app["queue_mean_ms"] >= 0
                    else f"{'-':>10s}"
                )
                print(
                    f"{name:14s} {app['arrivals']:9d} {app['completed']:9d} "
                    f"{app['shed']:6d} {app['cold_starts']:6d} "
                    f"{cold_rate} {queue_mean}"
                )
            print()
            print(f"arrivals           : {summary['arrivals']:10d}")
            print(f"completed          : {summary['completed']:10d}")
            print(f"shed               : {summary['shed']:10d}")
            print(f"cold starts        : {summary['cold_starts']:10d}")
            print(f"scaling decisions  : {summary['scaling_decisions']:10d}")
            print(f"containers booted  : {summary['containers_booted']:10d}")
            print(f"GB-seconds         : {summary['gb_seconds']:10.1f}")
            print(f"trace spans        : {summary['spans']:10d}")
    except BrokenPipeError:
        # Downstream closed early (e.g. ``| head``): exit quietly like
        # any stream tool, parking stdout so interpreter shutdown does
        # not print a second, spurious broken-pipe complaint.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return 0


def _read_plan(path: str) -> DeferralPlan:
    """The plan ``report --plan-out`` wrote; a :class:`SpecError` naming
    ``path`` for anything else (the file comes from outside the program)."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as error:
        raise SpecError(f"plan {path} is unreadable ({error.strerror})") from None
    except UnicodeDecodeError:
        raise SpecError(f"plan {path} is not UTF-8") from None
    except json.JSONDecodeError as error:
        raise SpecError(f"plan {path} is not JSON at line {error.lineno}") from None
    if not isinstance(payload, dict):
        raise SpecError(f"plan {path} is not a JSON object")
    for key in ("app", "deferred_handler_imports", "deferred_library_edges"):
        if key not in payload:
            raise SpecError(f"plan {path} is missing key {key!r}")
    if not isinstance(payload["app"], str):
        raise SpecError(f"plan {path} key 'app' is not a string")
    deferred = []
    for key in ("deferred_handler_imports", "deferred_library_edges"):
        names = payload[key]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SpecError(f"plan {path} key {key!r} is not a list of strings")
        deferred.append(frozenset(names))
    try:
        return DeferralPlan(payload["app"], *deferred)
    except ValueError as error:
        raise SpecError(f"plan {path} is malformed ({error})") from None


def cmd_optimize(args: argparse.Namespace) -> int:
    plan = _read_plan(args.plan)
    tool = _build_tool(args)
    result = tool.optimize_workspace(args.workspace, plan, args.out)
    print(f"optimized workspace written to {result.workspace}")
    for deferred in result.handler_result.deferred:
        print(f"  handler: deferred {deferred.import_statement}")
    for file, statement in result.stub_result.commented_edges:
        print(f"  library: {file}: {statement} -> lazy")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _OneLineErrors(
        prog="slimstart",
        description="SlimStart reproduction: profile-guided cold-start optimization.",
    )
    parser.add_argument(
        "--cold-starts", type=int, default=500, help="requests per measurement run"
    )
    parser.add_argument(
        "--runs", type=int, default=5, help="measurement repetitions to average"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the benchmark applications")

    report = sub.add_parser("report", help="profile one app, print its summary")
    report.add_argument("--app", required=True, help="application key, e.g. R-SA")
    report.add_argument("--plan-out", help="write the deferral plan as JSON")

    cycle = sub.add_parser("cycle", help="full optimize cycle on one app")
    cycle.add_argument("--app", required=True, help="application key, e.g. R-GB")

    sub.add_parser("table2", help="regenerate Table II on the simulator")

    cluster = sub.add_parser(
        "cluster",
        help="replay traffic against a container fleet",
        epilog=(
            "Autoscaling: --policy picks when containers boot "
            "(per-request boots eagerly; target-utilization holds warm "
            "headroom via --target/--grace; panic-window detects bursts "
            "over --panic-window vs --stable-window and suspends "
            "scale-down while panicking; predictive learns per-window "
            "arrival counts via --forecaster ewma|holt-winters over "
            "--forecast-window seconds and pre-warms --prewarm-headroom "
            "times the forecast, --prewarm-lead seconds ahead); "
            "--price-gb-second and "
            "--cold-start-surcharge price the run in dollars. The report "
            "is replay's windowed summary, with a source line naming the "
            "app, rate and duration."
        ),
    )
    cluster.add_argument("--app", required=True, help="application key, e.g. R-SA")
    cluster.add_argument("--rate", type=_positive, default=5.0, help="arrivals per second")
    cluster.add_argument("--duration", type=_positive, default=600.0, help="seconds of traffic")
    _add_fleet_arguments(cluster, "--policy", max_containers=16)

    regions = sub.add_parser(
        "regions",
        help="replay multi-region traffic across federated fleets",
        epilog=(
            "Each region runs its own container fleet; a routing policy "
            "(round-robin, least-loaded, locality-biased with spillover, "
            "or probabilistic) picks the serving region per request, with "
            "failover away from regions that shed load. Each region draws "
            "its own Poisson traffic at its --rates value; the report is "
            "replay's windowed summary, whose routing line counts the "
            "requests routed to each region."
        ),
    )
    regions.add_argument("--app", required=True, help="application key, e.g. R-SA")
    regions.add_argument(
        "--regions",
        default="us-east,eu-west,ap-south",
        help="comma-separated region names",
    )
    regions.add_argument(
        "--rates",
        default="8,2,1",
        help="per-region arrivals per second (one value broadcasts to all)",
    )
    regions.add_argument("--duration", type=_positive, default=600.0, help="seconds of traffic")
    regions.add_argument(
        "--policy", choices=POLICY_NAMES, default="least-loaded"
    )
    regions.add_argument(
        "--latency", type=_non_negative, default=80.0, help="inter-region latency, ms"
    )
    regions.add_argument(
        "--spillover",
        type=int,
        default=None,
        help="locality policy: spill when origin load reaches this",
    )
    _add_fleet_arguments(regions, "--scaling-policy", max_containers=8)

    replay = sub.add_parser(
        "replay",
        help="stream a production-shaped trace through the simulators",
        epilog=(
            "Generates the paper's Fig. 3/Fig. 10 fleet shape (Zipf "
            "handler popularity, multi-entry apps, workload-shift events "
            "at --shift-hours), compiles it into a lazy globally "
            "time-ordered arrival stream (--arrival-model "
            "uniform|poisson|diurnal), and streams it through the "
            "cluster simulator — or a multi-region federation when "
            "--regions is given (--assignment maps each app to its "
            "origin region; --routing picks the serving region). "
            "Metrics fold into per-window accumulators at bounded "
            "memory, so multi-day, million-request replays fit in RAM; "
            "the report is the per-window time series where shift-event "
            "transients stay visible. Single-cluster replays scale out "
            "with --workers N (the trace shards by app hash across "
            "processes; merged results are bit-identical to one worker) "
            "and survive interruption with --checkpoint PATH (state is "
            "saved every window; rerunning the same command resumes). "
            "The two compose: --workers 4 --checkpoint PATH writes one "
            "checkpoint file per shard plus a manifest at PATH, and a "
            "killed run resumes every shard from its last window "
            "boundary — the worker count must match the manifest's. "
            "--qos-mix 'critical=1,standard=5,batch=4' tags every request "
            "with a QoS class (utility, deadline, penalties) and adds the "
            "per-class deadline-violation/utility report; with --regions, "
            "--routing probabilistic re-solves local/offload/drop "
            "probabilities from recent load to maximize that utility."
        ),
    )
    replay.add_argument("--apps", type=int, default=24, help="trace fleet size")
    replay.add_argument(
        "--duration-hours", type=_positive, default=96.0, help="trace length, hours"
    )
    replay.add_argument(
        "--window-hours", type=_positive, default=12.0, help="trace window size, hours"
    )
    replay.add_argument(
        "--requests-per-window",
        type=_positive,
        default=600.0,
        help="mean requests per app per window",
    )
    replay.add_argument(
        "--scale",
        type=_positive,
        default=1.0,
        help="multiply every window count (0.01 = 1%% volume smoke test)",
    )
    replay.add_argument(
        "--arrival-model",
        choices=ARRIVAL_MODEL_NAMES,
        default="uniform",
        help="intra-window arrival process",
    )
    replay.add_argument(
        "--shift-hours",
        default="48,72",
        help="comma-separated workload-shift event hours ('' for none)",
    )
    replay.add_argument(
        "--exec-ms", type=_non_negative, default=2.0, help="handler self-time per request"
    )
    replay.add_argument(
        "--qos-mix",
        default=None,
        help="comma-separated QoS classes with arrival weights, e.g. "
        "'critical=1,standard=5,batch=4' "
        f"(presets: {','.join(sorted(QOS_PRESETS))})",
    )
    replay.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the trace by app across N worker processes "
        "(single-cluster only; results are bit-identical to 1 worker)",
    )
    replay.add_argument(
        "--checkpoint",
        default=None,
        help="write a resumable checkpoint at every window boundary; "
        "if the file exists, resume the interrupted replay from it "
        "(with --workers N: one checkpoint per shard + a manifest here)",
    )
    replay.add_argument(
        "--regions",
        default=None,
        help="comma-separated region names; enables federated replay",
    )
    replay.add_argument(
        "--assignment",
        choices=("hash-affinity", "popularity-weighted"),
        default="hash-affinity",
        help="app -> origin-region assignment",
    )
    replay.add_argument(
        "--region-weights",
        default=None,
        help="popularity-weighted assignment: comma-separated region weights",
    )
    replay.add_argument(
        "--routing",
        choices=POLICY_NAMES,
        default="least-loaded",
        help="federated replay: routing policy",
    )
    replay.add_argument(
        "--latency", type=_non_negative, default=80.0, help="inter-region latency, ms"
    )
    replay.add_argument(
        "--spillover",
        type=int,
        default=None,
        help="locality routing: spill when origin load reaches this",
    )
    replay.add_argument(
        "--journal",
        default=None,
        help="append run telemetry (per-window app deltas with GB-seconds, "
        "boots and scaling-decision counts; scaling-regime changes, shed "
        "events, sampled spans) to this JSONL journal; inspect it with "
        "'slimstart obs'",
    )
    replay.add_argument(
        "--trace-sample",
        type=float,
        default=0.0,
        help="fraction of requests to journal as trace spans "
        "(0.01 = one in a hundred; needs --journal)",
    )
    replay.add_argument(
        "--progress",
        action="store_true",
        help="heartbeat a progress line to stderr at every window boundary",
    )
    replay.add_argument(
        "--profile",
        action="store_true",
        help="print the wall-clock phase breakdown (compile / event loop / "
        "checkpoint writes) after the replay; single-cluster or --regions, "
        "not --workers",
    )
    _add_fleet_arguments(replay, "--policy", max_containers=8)

    obs = sub.add_parser(
        "obs",
        help="query a journaled replay's run journal",
        epilog=(
            "Reads the append-only JSONL journal written by slimstart "
            "replay --journal PATH. Every subcommand stream-scans, so "
            "memory stays O(1) in the journal size: query filters rows "
            "(--kind/--app compose with the --since/--until replay-clock "
            "window; --field projects one field), tail shows the last "
            "rows, summarize aggregates per-app and run totals."
        ),
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_query = obs_sub.add_parser("query", help="filter journal rows, streamed")
    obs_query.add_argument("journal", help="journal file to scan")
    obs_query.add_argument(
        "--kind",
        choices=("window", "scale", "shed", "provision", "span"),
        default=None,
        help="only rows of this kind",
    )
    obs_query.add_argument("--app", default=None, help="only this app's rows")
    obs_query.add_argument(
        "--field",
        default=None,
        help="print just this field's value (rows lacking it are skipped)",
    )
    obs_query.add_argument(
        "--since",
        type=_non_negative,
        default=None,
        help="only rows at/after this replay-clock second (inclusive)",
    )
    obs_query.add_argument(
        "--until",
        type=_non_negative,
        default=None,
        help="only rows before this replay-clock second (exclusive)",
    )
    obs_query.add_argument(
        "--json", action="store_true", help="print raw JSON rows"
    )
    obs_tail = obs_sub.add_parser("tail", help="show the journal's last rows")
    obs_tail.add_argument("journal", help="journal file to scan")
    obs_tail.add_argument(
        "-n", "--lines", type=_count, default=10, help="rows to show"
    )
    obs_tail.add_argument(
        "--json", action="store_true", help="print raw JSON rows"
    )
    obs_summarize = obs_sub.add_parser(
        "summarize", help="aggregate per-app and run totals"
    )
    obs_summarize.add_argument("journal", help="journal file to scan")
    obs_summarize.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )

    optimize = sub.add_parser("optimize", help="apply a plan to a real workspace")
    optimize.add_argument("--workspace", required=True)
    optimize.add_argument("--plan", required=True, help="plan JSON file")
    optimize.add_argument("--out", required=True, help="destination workspace")
    return parser


def main(argv: list[str] | None = None) -> int:
    # The commands make no cyclic garbage that grows with their input
    # (tests/test_gc_contract.py), so the automatic collector's passes —
    # hundreds in table2 — would free nothing: run without them, and hand
    # the caller's setting back however the command ends.  The parser is
    # cyclic garbage once parsed; one young-generation pass frees it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        gc.collect(0)
        return _run(args)
    finally:
        if collecting:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    handlers = {
        "apps": cmd_apps,
        "report": cmd_report,
        "cycle": cmd_cycle,
        "table2": cmd_table2,
        "cluster": cmd_replay,
        "regions": cmd_replay,
        "replay": cmd_replay,
        "obs": cmd_obs,
        "optimize": cmd_optimize,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # The one place a library error becomes an exit status: bad flag
        # combinations the parser cannot see (e.g. a duration shorter
        # than one window) end in one line on stderr, not a traceback.
        print(f"slimstart {args.command}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
