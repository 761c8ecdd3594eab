"""The repository's benchmark: ``python bench/run.py``.

Runs the four workloads of :mod:`bench.workloads` through the shipped
CLI in cold subprocesses — one invocation at a time, a closed loop with
one client — prints every end-to-end metric by name, checks every
invocation's output, and makes a separate traced in-process run per
workload for the per-layer metrics (:mod:`bench.traced`).

    python bench/run.py                      # everything, seed 42
    python bench/run.py --seed 43            # another seed: no digests
    python bench/run.py --quick              # smoke: 1 rep at 5 % volume
    python bench/run.py --update-expected    # re-pin bench/expected.json
    python bench/run.py --workload replay_warm --seed 7 --seconds 15 --trace 0

The last form is what the PR driver calls: one workload, tracing off
(end-to-end metrics) or on (per-layer metrics).  Whatever the form, the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro" / "cli.py").is_file():
    # A directory holding only the benchmark has nothing to measure.
    sys.exit(f"bench/run.py: no program to benchmark under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench.calibrate import REFERENCE_PROBE_S, bracket, host_speed  # noqa: E402
from bench.invoke import SRC, Invocation, pin_to_one_cpu, run_cli  # noqa: E402
from bench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from bench.traced import TracedRun, trace_workload  # noqa: E402
from bench.workloads import (  # noqa: E402
    BY_NAME,
    DEFAULT_SEED,
    WORKLOADS,
    Workload,
    check_output,
    commands,
)

EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: ``run_seconds`` of BENCHMARK.json: timed invocations of a workload
#: repeat until this much wall time has been measured.
DEFAULT_SECONDS = 15
MIN_TIMED_REPS = 2
SETUP_REPS = 5


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def spread(values: list[float]) -> dict:
    """``n``, median, quartiles and extremes of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "median": statistics.median(ordered),
        "q1": q1, "q3": q3, "min": ordered[0], "max": ordered[-1],
    }


@dataclass
class Measured:
    """One workload's cold invocations and what was wrong with them."""

    workload: Workload
    timed_words: list[str]
    setup_words: list[str]
    timed: list[Invocation] = field(default_factory=list)
    setup: list[Invocation] = field(default_factory=list)
    #: Probe seconds by bracket number: a bracket between two of this
    #: workload's invocations counts once.
    brackets: dict[int, list[float]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced: TracedRun | None = None

    def timed_seconds(self) -> float:
        return sum(result.wall_s for result in self.timed)

    @property
    def probes(self) -> list[float]:
        return [value for values in self.brackets.values() for value in values]

    def speed(self) -> float:
        """Host speed around this workload's invocations (1.0 = reference)."""
        return host_speed(self.probes)

    def units(self, result: Invocation) -> int:
        return check_output(self.workload, result.stdout)[0]

    def judge(self, expected: dict | None) -> None:
        """Count failed operations: one operation is one CLI invocation."""
        for kind, results in (("timed", self.timed), ("set-up", self.setup)):
            for index, result in enumerate(results):
                problems = result.problems()
                if kind == "timed" or self.workload.is_replay:
                    problems += check_output(self.workload, result.stdout)[1]
                if result.stdout != results[0].stdout:
                    problems.append("stdout differs from the first repetition's")
                if kind == "timed" and expected is not None:
                    if digest(result.stdout) != expected.get("sha256"):
                        problems.append("stdout SHA-256 differs from bench/expected.json")
                    elif self.units(result) != expected.get("units"):
                        problems.append("work units differ from bench/expected.json")
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.failures.append(
                        f"{self.workload.name} {kind} #{index}: {'; '.join(problems)}"
                    )
        if self.traced is not None:
            self.attempted += len(self.traced.invocations) + 1
            if self.traced.problems:
                self.failed += 1
                self.failures += [
                    f"{self.workload.name} traced: {problem}"
                    for problem in self.traced.problems
                ]

    @functools.cached_property
    def end_to_end(self) -> dict[str, dict]:
        """Raw samples' spread plus the value at reference host speed.

        Read only once the measurements are in.
        """
        speed = self.speed()
        samples = {
            "wall_s": ([r.wall_s for r in self.timed], speed),
            "cpu_s": ([r.cpu_s for r in self.timed], speed),
            "work_per_s": ([self.units(r) / r.wall_s for r in self.timed], 1.0 / speed),
            "peak_rss_mb": ([r.peak_rss_mb for r in self.timed], 1.0),
            "setup_s": ([r.wall_s for r in self.setup], speed),
        }
        out = {}
        for name, unit, _, bound in END_TO_END:
            values, factor = samples[name]
            out[name] = {"unit": unit, "bound": bound, **spread(values)}
            out[name]["value"] = out[name]["median"] * factor
        return out


def measure(
    runs: list[Measured], seconds: float, scratch: Path, quick: bool
) -> None:
    """Cold invocations in alternating workload order, probes in between.

    Each round gives every unfinished workload one set-up and one timed
    invocation (at least ``SETUP_REPS`` set-ups; timed ones until
    ``seconds`` are measured), and successive rounds walk the workloads
    in opposite directions, so no workload's repetitions sit back to back
    inside one phase of the host's speed drift.  Every invocation is bracketed by
    probe runs; a bracket counts for the workloads on both its sides.
    """
    setup_reps, min_reps = (1, 1) if quick else (SETUP_REPS, MIN_TIMED_REPS)

    def wants_timed(run: Measured) -> bool:
        if quick:
            return not run.timed
        return len(run.timed) < min_reps or run.timed_seconds() < seconds

    brackets = [bracket()]

    def invoke(run: Measured, words: list[str], into: list[Invocation]) -> None:
        into.append(run_cli(words, scratch))
        brackets.append(bracket())
        for number in (len(brackets) - 2, len(brackets) - 1):
            run.brackets[number] = brackets[number]

    def unfinished(run: Measured) -> bool:
        return len(run.setup) < setup_reps or wants_timed(run)

    pending, forward = list(runs), True
    while pending:
        for run in pending if forward else reversed(pending):
            # One set-up beside every timed invocation: same span of time,
            # same probes, and the short set-up command gets more samples.
            invoke(run, run.setup_words, run.setup)
            if wants_timed(run):
                invoke(run, run.timed_words, run.timed)
        pending = [run for run in pending if unfinished(run)]
        forward = not forward


# -- reporting ----------------------------------------------------------------


def print_end_to_end(run: Measured) -> None:
    print(f"\n{run.workload.name}: slimstart {' '.join(run.timed_words)}")
    print(
        f"  host speed {run.speed():.3f}x reference "
        f"({len(run.probes)} probes)"
    )
    header = (
        f"  {'metric':12s} {'unit':>5s} {'n':>3s} {'value':>12s} {'raw median':>12s} "
        f"{'q1':>12s} {'q3':>12s} {'min':>12s} {'max':>12s}"
    )
    print(header)
    for name, stats in run.end_to_end.items():
        print(
            f"  {name:12s} {stats['unit']:>5s} {stats['n']:3d} {stats['value']:12.4f} "
            f"{stats['median']:12.4f} {stats['q1']:12.4f} {stats['q3']:12.4f} "
            f"{stats['min']:12.4f} {stats['max']:12.4f}"
        )
        share = (stats["q3"] - stats["q1"]) / stats["median"]
        if share > stats["bound"]:
            print(
                f"  WARN {name}: interquartile spread {share:.1%} of the median "
                f"exceeds its bound {stats['bound']:.0%}; a comparison on this "
                "metric is unresolved"
            )
    fail_share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_share':12s} {'ratio':>5s} {run.attempted:3d} {fail_share:12.4f}")


def print_per_layer(run: Measured) -> None:
    traced = run.traced
    print(f"\n{run.workload.name}: traced run, per layer")
    for layer in PER_LAYER:
        if run.workload.name not in layer.workloads:
            continue
        value = traced.metrics.get(layer.name)
        shown = "null (see warnings)" if value is None else f"{value:.6g}"
        print(f"  {layer.name:50s} {shown:>14s} {layer.unit}")
    for warning in traced.warnings:
        print(f"  WARN {warning}")


def result_line(runs: list[Measured], end_to_end: bool, per_layer: bool) -> dict:
    """The driver's result object.

    For one workload it carries every listed per-layer metric: one off
    the workload's path — or whose entry point is missing — reads 0,
    because each must be a number (``trace-<workload>.json`` keeps the
    distinction as ``null``).  For several workloads names are prefixed
    and off-path layers left out.
    """
    metrics = {}
    for run in runs:
        prefix = f"{run.workload.name}." if len(runs) > 1 else ""
        if end_to_end:
            for name, stats in run.end_to_end.items():
                metrics[prefix + name] = {"value": stats["value"], "unit": stats["unit"]}
        if per_layer:
            for layer in PER_LAYER:
                if prefix and run.workload.name not in layer.workloads:
                    continue
                value = run.traced.metrics.get(layer.name)
                metrics[prefix + layer.name] = {"value": value or 0, "unit": layer.unit}
    failed = sum(run.failed for run in runs)
    return {
        "correct": failed == 0,
        "attempted": sum(run.attempted for run in runs),
        "failed": failed,
        "metrics": metrics,
    }


def host(cpus: set[int]) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(cpus),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def write_results(runs: list[Measured], args, cpus: set[int], out: Path) -> None:
    payload = {
        "host": host(cpus),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "reference_probe_s": REFERENCE_PROBE_S,
        "workloads": {},
    }
    for run in runs:
        entry = payload["workloads"][run.workload.name] = {
            "command": run.timed_words,
            "setup_command": run.setup_words,
            "attempted": run.attempted,
            "failed": run.failed,
            "failures": run.failures,
        }
        if run.timed:
            entry["host_speed_x"] = run.speed()
            entry["units"] = run.units(run.timed[0])
            entry["end_to_end"] = run.end_to_end
            entry["samples"] = {
                "timed_wall_s": [result.wall_s for result in run.timed],
                "timed_cpu_s": [result.cpu_s for result in run.timed],
                "setup_wall_s": [result.wall_s for result in run.setup],
                "probe_s": run.probes,
            }
        if run.traced is not None:
            entry["per_layer"] = run.traced.metrics
            entry["on_cli_path_s"] = run.traced.on_path
            (out / f"trace-{run.workload.name}.json").write_text(
                json.dumps(run.traced.document(), indent=1) + "\n"
            )
    (out / "results.json").write_text(json.dumps(payload, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="wall time of timed invocations to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: traced run only (default: both)")
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                        help="where results.json and trace-<workload>.json go")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 rep, 5%% volume, digests skipped")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite bench/expected.json from this run (seed 42)")
    args = parser.parse_args(argv)
    if args.update_expected and (
        args.quick or args.seed != DEFAULT_SEED or args.workload or args.trace == 1
    ):
        parser.error("--update-expected pins all four workloads at the default seed")

    end_to_end, per_layer = args.trace != 1, args.trace != 0
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    scratch = out / "scratch"
    # Timed invocations run on warm bytecode.
    compileall.compile_dir(str(SRC), quiet=1)
    cpus = pin_to_one_cpu()

    selected = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    runs = [
        Measured(workload, *commands(workload, args.seed, args.quick))
        for workload in selected
    ]
    if end_to_end:
        measure(runs, args.seconds, scratch, args.quick)
    if args.update_expected:
        pinned = {
            run.workload.name: {
                "sha256": digest(run.timed[0].stdout),
                "units": run.units(run.timed[0]),
            }
            for run in runs
        }
        EXPECTED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    if per_layer:
        for run in runs:
            run.traced = trace_workload(
                run.workload, run.timed_words, scratch, cpus, args.quick
            )

    expected = json.loads(EXPECTED_PATH.read_text())
    for run in runs:
        # table2 takes no seed, so its digest holds under every --seed.
        pinned = not args.quick and (
            args.seed == DEFAULT_SEED or not run.workload.is_replay
        )
        # A workload the file does not pin fails every digest check.
        run.judge(expected.get(run.workload.name, {}) if pinned else None)

    print(f"host: {host(cpus)}  seed: {args.seed}")
    for run in runs:
        if end_to_end:
            print_end_to_end(run)
        if per_layer:
            print_per_layer(run)
    for run in runs:
        for failure in run.failures:
            print(f"FAIL {failure}")
    write_results(runs, args, cpus, out)
    shutil.rmtree(scratch, ignore_errors=True)
    line = result_line(runs, end_to_end, per_layer)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
