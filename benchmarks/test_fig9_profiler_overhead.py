"""Fig. 9 — runtime overhead of the SLIMSTART profiler.

Measures really-executing applications with and without the sampling
profiler attached.  Paper: most applications stay within ~10 % overhead.

This is the one experiment that must run on the real testbed (overhead of
a real sampler cannot be simulated), so it uses a representative subset of
the suite at reduced cost scale.
"""

import statistics
import time

import pytest

from benchmarks.conftest import print_header
from repro.apps import benchmark_apps
from repro.core.profiler import ThreadSampler
from repro.faas.local import LocalPlatform

APPS = ("R-GB", "R-SA", "FWB-CML", "R-FC", "FWB-UP", "FWB-JS")
INVOCATIONS = 30
SCALE = 0.02
#: Unprofiled / profiled measurement pairs per app.  One pair flips on a
#: shared box (a single R-SA ratio read 51 % once and -14 % the next run);
#: the median of several alternating pairs is what the bounds judge.
ROUNDS = 5


def measure_app(app, deployment, profiled: bool) -> float:
    platform = LocalPlatform()
    platform.deploy(deployment)
    entry = app.entries[0].name
    sampler = ThreadSampler(interval_ms=5.0) if profiled else None
    if sampler:
        sampler.start()
    start = time.perf_counter()
    platform.invoke(app.name, entry)  # cold
    for _ in range(INVOCATIONS - 1):
        platform.invoke(app.name, entry)
    elapsed = time.perf_counter() - start
    if sampler:
        sampler.stop()
    return elapsed


def run_overhead_study(tmp_base):
    """Per app, the median profiled / unprofiled ratio over ``ROUNDS`` pairs.

    Both sides of a pair cold-start the same workspace, and the side that
    runs first alternates from pair to pair, so drift in the machine's
    load lands on both sides alike.
    """
    ratios = {}
    for app in benchmark_apps(APPS):
        deployment = app.build_real_workspace(tmp_base / app.name, scale=SCALE)
        pairs = []
        for round_index in range(ROUNDS):
            order = (False, True) if round_index % 2 == 0 else (True, False)
            elapsed = {side: measure_app(app, deployment, side) for side in order}
            pairs.append(elapsed[True] / elapsed[False])
        ratios[app.key] = statistics.median(pairs)
    return ratios


def test_fig9_profiler_overhead(benchmark, tmp_path):
    ratios = benchmark.pedantic(
        run_overhead_study, args=(tmp_path,), rounds=1, iterations=1
    )

    print_header("Fig. 9 — profiler runtime overhead (real execution)")
    print(f"{'App':10s} {'overhead':>9s}")
    for key, ratio in ratios.items():
        print(f"{key:10s} {ratio - 1.0:8.1%}")
    print(f"\nmax overhead: {max(ratios.values()) - 1.0:.1%} (paper: <= ~10 %)")

    # Sampling keeps overhead modest on every app.  Real-machine noise on
    # a shared box warrants a generous bound; the paper's claim is <=10 %.
    assert all(ratio < 1.25 for ratio in ratios.values())
    median = sorted(ratios.values())[len(ratios) // 2]
    assert median < 1.15
