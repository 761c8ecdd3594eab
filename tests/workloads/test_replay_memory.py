"""Bounded-memory regression: streaming replay is O(windows), not O(requests).

The tentpole promise of `repro.workloads.replay` + `run_stream` is that a
replay's resident footprint scales with the number of metric *windows*,
never with the number of *requests*.  This module replays >=100k requests
through `ClusterPlatform.run_stream` under `tracemalloc` (once, shared by
every assertion here) and pins that promise two ways: the absolute peak
stays far below what materializing the records would cost, and the
windowed accumulator's state is counted in windows.  A two-region
`RegionFederation.run_stream` is held to the same per-request budget.
"""

import tracemalloc
from dataclasses import dataclass

import pytest

from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import LeastLoadedPolicy, RegionFederation, RegionTopology
from repro.faas.replaydeploy import deploy_trace
from repro.faas.sim import SimPlatformConfig
from repro.metrics import WindowAccumulator, WindowedSummary
from repro.workloads.replay import HashAffinity, assign_regions, compile_trace
from repro.workloads.trace import TraceGenerator

#: >=100k requests: 10 apps x 10 windows x ~1050 requests/window.
TRACE = dict(
    app_count=10,
    duration_hours=10.0,
    window_hours=1.0,
    mean_requests_per_window=1050.0,
    shift_hours=(5.0,),
    seed=31,
)


@dataclass
class ReplayRun:
    platform: ClusterPlatform
    accumulator: WindowAccumulator
    summary: WindowedSummary
    total_requests: int
    peak_growth: int


@pytest.fixture(scope="module")
def replay_run() -> ReplayRun:
    trace = TraceGenerator(**TRACE).generate()
    total = sum(app.total_invocations() for app in trace.apps)
    platform = ClusterPlatform(
        config=SimPlatformConfig(record_traces=False),
        fleet=FleetConfig(max_containers=4, keep_alive_s=30.0),
        seed=9,
    )
    deploy_trace(platform, trace)
    accumulator = WindowAccumulator(window_s=3600.0)
    stream = compile_trace(trace, seed=7)

    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    summary = platform.run_stream(stream, accumulator)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return ReplayRun(
        platform=platform,
        accumulator=accumulator,
        summary=summary,
        total_requests=total,
        peak_growth=peak - baseline,
    )


@pytest.mark.slow
def test_100k_replay_peak_memory_is_bounded(replay_run):
    assert replay_run.total_requests >= 100_000  # the scale this test pins
    assert replay_run.summary.completed == replay_run.total_requests
    # Materializing would retain one InvocationRecord (~0.5 kB with its
    # strings) per request — >=50 MB for this trace.  The streamed replay
    # must stay far under that: the event heap holds only the causal
    # frontier, records fold into fixed-size windows, and nothing grows
    # per request.  12 MB is ~4x the observed peak (~3 MB), all of which
    # is the per-app one-window expansion buffer, and <= 120 bytes per
    # request — an order of magnitude below materialization.
    assert replay_run.peak_growth < 12 * 1024 * 1024, (
        f"peak grew {replay_run.peak_growth / 1e6:.1f} MB"
    )
    assert replay_run.peak_growth < replay_run.total_requests * 120


@pytest.mark.slow
def test_accumulator_state_is_per_window_not_per_request(replay_run):
    # One accumulator window per trace hour; each is fixed-size (counters
    # plus a 64-bucket histogram), so doubling the request volume cannot
    # change this count — only lengthening the trace can.
    assert replay_run.accumulator.window_count() == len(replay_run.summary.windows)
    assert len(replay_run.summary.windows) == 10


@pytest.mark.slow
def test_federated_replay_peak_memory_is_bounded():
    """The federation streams at the same per-request budget.

    Regions are advanced through ``drain_to`` and forwards land straight
    on their fleet, so a federated stream retains only what is on the
    wire (one tuple per undelivered forward) on top of the per-region
    causal frontiers — no routing decisions, no records.
    """
    trace = TraceGenerator(
        app_count=8,
        duration_hours=6.0,
        window_hours=1.0,
        mean_requests_per_window=1300.0,
        seed=35,
    ).generate()
    total = sum(app.total_invocations() for app in trace.apps)
    assert total >= 50_000
    regions = ["us", "eu"]
    federation = RegionFederation(
        RegionTopology.fully_connected(regions, default_ms=40.0),
        policy=LeastLoadedPolicy(),
        platform=SimPlatformConfig(record_traces=False),
        fleet=FleetConfig(max_containers=4, keep_alive_s=30.0),
        seed=9,
    )
    deploy_trace(federation, trace)
    stream = assign_regions(compile_trace(trace, seed=7), HashAffinity(regions))

    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    summary = federation.run_stream(stream, WindowAccumulator(window_s=3600.0))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    growth = peak - baseline

    assert summary.arrivals == summary.completed == total
    assert growth < total * 120, f"peak grew {growth / 1e6:.1f} MB"
    assert federation._deliveries == []
