"""Bounded-memory regression: streaming replay is O(windows), not O(requests).

The tentpole promise of `repro.workloads.replay` + `run_stream` is that a
replay's resident footprint scales with the number of metric *windows*,
never with the number of *requests*.  This module replays one trace shape
at two lengths under `tracemalloc` — a four-app cluster for 2 and 4 hours
(~5.9k and ~11.8k requests) and a four-app, two-region federation for 1
and 2 hours (~5k and ~10k) — and pins that promise two ways: the longer
run's peak is under 120 bytes per request, and it exceeds the shorter
run's by under 120 bytes per extra request.  A replay that keeps a record
per completion fails both bounds; one that keeps a bare tuple of the
completion's fields (~115 bytes a request) fails the first.

``slimstart cluster`` and ``slimstart regions`` are ``ReplayPlan`` runs
with a Poisson arrival source; the same two bounds hold for a plan of
each at two request counts ten times apart (~1.2k and ~12k requests).
"""

import tracemalloc

import pytest

from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import LeastLoadedPolicy, RegionFederation, RegionTopology
from repro.faas.replaydeploy import deploy_trace
from repro.faas.sim import SimPlatformConfig
from repro.metrics import WindowAccumulator
from repro.workloads.replay import HashAffinity, assign_regions, compile_trace
from repro.workloads.replayplan import ReplayPlan
from repro.workloads.trace import TraceGenerator

#: Bytes a replay may hold per request: an order of magnitude below one
#: materialized ``InvocationRecord`` (~0.5 kB with its strings).
PER_REQUEST = 120


def traced_replay(engine, stream, accumulator):
    """``(peak growth in bytes, summary)`` of one ``run_stream``."""
    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    summary = engine.run_stream(stream, accumulator)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - baseline, summary


def cluster_replay(hours):
    trace = TraceGenerator(
        app_count=4, duration_hours=hours, window_hours=1.0,
        mean_requests_per_window=1050.0, shift_hours=(1.0,), seed=31,
    ).generate()
    platform = ClusterPlatform(
        config=SimPlatformConfig(record_traces=False),
        fleet=FleetConfig(max_containers=4, keep_alive_s=30.0),
        seed=9,
    )
    deploy_trace(platform, trace)
    accumulator = WindowAccumulator(window_s=3600.0)
    growth, summary = traced_replay(platform, compile_trace(trace, seed=7), accumulator)
    # One fixed-size accumulator window per trace hour, whatever the volume.
    assert accumulator.window_count() == len(summary.windows) == hours
    return growth, summary


def federated_replay(hours):
    """Regions drain behind a heap-head peek and forwards land straight on
    their fleet, so a federated stream retains only what is on the wire
    (one tuple per undelivered forward) on top of the per-region causal
    frontiers — no routing decisions, no records."""
    trace = TraceGenerator(
        app_count=4, duration_hours=hours, window_hours=1.0,
        mean_requests_per_window=1300.0, seed=35,
    ).generate()
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
    growth, summary = traced_replay(federation, stream, WindowAccumulator(window_s=3600.0))
    assert federation._deliveries == []
    return growth, summary


@pytest.mark.slow
@pytest.mark.parametrize(
    "replay, hours",
    [(cluster_replay, (2, 4)), (federated_replay, (1, 2))],
    ids=["cluster", "federation"],
)
def test_peak_memory_grows_with_windows_not_requests(replay, hours):
    (short, short_summary), (long, long_summary) = map(replay, hours)
    assert short_summary.arrivals == short_summary.completed > 4_000
    assert long_summary.arrivals == long_summary.completed > 9_000
    assert long < long_summary.completed * PER_REQUEST, (
        f"peak grew {long / 1e6:.2f} MB for {long_summary.completed} requests"
    )
    extra = long_summary.completed - short_summary.completed
    assert long - short < extra * PER_REQUEST, (
        f"{(long - short) / extra:.0f} bytes per extra request"
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "topology",
    [dict(rates=(5.0,)), dict(regions=("us", "eu"), rates=(2.5,))],
    ids=["cluster-plan", "regions-plan"],
)
def test_poisson_plan_memory_grows_with_windows_not_requests(topology):
    def traced_plan(duration_s):
        plan = ReplayPlan(app="R-SA", duration_s=duration_s, **topology)
        plan.validate()  # instantiates the catalog app, which the run reuses
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        summary = plan.run().summary
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert summary.arrivals == summary.completed
        assert len(summary.windows) == 1
        return peak - baseline, summary

    (short, short_summary), (long, long_summary) = map(traced_plan, (240.0, 2400.0))
    assert short_summary.completed > 1_000
    assert long_summary.completed > 10 * short_summary.completed * 0.9
    assert long < long_summary.completed * PER_REQUEST, (
        f"peak grew {long / 1e6:.2f} MB for {long_summary.completed} requests"
    )
    extra = long_summary.completed - short_summary.completed
    assert long - short < extra * PER_REQUEST, (
        f"{(long - short) / extra:.0f} bytes per extra request"
    )
