"""Cluster figure — cold-start rate and queueing vs. offered load.

The paper's motivation (init time dominates cold-start latency) matters in
production exactly as often as cold starts happen.  This benchmark sweeps
Poisson offered load against a keep-alive container fleet and reproduces
the canonical fleet curve: sparse traffic outlives every keep-alive and
pays a cold start per request, while dense traffic keeps the fleet warm
and amortizes boots across thousands of invocations — which is why the
per-cold-start init savings of the optimizer compound with traffic, not
against it.
"""

from typing import NamedTuple

from benchmarks.conftest import print_header
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.sim import SimPlatformConfig
from repro.metrics import LatencySummary, WindowAccumulator, WindowedSummary
from repro.workloads.arrival import poisson_schedule

KEEP_ALIVE_S = 120.0
DURATION_S = 3600.0
RATES_PER_S = (0.002, 0.01, 0.05, 0.5, 5.0, 25.0)


class Point(NamedTuple):
    """One offered load: the run's summary and its tapped queueing delays."""

    offered_per_s: float  # arrivals / DURATION_S
    summary: WindowedSummary
    queueing: LatencySummary


def sweep(cycles):
    app = cycles.app("R-GB")
    results = []
    for rate in RATES_PER_S:
        platform = ClusterPlatform(
            config=SimPlatformConfig(
                cold_platform_ms=100.0,
                runtime_init_ms=30.0,
                warm_platform_ms=1.0,
                record_traces=False,
                jitter_sigma=0.05,
            ),
            fleet=FleetConfig(max_containers=64, keep_alive_s=KEEP_ALIVE_S),
            seed=7,
        )
        platform.deploy(app.sim_config())
        schedule = poisson_schedule(
            app.mix, rate_per_s=rate, duration_s=DURATION_S, seed=11
        )
        records = []
        summary = platform.run_stream(
            ((at, app.name, entry) for at, entry in schedule),
            WindowAccumulator(window_s=DURATION_S),
            on_record=records.append,
        )
        queueing = LatencySummary.from_values(record.queue_ms for record in records)
        results.append(Point(len(schedule) / DURATION_S, summary, queueing))
    return results


def test_cluster_cold_start_rate_vs_offered_load(benchmark, cycles):
    results = benchmark.pedantic(sweep, args=(cycles,), rounds=1, iterations=1)

    print_header(
        "Cluster — cold-start rate vs. offered load "
        f"(keep-alive {KEEP_ALIVE_S:.0f} s, {DURATION_S:.0f} s of traffic)"
    )
    print(
        f"{'offered req/s':>13s} {'completed':>9s} {'cold rate':>9s} "
        f"{'queue p99 ms':>12s} {'GB-seconds':>11s}"
    )
    for point in results:
        stats = point.summary
        bar = "#" * int(stats.cold_start_rate * 60)
        print(
            f"{point.offered_per_s:13.3f} {stats.completed:9d} "
            f"{stats.cold_start_rate:9.3f} {point.queueing.p99_ms:12.2f} "
            f"{stats.gb_seconds:11.1f} {bar}"
        )

    rates = [point.summary.cold_start_rate for point in results]
    # Sparse traffic (mean gap >> keep-alive) cold-starts most requests;
    # dense traffic amortizes boots away by orders of magnitude.
    assert rates[0] > 0.5
    assert rates[-1] < 0.01
    assert rates[0] > 100 * rates[-1]
    # The curve is monotone non-increasing across the sweep (small jitter
    # tolerance: adjacent points may tie).
    for sparse, dense in zip(rates, rates[1:]):
        assert dense <= sparse + 0.02
    # Busier fleets provision more container-seconds even as the *rate*
    # of cold starts falls.  With no deferral plan every container of the
    # app holds the same memory, so GB-seconds are container-seconds
    # times one constant.
    assert results[-1].summary.gb_seconds > results[0].summary.gb_seconds
