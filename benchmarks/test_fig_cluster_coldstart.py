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

from benchmarks.conftest import print_header
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.sim import SimPlatformConfig
from repro.metrics import WindowAccumulator
from repro.workloads.arrival import poisson_schedule

KEEP_ALIVE_S = 120.0
DURATION_S = 3600.0
RATES_PER_S = (0.002, 0.01, 0.05, 0.5, 5.0, 25.0)


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
        platform.run_stream(
            ((at, app.name, entry) for at, entry in schedule),
            WindowAccumulator(window_s=DURATION_S),
            on_record=records.append,
        )
        results.append(platform.fleet_stats(app.name, records))
    return results


def test_cluster_cold_start_rate_vs_offered_load(benchmark, cycles):
    results = benchmark.pedantic(sweep, args=(cycles,), rounds=1, iterations=1)

    print_header(
        "Cluster — cold-start rate vs. offered load "
        f"(keep-alive {KEEP_ALIVE_S:.0f} s, {DURATION_S:.0f} s of traffic)"
    )
    print(
        f"{'offered req/s':>13s} {'completed':>9s} {'cold rate':>9s} "
        f"{'peak ctr':>8s} {'queue p99 ms':>12s} {'ctr-seconds':>11s}"
    )
    for stats in results:
        bar = "#" * int(stats.cold_start_rate * 60)
        print(
            f"{stats.offered_load.per_second:13.3f} {stats.completed:9d} "
            f"{stats.cold_start_rate:9.3f} {stats.peak_containers:8d} "
            f"{stats.queueing.p99_ms:12.2f} {stats.container_seconds:11.1f} {bar}"
        )

    rates = [stats.cold_start_rate for stats in results]
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
    # of cold starts falls.
    assert results[-1].container_seconds > results[0].container_seconds
