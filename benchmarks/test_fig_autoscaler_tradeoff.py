"""Autoscaler figure — the cold-start-rate vs. $-cost frontier.

The paper's init-time savings are paid out once per cold start, and the
autoscaler policy decides *when* cold starts happen.  This benchmark
replays one identical seeded bursty schedule (short high-rate bursts
over a sparse base rate, with inter-burst gaps longer than the
keep-alive) under the three scaling policies and tabulates the frontier:

* ``per-request`` boots eagerly and retires on plain keep-alive — the
  cheapest fleet, but every burst after a gap pays a fresh round of
  cold starts.
* ``target-utilization`` holds warm headroom proportional to in-flight
  load, absorbing intra-burst ramp-ups with fewer boots.
* ``panic-window`` detects each burst on its short window, scales to the
  burst's demand, and suspends scale-down until the panic period ends —
  so the *next* burst finds a warm fleet.  Lowest cold-start rate,
  highest GB-second bill: the dollars buy latency.

Deterministic under fixed seeds: the whole table reproduces
bit-identically, which is also asserted.
"""

from typing import NamedTuple

from benchmarks.conftest import print_header
from repro.faas.autoscale import PanicWindow, PerRequest, TargetUtilization
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.sim import SimPlatformConfig
from repro.metrics import LatencySummary, PricingModel, WindowAccumulator, WindowedSummary
from repro.workloads.arrival import bursty_schedule

KEEP_ALIVE_S = 15.0
DURATION_S = 1800.0
#: Bursts of ~6 s every 60 s: the 54 s inter-burst gap exceeds the
#: keep-alive, so a policy that retires eagerly re-pays boots per burst.
BASE_RATE = 0.2
BURST_RATE = 12.0
PERIOD_S = 60.0
BURST_FRACTION = 0.1

POLICIES = (
    PerRequest(),
    TargetUtilization(target=0.6, scale_to_zero_grace_s=30.0),
    PanicWindow(target=0.6, stable_window_s=60.0, panic_window_s=6.0),
)
#: Price cold starts explicitly so the frontier is visible in one column.
PRICING = PricingModel(cold_start_surcharge=0.000005)


class Result(NamedTuple):
    """One policy's run: its priced summary and its tapped queueing delays."""

    summary: WindowedSummary
    queueing: LatencySummary

    @property
    def containers_spawned(self) -> int:
        return sum(window.boots for window in self.summary.windows)


def replay(cycles, policy):
    app = cycles.app("R-GB")
    platform = ClusterPlatform(
        config=SimPlatformConfig(
            cold_platform_ms=100.0,
            runtime_init_ms=30.0,
            warm_platform_ms=1.0,
            record_traces=False,
            jitter_sigma=0.05,
        ),
        fleet=FleetConfig(
            max_containers=64, keep_alive_s=KEEP_ALIVE_S, policy=policy
        ),
        seed=7,
    )
    platform.deploy(app.sim_config())
    schedule = bursty_schedule(
        app.mix,
        base_rate_per_s=BASE_RATE,
        burst_rate_per_s=BURST_RATE,
        period_s=PERIOD_S,
        burst_fraction=BURST_FRACTION,
        duration_s=DURATION_S,
        seed=11,
    )
    records = []
    summary = platform.run_stream(
        ((at, app.name, entry) for at, entry in schedule),
        WindowAccumulator(window_s=DURATION_S, pricing=PRICING),
        on_record=records.append,
    )
    return Result(summary, LatencySummary.from_values(r.queue_ms for r in records))


def sweep(cycles):
    return {policy.name: replay(cycles, policy) for policy in POLICIES}


def test_autoscaler_cold_start_cost_frontier(benchmark, cycles):
    results = benchmark.pedantic(sweep, args=(cycles,), rounds=1, iterations=1)

    print_header(
        "Autoscaler — cold-start rate vs. $-cost on one bursty schedule "
        f"({DURATION_S:.0f} s, bursts {BURST_RATE:.0f} req/s, "
        f"keep-alive {KEEP_ALIVE_S:.0f} s)"
    )
    print(
        f"{'policy':20s} {'completed':>9s} {'cold rate':>9s} {'queue p95 ms':>12s} "
        f"{'boots':>8s} {'GB-s':>8s} {'$ / 1k req':>10s}"
    )
    for name, result in results.items():
        stats = result.summary
        print(
            f"{name:20s} {stats.completed:9d} {stats.cold_start_rate:9.4f} "
            f"{result.queueing.p95_ms:12.2f} {result.containers_spawned:8d} "
            f"{stats.gb_seconds:8.1f} {stats.cost.per_1k_requests:10.6f}"
        )

    eager = results["per-request"].summary
    panic = results["panic-window"].summary
    target = results["target-utilization"].summary

    # Identical traffic in, identical traffic out: no policy sheds on an
    # unbounded queue, so the frontier compares like with like.
    assert eager.completed == panic.completed == target.completed
    assert eager.shed == panic.shed == target.shed == 0

    # The frontier: panic-window buys its lower cold-start rate with a
    # strictly larger GB-second bill than the eager baseline.
    assert panic.cold_start_rate < eager.cold_start_rate / 2
    assert panic.gb_seconds > eager.gb_seconds
    assert panic.cost.total_cost > eager.cost.total_cost

    # Suspending scale-down also removes the boot wait from the tail.
    assert (
        results["panic-window"].queueing.p95_ms
        < results["per-request"].queueing.p95_ms
    )

    # Target-utilization sits between the extremes on the cost axis.
    assert eager.gb_seconds <= target.gb_seconds <= panic.gb_seconds

    # The dollar view decomposes: compute + requests + surcharged boots.
    for result in results.values():
        cost = result.summary.cost
        assert cost.total_cost == (
            cost.compute_cost + cost.request_cost + cost.cold_start_cost
        )
        assert cost.cold_start_cost == (
            result.containers_spawned * PRICING.cold_start_surcharge
        )


def test_frontier_is_deterministic(cycles):
    one = sweep(cycles)
    two = sweep(cycles)
    assert one == two  # frozen dataclasses: exact float equality
