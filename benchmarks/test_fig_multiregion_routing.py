"""Multi-region figure — routing policy comparison on identical traffic.

One hot region (bursty overload) and two quiet ones replay the *same*
region-tagged schedule under each routing policy.  The table contrasts
what each policy trades: round-robin equalizes load but forwards two
thirds of traffic over the WAN; locality keeps requests home and
concentrates queueing in the hot region; least-loaded shifts the hot
region's bursts onto idle remote fleets, buying back queueing delay at
the price of network hops.  Cold-start rate and p95 queueing delay per
region are the quantities the single-cluster figure
(``test_fig_cluster_coldstart``) reports, now split by region —
deterministic under the fixed seed.
"""

from typing import NamedTuple

from benchmarks.conftest import print_header
from repro.faas.cluster import FleetConfig
from repro.faas.region import (
    LeastLoadedPolicy,
    LocalityPolicy,
    RegionFederation,
    RegionTopology,
    RoundRobinPolicy,
)
from repro.faas.sim import SimPlatformConfig
from repro.faas.events import InvocationRecord
from repro.metrics import LatencySummary, WindowAccumulator, WindowedSummary, mean
from repro.workloads.arrival import (
    bursty_schedule,
    merge_tagged_schedules,
    poisson_schedule,
)

REGIONS = ("us-east", "eu-west", "ap-south")
LATENCY_MS = 80.0
DURATION_S = 360.0
SEED = 7

POLICIES = (
    ("round-robin", RoundRobinPolicy),
    ("least-loaded", LeastLoadedPolicy),
    ("locality", lambda: LocalityPolicy(spillover_load=48)),
)


def make_schedule(app):
    """One hot bursty region, two quiet Poisson regions — shared by all
    policies so the comparison is apples-to-apples.  The burst rate
    (~200/s against ~175/s of single-region service capacity) overloads
    the hot region alone but not the federation."""
    hot = bursty_schedule(
        app.mix,
        base_rate_per_s=2.0,
        burst_rate_per_s=200.0,
        period_s=120.0,
        burst_fraction=0.2,
        duration_s=DURATION_S,
        seed=11,
    )
    quiet_eu = poisson_schedule(app.mix, rate_per_s=1.5, duration_s=DURATION_S, seed=12)
    quiet_ap = poisson_schedule(app.mix, rate_per_s=0.8, duration_s=DURATION_S, seed=13)
    return list(merge_tagged_schedules(
        [("us-east", hot), ("eu-west", quiet_eu), ("ap-south", quiet_ap)]
    ))


class Run(NamedTuple):
    """One policy's replay: its summary, per-region records, routed
    counts, and routing decisions."""

    summary: WindowedSummary
    records: dict[str, list[InvocationRecord]]
    served: dict[str, int]
    routes: list[tuple[str, str, float]]

    def local_fraction(self) -> float:
        """Share of requests served in their origin region."""
        return sum(origin == region for origin, region, _ in self.routes) / len(
            self.routes
        )

    def queueing(self, region: str) -> LatencySummary:
        return LatencySummary.from_values(r.queue_ms for r in self.records[region])


def run_policy(app, schedule, policy_factory):
    federation = RegionFederation(
        RegionTopology.fully_connected(REGIONS, default_ms=LATENCY_MS),
        policy=policy_factory(),
        platform=SimPlatformConfig(
            cold_platform_ms=100.0,
            runtime_init_ms=30.0,
            warm_platform_ms=1.0,
            record_traces=False,
            jitter_sigma=0.05,
        ),
        fleet=FleetConfig(max_containers=3, keep_alive_s=60.0, queue_capacity=64),
        seed=SEED,
    )
    federation.deploy(app.sim_config())
    records = {region: [] for region in REGIONS}
    routes = []
    summary = federation.run_stream(
        ((at, app.name, entry, origin) for at, entry, origin in schedule),
        WindowAccumulator(window_s=DURATION_S),
        on_record=lambda region, record: records[region].append(record),
        on_route=routes.append,
    )
    return Run(summary, records, federation.served_counts(app.name), routes)


def sweep(cycles):
    app = cycles.app("R-GB")
    schedule = make_schedule(app)
    return schedule, {
        name: run_policy(app, schedule, factory) for name, factory in POLICIES
    }


def test_multiregion_routing_policy_comparison(benchmark, cycles):
    schedule, runs = benchmark.pedantic(sweep, args=(cycles,), rounds=1, iterations=1)

    print_header(
        "Multi-region — routing policies on identical traffic "
        f"({len(schedule)} arrivals, {LATENCY_MS:.0f} ms inter-region RTT/2)"
    )
    print(
        f"{'policy':14s} {'region':10s} {'routed':>7s} {'served':>7s} "
        f"{'cold rate':>9s} {'queue p95 ms':>12s} {'local %':>8s} "
        f"{'net mean ms':>11s}"
    )
    for name, run in runs.items():
        for index, region in enumerate(REGIONS):
            records = run.records[region]
            cold_rate = sum(record.cold for record in records) / len(records)
            tail = (
                f"{run.local_fraction():8.1%} "
                f"{mean([network_ms for _, _, network_ms in run.routes]):11.2f}"
                if index == 0
                else " " * 20
            )
            print(
                f"{name if index == 0 else '':14s} {region:10s} "
                f"{run.served[region]:7d} {len(records):7d} {cold_rate:9.3f} "
                f"{run.queueing(region).p95_ms:12.2f} {tail}"
            )

    # Every arrival is routed and accounted for, under every policy.
    for name, run in runs.items():
        total = run.summary.completed + run.summary.shed
        assert total == len(schedule), name

    # Round-robin spreads service evenly regardless of origin...
    rr_counts = runs["round-robin"].served
    assert max(rr_counts.values()) - min(rr_counts.values()) <= 1
    # ...which costs it locality; locality-biased routing keeps traffic home.
    local = {name: run.local_fraction() for name, run in runs.items()}
    assert local["locality"] > 0.85
    assert local["locality"] > local["round-robin"]
    assert local["round-robin"] < 0.40

    # Least-loaded drains the hot region's bursts into remote capacity:
    # its hot-region p95 queueing beats deep-spillover locality's, which
    # lets real backlog build at home before offloading.
    hot = REGIONS[0]
    ll_hot = runs["least-loaded"].queueing(hot)
    loc_hot = runs["locality"].queueing(hot)
    assert loc_hot.p95_ms > 50.0  # bursts genuinely queue at home
    assert ll_hot.p95_ms < loc_hot.p95_ms

    # Determinism: an identical replay reproduces identical stats.
    rerun = run_policy(cycles.app("R-GB"), schedule, dict(POLICIES)["least-loaded"])
    assert rerun == runs["least-loaded"]
