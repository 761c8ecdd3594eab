"""Golden regression: the extracted ``PerRequest`` policy is bit-identical
to the pre-refactor hard-coded scaler.

The golden JSON under ``tests/golden/`` was generated by running this
module's ``--write`` mode against the PR-1 scaler *before* the
autoscaler-policy refactor (the ``while queue > booting_capacity``
loop that lived inline in ``ClusterPlatform._scale``).  The test replays
the same PR-1 cold-start benchmark schedule (R-GB under sparse and dense
Poisson traffic, the two ends of the cold-start-rate curve) through the
default fleet policy and asserts every fleet figure it pinned — counts,
peak containers, container-seconds and offered load from the fleet's own
counters, queueing and end-to-end percentiles from the records — and a
digest of every individual ``InvocationRecord`` matches exactly.  Floats round-trip through JSON losslessly (``repr`` shortest
round-trip), so equality here means bit-identical, not approximately.

The federation golden (``federation_two_region.json``) pins
:class:`~repro.faas.region.RegionFederation` the same way: three
two-region scenarios — least-loaded at 0 ms, locality at 40 ms over a
bounded queue (failover + shed), probabilistic edge/cloud offloading
with a QoS mix (policy DROPs) — were replayed by the ``submit()`` →
``run(until=)`` federation *before* it became a client of the cluster's
streaming drain, and every later federation must reproduce the records,
routing, shed/drop and utility totals exactly.  Each scenario is
replayed twice: through the federated gateway's stream (the ``"stream"``
block) and through ``RegionFederation.run_stream`` with its record and
route taps (the ``"batch"`` block, named for the batch API it was first
taken from; that API is gone, the bytes are not).

Regenerate (only when an intentional behaviour change is being pinned),
from the repo root::

    PYTHONPATH=src:. python tests/faas/test_golden_regression.py --write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.apps.catalog import app_by_key
from repro.apps.model import instantiate
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import (
    FederatedGateway,
    LeastLoadedPolicy,
    LocalityPolicy,
    ProbabilisticOffloadPolicy,
    RegionFederation,
    RegionSpec,
    RegionTopology,
)
from repro.faas.replaydeploy import deploy_trace, expose_trace
from repro.faas.sim import SimPlatformConfig
from repro.metrics import LatencySummary, WindowAccumulator, mean, parse_qos_mix
from repro.workloads.arrival import poisson_schedule
from repro.workloads.replay import (
    HashAffinity,
    PoissonArrivals,
    as_paths,
    assign_qos,
    assign_regions,
    compile_trace,
)
from repro.workloads.trace import TraceGenerator
from tests.faas.serving import Emitted

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "cluster_per_request.json"
FEDERATION_GOLDEN = GOLDEN.with_name("federation_two_region.json")

#: The PR-1 cluster benchmark protocol, shrunk to its two extremes:
#: sparse traffic (every request cold) and dense traffic (boots amortized).
APP_KEY = "R-GB"
KEEP_ALIVE_S = 120.0
#: (rate_per_s, duration_s): sparse traffic outlives every keep-alive
#: (mean gap 500 s >> 120 s); dense traffic keeps the fleet warm.
POINTS = ((0.002, 3600.0), (5.0, 600.0))
PLATFORM_SEED = 7
SCHEDULE_SEED = 11

RECORD_FIELDS = (
    "app",
    "entry",
    "timestamp",
    "cold",
    "init_ms",
    "exec_ms",
    "e2e_ms",
    "memory_mb",
    "container_id",
    "queue_ms",
)


def _replay(rate: float, duration_s: float):
    """Replay one benchmark point under the default fleet policy."""
    app = instantiate(app_by_key(APP_KEY))
    platform = ClusterPlatform(
        config=SimPlatformConfig(
            cold_platform_ms=100.0,
            runtime_init_ms=30.0,
            warm_platform_ms=1.0,
            record_traces=False,
            jitter_sigma=0.05,
        ),
        fleet=FleetConfig(max_containers=16, keep_alive_s=KEEP_ALIVE_S),
        seed=PLATFORM_SEED,
    )
    platform.deploy(app.sim_config())
    schedule = poisson_schedule(
        app.mix, rate_per_s=rate, duration_s=duration_s, seed=SCHEDULE_SEED
    )
    records: list = []
    emitted = Emitted(window_s=duration_s)
    summary = platform.run_stream(
        ((at, app.name, entry) for at, entry in schedule),
        emitted,
        on_record=records.append,
    )
    cold_starts = sum(record.cold for record in records)
    stats = {
        "arrivals": summary.arrivals,
        "completed": len(records),
        "rejected": summary.shed,
        "cold_starts": cold_starts,
        "cold_start_rate": cold_starts / len(records),
        "containers_spawned": emitted.spawned(),
        "peak_containers": emitted.peak_containers(),
        "container_seconds": emitted.container_seconds(),
    }
    span = schedule[-1][0] - schedule[0][0]
    offered = summary.arrivals / span if span > 0 else 0.0
    # The golden's digest is order-dependent: it was taken over records
    # in completion order (a stable sort of service-start order).
    records.sort(key=lambda record: record.timestamp + record.e2e_ms / 1000.0)
    return stats, offered, records


def _records_digest(records) -> str:
    canonical = "\n".join(
        repr(tuple(getattr(record, field) for field in RECORD_FIELDS))
        for record in records
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _snapshot() -> dict:
    snapshot: dict = {}
    for rate, duration_s in POINTS:
        stats, offered, records = _replay(rate, duration_s)
        queueing = LatencySummary.from_values(record.queue_ms for record in records)
        e2e = LatencySummary.from_values(record.e2e_ms for record in records)
        snapshot[str(rate)] = {
            "stats": stats,
            "offered_per_second": offered,
            "queueing": {
                "mean_ms": queueing.mean_ms,
                "p50_ms": queueing.p50_ms,
                "p95_ms": queueing.p95_ms,
                "p99_ms": queueing.p99_ms,
                "max_ms": queueing.max_ms,
            },
            "e2e": {
                "mean_ms": e2e.mean_ms,
                "p95_ms": e2e.p95_ms,
                "p99_ms": e2e.p99_ms,
            },
            "records": len(records),
            "records_sha256": _records_digest(records),
        }
    return snapshot


def test_per_request_policy_matches_pre_refactor_golden():
    golden = json.loads(GOLDEN.read_text())
    snapshot = _snapshot()
    assert snapshot == golden


def test_golden_covers_both_curve_extremes():
    golden = json.loads(GOLDEN.read_text())
    sparse = golden[str(POINTS[0][0])]["stats"]
    dense = golden[str(POINTS[-1][0])]["stats"]
    assert sparse["cold_start_rate"] > 0.5
    assert dense["cold_start_rate"] < 0.05


# -- federation golden ------------------------------------------------------

FED_QOS = parse_qos_mix("critical=1,standard=5,batch=4")
FED_PLATFORM = SimPlatformConfig(
    cold_platform_ms=100.0,
    runtime_init_ms=30.0,
    warm_platform_ms=1.0,
    record_traces=False,
    jitter_sigma=0.05,
)
FED_WINDOW_S = 1800.0


def _fed_trace():
    """~4k Poisson arrivals over one hour, three apps of very unequal
    volume (bursty enough to queue, shed and fail over on tiny fleets)."""
    return TraceGenerator(
        app_count=3,
        duration_hours=1.0,
        window_hours=0.5,
        mean_requests_per_window=700.0,
        shift_hours=(0.5,),
        seed=23,
    ).generate()


#: name -> (topology, policy, default fleet, qos, origin assigner, exec_ms);
#: built fresh per replay because policies and federations are stateful.
FED_SCENARIOS = {
    "least_loaded_0ms": lambda: (
        RegionTopology.fully_connected(["us", "eu"], default_ms=0.0),
        LeastLoadedPolicy(),
        FleetConfig(max_containers=2, keep_alive_s=60.0),
        None,
        HashAffinity(["us", "eu"]),
        400.0,
    ),
    # One container and one queue slot per region: the hot origin sheds,
    # and locality's failover forwards over the 40 ms link.
    "locality_40ms_bounded_queue": lambda: (
        RegionTopology.fully_connected(["us", "eu"], default_ms=40.0),
        LocalityPolicy(),
        FleetConfig(max_containers=1, keep_alive_s=60.0, queue_capacity=1),
        None,
        HashAffinity(["us", "eu"]),
        1500.0,
    ),
    # All traffic originates at a one-container edge site 200 ms from the
    # cloud: critical offloads inside its deadline budget, batch is
    # cheaper to DROP than to ship (0.25 - 0.002 * 200 < -0.05).
    "probabilistic_edge_cloud_qos": lambda: (
        RegionTopology.edge_cloud(
            edge=[
                RegionSpec(
                    "edge",
                    fleet=FleetConfig(
                        max_containers=1, keep_alive_s=60.0, queue_capacity=2
                    ),
                )
            ],
            cloud=["cloud"],
            uplink_ms=200.0,
        ),
        ProbabilisticOffloadPolicy(
            qos_classes=FED_QOS,
            seed=5,
            update_interval_s=30.0,
            service_ms_estimate=600.0,
        ),
        FleetConfig(max_containers=2, keep_alive_s=60.0),
        FED_QOS,
        HashAffinity(["edge"]),  # every app originates at the edge
        600.0,
    ),
}


def _fed_build(scenario: str, trace):
    """The scenario's federation, its gateway, and its region-tagged
    ``(at, app, entry, origin[, qos])`` arrivals (``as_paths`` turns them
    into the gateway's function-URL stream)."""
    topology, policy, fleet, qos, origins, exec_ms = FED_SCENARIOS[scenario]()
    federation = RegionFederation(
        topology, policy=policy, platform=FED_PLATFORM, fleet=fleet, seed=17, qos=qos
    )
    deploy_trace(federation, trace, exec_ms=exec_ms)
    gateway = FederatedGateway(platform=federation)
    expose_trace(gateway, trace)
    stream = compile_trace(trace, model=PoissonArrivals(), seed=3)
    if qos is not None:
        stream = assign_qos(stream, qos, seed=9)
    return federation, gateway, assign_regions(stream, origins)


def _fed_records_digest(records) -> str:
    """Order-free digest of every region's records: regions interleave
    completions, so records are canonicalized by sorting their full
    field tuples."""
    rows = sorted(
        tuple(getattr(record, field) for field in RECORD_FIELDS)
        for served in records.values()
        for record in served
    )
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def _fed_rejected(federation, records) -> dict:
    """Requests each region shed: the replay drains every queue, so an
    arrival routed to a region is either one of its records or shed."""
    return {
        region: routed - len(records[region])
        for region, routed in federation.served_counts().items()
    }


def _fed_streamed(scenario: str, trace) -> dict:
    federation, gateway, stream = _fed_build(scenario, trace)
    records = {region: [] for region in federation.topology.names()}
    summary = gateway.submit_stream(
        as_paths(stream),
        WindowAccumulator(window_s=FED_WINDOW_S),
        on_record=lambda region, record: records[region].append(record),
    )
    return {
        "arrivals": summary.arrivals,
        "completed": summary.completed,
        "shed": summary.shed,
        "cold_starts": summary.cold_starts,
        "utility": summary.utility,
        "gb_seconds": summary.gb_seconds,
        "qos": {
            entry.qos_class: [entry.completed, entry.dropped, entry.violations, entry.utility]
            for entry in summary.qos
        },
        "windows": [
            [window.arrivals, window.completed, window.shed, window.cold_starts]
            for window in summary.windows
        ],
        "served": federation.served_counts(),
        "dropped": dict(sorted(federation.dropped_counts().items())),
        "rejected": _fed_rejected(federation, records),
        "records_sha256": _fed_records_digest(records),
    }


def _fed_tapped(scenario: str, trace) -> dict:
    """The golden's ``"batch"`` block, from the record and route taps of
    the federation's own ``run_stream`` (the batch API it was first taken
    from is gone; the block's bytes stay)."""
    federation, _, stream = _fed_build(scenario, trace)
    records = {region: [] for region in federation.topology.names()}
    routes: list = []
    summary = federation.run_stream(
        stream,
        WindowAccumulator(window_s=FED_WINDOW_S),
        on_record=lambda region, record: records[region].append(record),
        on_route=routes.append,
    )
    local = sum(origin == region for origin, region, _ in routes)
    return {
        "submitted": summary.arrivals,
        "served": federation.served_counts(),
        "dropped": dict(sorted(federation.dropped_counts().items())),
        "rejected": _fed_rejected(federation, records),
        "local": local,
        "forwarded": len(routes) - local,
        "network_mean_ms": mean([network_ms for _, _, network_ms in routes]),
        "records": sum(map(len, records.values())),
        "records_sha256": _fed_records_digest(records),
    }


def _federation_snapshot() -> dict:
    trace = _fed_trace()
    return {
        scenario: {
            "stream": _fed_streamed(scenario, trace),
            "batch": _fed_tapped(scenario, trace),
        }
        for scenario in FED_SCENARIOS
    }


def test_federation_matches_pre_streaming_kernel_golden():
    golden = json.loads(FEDERATION_GOLDEN.read_text())
    snapshot = json.loads(json.dumps(_federation_snapshot()))
    assert snapshot == golden


def test_federation_golden_exercises_failover_shed_and_drops():
    golden = json.loads(FEDERATION_GOLDEN.read_text())
    for scenario in golden.values():
        # The gateway's stream and the tapped one are the same simulation.
        assert scenario["stream"]["records_sha256"] == scenario["batch"]["records_sha256"]
        assert scenario["stream"]["served"] == scenario["batch"]["served"]
    locality = golden["locality_40ms_bounded_queue"]
    assert locality["stream"]["shed"] > 0
    assert locality["batch"]["forwarded"] > 0
    offload = golden["probabilistic_edge_cloud_qos"]
    assert sum(offload["stream"]["dropped"].values()) > 0
    assert offload["stream"]["qos"]["batch"][1] > 0  # policy DROPs land on batch
    assert offload["stream"]["served"]["cloud"] > 0


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("refusing to overwrite the golden without --write")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    for path, snapshot in ((GOLDEN, _snapshot), (FEDERATION_GOLDEN, _federation_snapshot)):
        path.write_text(json.dumps(snapshot(), indent=2, sort_keys=True) + "\n")
        print(f"golden written to {path}")
