"""Golden regression: the extracted ``PerRequest`` policy is bit-identical
to the pre-refactor hard-coded scaler.

The golden JSON under ``tests/golden/`` was generated by running this
module's ``--write`` mode against the PR-1 scaler *before* the
autoscaler-policy refactor (the ``while queue > booting_capacity``
loop that lived inline in ``ClusterPlatform._scale``).  The test replays
the same PR-1 cold-start benchmark schedule (R-GB under sparse and dense
Poisson traffic, the two ends of the cold-start-rate curve) through the
default fleet policy and asserts every pre-refactor ``FleetStats`` field
— and a digest of every individual ``InvocationRecord`` — matches
exactly.  Floats round-trip through JSON losslessly (``repr`` shortest
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

Next to the goldens, the checks against ``tests/faas/oracles.py``: every
policy's replay against the queue path, and the white-box decision
checks — the incremental fleet counters, the closed-form bookable
capacity and the floor-first reap against the container scans they
replaced.

Regenerate (only when an intentional behaviour change is being pinned),
from the repo root::

    PYTHONPATH=src:. python tests/faas/test_golden_regression.py --write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.catalog import app_by_key
from repro.apps.model import instantiate
from repro.faas.autoscale import (
    SCALING_POLICY_NAMES,
    PanicWindow,
    PerRequest,
    TargetUtilization,
    make_scaling_policy,
)
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.forecast import Predictive
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
from repro.faas.snapshot import platform_state, restore_platform
from repro.metrics import RoutingSummary, WindowAccumulator, parse_qos_mix
from repro.workloads.arrival import poisson_schedule
from repro.workloads.replay import (
    ExplicitMap,
    HashAffinity,
    PoissonArrivals,
    as_paths,
    assign_qos,
    assign_regions,
    compile_trace,
)
from repro.workloads.trace import TraceGenerator
from tests.faas.oracles import naive_bookable, naive_reap, queued_arrive

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

#: FleetStats fields that existed before the policy refactor; the golden
#: pins exactly these (new fields like the cost view are additive).
STATS_FIELDS = (
    "arrivals",
    "completed",
    "rejected",
    "cold_starts",
    "cold_start_rate",
    "containers_spawned",
    "peak_containers",
    "container_seconds",
)
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


def _replay(rate: float, duration_s: float, policy=None, tweak=None, **fleet_kwargs):
    """Replay one benchmark point; ``tweak(platform, app_name)`` runs
    after deploy, before any traffic — for white-box instrumentation.
    ``fleet_kwargs`` override the benchmark's :class:`FleetConfig`."""
    app = instantiate(app_by_key(APP_KEY))
    fleet_kwargs = {"max_containers": 16, "keep_alive_s": KEEP_ALIVE_S, **fleet_kwargs}
    if policy is not None:
        fleet_kwargs["policy"] = policy
    platform = ClusterPlatform(
        config=SimPlatformConfig(
            cold_platform_ms=100.0,
            runtime_init_ms=30.0,
            warm_platform_ms=1.0,
            record_traces=False,
            jitter_sigma=0.05,
        ),
        fleet=FleetConfig(**fleet_kwargs),
        seed=PLATFORM_SEED,
    )
    platform.deploy(app.sim_config())
    if tweak is not None:
        tweak(platform, app.name)
    schedule = poisson_schedule(
        app.mix, rate_per_s=rate, duration_s=duration_s, seed=SCHEDULE_SEED
    )
    records: list = []
    platform.run_stream(
        ((at, app.name, entry) for at, entry in schedule),
        WindowAccumulator(window_s=duration_s),
        on_record=records.append,
    )
    stats = platform.fleet_stats(app.name, records)
    # The golden's digest is order-dependent: it was taken over records
    # in completion order (a stable sort of service-start order).
    records.sort(key=lambda record: record.timestamp + record.e2e_ms / 1000.0)
    return stats, records


def _log_retirements(platform) -> list:
    """Wrap ``platform._retire``; the ``(container_id, at)`` log it fills."""
    log = []
    real = platform._retire

    def logged(fleet, container, at):
        log.append((container.container_id, at))
        real(fleet, container, at)

    platform._retire = logged
    return log


def _records_digest(records) -> str:
    canonical = "\n".join(
        repr(tuple(getattr(record, field) for field in RECORD_FIELDS))
        for record in records
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _snapshot() -> dict:
    snapshot: dict = {}
    for rate, duration_s in POINTS:
        stats, records = _replay(rate, duration_s)
        snapshot[str(rate)] = {
            "stats": {field: getattr(stats, field) for field in STATS_FIELDS},
            "offered_per_second": stats.offered_load.per_second,
            "queueing": {
                "mean_ms": stats.queueing.mean_ms,
                "p50_ms": stats.queueing.p50_ms,
                "p95_ms": stats.queueing.p95_ms,
                "p99_ms": stats.queueing.p99_ms,
                "max_ms": stats.queueing.max_ms,
            },
            "e2e": {
                "mean_ms": stats.e2e.mean_ms,
                "p95_ms": stats.e2e.p95_ms,
                "p99_ms": stats.e2e.p99_ms,
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


class _WindowTapped(PanicWindow):
    """PanicWindow plus the observation-window feed — and nothing else.

    Declares an observation window (so the cluster runs the full
    ``_feed_window`` bookkeeping: lazy closure, gap windows, counter
    resets) but treats every delivered window as a pure notification.
    Any behavioural difference against the plain policy would mean the
    hook wiring itself perturbs replays.
    """

    observed: list  # class-shared; reset per test

    def observation_window_s(self) -> float:
        return 300.0

    def observe_window(self, state, observation) -> None:
        type(self).observed.append(observation)


def test_observe_window_wiring_is_inert_for_existing_policies():
    """Wiring the hook through ClusterPlatform leaves replays of the
    existing (non-observing) policies bit-identical, and running the full
    window bookkeeping without acting on it changes nothing either."""
    for rate, duration_s in POINTS:
        for base, tapped in (
            (
                PanicWindow(target=0.6, stable_window_s=600.0, panic_window_s=60.0),
                _WindowTapped(
                    target=0.6, stable_window_s=600.0, panic_window_s=60.0
                ),
            ),
        ):
            _WindowTapped.observed = []
            base_stats, base_records = _replay(rate, duration_s, policy=base)
            tap_stats, tap_records = _replay(rate, duration_s, policy=tapped)
            assert _records_digest(tap_records) == _records_digest(base_records)
            assert tap_stats == base_stats
            assert _WindowTapped.observed  # the feed really ran
            # Closed windows partition the admitted prefix exactly.
            closed = sum(obs.arrivals for obs in _WindowTapped.observed)
            assert closed <= base_stats.arrivals - base_stats.rejected


def test_target_utilization_replay_unchanged_by_hook_rollout():
    """The non-observing stateful policy replays identically whether or
    not the window machinery exists: its golden-style digest is stable
    across the observe_window rollout (computed from live runs twice —
    bit-equal, not approximately)."""
    policy = TargetUtilization(target=0.6, scale_to_zero_grace_s=30.0)
    first_stats, first_records = _replay(*POINTS[0], policy=policy)
    second_stats, second_records = _replay(*POINTS[0], policy=policy)
    assert first_stats == second_stats
    assert _records_digest(first_records) == _records_digest(second_records)


class _CountingTU(TargetUtilization):
    """TargetUtilization that counts tier-1 fast-path consultations."""

    hits: int = 0  # class-shared; reset per test

    def warm_hit_ok(self, in_flight, live_containers, max_concurrency):
        type(self).hits += 1
        return super().warm_hit_ok(in_flight, live_containers, max_concurrency)


#: One policy per tier (and tier 0 twice), each configured so the dense
#: benchmark point drives its own machinery: grace for the last-of-fleet
#: probe, a panic window short enough for Poisson bursts to trip it, a
#: forecast window short enough to close many times in ten minutes.
ORACLE_POLICIES = {
    "per-request": lambda: PerRequest(),
    "target-utilization": lambda: _CountingTU(target=0.6, scale_to_zero_grace_s=30.0),
    "panic-window": lambda: PanicWindow(
        target=0.6,
        scale_to_zero_grace_s=30.0,
        stable_window_s=30.0,
        panic_window_s=1.0,
        panic_threshold=1.5,
    ),
    "predictive": lambda: Predictive(
        base=TargetUtilization(target=0.6), window_s=60.0, prewarm_lead_s=10.0
    ),
}


@pytest.mark.parametrize(
    "fleet_kwargs",
    [{}, {"queue_capacity": 2, "max_containers": 2}],
    ids=["unbounded", "bounded"],
)
@pytest.mark.parametrize("keep_alive_s", [1.0, 600.0])
@pytest.mark.parametrize("scaling", ORACLE_POLICIES)
def test_one_scan_arrival_path_matches_queue_path(scaling, keep_alive_s, fleet_kwargs):
    """The engine's arrival path — warm hits started from the admission
    scan, the tier shortcuts, the keep-alive floor in front of the policy
    — is behaviour-invisible: with every arrival forced through the
    queue and every expiry test put to the policy (``queued_arrive``),
    each policy replays both curve extremes to the same records, the
    same ``FleetStats`` and the same policy state, and the tier-1 run
    really did skip consultations (``warm_hit_ok`` fired)."""

    def run(rate, duration_s, through_queue):
        deployed, retired = [], []

        def tweak(platform, name):
            deployed.append(platform)
            retired.append(_log_retirements(platform))
            if through_queue:
                queued_arrive(platform)

        policy = ORACLE_POLICIES[scaling]()
        stats, records = _replay(
            rate, duration_s, policy=policy, tweak=tweak,
            keep_alive_s=keep_alive_s, **fleet_kwargs,
        )
        (platform,) = deployed
        state = policy.export_state(platform.scaling_state(stats.app))
        return stats, _records_digest(records), state, retired[0]

    # A bounded queue only sheds once the two-container fleet saturates.
    points = POINTS + ((50.0, 60.0),) if fleet_kwargs else POINTS
    for rate, duration_s in points:
        _CountingTU.hits = 0
        engine = run(rate, duration_s, through_queue=False)
        hits, _CountingTU.hits = _CountingTU.hits, 0
        oracle = run(rate, duration_s, through_queue=True)
        assert engine == oracle
        assert _CountingTU.hits == 0  # the queue path never asks warm_hit_ok
        stats, _, state, _ = engine
        if rate == 5.0:  # dense traffic: warm hits, bursts, closed windows
            if scaling == "target-utilization":
                assert hits > 0
            if scaling == "panic-window":
                assert state["episodes"]
            if scaling == "predictive":
                assert state["last_fed"] is not None and state["ratio"] is not None
        if rate == 50.0:
            assert stats.rejected > 0


def test_fleet_counters_match_container_scan_at_every_decision():
    """White-box: the O(1) incremental counters (``fleet.in_flight``,
    ``fleet.booting``) equal the O(fleet) container scans they replaced,
    re-checked at every scale decision of both benchmark extremes."""
    calls = {"checked": 0}

    def install(platform, name):
        real = platform._view

        def checked_view(fleet, now):
            assert fleet.in_flight == sum(c.active for c in fleet.containers)
            assert fleet.booting == sum(
                1 for c in fleet.containers if c.ready_at > now
            )
            calls["checked"] += 1
            return real(fleet, now)

        platform._view = checked_view

    for rate, duration_s in POINTS:
        _replay(
            rate,
            duration_s,
            policy=TargetUtilization(target=0.6, scale_to_zero_grace_s=30.0),
            tweak=install,
        )
    assert calls["checked"] > 0  # the wrapper really intercepted decisions


@pytest.mark.parametrize("keep_alive_s", [1.0, 30.0])
@pytest.mark.parametrize("scaling", ORACLE_POLICIES)
def test_reap_matches_every_container_expiry_scan(scaling, keep_alive_s):
    """White-box: ``_reap`` asks the policy only about idle containers
    past the keep-alive floor; at every reap of both benchmark extremes
    its survivors, its retirements (with their expiry stamps) and the
    hint it leaves equal the scan that asks about every container."""
    seen = {"reaps": 0, "retired": 0, "extended": 0}

    def install(platform, name):
        real = platform._reap
        retirements = _log_retirements(platform)

        def checked_reap(fleet, now):
            survivors, retired, hint = naive_reap(platform, fleet, now)
            already = len(retirements)
            seen["extended"] += any(
                c.active == 0
                and c.ready_at <= now
                and c.idle_since + fleet.keep_alive_s < now
                for c in fleet.containers
                if c.seq in survivors
            )
            real(fleet, now)
            assert [c.seq for c in fleet.containers] == survivors
            assert sorted(fleet.by_seq) == sorted(survivors)
            assert retirements[already:] == retired
            assert fleet.reap_until == hint
            seen["reaps"] += 1
            seen["retired"] += len(retired)

        platform._reap = checked_reap

    for rate, duration_s in POINTS:
        _replay(
            rate, duration_s, policy=ORACLE_POLICIES[scaling](), tweak=install,
            keep_alive_s=keep_alive_s,
        )
    assert seen["reaps"] > 0 and seen["retired"] > 0
    if scaling != "per-request":
        # Grace, a panic or a forecast hold kept a container past the floor.
        assert seen["extended"] > 0


@pytest.mark.parametrize("queue_capacity", [None, 1], ids=["unbounded", "bounded"])
@pytest.mark.parametrize("scaling", SCALING_POLICY_NAMES)
def test_bookable_closed_form_matches_container_scan_at_every_decision(
    scaling, queue_capacity
):
    """White-box: ``_bookable_capacity`` (cap × concurrency − in flight)
    equals the container scan it replaced (``naive_bookable``) at every
    routing decision (the federation's view of each region) and every
    admission decision (the bounded queue's shedder) — across a mid-run
    redeploy and a ``platform_state`` → JSON → ``restore_platform`` round
    trip, with idle-expired-but-unreaped containers in view."""
    seen = {"calls": 0, "expired_unreaped": 0, "busy": 0}

    def federation():
        built = RegionFederation(
            RegionTopology.fully_connected(["us", "eu"], default_ms=40.0),
            policy=LeastLoadedPolicy(),
            platform=FED_PLATFORM,
            fleet=FleetConfig(
                max_containers=2,
                max_concurrency=2,
                keep_alive_s=2.0,
                queue_capacity=queue_capacity,
                policy=make_scaling_policy(scaling),
            ),
            seed=17,
        )
        deploy_trace(built, trace, exec_ms=900.0)
        for platform in built.platforms.values():
            install(platform)
        return built

    def install(platform):
        closed_form = platform._bookable_capacity

        def checked(fleet):
            now = platform.clock.now()
            got = closed_form(fleet)
            # The identity holds at any probe instant: also one by which
            # every idle container's keep-alive has run out.
            assert got == naive_bookable(platform, fleet, now)
            assert got == naive_bookable(platform, fleet, now + 3600.0)
            seen["calls"] += 1
            seen["busy"] += fleet.in_flight > 0
            seen["expired_unreaped"] += any(
                platform._expiry(fleet, container, now) < now
                for container in fleet.containers
            )
            return got

        platform._bookable_capacity = checked

    def replay(target, segment):
        summary = target.run_stream(iter(segment), WindowAccumulator(FED_WINDOW_S))
        assert summary.arrivals == len(segment)

    trace = _fed_trace()
    arrivals = list(
        assign_regions(
            compile_trace(trace, model=PoissonArrivals(), seed=3),
            HashAffinity(["us", "eu"]),
        )
    )
    third = len(arrivals) // 3
    first = federation()
    replay(first, arrivals[:third])
    for platform in first.platforms.values():
        for name in platform.app_names():
            platform.redeploy(name, platform.plan_for(name))
    replay(first, arrivals[third:2 * third])
    restored = federation()
    for region, platform in first.platforms.items():
        state = json.loads(json.dumps(platform_state(platform)))
        restore_platform(restored.platforms[region], state)
    replay(restored, arrivals[2 * third:])
    # Two regions viewed per routed arrival, at the least.
    assert seen["calls"] >= 2 * len(arrivals)
    assert seen["busy"] > 0 and seen["expired_unreaped"] > 0


class _TUWindowTapped(TargetUtilization):
    """TargetUtilization plus the observation-window feed.

    A tier-1 fast-path policy that also observes windows: the cluster
    must keep feeding the per-fleet window counters even for arrivals
    served on the warm-hit fast path, or closed windows would undercount
    exactly the traffic the fast path absorbed."""

    observed: list  # class-shared; reset per test

    def observation_window_s(self) -> float:
        return 300.0

    def observe_window(self, state, observation) -> None:
        type(self).observed.append(observation)


def test_fast_path_still_feeds_observation_windows():
    rate, duration_s = POINTS[-1]  # dense: fast path serves most arrivals
    _TUWindowTapped.observed = []
    base = TargetUtilization(target=0.6, scale_to_zero_grace_s=30.0)
    tapped = _TUWindowTapped(target=0.6, scale_to_zero_grace_s=30.0)
    base_stats, base_records = _replay(rate, duration_s, policy=base)
    tap_stats, tap_records = _replay(rate, duration_s, policy=tapped)
    # The tap is pure observation: the replay stays bit-identical.
    assert tap_stats == base_stats
    assert _records_digest(tap_records) == _records_digest(base_records)
    assert _TUWindowTapped.observed
    # Closed windows partition the admitted prefix — fast-path arrivals
    # included (dense traffic is nearly all warm hits, so any fast-path
    # undercount would be visible here).
    closed = sum(obs.arrivals for obs in _TUWindowTapped.observed)
    assert closed <= base_stats.arrivals - base_stats.rejected
    assert closed > 0


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
        ExplicitMap({}, default="edge"),
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
    """Order-free digest: regions interleave completions, so records are
    canonicalized by sorting their full field tuples."""
    rows = sorted(
        tuple(getattr(record, field) for field in RECORD_FIELDS) for record in records
    )
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def _fed_rejected(federation) -> dict:
    return {
        region: sum(fleet.rejected for fleet in platform._fleets.values())
        for region, platform in federation.platforms.items()
    }


def _fed_streamed(scenario: str, trace) -> dict:
    federation, gateway, stream = _fed_build(scenario, trace)
    records: list = []
    summary = gateway.submit_stream(
        as_paths(stream),
        WindowAccumulator(window_s=FED_WINDOW_S),
        on_record=lambda region, record: records.append(record),
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
        "rejected": _fed_rejected(federation),
        "records_sha256": _fed_records_digest(records),
    }


def _fed_tapped(scenario: str, trace) -> dict:
    """The golden's ``"batch"`` block, from the record and route taps of
    the federation's own ``run_stream`` (the batch API it was first taken
    from is gone; the block's bytes stay)."""
    federation, _, stream = _fed_build(scenario, trace)
    records: list = []
    routes: list = []
    summary = federation.run_stream(
        stream,
        WindowAccumulator(window_s=FED_WINDOW_S),
        on_record=lambda region, record: records.append(record),
        on_route=routes.append,
    )
    routing = RoutingSummary.from_assignments(routes)
    return {
        "submitted": summary.arrivals,
        "served": federation.served_counts(),
        "dropped": dict(sorted(federation.dropped_counts().items())),
        "rejected": _fed_rejected(federation),
        "local": routing.local,
        "forwarded": routing.forwarded,
        "network_mean_ms": routing.network_ms.mean_ms,
        "records": len(records),
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
