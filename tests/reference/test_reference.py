"""The engine against the naive reference, record for record.

Hypothesis draws small traces (≤ 3 apps, ≤ 80 arrivals) and crosses them
with the four scaling policies, keep-alive, concurrency, queue bound, QoS
tags, jitter and a ``DeferralPlan`` deferring ``liby`` (SLIMSTART's own
effect: a lazy chain on the first use of ``go``); a federation adds
latency and routing.  Engine and reference must emit the same records,
sheds, decisions wanting capacity, panic episodes, routes and summary,
and keep ``laws.py``.  ``--hypothesis-profile=deep`` draws 1000 cases.
Two grids run every cell of those axes on one fixed trace, whatever the
draws happen to reach.
"""

from __future__ import annotations

import ast
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, seed, settings
from hypothesis import strategies as st

from repro.faas.autoscale import PanicWindow, PerRequest, TargetUtilization
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.forecast import Predictive
from repro.faas.region import RegionFederation, RegionTopology, make_policy
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig, compiled_app
from repro.metrics import WindowAccumulator, parse_qos_mix
from repro.plan import DeferralPlan
from repro.synthlib.spec import Ecosystem
from tests.conftest import make_dependent_library, make_small_library
from tests.reference import laws
from tests.reference.cluster import ReferenceCluster, sinks
from tests.reference.federation import ReferenceFederation

ECOSYSTEM = Ecosystem([make_small_library(), make_dependent_library()])
ENTRIES = (EntryBehavior("main", ("libx:use_core",), 20.0),
           EntryBehavior("heavy", ("libx:use_extra",), 50.0),
           EntryBehavior("go", ("liby:go",), 10.0))
#: Distinct cost scales keep two apps' boots off one instant.
APPS = tuple(SimAppConfig(f"a{i}", ECOSYSTEM, ("libx", "liby"), ENTRIES, cost_scale=scale)
             for i, scale in enumerate((1.0, 1.3, 0.7)))
#: Jitter-free warm service seconds, to the bit: an arrival this long
#: after one that started service at once lands on its completion.
SERVICE_S = {(config.name, name): (1.0 + entry.total_self_ms * config.cost_scale) / 1000.0
             for config in APPS
             for name, entry in compiled_app(config, DeferralPlan(config.name)).entries.items()}
QOS = parse_qos_mix("critical=1,standard=5,batch=4")
REGIONS = ("us", "eu")
#: Sized for ≤ 80 arrivals: short windows, a grace past the 1 s keep-alive.
POLICIES = {
    "per-request": PerRequest(),
    "target-utilization": TargetUtilization(target=0.6, scale_to_zero_grace_s=2.0),
    "panic-window": PanicWindow(target=0.6, scale_to_zero_grace_s=2.0, stable_window_s=4.0,
                                panic_window_s=0.5, panic_threshold=1.5),
    "predictive": Predictive(base=TargetUtilization(target=0.6), window_s=2.0, prewarm_lead_s=0.5),
}


def costs(case):
    return SimPlatformConfig(cold_platform_ms=100.0, runtime_init_ms=30.0,
                             warm_platform_ms=1.0, jitter_sigma=case.jitter)


def fleet(case, region=None):
    """``us`` has one container, ``eu`` one more: least-loaded can meet a shedder."""
    extra = {None: 0, "us": 1 - case.max_containers, "eu": 1}[region]
    return FleetConfig(case.max_containers + extra, case.concurrency, case.keep_alive_s,
                       case.queue_capacity, POLICIES[case.policy])


def deploy(case, target, regions=()):
    """Every app; the third in ``eu`` only, so locality meets a non-host origin."""
    deferred = frozenset({"liby"} if case.defer else ())
    for config in APPS[: case.apps]:
        plan = DeferralPlan(config.name, deferred_handler_imports=deferred)
        if not regions:
            target.deploy(config, plan, fleet(case))
        for region in regions:
            if region == "eu" or config is not APPS[2]:
                target.deploy(config, plan, fleet(case, region), [region])


def trace(steps, federated, tagged):
    """Arrivals from ``(gap, app, entry, origin, qos, burst, chained)`` steps."""
    at, arrivals = 0.0, []
    for gap, app, entry, origin, qos, burst, chained in steps:
        at += gap
        for _ in range(burst):
            arrivals.append((at, APPS[app].name, entry) + (origin,) * federated + (qos,) * tagged)
            at += SERVICE_S[APPS[app].name, entry] if chained else 0.0
    return tuple(arrivals[:80])


@st.composite
def cases(draw, federated=False):
    apps = draw(st.integers(1, len(APPS)))
    tagged = draw(st.booleans())
    steps = draw(st.lists(st.tuples(
        # Simultaneous arrivals, bursts, steady gaps, and idle stretches
        # past the 1 s keep-alive and the 2 s forecast window.
        st.one_of(st.just(0.0), st.floats(0.0, 0.05), st.floats(0.0, 1.5), st.floats(2.0, 8.0)),
        st.integers(0, apps - 1),
        st.sampled_from([entry.name for entry in ENTRIES]),
        st.sampled_from(REGIONS),
        st.sampled_from([spec.name for spec in QOS]),
        st.integers(1, 4),  # a burst of one app's entry ...
        st.booleans(),  # ... all at once, or each on the last one's completion
    ), min_size=1, max_size=80))
    case = SimpleNamespace(
        arrivals=trace(steps, federated, tagged),
        apps=apps,
        policy=draw(st.sampled_from(sorted(POLICIES))),
        keep_alive_s=draw(st.sampled_from([0.0, 1.0, 600.0])),
        concurrency=draw(st.sampled_from([1, 2])),
        queue_capacity=draw(st.sampled_from([None, 0, 2])),
        max_containers=draw(st.integers(1, 3)),
        jitter=draw(st.sampled_from([0.0, 0.05])),
        defer=draw(st.booleans()),
        tagged=tagged,
        seed=draw(st.integers(0, 2**32 - 1)),
        flush_at=None if federated else draw(st.sampled_from([None, math.inf])),
        routing=draw(st.sampled_from(["round-robin", "least-loaded", "locality"]))
        if federated else "",
        latency_ms=draw(st.sampled_from([0.0, 40.0])) if federated else 0.0,
    )
    case.spillover = draw(st.sampled_from([None, 2])) if case.routing == "locality" else None
    return case


def outputs(case, out, summary, episodes, load):
    """What both replays must agree on."""
    return dict(records=out.records, sheds=out.sheds, decisions=out.decisions, routes=out.routes,
                episodes=episodes if case.policy == "panic-window" else {}, summary=summary,
                load=load)


def engine(case):
    accumulator, out = WindowAccumulator(window_s=5.0), sinks()
    tap = SimpleNamespace(  # a duck-typed ``obs`` sink keeping sheds and decisions
        next_flush_s=math.inf, span_interval=0, attach=lambda _: None,
        samples_spans=lambda: False, shed=lambda *shed: out.sheds.append(shed),
        scaling_decision=lambda *decision: out.decisions.append(decision),
    )
    qos = QOS if case.tagged else None
    if not case.routing:
        platform = ClusterPlatform(config=costs(case), seed=case.seed, qos=qos)
        deploy(case, platform)
        platforms = {None: platform}
        summary = platform.run_stream(
            iter(case.arrivals), accumulator, on_record=lambda r: out.records.append((None, r)),
            flush_at=case.flush_at, obs=tap,
        )
    else:
        federation = RegionFederation(
            RegionTopology.fully_connected(REGIONS, default_ms=case.latency_ms),
            make_policy(case.routing, spillover_load=case.spillover), costs(case), seed=case.seed,
            qos=qos)
        deploy(case, federation, REGIONS)
        platforms = federation.platforms
        summary = federation.run_stream(
            iter(case.arrivals), accumulator, on_record=lambda *r: out.records.append(r),
            obs=tap, on_route=out.routes.append,
        )
    episodes = {(region, app): getattr(platform.scaling_state(app), "episodes", None)
                for region, platform in platforms.items() for app in platform.app_names()}
    load = sum(platform.load() for platform in platforms.values())
    return outputs(case, out, summary, episodes, load)


def reference(case):
    out, accumulator = sinks(), WindowAccumulator(window_s=5.0)
    qos = QOS if case.tagged else ()
    if not case.routing:
        model = ReferenceCluster(costs(case), case.seed, accumulator, out, qos)
        deploy(case, model)
        clusters, summary = {None: model}, model.run(case.arrivals, case.flush_at)
    else:
        model = ReferenceFederation(REGIONS, case.latency_ms, case.routing, costs(case),
                                    case.seed, accumulator, out, qos, case.spillover)
        deploy(case, model, REGIONS)
        clusters, summary = model.clusters, model.run(case.arrivals)
    fleets = {(r, app): fleet for r, c in clusters.items() for app, fleet in c.fleets.items()}
    episodes = {key: fleet.episodes for key, fleet in fleets.items()}
    load = sum(len(f.queue) + sum(c.active for c in f.containers) for f in fleets.values())
    return outputs(case, out, summary, episodes, load), model


def check(case):
    ours, (theirs, model) = engine(case), reference(case)
    for key in ours:
        assert ours[key] == theirs[key], key
    records = [record for _, record in ours["records"]]
    laws.hold(ours["summary"], records, ours["load"], ours["routes"] if case.routing else None)
    return ours, model


#: Rule 20's hint: two containers idle since 0.275 s, one reused at 1.05 s.
REAP_AFTER_REUSE = SimpleNamespace(
    arrivals=tuple((at, "a0", "main") for at in (0.0, 0.0, 1.05, 1.3, 1.3)), apps=1,
    policy="per-request", keep_alive_s=1.0, concurrency=1, queue_capacity=None, max_containers=2,
    jitter=0.0, defer=False, tagged=False, seed=0, flush_at=None, routing="", spillover=None)


@settings(deadline=None)
@given(case=cases())
@example(case=REAP_AFTER_REUSE)
def test_cluster_matches_the_reference(case):
    check(case)


@settings(deadline=None)
@given(case=cases(federated=True))
def test_federation_matches_the_reference(case):
    check(case)


def grid_steps(rng):
    """``cases``' step shapes, from a seeded stream instead of a draw."""
    gaps = (lambda: 0.0, lambda: rng.uniform(0.0, 0.05), lambda: rng.uniform(0.0, 1.5),
            lambda: rng.uniform(2.0, 8.0))
    return [(rng.choice(gaps)(), rng.randrange(len(APPS)), rng.choice(ENTRIES).name,
             rng.choice(REGIONS), rng.choice(QOS).name, rng.randint(1, 4), rng.random() < 0.5)
            for _ in range(40)]


def grid_case(federated, **axes):
    """One fixed trace of every app, QoS-tagged, ``liby`` deferred, no jitter
    (so chained arrivals land on completions), under the named axes."""
    case = SimpleNamespace(
        arrivals=trace(grid_steps(random.Random(20261017)), federated, tagged=True), apps=3,
        policy="panic-window", keep_alive_s=1.0, concurrency=1, queue_capacity=None,
        max_containers=2, jitter=0.0, defer=True, tagged=True, seed=7, flush_at=None,
        routing="", latency_ms=0.0, spillover=None)
    case.__dict__.update(axes)
    return case


def assert_sheds(ours, queue_capacity):
    """The grid trace overloads a bound of 0 and never sheds unbounded."""
    if queue_capacity is None:
        assert not ours["sheds"]
    elif queue_capacity == 0:
        assert ours["sheds"]


QUEUES = pytest.mark.parametrize("queue_capacity", [None, 0, 2],
                                 ids=["unbounded", "queue-0", "queue-2"])


@QUEUES
@pytest.mark.parametrize("concurrency", [1, 2])
@pytest.mark.parametrize("keep_alive_s", [0.0, 1.0, 600.0])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_cluster_grid_matches_the_reference(policy, keep_alive_s, concurrency, queue_capacity):
    """Every cell of policy × keep-alive × concurrency × queue bound, each run
    whatever the draws reach, on one fixed 80-arrival trace."""
    ours, _ = check(grid_case(False, policy=policy, keep_alive_s=keep_alive_s,
                              concurrency=concurrency, queue_capacity=queue_capacity))
    assert len(ours["records"]) + len(ours["sheds"]) == 80
    assert_sheds(ours, queue_capacity)


@QUEUES
@pytest.mark.parametrize("latency_ms", [0.0, 40.0])
@pytest.mark.parametrize(
    "routing, spillover",
    [("round-robin", None), ("least-loaded", None), ("locality", None), ("locality", 2)],
    ids=["round-robin", "least-loaded", "locality", "locality-spill-2"],
)
def test_federation_grid_matches_the_reference(routing, spillover, latency_ms, queue_capacity):
    """Every cell of routing (locality with and without a spillover
    threshold) × latency × queue bound on one fixed trace."""
    ours, _ = check(grid_case(True, routing=routing, spillover=spillover,
                              latency_ms=latency_ms, queue_capacity=queue_capacity))
    assert len(ours["routes"]) == len(ours["records"]) + len(ours["sheds"]) == 80
    assert_sheds(ours, queue_capacity)


def reached(case, ours, model):
    """What one case exercised, read off its replay and the reference."""
    found = set()
    if ours["sheds"]:
        found.add(f"shed at queue bound {case.queue_capacity}")
    for cluster in getattr(model, "clusters", {None: model}).values():
        for container, at in cluster.retired:
            found.add("reap past keep-alive")
            if at > container.idle_since + case.keep_alive_s:
                found.add("reap at a policy-extended expiry")
    served = set()
    for _, record in ours["records"]:
        if record.cold and record.queue_ms > 0:
            found.add("queued request dispatched on READY")  # a boot's first
        first = (record.container_id, record.entry) not in served
        served.add((record.container_id, record.entry))
        if case.defer and record.entry == "go" and first and not record.cold:
            found.add("lazy first-use chain")
    for episodes in ours["episodes"].values():
        found.update({"panic entry"} if episodes else ())
        if any(end - start > 4.0 for start, end in episodes):  # the stable window
            found.add("panic extension")
    if case.routing and not case.latency_ms and any(o != r for o, r, _ in ours["routes"]):
        found.add("zero-latency forward")
    if getattr(model, "failovers", 0):
        found.add("least-loaded failover away from a shedding region")
    return found


def test_generated_cases_reach_what_the_engine_shortcuts_skip():
    """Fixed-seed draws reach what the engine's deleted self-comparisons
    aimed at: every shortcut's slow side."""
    found = set()
    for federated in (False, True):

        @seed(20261017)
        @settings(max_examples=150, database=None, phases=[Phase.generate], deadline=None)
        @given(case=cases(federated=federated))
        def sample(case):
            found.update(reached(case, *check(case)))

        sample()
    assert found == {
        "shed at queue bound 0", "shed at queue bound 2", "reap past keep-alive",
        "reap at a policy-extended expiry", "queued request dispatched on READY", "panic entry",
        "panic extension", "lazy first-use chain", "zero-latency forward",
        "least-loaded failover away from a shedding region"}


def test_the_reference_imports_nothing_of_the_engine():
    engine = ("repro.faas.cluster", "repro.faas.region", "repro.faas.snapshot",
              "repro.workloads.shard", "repro.obs.journal")
    packages = ("repro.faas", "repro.workloads", "repro.obs")  # their __init__ re-exports it
    for name in ("cluster.py", "federation.py", "journal.py", "laws.py"):
        for node in ast.walk(ast.parse((Path(__file__).parent / name).read_text())):
            names = [a.name for a in getattr(node, "names", ())]
            if isinstance(node, ast.ImportFrom):
                names = [node.module] + [f"{node.module}.{a}" for a in names]
            for module in names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
                assert module not in packages and not module.startswith(engine), (name, module)
