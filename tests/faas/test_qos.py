"""QoS classes end to end: spec validation, trace tagging, deadline
accounting in the cluster loop, and optimizer-driven offload routing.

The wire format everywhere is the class *name*; each consumer resolves it
against its configured registry.  These tests pin

* the :class:`~repro.metrics.qos.QoSClass` spec and ``--qos-mix`` parser,
* :func:`~repro.workloads.replay.assign_qos` determinism and per-app
  independence (the property the sharded engine's exactness rests on),
* the cluster's completion-time deadline evaluation and shed penalties,
* :class:`~repro.faas.region.ProbabilisticOffloadPolicy`'s greedy-exact
  LP re-solve and the federation's :data:`~repro.faas.region.DROP`
  accounting,
* the edge/cloud two-tier topology builder, and
* the bit-identical-default guarantee: a single default class changes no
  non-QoS metric.
"""

import itertools
import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SpecError
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.gateway import Gateway
from repro.faas.region import (
    DROP,
    ProbabilisticOffloadPolicy,
    RegionFederation,
    RegionSpec,
    RegionState,
    RegionTopology,
    RoutingPolicy,
)
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.metrics import (
    DEFAULT_QOS_CLASS,
    QOS_PRESETS,
    QoSClass,
    WindowAccumulator,
    parse_qos_mix,
    qos_registry,
)
from repro.workloads.replay import assign_qos, as_paths, compile_trace
from repro.workloads.trace import TraceGenerator
from tests.faas.oracles import parent_assign_qos
from tests.faas.serving import serve, serve_federated


class TestQoSClassSpec:
    @pytest.mark.parametrize(
        "cls, e2e_ms, expected",
        [
            (QoSClass(name="x"), 1e12, (False, 1.0)),  # benign defaults
            (DEFAULT_QOS_CLASS, 1e12, (False, 1.0)),
            (QoSClass(name="x", utility=4.0, deadline_ms=100.0, deadline_penalty=2.0),
             99.0, (False, 4.0)),
            (QoSClass(name="x", utility=4.0, deadline_ms=100.0, deadline_penalty=2.0),
             100.0, (False, 4.0)),  # the deadline is inclusive
            (QoSClass(name="x", utility=4.0, deadline_ms=100.0, deadline_penalty=2.0),
             100.1, (True, -2.0)),
        ],
        ids=["defaults", "default-class", "early", "on-deadline", "late"],
    )
    def test_completion_value(self, cls, e2e_ms, expected):
        assert cls.completion_value(e2e_ms) == expected

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "x", "deadline_ms": 0.0},
        {"name": "x", "deadline_ms": -5.0},
        {"name": "x", "deadline_penalty": -1.0},
        {"name": "x", "drop_penalty": -0.5},
        {"name": "x", "arrival_weight": 0.0},
        {"name": "x", "arrival_weight": -2.0},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SpecError):
            QoSClass(**kwargs)

    @pytest.mark.parametrize(
        "classes", [[QoSClass("a"), QoSClass("a")], ["a"], []],
        ids=["duplicate", "not-a-class", "empty"],
    )
    def test_registry_rejects(self, classes):
        with pytest.raises(SpecError):
            qos_registry(classes)


class TestParseQosMix:
    @pytest.mark.parametrize(
        "text, weights",
        [
            ("critical=1,standard=5,batch=4",
             {"critical": 1.0, "standard": 5.0, "batch": 4.0}),
            # A bare name keeps its preset's weight.
            ("critical", {"critical": QOS_PRESETS["critical"].arrival_weight}),
        ],
        ids=["weighted", "bare-name"],
    )
    def test_parses(self, text, weights):
        mix = parse_qos_mix(text)
        assert {cls.name: cls.arrival_weight for cls in mix} == weights
        # Non-weight preset fields survive the override.
        assert mix[0].deadline_ms == QOS_PRESETS["critical"].deadline_ms

    @pytest.mark.parametrize("text", ["gold=1", "critical=fast", "", ",,",
                                      "critical=1,critical=2"])
    def test_malformed_mixes_rejected(self, text):
        with pytest.raises(SpecError):
            parse_qos_mix(text)


TRACE = TraceGenerator(
    app_count=6, duration_hours=24.0, window_hours=12.0,
    mean_requests_per_window=120.0, seed=5,
).generate()
MIX = parse_qos_mix("critical=1,standard=5,batch=4")


class TestAssignQoS:
    def compiled(self):
        return compile_trace(TRACE, seed=3, scale=0.3)

    def test_tagging_is_per_app_independent(self):
        # The shard-exactness keystone: each app's class draws depend only
        # on that app's own arrival order, so filtering other apps out of
        # the stream never changes an app's tags.
        full = [
            item for item in assign_qos(self.compiled(), MIX, seed=11)
            if item[1] == TRACE.apps[0].name
        ]
        alone = [
            item for item in assign_qos(
                (i for i in self.compiled() if i[1] == TRACE.apps[0].name),
                MIX, seed=11,
            )
        ]
        assert full == alone

    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=6
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_bisect_matches_the_linear_scan(self, weights, seed):
        classes = [
            QoSClass(name=f"c{index}", arrival_weight=weight)
            for index, weight in enumerate(weights)
        ]
        stream = [(float(at), f"app{at % 3}", "main") for at in range(300)]
        assert list(assign_qos(stream, classes, seed=seed)) == list(
            parent_assign_qos(stream, classes, seed=seed)
        )

    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=6
        ),
        uniform=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_bisect_matches_the_linear_scan_on_every_bound(self, weights, uniform):
        # Draws steered onto each cumulative bound (the class *after* it
        # wins: bounds are exclusive) and onto the float edge draw ==
        # total, which random() < 1 reaches only by rounding — there the
        # last class wins.
        classes = [
            QoSClass(name=f"c{index}", arrival_weight=weight)
            for index, weight in enumerate(weights)
        ]
        total = sum(weights)
        bounds = list(itertools.accumulate(weights, initial=0.0))
        draws = [1.0] + [bound / total for bound in bounds] + uniform

        class SteeredRNG:
            def __init__(self, seed):
                self.random = iter(draws).__next__

        stream = [(float(at), "app", "main") for at in range(len(draws))]
        with mock.patch("repro.workloads.replay.SeededRNG", SteeredRNG):
            tagged = list(assign_qos(stream, classes))
            expected = list(parent_assign_qos(stream, classes))
        assert tagged == expected
        assert tagged[0][3] == classes[-1].name  # the float edge
        assert tagged[1][3] == classes[0].name  # draw 0.0

    def test_rejects_empty_class_list(self):
        from repro.common.errors import WorkloadError

        with pytest.raises(WorkloadError):
            list(assign_qos(self.compiled(), (), seed=1))


def qos_app(name="app") -> SimAppConfig:
    from tests.conftest import make_small_library
    from repro.synthlib.spec import Ecosystem

    eco = Ecosystem([make_small_library()])
    eco.validate()
    return SimAppConfig(
        name=name,
        ecosystem=eco,
        handler_imports=("libx",),
        entries=(EntryBehavior("main", handler_self_ms=50.0),),
    )


def qos_platform(qos, **fleet_kwargs) -> ClusterPlatform:
    platform = ClusterPlatform(
        config=SimPlatformConfig(
            cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0,
            jitter_sigma=0.0,
        ),
        fleet=FleetConfig(**fleet_kwargs),
        qos=qos,
    )
    platform.deploy(qos_app())
    return platform


class TestClusterDeadlineAccounting:
    TIGHT = QoSClass(name="tight", utility=4.0, deadline_ms=60.0,
                     deadline_penalty=2.0, drop_penalty=3.0)
    LOOSE = QoSClass(name="loose", utility=0.5, drop_penalty=0.05)

    def test_unknown_class_rejected_at_landing(self):
        platform = qos_platform((self.TIGHT,))
        with pytest.raises(SpecError):
            serve(platform, [(0.0, "app", "main", "ghost")])

    def test_cold_start_blows_tight_deadline_warm_meets_it(self):
        # Cold path: ~230 ms init + 50 ms handler >> 60 ms deadline.
        # Warm path: ~51 ms e2e <= 60 ms.  Requests are spaced so the
        # second hits the warm container.
        platform = qos_platform((self.TIGHT, self.LOOSE))
        summary = platform.run_stream(
            [(0.0, "app", "main", "tight"), (10.0, "app", "main", "tight")],
            WindowAccumulator(window_s=60.0),
        )
        (tight,) = [entry for entry in summary.qos if entry.qos_class == "tight"]
        assert tight.completed == 2
        assert tight.violations == 1
        assert tight.utility == pytest.approx(4.0 - 2.0)
        assert summary.utility == pytest.approx(2.0)

    def test_wire_ms_counts_toward_the_deadline(self):
        # The deadline is end-to-end: forwarding wire time spent before a
        # region's cluster sees the request counts against it.  A
        # single-region topology with an explicit self-latency makes every
        # delivery pay 30 ms of wire; the warm request's ~51 ms service
        # then lands past the 60 ms deadline, where a zero-wire federation
        # meets it.
        def violations(self_latency_ms):
            topology = RegionTopology(
                ["us"], latency_ms={("us", "us"): self_latency_ms}
            )
            federation = RegionFederation(
                topology,
                platform=SimPlatformConfig(
                    cold_platform_ms=100.0, runtime_init_ms=30.0,
                    warm_platform_ms=1.0, jitter_sigma=0.0,
                ),
                fleet=FleetConfig(max_containers=2),
                qos=(self.TIGHT,),
            )
            federation.deploy(qos_app())
            summary = federation.run_stream(
                [
                    (0.0, "app", "main", "us", "tight"),
                    (10.0, "app", "main", "us", "tight"),
                ],
                WindowAccumulator(window_s=60.0),
            )
            (tight,) = summary.qos
            return tight.violations

        assert violations(0.0) == 1  # only the cold first request is late
        assert violations(30.0) == 2  # wire time pushes the warm one over

    def test_shed_charges_the_drop_penalty(self):
        platform = qos_platform(
            (self.TIGHT, self.LOOSE), max_containers=1, queue_capacity=0
        )
        summary = platform.run_stream(
            [
                (0.0, "app", "main", "loose"),
                (0.001, "app", "main", "loose"),  # container busy -> shed
            ],
            WindowAccumulator(window_s=60.0),
        )
        (loose,) = [entry for entry in summary.qos if entry.qos_class == "loose"]
        assert loose.completed == 1
        assert loose.dropped == 1
        assert loose.utility == pytest.approx(0.5 - 0.05)
        assert summary.shed == 1

    def test_untagged_arrivals_keep_qos_series_empty(self):
        platform = qos_platform((self.TIGHT,))
        summary = platform.run_stream(
            [(0.0, "app", "main"), (10.0, "app", "main")],
            WindowAccumulator(window_s=60.0),
        )
        assert summary.qos == ()
        assert summary.utility == 0.0


def states(*triples):
    """Shorthand: (name, accepts, latency_ms[, capacity]) -> RegionState."""
    return [
        RegionState(
            name=name,
            load=0,
            accepts=accepts,
            latency_ms=latency,
            capacity=rest[0] if rest else math.inf,
        )
        for name, accepts, latency, *rest in triples
    ]


class TestProbabilisticOffloadPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(update_interval_s=0.0), dict(service_ms_estimate=-1.0)],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_constructor_rejects(self, kwargs):
        with pytest.raises(SpecError):
            ProbabilisticOffloadPolicy(**kwargs)

    CHEAP_DROP = QoSClass(name="cheap", utility=1.0, deadline_ms=100.0,
                          deadline_penalty=5.0, drop_penalty=0.1)

    @pytest.mark.parametrize(
        "policy, regions, qos, expected",
        [
            (dict(qos_classes=MIX), [("us", True, 0.0), ("eu", True, 80.0)],
             "standard", "us"),  # a healthy local region is kept
            # Local rejects; offloading earns utility minus a small wire
            # discount, which beats both a certain deadline violation and
            # the drop penalty -> the whole class shifts to the offload arm.
            (dict(qos_classes=MIX), [("us", False, 0.0, 0.0), ("eu", True, 80.0)],
             "critical", "eu"),
            # No offload target; completing late costs 5, dropping costs 0.1.
            (dict(qos_classes=(CHEAP_DROP,)), [("us", False, 0.0, 0.0)], "cheap", DROP),
            # An infinite drop penalty leaves no alternative: stay local.
            (dict(qos_classes=(replace(CHEAP_DROP, drop_penalty=math.inf),)),
             [("us", False, 0.0, 0.0)], "cheap", "us"),
            # An unregistered class falls back to the default one.
            (dict(), [("us", True, 0.0)], "exotic", "us"),
            (dict(), [("us", True, 0.0)], None, "us"),
        ],
        ids=["healthy-local", "saturated-offloads", "drop-wins", "no-finite-drop",
             "unregistered-class", "untagged"],
    )
    def test_every_choice(self, policy, regions, qos, expected):
        chooser = ProbabilisticOffloadPolicy(seed=1, **policy)
        regions = states(*regions)
        for i in range(50):
            assert chooser.choose("us", regions, at=float(i), qos=qos) == expected

    def test_interval_close_folds_rates_as_ewma(self):
        policy = ProbabilisticOffloadPolicy(
            qos_classes=(DEFAULT_QOS_CLASS,), seed=1,
            update_interval_s=10.0,
        )
        regions = states(("us", True, 0.0))
        for i in range(20):  # 20 arrivals over [0, 10) -> 2 req/s
            policy.choose("us", regions, at=i * 0.5, qos="standard")
        policy.choose("us", regions, at=10.0, qos="standard")  # closes interval
        assert policy._rates["standard"] == pytest.approx(2.0)
        # Second interval has just the one arrival (0.1 req/s).
        policy.choose("us", regions, at=20.0, qos="standard")
        assert policy._rates["standard"] == pytest.approx(0.3 * 0.1 + 0.7 * 2.0)

    def test_fractional_fill_splits_the_marginal_class(self):
        # Learned rate 2 req/s against capacity for 1 req/s -> p_local 0.5,
        # the remainder taking the offload arm.
        policy = ProbabilisticOffloadPolicy(
            qos_classes=(DEFAULT_QOS_CLASS,), seed=1,
            update_interval_s=10.0, service_ms_estimate=1000.0,
        )
        warm = states(("us", True, 0.0), ("eu", True, 20.0))
        for i in range(20):
            policy.choose("us", warm, at=i * 0.5, qos="standard")
        tight = states(("us", True, 0.0, 1.0), ("eu", True, 20.0))
        policy.choose("us", tight, at=10.0, qos="standard")  # triggers re-solve
        p_local, p_offload, p_drop = policy._mix["us"]["standard"]
        assert p_local == pytest.approx(0.5)
        assert p_offload == pytest.approx(0.5)
        assert p_drop == 0.0

    def test_choices_are_deterministic_under_seed(self):
        def run(seed):
            policy = ProbabilisticOffloadPolicy(
                qos_classes=(DEFAULT_QOS_CLASS,), seed=seed,
                update_interval_s=10.0, service_ms_estimate=1000.0,
            )
            out = []
            for i in range(40):
                regions = states(("us", True, 0.0, 0.5), ("eu", True, 20.0))
                out.append(policy.choose("us", regions, at=i * 0.5,
                                         qos="standard"))
            return out

        assert run(7) == run(7)


class AlwaysDrop(RoutingPolicy):
    """Test double: a policy that discards everything."""

    name = "always-drop"

    def choose(self, origin, states, at=0.0, qos=None):
        return DROP


class TestFederationDropAccounting:
    def make_federation(self, policy, qos=MIX):
        topology = RegionTopology.fully_connected(["us", "eu"], default_ms=40.0)
        federation = RegionFederation(
            topology,
            policy=policy,
            platform=SimPlatformConfig(
                cold_platform_ms=100.0, runtime_init_ms=30.0,
                warm_platform_ms=1.0, jitter_sigma=0.0,
            ),
            fleet=FleetConfig(max_containers=2),
            qos=qos,
        )
        federation.deploy(qos_app())
        return federation

    def test_a_drop_is_counted_and_never_routed(self):
        federation = self.make_federation(AlwaysDrop())
        records, routes = serve_federated(
            federation, [(0.0, "app", "main", "us", "batch")]
        )
        assert federation.dropped_counts("app") == {"app": 1}
        assert routes == [] and records == {"us": [], "eu": []}
        assert federation.served_counts("app") == {"us": 0, "eu": 0}

    def test_unknown_qos_rejected(self):
        federation = self.make_federation(AlwaysDrop())
        with pytest.raises(SpecError):
            serve_federated(federation, [(0.0, "app", "main", "us", "ghost")])

    def test_streaming_drop_charges_the_class_penalty(self):
        federation = self.make_federation(AlwaysDrop())
        summary = federation.run_stream(
            [
                (0.0, "app", "main", "us", "critical"),
                (1.0, "app", "main", "us", "batch"),
            ],
            WindowAccumulator(window_s=60.0),
        )
        assert summary.shed == 2
        by_class = {entry.qos_class: entry for entry in summary.qos}
        assert by_class["critical"].dropped == 1
        assert by_class["critical"].utility == pytest.approx(-4.0)
        assert by_class["batch"].utility == pytest.approx(-0.05)
        assert summary.utility == pytest.approx(-4.05)

    def test_probabilistic_end_to_end_serves_and_accounts(self):
        federation = self.make_federation(
            ProbabilisticOffloadPolicy(qos_classes=MIX, seed=3)
        )
        stream = assign_qos(compile_trace(TRACE, seed=3, scale=0.1), MIX, seed=9)
        # Trace apps are not deployed here; use the fixture app's stream.
        arrivals = [
            (at, "app", "main", "us", qos)
            for at, _, _, qos in list(stream)[:60]
        ]
        summary = federation.run_stream(arrivals, WindowAccumulator(window_s=3600.0))
        assert summary.completed + summary.shed == summary.arrivals == 60
        assert summary.qos  # per-class series present


class TestEdgeCloudTopology:
    @pytest.mark.parametrize(
        "kwargs, pair, expected",
        [
            (dict(edge=["a", "b"], cloud=["c"], uplink_ms=40.0), ("a", "c"), 40.0),
            (dict(edge=["a", "b"], cloud=["c"], uplink_ms=40.0), ("a", "b"), 80.0),
            (dict(edge=["a", "b"], cloud=["c"], uplink_ms=40.0), ("a", "a"), 0.0),
            (dict(edge=["a"], cloud=["c1", "c2"], inter_cloud_ms=10.0), ("c1", "c2"), 10.0),
        ],
        ids=["uplink", "edge-via-cloud", "self", "cloud-mesh"],
    )
    def test_latency(self, kwargs, pair, expected):
        assert RegionTopology.edge_cloud(**kwargs).latency_ms(*pair) == expected

    def test_tiers_are_assigned_not_trusted(self):
        spec = RegionSpec("site", tier="cloud")
        topology = RegionTopology.edge_cloud(edge=[spec], cloud=["c"])
        assert {spec.name: spec.tier for spec in topology.regions} == {
            "site": "edge", "c": "cloud",
        }

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RegionTopology.edge_cloud(edge=[], cloud=["c"]),
            lambda: RegionTopology.edge_cloud(edge=["e"], cloud=[]),
            lambda: RegionSpec("x", tier="orbital"),
        ],
        ids=["no-edge", "no-cloud", "unknown-tier"],
    )
    def test_rejected(self, build):
        with pytest.raises(SpecError):
            build()


class TestDefaultClassEquivalence:
    def test_single_default_class_changes_no_base_metric(self):
        def replay(tagged):
            platform = ClusterPlatform(
                config=SimPlatformConfig(record_traces=False),
                fleet=FleetConfig(max_containers=3),
                seed=13,
                qos=(DEFAULT_QOS_CLASS,) if tagged else None,
            )
            from repro.faas.replaydeploy import deploy_trace, expose_trace

            deploy_trace(platform, TRACE)
            gateway = Gateway(platform)
            expose_trace(gateway, TRACE)
            stream = compile_trace(TRACE, seed=3, scale=0.3)
            if tagged:
                stream = assign_qos(stream, (DEFAULT_QOS_CLASS,), seed=11)
            accumulator = WindowAccumulator(window_s=3600.0)
            summary = gateway.submit_stream(as_paths(stream), accumulator)
            return summary, accumulator.state()["windows"]

        plain, plain_state = replay(tagged=False)
        tagged, tagged_state = replay(tagged=True)
        assert tagged.arrivals == plain.arrivals
        assert tagged.completed == plain.completed
        assert tagged.shed == plain.shed
        assert tagged.cold_starts == plain.cold_starts
        assert tagged.gb_seconds == plain.gb_seconds  # bit-identical floats
        assert tagged.cost == plain.cost
        assert tagged_state.keys() == plain_state.keys()
        for index, want in plain_state.items():
            got = tagged_state[index]
            assert got["queue_counts"] == want["queue_counts"]
            assert got["source_counts"] == want["source_counts"]
            assert got["gb_sums"] == want["gb_sums"]
        # The only difference: the per-class series now exists, earning
        # the default class's unit utility per completion.
        assert plain.qos == ()
        (standard,) = tagged.qos
        assert standard.qos_class == "standard"
        assert standard.completed == tagged.completed
        assert standard.violations == 0
        assert tagged.utility == pytest.approx(float(tagged.completed))
