"""Property-based tests for autoscaler policy invariants.

Six invariants hold for *any* schedule and parameterization:

* **Cap safety** — no policy ever grows a fleet past ``max_containers``.
* **Panic suspends scale-down** — under :class:`PanicWindow`, no
  container retires strictly inside a panic episode.
* **Scale to zero** — under :class:`TargetUtilization`, an empty tail
  always drains the fleet to zero containers (keep-alive plus the
  scale-to-zero grace later).
* **Single-request equivalence** — for one isolated request all three
  policies produce the identical record and boot exactly one container,
  so the policy space only diverges once there is *concurrency* to
  manage.
* **Keep-alive floor** — no shipped policy, in any state, answers
  ``idle_expiry`` earlier than ``idle_since + keep_alive_s``.
* **Exact warm-hit skip** — a fleet skips the policy at a post-dispatch
  ``in_flight`` at most ``quiet_in_flight`` exactly where asking it
  would boot nothing and change no state.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.autoscale import (
    FleetView,
    PanicWindow,
    PerRequest,
    TargetUtilization,
    WindowObservation,
)
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.forecast import Predictive
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.workloads.arrival import bursty_schedule, poisson_schedule
from repro.workloads.popularity import zipf_mix
from tests.faas.serving import serve
from tests.faas.test_autoscale import view

_seeds = st.integers(min_value=0, max_value=2**32 - 1)
_targets = st.floats(min_value=0.2, max_value=1.0, allow_nan=False)
_rates = st.floats(min_value=1.0, max_value=20.0, allow_nan=False)
_max_containers = st.integers(min_value=1, max_value=6)

_POLICIES = st.one_of(
    st.just(PerRequest()),
    _targets.map(lambda t: TargetUtilization(target=t)),
    _targets.map(lambda t: PanicWindow(target=t, stable_window_s=30.0)),
)


@pytest.fixture(scope="module")
def app_config():
    from repro.synthlib.spec import Ecosystem
    from tests.conftest import make_dependent_library, make_small_library

    ecosystem = Ecosystem([make_small_library(), make_dependent_library()])
    ecosystem.validate()
    return SimAppConfig(
        name="app",
        ecosystem=ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=200.0),
            EntryBehavior("heavy", calls=("libx:use_extra",), handler_self_ms=200.0),
        ),
    )


def _platform(app_config, policy, max_containers, seed, keep_alive_s=10.0):
    platform = ClusterPlatform(
        config=SimPlatformConfig(
            cold_platform_ms=100.0, runtime_init_ms=30.0, warm_platform_ms=1.0
        ),
        fleet=FleetConfig(
            max_containers=max_containers,
            keep_alive_s=keep_alive_s,
            policy=policy,
        ),
        seed=seed,
    )
    platform.deploy(app_config)
    return platform


class TestCapSafety:
    @given(
        seed=_seeds, rate=_rates, policy=_POLICIES, max_containers=_max_containers
    )
    @settings(max_examples=25, deadline=None)
    def test_fleet_never_exceeds_max_containers(
        self, app_config, seed, rate, policy, max_containers
    ):
        platform = _platform(app_config, policy, max_containers, seed)
        mix = zipf_mix(["main", "heavy"])
        schedule = poisson_schedule(mix, rate, duration_s=60.0, seed=seed)
        serve(platform, ((at, "app", entry) for at, entry in schedule))
        assert platform._fleet("app").peak_containers <= max_containers
        assert len(platform._fleet("app").containers) <= max_containers


class TestPanicSuspendsScaleDown:
    @given(seed=_seeds, burst_rate=st.floats(min_value=8.0, max_value=30.0))
    @settings(max_examples=20, deadline=None)
    def test_no_retirement_inside_a_panic_episode(
        self, app_config, seed, burst_rate
    ):
        policy = PanicWindow(
            target=0.7, stable_window_s=40.0, panic_window_s=4.0
        )
        platform = _platform(app_config, policy, 16, seed, keep_alive_s=3.0)
        mix = zipf_mix(["main", "heavy"])
        schedule = bursty_schedule(
            mix,
            base_rate_per_s=0.2,
            burst_rate_per_s=burst_rate,
            period_s=30.0,
            burst_fraction=0.2,
            duration_s=300.0,
            seed=seed,
        )
        retired = []
        retire = platform._retire

        def logged(fleet, container, at):
            retired.append(at)
            retire(fleet, container, at)

        platform._retire = logged
        serve(platform, ((at, "app", entry) for at, entry in schedule))
        state = platform.scaling_state("app")
        assert state.episodes  # the bursts did trigger panic
        for at in retired:
            for start, until in state.episodes:
                assert not start < at < until, (
                    f"container retired at {at} inside panic [{start}, {until}]"
                )


class TestScaleToZero:
    @given(
        seed=_seeds,
        rate=_rates,
        target=_targets,
        grace=st.floats(min_value=0.0, max_value=60.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_empty_tail_drains_fleet_to_zero(
        self, app_config, seed, rate, target, grace
    ):
        policy = TargetUtilization(target=target, scale_to_zero_grace_s=grace)
        platform = _platform(app_config, policy, 8, seed, keep_alive_s=10.0)
        mix = zipf_mix(["main", "heavy"])
        schedule = poisson_schedule(mix, rate, duration_s=30.0, seed=seed)
        serve(platform, ((at, "app", entry) for at, entry in schedule))
        tail = platform.clock.now() + 10.0 + grace + 1.0
        assert platform.live_containers("app", at=tail) == 0


class TestSingleRequestEquivalence:
    @given(
        seed=_seeds,
        at=st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        jitter=st.sampled_from([0.0, 0.05]),
        target=_targets,
    )
    @settings(max_examples=25, deadline=None)
    def test_one_isolated_request_is_policy_invariant(
        self, app_config, seed, at, jitter, target
    ):
        records = []
        for policy in (
            PerRequest(),
            TargetUtilization(target=target, scale_to_zero_grace_s=17.0),
            PanicWindow(target=target),
        ):
            platform = ClusterPlatform(
                config=SimPlatformConfig(
                    cold_platform_ms=100.0,
                    runtime_init_ms=30.0,
                    warm_platform_ms=1.0,
                    jitter_sigma=jitter,
                ),
                fleet=FleetConfig(policy=policy),
                seed=seed,
            )
            platform.deploy(app_config)
            records += serve(platform, [(at, "app", "main")])
            assert platform._fleet("app").spawned == 1
        assert records[0] == records[1] == records[2]


def _view(now, queued, in_flight, live):
    return view(
        now=now, queued=queued, in_flight=in_flight, live_containers=live,
        max_concurrency=2,
    )


_panic_policies = st.builds(
    PanicWindow,
    target=_targets,
    scale_to_zero_grace_s=st.sampled_from([0.0, 7.5]),
    stable_window_s=st.sampled_from([4.0, 30.0]),
    panic_window_s=st.sampled_from([0.5, 4.0]),
    panic_threshold=st.sampled_from([1.1, 2.0]),
)
_tu_policies = st.builds(
    TargetUtilization,
    target=_targets,
    scale_to_zero_grace_s=st.sampled_from([0.0, 7.5]),
)
_shipped_policies = st.one_of(
    st.just(PerRequest()),
    _tu_policies,
    _panic_policies,
    st.builds(
        Predictive,
        base=st.one_of(_tu_policies, _panic_policies),
        window_s=st.just(5.0),
        prewarm_lead_s=st.sampled_from([0.0, 2.0]),
    ),
)
#: (gap to the previous decision, queued, in flight, live containers):
#: gaps from "same instant" through "longer than the stable window", so a
#: history straddles start-up, panic entry, extension and expiry.
_decisions = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.01, 0.3, 1.0, 5.0, 40.0]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=1,
    max_size=60,
)


def _drive(policy, state, decisions, scale_out, start=3.0):
    """Feed ``decisions`` the way the cluster does: windows that closed,
    then the arrival, then the scale decision.  Yields each answer."""
    now = start
    width = policy.observation_window_s()
    closed = None if width is None else int(now // width)
    for gap, queued, in_flight, live in decisions:
        now += gap
        if width is not None:
            while closed < int(now // width):
                policy.observe_window(
                    state,
                    WindowObservation(closed, closed * width, (closed + 1) * width, in_flight),
                )
                closed += 1
        policy.observe_arrival(state, now)
        yield now, scale_out(state, _view(now, queued, in_flight, live))


class TestKeepAliveFloor:
    """The contract the cluster's reap and select lean on: they test
    ``idle_since + keep_alive_s`` themselves and ask the policy only
    about containers past it."""

    @given(
        policy=_shipped_policies,
        decisions=_decisions,
        idle_since=st.floats(min_value=0.0, max_value=500.0),
        keep_alive_s=st.floats(min_value=0.0, max_value=700.0),
        last_of_fleet=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_idle_expiry_is_never_before_the_floor(
        self, policy, decisions, idle_since, keep_alive_s, last_of_fleet
    ):
        state = policy.new_state()
        for _ in _drive(policy, state, decisions, policy.scale_out):
            assert (
                policy.idle_expiry(state, idle_since, keep_alive_s, last_of_fleet)
                >= idle_since + keep_alive_s
            )


class TestQuietInFlight:
    """``quiet_in_flight`` against asking the policy at every count a warm
    hit can leave: 1 through ``live * mc``, nothing queued."""

    @given(
        policy=_shipped_policies,
        mc=st.integers(min_value=1, max_value=6),
        live=st.integers(min_value=0, max_value=10),
        booting=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_threshold_is_the_last_quiet_count(self, policy, mc, live, booting):
        booting = min(booting, live)
        quiet = []
        for in_flight in range(1, live * mc + 1):
            state = policy.new_state()
            before = json.dumps(policy.export_state(state))
            policy.observe_arrival(state, 3.0)
            view = FleetView(3.0, 0, in_flight, live, booting * mc, 16, mc)
            want = policy.scale_out(state, view)
            quiet.append(want == 0 and json.dumps(policy.export_state(state)) == before)
        threshold = policy.quiet_in_flight(live, mc)
        assert quiet == [n <= threshold for n in range(1, live * mc + 1)]


class TestPanicWindowDecisionBody:
    """A driven history walks ``PanicWindow.scale_out`` through a panic's
    entry, its extension, its expiry and a second entry."""

    def test_histories_reach_panic_entry_extension_and_expiry(self):
        policy = PanicWindow(stable_window_s=4.0, panic_window_s=0.5, panic_threshold=1.1)
        state = policy.new_state()
        quiet = [(1.0, 0, 1, 1)] * 6
        burst = [(0.01, 0, 3, 1)] * 6
        for _ in _drive(policy, state, quiet + burst + quiet * 2 + burst, policy.scale_out):
            pass
        assert len(state.episodes) == 2  # entered, extended, expired, entered again
        first = state.episodes[0]
        assert first[1] - first[0] > policy.stable_window_s  # extended in place
