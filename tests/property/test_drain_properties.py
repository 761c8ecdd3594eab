"""Property-based test: ``drain_to`` is the event-at-a-time loop.

:meth:`ClusterPlatform.drain_to` is what the federation advances its
regions with on every routed arrival.  Its contract is that, mid-stream,
it is indistinguishable from popping one event at a time with ``_step``:
after any prefix of arrivals and any sequence of drain points, the event
heap, the clock, every fleet counter and everything handed to the stream
sinks are exactly what that loop would have left.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.autoscale import PanicWindow, PerRequest, TargetUtilization
from repro.faas.cluster import _COMPLETE, _READY, ClusterPlatform, FleetConfig
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.metrics import WindowAccumulator
from tests.faas.oracles import naive_bookable

_POLICIES = st.sampled_from(
    [
        PerRequest(),
        TargetUtilization(target=0.6),
        PanicWindow(target=0.7, stable_window_s=30.0),
    ]
)
#: Inter-arrival gaps and drain offsets on the scale of the ~0.3 s boots
#: and 0.2 s services below, so drain points cut through boots in flight,
#: queued backlogs and keep-alive expiries alike.
_gaps = st.lists(
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False), min_size=1, max_size=40
)
_drains = st.lists(
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False), min_size=1, max_size=4
)


@pytest.fixture(scope="module")
def app_config():
    from repro.synthlib.spec import Ecosystem
    from tests.conftest import make_small_library

    ecosystem = Ecosystem([make_small_library()])
    ecosystem.validate()
    return SimAppConfig(
        name="app",
        ecosystem=ecosystem,
        handler_imports=("libx",),
        entries=(
            EntryBehavior("main", calls=("libx:use_core",), handler_self_ms=200.0),
        ),
    )


def _fleet_state(platform):
    fleet = platform._fleet("app")
    return (
        fleet.arrivals,
        fleet.rejected,
        fleet.cold_starts,
        fleet.spawned,
        fleet.peak_containers,
        fleet.in_flight,
        fleet.booting,
        fleet.retired_container_seconds,
        fleet.retired_gb_seconds,
        fleet.reap_until,
        [(request.token, request.arrival) for request in fleet.queue],
        [
            (c.seq, c.ready_at, c.active, c.virgin, c.idle_since, c.last_release)
            for c in fleet.containers
        ],
    )


class TestDrainToEqualsTheEventAtATimeLoop:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        policy=_POLICIES,
        max_containers=st.integers(min_value=1, max_value=3),
        queue_capacity=st.sampled_from([None, 0, 2]),
        gaps=_gaps,
        drains=_drains,
    )
    @settings(max_examples=60, deadline=None)
    def test_mid_stream_state_is_identical(
        self, app_config, seed, policy, max_containers, queue_capacity, gaps, drains
    ):
        def drain_to(platform, at):
            assert platform.drain_to(at) is None
            # Arrivals land; they are never events.
            assert {event[1] for event in platform._events} <= {_READY, _COMPLETE}
            # The closed-form bookable capacity is the container scan it
            # replaced — now, and once every idle keep-alive (1 s) ran out.
            fleet = platform._fleet("app")
            for probe in (at, at + 0.5, at + 2.0):
                assert platform.bookable_capacity("app") == naive_bookable(
                    platform, fleet, probe
                )

        def step_to(platform, at):
            # The event-at-a-time reference every drain is a rendering of.
            while platform._events and platform._events[0][0] <= at:
                platform._step()
            if platform.clock.now() < at:
                platform.clock.advance_to(at)

        def replay(advance):
            platform = ClusterPlatform(
                config=SimPlatformConfig(
                    cold_platform_ms=100.0,
                    runtime_init_ms=30.0,
                    warm_platform_ms=1.0,
                    jitter_sigma=0.05,
                ),
                fleet=FleetConfig(
                    max_containers=max_containers,
                    keep_alive_s=1.0,
                    queue_capacity=queue_capacity,
                    policy=policy,
                ),
                seed=seed,
            )
            platform.deploy(app_config)
            accumulator = WindowAccumulator(window_s=5.0)
            records: list = []
            seen = []

            def advance_to(at):
                advance(platform, at)
                seen.append(
                    (
                        list(platform._events),
                        platform.clock.now(),
                        _fleet_state(platform),
                        list(records),
                        accumulator.to_wire(),
                    )
                )
                assert platform.clock.now() == at

            def arrivals():
                # Each arrival has landed when the stream asks for the next.
                at = 0.0
                for gap in gaps:
                    at += gap
                    yield at, "app", "main"
                    advance_to(at)
                for offset in drains:
                    at += offset
                    advance_to(at)

            summary = platform.run_stream(
                arrivals(), accumulator, on_record=records.append
            )
            # And the streams finish identically from where each stands.
            return seen, summary

        assert replay(drain_to) == replay(step_to)
