"""Tests for the request gateway."""

import pytest

from repro.common.errors import DeploymentError
from repro.core.adaptive import WorkloadMonitor
from repro.faas.cluster import ClusterPlatform
from repro.faas.gateway import Gateway, Route
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatform
from repro.metrics import WindowAccumulator


class RecordingMonitor(WorkloadMonitor):
    """A monitor that keeps the window decisions the gateway's stream closes."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.closed = []

    def observe(self, entry, timestamp_s):
        decisions = super().observe(entry, timestamp_s)
        self.closed.extend(decisions)
        return decisions


@pytest.fixture()
def platform(small_ecosystem):
    platform = ClusterPlatform()
    platform.deploy(
        SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(
                EntryBehavior("main", calls=("libx:use_core",)),
                EntryBehavior("heavy", calls=("libx:use_extra",)),
            ),
        )
    )
    return platform


def submit(gateway, items):
    """``gateway.submit_stream`` over ``(at, path)`` items; the records served."""
    records = []
    gateway.submit_stream(items, WindowAccumulator(window_s=3600.0), on_record=records.append)
    return records


class TestRouting:
    def test_route_path_validation(self):
        with pytest.raises(DeploymentError):
            Route(path="no-slash", app="a", entry="e")

    def test_duplicate_route_rejected(self, platform):
        gateway = Gateway(platform)
        gateway.add_route("/app/main", "app", "main")
        with pytest.raises(DeploymentError):
            gateway.add_route("/app/main", "app", "main")

    def test_unknown_path_rejected(self, platform):
        gateway = Gateway(platform)
        with pytest.raises(DeploymentError, match="no route for path '/nope'"):
            submit(gateway, [(0.0, "/nope")])

    def test_requests_reach_the_platform(self, platform):
        gateway = Gateway(platform)
        routes = gateway.expose("app", ("main", "heavy"))
        assert [route.path for route in routes] == ["/app/main", "/app/heavy"]
        served = submit(gateway, [(0.0, "/app/main"), (1.0, "/app/heavy")])
        assert [(r.app, r.entry) for r in served] == [("app", "main"), ("app", "heavy")]
        assert served[0].cold


class TestMonitorIntegration:
    def test_monitor_observes_entries(self, platform):
        monitor = RecordingMonitor(window_s=100.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main", "heavy"))
        # Crossing the window boundary closes window 0.
        submit(gateway, [(0.0, "/app/main"), (10.0, "/app/main"), (150.0, "/app/heavy")])
        assert len(monitor.closed) == 1
        assert monitor.closed[0].probabilities == {"main": 1.0}

    def test_shift_triggers_through_gateway(self, platform):
        monitor = RecordingMonitor(window_s=100.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main", "heavy"))
        submit(
            gateway,
            [(float(t), "/app/main") for t in range(0, 90, 10)]
            + [(float(t), "/app/heavy") for t in range(100, 190, 10)]
            + [(250.0, "/app/heavy")],
        )
        assert any(decision.triggered for decision in monitor.closed)

    def test_long_gap_rolls_over_multiple_windows(self, platform):
        monitor = RecordingMonitor(window_s=100.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main",))
        # One request after a 4.5-window silence closes four windows at
        # once: the busy first window plus three empty ones.
        submit(gateway, [(0.0, "/app/main"), (450.0, "/app/main")])
        assert [decision.window_index for decision in monitor.closed] == [0, 1, 2, 3]
        assert monitor.closed[0].probabilities == {"main": 1.0}
        assert all(not decision.probabilities for decision in monitor.closed[1:])


class TestStreamingBackEnds:
    """The cluster and the federation take streams; a back end without
    ``run_stream`` is refused."""

    @staticmethod
    def app(small_ecosystem):
        return SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(EntryBehavior("main", calls=("libx:use_core",)),),
        )

    def test_a_platform_without_streams_is_refused_in_one_line(self, small_ecosystem):
        platform = SimPlatform()
        platform.deploy(self.app(small_ecosystem))
        gateway = Gateway(platform)
        gateway.expose("app", ("main",))
        with pytest.raises(DeploymentError) as refused:
            submit(gateway, [(0.0, "/app/main")])
        assert str(refused.value) == (
            "platform SimPlatform does not support streaming replay"
        )

    def test_stream_reaches_the_platform_and_feeds_monitor(self, small_ecosystem):
        cluster = ClusterPlatform()
        cluster.deploy(self.app(small_ecosystem))
        monitor = RecordingMonitor(window_s=50.0, epsilon=0.5)
        gateway = Gateway(cluster, monitor=monitor)
        gateway.expose("app", ("main",))
        records = submit(
            gateway, [(0.0, "/app/main"), (10.0, "/app/main"), (120.0, "/app/main")]
        )
        assert [decision.window_index for decision in monitor.closed] == [0, 1]
        assert [record.entry for record in records] == ["main"] * 3
