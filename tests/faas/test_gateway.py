"""Tests for the request gateway."""

import pytest

from repro.common.errors import DeploymentError
from repro.core.adaptive import WorkloadMonitor
from repro.faas.cluster import ClusterPlatform
from repro.faas.gateway import Gateway, Route
from repro.faas.region import FederatedGateway, RegionFederation, RegionTopology
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatform
from repro.metrics import WindowAccumulator


@pytest.fixture()
def platform(small_ecosystem):
    platform = SimPlatform()
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
        with pytest.raises(DeploymentError):
            gateway.request("/nope")

    def test_requests_reach_the_platform(self, platform):
        gateway = Gateway(platform)
        routes = gateway.expose("app", ("main", "heavy"))
        assert [route.path for route in routes] == ["/app/main", "/app/heavy"]
        record, decisions = gateway.request("/app/main")
        assert (record.app, record.entry, record.cold) == ("app", "main", True)
        assert decisions == []
        served = [gateway.request(path)[0] for path in ("/app/main", "/app/heavy")]
        assert [(r.app, r.entry) for r in served] == [("app", "main"), ("app", "heavy")]


class TestMonitorIntegration:
    def test_monitor_observes_entries(self, platform):
        monitor = WorkloadMonitor(window_s=100.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main", "heavy"))
        gateway.request("/app/main", at=0.0)
        gateway.request("/app/main", at=10.0)
        # Crossing the window boundary closes window 0.
        _, decisions = gateway.request("/app/heavy", at=150.0)
        assert len(decisions) == 1
        assert decisions[0].probabilities == {"main": 1.0}

    def test_shift_triggers_through_gateway(self, platform):
        monitor = WorkloadMonitor(window_s=100.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main", "heavy"))
        for t in range(0, 90, 10):
            gateway.request("/app/main", at=float(t))
        for t in range(100, 190, 10):
            gateway.request("/app/heavy", at=float(t))
        _, decisions = gateway.request("/app/heavy", at=250.0)
        assert any(decision.triggered for decision in decisions)

    def test_long_gap_rolls_over_multiple_windows(self, platform):
        monitor = WorkloadMonitor(window_s=100.0, epsilon=0.5)
        gateway = Gateway(platform, monitor=monitor)
        gateway.expose("app", ("main",))
        gateway.request("/app/main", at=0.0)
        # One request after a 4.5-window silence closes four windows at
        # once: the busy first window plus three empty ones.
        _, decisions = gateway.request("/app/main", at=450.0)
        assert [decision.window_index for decision in decisions] == [0, 1, 2, 3]
        assert decisions[0].probabilities == {"main": 1.0}
        assert all(not decision.probabilities for decision in decisions[1:])


class TestPayloadForwarding:
    class _RecordingPlatform:
        """Stub invoke() platform capturing the payload keyword."""

        def __init__(self):
            self.calls = []

        def invoke(self, name, entry, payload=None):
            from repro.faas.events import InvocationRecord

            self.calls.append((name, entry, payload))
            return InvocationRecord(
                app=name,
                entry=entry,
                timestamp=0.0,
                cold=True,
                init_ms=1.0,
                exec_ms=1.0,
                e2e_ms=2.0,
                memory_mb=1.0,
                container_id="c1",
            )

    def test_payload_reaches_platform(self):
        platform = self._RecordingPlatform()
        gateway = Gateway(platform)
        gateway.add_route("/app/main", "app", "main")
        gateway.request("/app/main", payload={"k": 1})
        assert platform.calls == [("app", "main", {"k": 1})]


class TestStreamingBackEnds:
    """The cluster and the federation take streams, never single requests."""

    @staticmethod
    def app(small_ecosystem):
        return SimAppConfig(
            name="app",
            ecosystem=small_ecosystem,
            handler_imports=("libx",),
            entries=(EntryBehavior("main", calls=("libx:use_core",)),),
        )

    def test_synchronous_request_is_refused_in_one_line(self, small_ecosystem):
        cluster = ClusterPlatform()
        federation = RegionFederation(RegionTopology(["us", "eu"]))
        for gateway, name in (
            (Gateway(cluster), "ClusterPlatform"),
            (FederatedGateway(platform=federation), "RegionFederation"),
        ):
            gateway.platform.deploy(self.app(small_ecosystem))
            gateway.expose("app", ("main",))
            with pytest.raises(DeploymentError) as refused:
                gateway.request("/app/main", at=0.0)
            assert str(refused.value) == (
                f"platform {name} does not serve synchronous requests; "
                "use submit_stream() instead"
            )

    def test_stream_reaches_the_platform_and_feeds_monitor(self, small_ecosystem):
        cluster = ClusterPlatform()
        cluster.deploy(self.app(small_ecosystem))
        monitor = WorkloadMonitor(window_s=50.0, epsilon=0.5)
        gateway = Gateway(cluster, monitor=monitor)
        gateway.expose("app", ("main",))
        records = []
        gateway.submit_stream(
            [(0.0, "/app/main"), (10.0, "/app/main"), (120.0, "/app/main")],
            WindowAccumulator(window_s=3600.0),
            on_record=records.append,
        )
        assert [decision.window_index for decision in monitor.decisions] == [0, 1]
        assert [record.entry for record in records] == ["main"] * 3
