"""Request gateway: function-URL routing plus workload observation.

The paper deploys each entry point behind a function URL; requests arrive
at the gateway, which routes them to the right application/entry and feeds
the adaptive workload monitor (Fig. 4's invocation arrow into SLIMSTART).
Back ends that replay a time-ordered stream
(:class:`~repro.faas.cluster.ClusterPlatform`: ``run_stream``) take
:meth:`Gateway.submit_stream`, a function-URL front on ``run_stream``
(``slimstart replay`` calls ``run_stream`` itself).  The multi-region
:class:`~repro.faas.region.FederatedGateway` extends the stream with an
origin region per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import DeploymentError
from repro.core.adaptive import WorkloadMonitor


@dataclass(frozen=True)
class Route:
    """One function URL: path -> (application, entry point)."""

    path: str  # e.g. "/graph_bfs/bfs"
    app: str
    entry: str

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise DeploymentError(f"route path must start with '/': {self.path!r}")


@dataclass
class Gateway:
    """Routes request paths to platform invocations and observes traffic."""

    platform: Any  # serves run_stream()
    monitor: WorkloadMonitor | None = None
    _routes: dict[str, Route] = field(default_factory=dict)

    def add_route(self, path: str, app: str, entry: str) -> Route:
        if path in self._routes:
            raise DeploymentError(f"route already registered: {path!r}")
        route = Route(path=path, app=app, entry=entry)
        self._routes[path] = route
        return route

    def expose(self, app: str, entries: tuple[str, ...]) -> list[Route]:
        """Create the conventional ``/<app>/<entry>`` URL per entry point."""
        return [
            self.add_route(f"/{app}/{entry}", app, entry) for entry in entries
        ]

    def submit_stream(self, stream, accumulator, on_record=None, obs=None):
        """Stream ``(arrival_s, path[, origin][, qos])`` items through the platform.

        The streaming front for back ends exposing ``run_stream`` (the
        cluster simulator and the federation): each arrival is
        routed (monitor fed) and handed to the
        platform *incrementally*, and completed records fold into
        ``accumulator`` (a :class:`~repro.metrics.WindowAccumulator`)
        rather than materializing.  Items may carry a trailing QoS class
        name (the shape :func:`repro.workloads.replay.as_paths` produces
        from an :func:`~repro.workloads.replay.assign_qos`-tagged
        stream); it passes through to the platform's per-class deadline
        accounting.  Over a :class:`~repro.faas.region.RegionFederation`
        an origin region (:func:`~repro.workloads.replay.assign_regions`)
        precedes it; untagged items originate in the topology's first
        region.  Returns the finalized
        :class:`~repro.metrics.WindowedSummary`.  Monitor window
        decisions are observed but not collected — a million-request
        replay must not build a decision list either.  ``obs`` threads an
        observability sink (run journal) through to the platform.
        """
        run_stream = getattr(self.platform, "run_stream", None)
        if run_stream is None:
            raise DeploymentError(
                f"platform {type(self.platform).__name__} does not support "
                "streaming replay"
            )
        arrivals = self._route_arrivals(stream)
        return run_stream(arrivals, accumulator, on_record=on_record, obs=obs)

    def _route_arrivals(self, stream):
        """Route a lazy ``(arrival_s, path, *extras)`` stream.

        The shared front half of every streaming submit path: resolves
        each function URL, feeds the monitor, and
        yields ``(arrival_s, app, entry, *extras)`` — extras (e.g. an
        origin region) pass through untouched for subclasses to consume.
        """
        for item in stream:
            at, path = item[0], item[1]
            route = self._routes.get(path)
            if route is None:
                raise DeploymentError(f"no route for path {path!r}")
            if self.monitor is not None:
                self.monitor.observe(route.entry, at)
            yield (at, route.app, route.entry, *item[2:])
