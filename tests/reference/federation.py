"""The reference federation, rules 31–33 and 35: reference clusters
sharing one accumulator, arrivals routed at origin against region states
built by scan, forwards landing at ``t + latency_ms / 1000`` from one
sorted list, and round-robin, least-loaded and locality restated."""

from __future__ import annotations

import bisect
import math
from types import SimpleNamespace

from repro.common.rng import derive_seed
from tests.reference.cluster import ReferenceCluster


class ReferenceFederation:
    def __init__(self, regions, latency_ms, routing, platform, seed, accumulator, out,
                 qos=(), spillover=None):
        """``regions`` in topology order, ``latency_ms`` between any two."""
        self.clusters = {name: ReferenceCluster(
            platform, derive_seed(seed, "region", name), accumulator, out, qos, name,
        ) for name in regions}
        self.latency_ms, self.routing, self.spillover = latency_ms, routing, spillover
        self.accumulator, self.out = accumulator, out
        self.forwards = []  # (lands at, seq, region, app, entry, qos, wire ms)
        self.pending = {}  # (region, app) -> forwards on the wire
        self.now = 0.0
        self.failovers = 0  # least-loaded choices a shedding region forced

    def deploy(self, config, plan, limits, regions):
        for name in regions:
            self.clusters[name].deploy(config, plan, limits)

    def latency(self, origin, region):
        return 0.0 if origin == region else self.latency_ms

    def run(self, arrivals):
        """``(at, app, entry, origin[, qos])`` in origin-time order."""
        for at, app, entry, origin, *qos in arrivals:
            self.accumulator.observe_arrival(at)  # rule 24: the origin time
            self.round(at, self.deliver_due(at))  # rule 31
            region = self.choose(origin, self.states(app, origin, at))
            latency = self.latency(origin, region)
            self.out.routes.append((origin, region, latency))
            forward = (at + latency / 1000.0, len(self.out.routes), region, app, entry)
            bisect.insort(self.forwards, forward + (qos[0] if qos else None, latency))
            self.pending[region, app] = self.pending.get((region, app), 0) + 1
        self.round(math.inf, self.deliver_due(math.inf))
        end = max(self.now, *(cluster.now for cluster in self.clusters.values()))
        for cluster in self.clusters.values():
            cluster.flush(end)
        return self.accumulator.finalize()

    def states(self, app, origin, at):
        """Rule 32: forwards on the wire count as load and as queue."""
        states = []
        for name, cluster in self.clusters.items():
            fleet = cluster.fleets.get(app)
            if fleet is None:
                continue
            wire, queued = self.pending.get((name, app), 0), len(fleet.queue)
            capacity = fleet.limits.queue_capacity
            accepts = capacity is None or queued + 1 + wire <= capacity + cluster.bookable(
                fleet, at)
            load = queued + sum(c.active for c in fleet.containers) + wire
            states.append(SimpleNamespace(name=name, load=load, accepts=accepts,
                                          latency_ms=self.latency(origin, name)))
        return states

    def choose(self, origin, states):
        """Never a shedding region while another accepts."""
        def accepting(states):
            return [s for s in states if s.accepts] or states

        if self.routing == "round-robin":
            start = len(self.out.routes) % len(states)  # one turn per arrival
            return accepting(states[start:] + states[:start])[0].name
        if self.routing == "least-loaded":
            choice = min(accepting(states), key=lambda s: (s.load, s.latency_ms, s.name))
            self.failovers += choice.load > min(s.load for s in states)
            return choice.name
        nearest = sorted(states, key=lambda s: (s.latency_ms, s.name))
        home = next((s for s in states if s.name == origin), None)
        others = [s for s in nearest if s is not home]
        if home is None:
            return accepting(nearest)[0].name
        if not home.accepts:
            return next((s.name for s in others if s.accepts), origin)
        if self.spillover is not None and home.load >= self.spillover:
            spill = (s.name for s in others if s.accepts and s.load < self.spillover)
            return next(spill, origin)
        return origin

    def deliver_due(self, to):
        """Rule 33: each forward due by ``to`` drains every region to its
        time, then lands at its region's turn in the next round."""
        landing = None
        while self.forwards and self.forwards[0][0] <= to:
            due = self.forwards.pop(0)
            self.round(due[0], landing)
            landing = due
        return landing

    def round(self, at, landing=None):
        for name, cluster in self.clusters.items():
            if landing is not None and landing[2] == name:
                when, _, region, app, entry, qos, wire_ms = landing
                cluster.arrive(cluster.fleets[app], when, entry, qos, wire_ms)
                self.pending[region, app] -= 1
            cluster.drain(at)
        if at < math.inf:
            self.now = max(self.now, at)
