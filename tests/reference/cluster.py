"""A deliberately naive cluster replay, written from ``docs/semantics.md``.

Where the engine keeps counters, a reap hint and a quiet threshold, this
scans every container for every answer, keeps one sorted list of
``(time, kind, seq, payload)`` events and puts every admitted arrival to
the policy.  It restates ``PerRequest``, ``TargetUtilization`` and
``PanicWindow``, drives any other policy through its public methods, and
shares only the cost and noise model with the engine: ``compiled_app``
and ``charge_first_use``, ``random.Random(derive_seed(seed, "jitter",
app)).gauss``, ``QoSClass.completion_value`` and the
``WindowAccumulator``.  Rule numbers are the semantics document's.
"""

from __future__ import annotations

import bisect
import math
import random
from types import SimpleNamespace

from repro.common.rng import derive_seed
from repro.faas.autoscale import (FleetView, PanicWindow, PerRequest, TargetUtilization,
                                  WindowObservation)
from repro.faas.events import InvocationRecord
from repro.faas.sim import compiled_app

READY, COMPLETE = 0, 1  # rule 3: at one instant every READY pops first
RESTATED = (PerRequest, TargetUtilization, PanicWindow)


def sinks():  # what a replay emits besides its summary, and all of it in order
    return SimpleNamespace(records=[], sheds=[], decisions=[], routes=[], log=[])


class ReferenceCluster:
    def __init__(self, platform, seed, accumulator, out, qos=(), region=None):
        self.platform, self.seed, self.region = platform, seed, region
        self.accumulator, self.out = accumulator, out
        self.qos = {spec.name: spec for spec in qos}
        self.fleets, self.events = {}, []
        self.pushes = self.spawned = 0
        self.now = 0.0  # the latest arrival or event handled
        self.retired = []  # (container, time), read by coverage checks

    def deploy(self, config, plan, limits):
        self.fleets[config.name] = SimpleNamespace(
            name=config.name, config=config, limits=limits, policy=limits.policy,
            compiled=compiled_app(config, plan),
            state=limits.policy.new_state(),  # read by unrestated policies only
            rng=random.Random(derive_seed(self.seed, "jitter", config.name)),
            containers=[], queue=[], admitted=[],  # admitted arrival times
            window=None,  # the open observation window (rule 23)
            panic_until=-math.inf, panic_peak=0, episodes=[],
        )

    def run(self, arrivals, flush_at=None, hook=None):
        """Rules 1, 2 and 6 for ``(at, app, entry[, qos])`` in time order;
        ``hook(at, token)`` sees each arrival before anything it causes."""
        for token, (at, app, entry, *qos) in enumerate(arrivals):
            if hook is not None:
                hook(at, token)
            self.accumulator.observe_arrival(at)  # rule 24
            self.drain(at)
            self.arrive(self.fleets[app], at, entry, *qos, token=token)
        self.drain(math.inf)
        self.flush(self.now if flush_at is None else flush_at)
        return self.accumulator.finalize()

    def drain(self, at):
        while self.events and self.events[0][0] <= at:
            when, kind, _, (fleet, container) = self.events.pop(0)
            self.now = max(self.now, when)
            if kind == COMPLETE:
                container.active -= 1
            container.last_release = when
            if kind == READY or not container.active:
                container.idle_since = when
            self.dispatch(fleet, when)

    def push(self, when, kind, fleet, container):
        bisect.insort(self.events, (when, kind, self.pushes, (fleet, container)))
        self.pushes += 1

    def emit(self, kind, item, *facts):
        getattr(self.out, kind).append(item)
        self.out.log.append((kind, item, *facts))

    def arrive(self, fleet, at, entry, qos=None, wire_ms=0.0, token=None):
        """Rules 8–13 (reap, queue, dispatch, shed), then 23 and 18."""
        self.now = max(self.now, at)
        self.reap(fleet, at)
        request = SimpleNamespace(entry=entry, arrival=at, qos=qos, wire_ms=wire_ms, token=token)
        fleet.queue.append(request)  # rule 9: a warm hit is dispatched at once
        self.dispatch(fleet, at)
        if request in self.shed(fleet, at):
            return
        self.feed_window(fleet, at)
        fleet.admitted.append(at)
        if type(fleet.policy) not in RESTATED:
            fleet.policy.observe_arrival(fleet.state, at)
        self.scale(fleet, at)

    def expiry(self, fleet, c, now):
        """Rule 19: busy or booting never expires; idle, the policy says."""
        if c.active or c.ready_at > now:
            return math.inf
        last = not any(o.active or o.ready_at > now or (o.idle_since, o.seq) > (
            c.idle_since, c.seq) for o in fleet.containers if o is not c)
        policy, keep_alive = fleet.policy, fleet.limits.keep_alive_s
        floor = c.idle_since + keep_alive
        if type(policy) is PerRequest:
            return floor
        if type(policy) is TargetUtilization:
            return floor + (policy.scale_to_zero_grace_s if last else 0.0)
        if type(policy) is PanicWindow:
            return max(floor + policy.scale_to_zero_grace_s if last else floor, fleet.panic_until)
        return policy.idle_expiry(fleet.state, c.idle_since, keep_alive, last)

    def live(self, fleet, at):
        return [c for c in fleet.containers if self.expiry(fleet, c, at) >= at]

    def reap(self, fleet, at):
        """Rule 20 with no hint: every container, on every arrival."""
        expiries = [self.expiry(fleet, c, at) for c in fleet.containers]
        for c, expiry in zip(fleet.containers, expiries):
            if expiry < at:
                self.retired.append((c, expiry))
                self.provision(fleet, c, c.spawned_at + max(0.0, expiry - c.spawned_at))
        fleet.containers = [c for c, e in zip(fleet.containers, expiries) if e >= at]

    def provision(self, fleet, c, end):
        self.accumulator.observe_provision(c.spawned_at, end, c.memory_mb, source=fleet.name)
        self.out.log.append(("provision", (c.spawned_at, end, c.memory_mb, fleet.name)))

    def bookable(self, fleet, at):
        """Rule 14 by scan: free slots on live containers, plus bootable ones."""
        mc, live = fleet.limits.max_concurrency, self.live(fleet, at)
        return sum(mc - c.active for c in live) + (fleet.limits.max_containers - len(live)) * mc

    def dispatch(self, fleet, now):
        """Rules 9 and 11: while a ready, unexpired container has a free slot,
        the queue head goes to the one with the largest (active, release, seq)."""
        mc = fleet.limits.max_concurrency
        while fleet.queue:
            free = [c for c in self.live(fleet, now) if c.ready_at <= now and c.active < mc]
            if not free:
                return
            best = max(free, key=lambda c: (c.active, c.last_release, c.seq))
            self.serve(fleet, best, fleet.queue.pop(0), now)

    def shed(self, fleet, at):
        """Rules 12–13: the newest requests beyond the bound, counted."""
        capacity, dropped = fleet.limits.queue_capacity, []
        while capacity is not None and len(fleet.queue) - self.bookable(fleet, at) > capacity:
            request = fleet.queue.pop()
            dropped.append(request)
            facts = (request.arrival, fleet.name)
            if request.qos is not None:
                facts += (request.qos, self.qos[request.qos].drop_penalty)
            self.accumulator.observe_shed(*facts)
            self.emit("sheds", facts[:2])
        return dropped

    def jitter(self, fleet, ms):
        """Rule 29: times the fleet's next log-normal factor, if noisy."""
        sigma = self.platform.jitter_sigma
        return ms * math.exp(fleet.rng.gauss(0.0, sigma)) if sigma > 0 else ms

    def serve(self, fleet, c, request, now):
        """Rules 16, 17 and 24: start service; completion is an event."""
        entry = fleet.compiled.entries[request.entry]
        cold, lazy_ms = not c.seen, 0.0
        if request.entry not in c.seen:
            lazy_ms = fleet.compiled.charge_first_use(entry, c, cold)
            c.seen.add(request.entry)
        c.active += 1
        exec_ms = self.jitter(fleet, entry.total_self_ms * fleet.config.cost_scale + lazy_ms)
        service_ms = self.platform.warm_platform_ms + exec_ms
        queue_ms = (now - request.arrival) * 1000.0
        facts = (request.arrival, cold, queue_ms, fleet.name)
        if request.qos is not None:
            e2e_ms = request.wire_ms + queue_ms + service_ms
            facts += (request.qos, *self.qos[request.qos].completion_value(e2e_ms))
        self.accumulator.observe_completion(*facts)
        self.emit("records", (self.region, InvocationRecord(
            app=fleet.name, entry=request.entry, timestamp=request.arrival, cold=cold,
            init_ms=c.init_ms if cold else 0.0, exec_ms=exec_ms,
            e2e_ms=queue_ms + service_ms, memory_mb=c.memory_mb,
            container_id=c.container_id, queue_ms=queue_ms,
        )), request.token, request.wire_ms)
        self.push(now + service_ms / 1000.0, COMPLETE, fleet, c)

    def feed_window(self, fleet, at):
        """Rule 23: close every elapsed window, empty ones included."""
        width = fleet.policy.observation_window_s()
        if width is None:
            return
        index = int(at // width)
        for closed in range(index if fleet.window is None else fleet.window, index):
            count = sum(int(a // width) == closed for a in fleet.admitted)
            window = WindowObservation(closed, closed * width, (closed + 1) * width, count)
            fleet.policy.observe_window(fleet.state, window)
        fleet.window = index

    def scale(self, fleet, now):
        """Rule 18: a view by scan, the policy's want, capped boots."""
        mc, live = fleet.limits.max_concurrency, self.live(fleet, now)
        view = FleetView(now, len(fleet.queue), sum(c.active for c in live), len(live),
                         sum(c.ready_at > now for c in live) * mc, fleet.limits.max_containers, mc)
        want, record = self.decide(fleet, view)
        booted = max(0, min(want, view.max_containers - view.live_containers))
        for _ in range(booted):
            self.spawn(fleet, now)
        if want > 0:
            record.update(want=want, booted=booted)
            self.emit("decisions", (now, fleet.name, record))

    def decide(self, fleet, view):
        """``(want, the decision record a journal gets)``."""
        policy, mc = fleet.policy, view.max_concurrency
        record = dict(policy=policy.name, queued=view.queued, in_flight=view.in_flight,
                      live=view.live_containers)
        if type(policy) is PerRequest:
            return max(0, -(-(view.queued - view.booting_slots) // mc)), record
        if type(policy) not in RESTATED:  # it fills in its own record
            return policy.scale_out(fleet.state, view, record), record
        desired = max(-(-(view.queued + view.in_flight) // mc),
                      math.ceil(view.in_flight / (policy.target * mc)))
        record.update(target=policy.target, desired=desired)
        if type(policy) is PanicWindow:
            desired = self.panic(fleet, view.now, desired, record)
        return max(0, desired - view.live_containers), record

    def panic(self, fleet, now, desired, record):
        """Knative's two windows, each rate over every admitted arrival."""
        policy, elapsed = fleet.policy, now - fleet.admitted[0]
        counts, rates = [], []
        for width in (policy.stable_window_s, policy.panic_window_s):
            counts.append(sum(a > now - width for a in fleet.admitted))
            rates.append(counts[-1] / max(min(elapsed, width), 1e-9))
        if counts[1] >= 2 and rates[1] >= policy.panic_threshold * rates[0]:
            until = now + policy.stable_window_s
            if now < fleet.panic_until:
                fleet.episodes[-1][1] = until
            else:
                fleet.episodes.append([now, until])
                fleet.panic_peak = 0
            fleet.panic_until = until
        if now < fleet.panic_until:
            fleet.panic_peak = desired = max(fleet.panic_peak, desired)
        panicking = now < fleet.panic_until
        record.update(stable_rate=rates[0], panic_rate=rates[1], panicking=panicking)
        return desired

    def spawn(self, fleet, now):
        """Rules 16 and 29: boot one container; being ready is an event."""
        compiled, config, platform = fleet.compiled, fleet.config, self.platform
        init_ms = compiled.eager_init_cost_ms * config.cost_scale + platform.runtime_init_ms
        init_ms = self.jitter(fleet, init_ms)
        self.spawned += 1
        c = SimpleNamespace(  # charge_first_use rebinds loaded and memory_mb
            container_id=f"{fleet.name}-f{self.spawned}", seq=self.spawned, spawned_at=now,
            ready_at=now + (platform.cold_platform_ms + init_ms) / 1000.0, init_ms=init_ms,
            loaded=compiled.eager_loaded,
            memory_mb=config.base_memory_mb + compiled.eager_memory_kb / 1024.0,
            seen=set(), active=0,  # entries served, requests in service
            idle_since=0.0, last_release=0.0,  # rule 3: until its READY pops
        )
        fleet.containers.append(c)
        self.push(c.ready_at, READY, fleet, c)

    def flush(self, at):
        """Rule 26: a live lifetime ends at its expiry or at ``at``."""
        for fleet in self.fleets.values():
            for c in fleet.containers:
                self.provision(fleet, c, max(min(at, self.expiry(fleet, c, at)), c.spawned_at))
