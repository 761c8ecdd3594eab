"""The one way into the cluster engine, with the taps tests read.

``run_stream`` keeps no records and the fleets keep no totals; a test
reads what the run emitted.  ``records = serve(platform, arrivals)``
installs the record tap; :func:`replay` also hands back the run's
summary (arrivals, shed, cold starts) and its :class:`Emitted`
accumulator, which keeps every container lifetime and shed the engine
streamed (boots, container-seconds, peak fleet size).
"""

from repro.metrics import DEFAULT_PRICING, WindowAccumulator


class Emitted(WindowAccumulator):
    """A :class:`WindowAccumulator` that also keeps, in emission order,
    every ``observe_provision`` call as ``(source, start_s, end_s,
    memory_mb)`` and every ``observe_shed`` call as ``(at_s, source)``.

    Read it mid-stream, from inside an arrival generator, to see what
    the engine has emitted so far."""

    def __init__(self, window_s=3600.0, pricing=DEFAULT_PRICING):
        super().__init__(window_s=window_s, pricing=pricing)
        self.provisions = []
        self.sheds = []

    def observe_provision(self, start_s, end_s, memory_mb, source=""):
        self.provisions.append((source, start_s, end_s, memory_mb))
        super().observe_provision(start_s, end_s, memory_mb, source=source)

    def observe_shed(self, at_s, source="", qos=None, penalty=0.0):
        self.sheds.append((at_s, source))
        super().observe_shed(at_s, source, qos, penalty)

    def lifetimes(self, app=None):
        """``(start_s, end_s, memory_mb)`` of each container of ``app``
        (every app when ``None``), in emission order."""
        return [
            (start, end, memory_mb)
            for source, start, end, memory_mb in self.provisions
            if app is None or source == app
        ]

    def spawned(self, app=None):
        """Containers booted: one provision call each."""
        return len(self.lifetimes(app))

    def container_seconds(self, app=None):
        total = 0.0
        for start, end, _ in self.lifetimes(app):
            total += end - start
        return total

    def gb_seconds(self, app=None):
        total = 0.0
        for start, end, memory_mb in self.lifetimes(app):
            total += (end - start) * memory_mb / 1024.0
        return total

    def peak_containers(self, app=None):
        """The most containers alive at any boot instant.

        A container retires at its expiry only once the clock is past
        it, so one whose lifetime ends exactly at a boot still counts.
        """
        spans = self.lifetimes(app)
        return max(
            (sum(start <= at <= end for start, end, _ in spans) for at, _, _ in spans),
            default=0,
        )


def replay(platform, arrivals, pricing=DEFAULT_PRICING):
    """Stream ``(at, app, entry[, qos])`` arrivals: ``(records, summary,
    emitted)``.

    Records come in the order service started (the tap's order).  Call
    it again with later arrivals to continue on the same fleets; each
    call emits into its own accumulator.
    """
    records = []
    emitted = Emitted(window_s=3600.0, pricing=pricing)
    summary = platform.run_stream(arrivals, emitted, on_record=records.append)
    return records, summary, emitted


def serve(platform, arrivals):
    """:func:`replay`'s records."""
    return replay(platform, arrivals)[0]


def serve_with_summary(platform, arrivals, pricing=DEFAULT_PRICING):
    """:func:`replay`'s records and summary, priced by ``pricing``."""
    return replay(platform, arrivals, pricing)[:2]


def replay_federated(federation, arrivals):
    """Stream ``(at, app, entry[, origin[, qos]])`` arrivals through a
    federation: ``(records by serving region, routing decisions,
    summary, emitted)``."""
    records = {region: [] for region in federation.topology.names()}
    routes = []
    emitted = Emitted(window_s=3600.0)
    summary = federation.run_stream(
        arrivals,
        emitted,
        on_record=lambda region, record: records[region].append(record),
        on_route=routes.append,
    )
    return records, routes, summary, emitted


def serve_federated(federation, arrivals):
    """:func:`replay_federated`'s records and routing decisions."""
    return replay_federated(federation, arrivals)[:2]
