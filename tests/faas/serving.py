"""The one way into the cluster engine, with the record taps tests read.

``run_stream`` keeps no records; a test that wants them installs a tap.
These helpers are that tap plus a throwaway accumulator, so a test reads
``records = serve(platform, arrivals)`` next to the fleet's own counters
(``platform._fleet(name)``: arrivals, rejected, spawned, peak containers).
"""

from repro.metrics import DEFAULT_PRICING, WindowAccumulator


def serve(platform, arrivals):
    """Stream ``(at, app, entry[, qos])`` arrivals; the records served.

    Records come in the order service started (the tap's order).  Call
    it again with later arrivals to continue on the same fleets.
    """
    return serve_with_summary(platform, arrivals)[0]


def serve_with_summary(platform, arrivals, pricing=DEFAULT_PRICING):
    """:func:`serve`, plus the run's windowed summary priced by ``pricing``."""
    records = []
    summary = platform.run_stream(
        arrivals,
        WindowAccumulator(window_s=3600.0, pricing=pricing),
        on_record=records.append,
    )
    return records, summary


def serve_federated(federation, arrivals):
    """Stream ``(at, app, entry[, origin[, qos]])`` arrivals through a
    federation; ``(records by serving region, routing decisions)``."""
    records = {region: [] for region in federation.topology.names()}
    routes = []
    federation.run_stream(
        arrivals,
        WindowAccumulator(window_s=3600.0),
        on_record=lambda region, record: records[region].append(record),
        on_route=routes.append,
    )
    return records, routes


def provisioned(platform, name):
    """App ``name``'s provisioned ``(container-seconds, GB-seconds)`` so far,
    from the fleet's own counters: the retired containers' totals plus
    each live container's lifetime up to the clock."""
    fleet = platform._fleet(name)
    now = platform.clock.now()
    alive_seconds = alive_gb_seconds = 0.0
    for container in fleet.containers:
        end = min(now, platform._expiry(fleet, container, now))
        lifetime = max(0.0, end - container.spawned_at)
        alive_seconds += lifetime
        alive_gb_seconds += lifetime * container.memory_mb / 1024.0
    return (
        fleet.retired_container_seconds + alive_seconds,
        fleet.retired_gb_seconds + alive_gb_seconds,
    )


def container_seconds(platform, name):
    """App ``name``'s provisioned container-seconds (:func:`provisioned`)."""
    return provisioned(platform, name)[0]
