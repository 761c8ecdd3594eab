"""The one way into the cluster engine, with the record taps tests read.

``run_stream`` keeps no records; a test that wants them installs a tap.
These helpers are that tap plus a throwaway accumulator, so a test reads
``records = serve(platform, arrivals)`` and hands them to ``fleet_stats``
or ``region_stats``.
"""

from repro.metrics import WindowAccumulator


def serve(platform, arrivals):
    """Stream ``(at, app, entry[, qos])`` arrivals; the records served.

    Records come in the order service started (the tap's order).  Call
    it again with later arrivals to continue on the same fleets.
    """
    records = []
    platform.run_stream(
        arrivals, WindowAccumulator(window_s=3600.0), on_record=records.append
    )
    return records


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
