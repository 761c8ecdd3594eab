"""Deliberately naive references the engine's O(1) shortcuts are checked against."""

import math


def naive_bookable(platform, fleet, at):
    """Bookable capacity by container scan — ``_bookable_capacity`` as it
    was before its closed form (cap × concurrency − in flight) replaced it.

    Free slots on every container still alive at ``at`` plus a full
    container's worth for each one the hard cap still allows to boot.
    """
    config = fleet.fleet_config
    alive = spare = 0
    for container in fleet.containers:
        if platform._expiry(fleet, container, at) >= at:
            alive += 1
            spare += config.max_concurrency - container.active
    return spare + (config.max_containers - alive) * config.max_concurrency


def unsharded_replay(spec, trace):
    """One cluster, one accumulator, ``run_stream``'s own ``finalize()``.

    The ground truth every sharded, wired or resumed replay must equal:
    no wire, no merge, no checkpoint touches this summary.  Tails flush
    at natural expiry, as shard workers' do.
    """
    from repro.workloads.shard import build_shard_replay

    platform, stream, accumulator = build_shard_replay(spec, trace)
    return platform.run_stream(stream, accumulator, flush_at=math.inf)
