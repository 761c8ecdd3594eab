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


def queued_arrive(platform):
    """Make every arrival take the queue, and every expiry test ask the policy.

    Replaces ``platform._arrive`` with the arrival path as it was before
    warm hits were started from the admission scan — enqueue, dispatch
    (``_select`` probing ``_expiry`` on every candidate), shed, feed the
    observation window, ``observe_arrival``, ``_scale`` — for every
    policy tier.  A replay through it is the reference the engine's
    one-scan path, tier shortcuts and keep-alive floor must equal.
    """
    from repro.faas.cluster import _PendingRequest

    def select(fleet, now):
        best = None
        for container in fleet.containers:
            if container.ready_at > now or container.active >= fleet.max_concurrency:
                continue
            if platform._expiry(fleet, container, now) < now:
                continue
            if best is None or (container.active, container.last_release, container.seq) > (
                best.active, best.last_release, best.seq
            ):
                best = container
        return best

    def arrive(fleet, at, entry, token, qos=None, wire_ms=0.0):
        fleet.arrivals += 1
        if fleet.first_arrival is None:
            fleet.first_arrival = at
        fleet.last_arrival = at
        if at > fleet.reap_until:
            platform._reap(fleet, at)
        fleet.queue.append(
            _PendingRequest(token=token, entry=entry, arrival=at, qos=qos, wire_ms=wire_ms)
        )
        platform._dispatch(fleet, at)
        if platform._shed_overflow(fleet, token):
            return
        if fleet.obs_window_s is not None:
            platform._feed_window(fleet, at)
        fleet.policy.observe_arrival(fleet.policy_state, at)
        platform._scale(fleet, at)

    platform._select = select
    platform._arrive = arrive


def naive_reap(platform, fleet, now):
    """What ``_reap`` must decide, asking the policy about every container.

    Returns ``(survivor seqs, [(container_id, expiry)] retired, hint)`` —
    the scan ``_reap`` ran before it tested the keep-alive floor first.
    """
    keep_alive = fleet.keep_alive_s
    hint = now + keep_alive
    survivors, retired = [], []
    for container in fleet.containers:
        expiry = platform._expiry(fleet, container, now)
        if expiry < now:
            retired.append((container.container_id, expiry))
        else:
            survivors.append(container.seq)
            if container.active == 0 and container.ready_at <= now:
                hint = min(hint, container.idle_since + keep_alive)
    return survivors, retired, hint


def parent_panic_rates(policy, state, now):
    """``PanicWindow._rates`` as commit aa07d23 had it, verbatim."""
    while state.arrivals and state.arrivals[0] <= now - policy.stable_window_s:
        state.arrivals.popleft()
    stable_count = len(state.arrivals)
    horizon = now - policy.panic_window_s
    panic_count = 0
    for stamp in reversed(state.arrivals):
        if stamp <= horizon:
            break
        panic_count += 1
    elapsed = now - (state.started_at if state.started_at is not None else now)
    stable_span = max(min(elapsed, policy.stable_window_s), 1e-9)
    panic_span = max(min(elapsed, policy.panic_window_s), 1e-9)
    return (
        stable_count / stable_span,
        panic_count / panic_span,
        panic_count,
    )


def parent_panic_scale_out(policy, state, view):
    """``PanicWindow.scale_out`` as commit aa07d23 had it, verbatim."""
    now = view.now
    stable_rate, panic_rate, panic_count = parent_panic_rates(policy, state, now)
    if panic_count >= 2 and panic_rate >= policy.panic_threshold * stable_rate:
        until = now + policy.stable_window_s
        if state.panicking(now) and state.episodes:
            state.episodes[-1][1] = until
        else:
            state.episodes.append([now, until])
            state.panic_peak = 0
        state.panic_until = until
    desired = policy._desired(view, view.in_flight)  # TargetUtilization's, untouched
    if state.panicking(now):
        state.panic_peak = max(state.panic_peak, desired)
        desired = state.panic_peak
    return max(0, desired - view.live_containers)


def parent_assign_qos(stream, classes, seed=0):
    """``assign_qos`` as commit aa07d23 had it: a linear scan per draw.

    The RNG class is read through :mod:`repro.workloads.replay`, so a
    test that patches it there steers both sides' draws.
    """
    from repro.workloads import replay

    specs = tuple(classes)
    names = [spec.name for spec in specs]
    total = sum(spec.arrival_weight for spec in specs)
    cumulative, running = [], 0.0
    for spec in specs:
        running += spec.arrival_weight
        cumulative.append(running)
    rngs = {}
    for at, app, entry in stream:
        rng = rngs.get(app)
        if rng is None:
            rng = rngs[app] = replay.SeededRNG(replay.derive_seed(seed, "qos", app))
        draw = rng.random() * total
        for index, bound in enumerate(cumulative):
            if draw < bound:
                yield (at, app, entry, names[index])
                break
        else:  # float-edge: draw == total
            yield (at, app, entry, names[-1])


def naive_burst(platform, name, entries, at=None):
    """``SimPlatform.invoke_burst`` as it was before a burst became one
    loop: every request through ``invoke``, one after another."""
    arrival = platform.clock.now() if at is None else at
    return [platform.invoke(name, entry, at=arrival) for entry in entries]


def naive_cold_charge(compiled, entry, container, segments_out=None):
    """``CompiledApp.charge_first_use(cold=True)`` as it was before the
    sums moved to compile time: walk the entry's chains per cold start."""
    lazy_ms = 0.0
    scale = compiled.config.cost_scale
    for chain in entry.cold_chains:
        if segments_out is not None:
            segments_out.extend(chain.segments)
        lazy_ms += chain.init_cost_ms * scale
        container.memory_mb += chain.memory_kb / 1024.0
    container.loaded = entry.cold_loaded
    return lazy_ms
