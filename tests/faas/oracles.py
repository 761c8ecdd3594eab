"""The engine's former bodies that ``tests/reference`` does not replay:
``parent_assign_qos`` (QoS tagging), ``naive_burst`` (a burst as single
requests) and ``naive_cold_charge`` (cold-start charges walked per start)."""


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
