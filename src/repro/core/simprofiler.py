"""Deterministic profile synthesis from simulator execution traces.

The simulator records exactly what each invocation executed (module init
segments and call-path segments with self-times).  This module converts
those traces into the same :class:`ProfileBundle` the real profiler
produces — with one deliberate difference: instead of drawing random
samples at a rate, each segment yields a *fractional expected sample
weight* (``self_ms / interval_ms``).  Profiles are therefore exactly the
expectation of statistical sampling, which makes every downstream number
in the evaluation bit-reproducible.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from repro.common.errors import ProfilingError
from repro.core.profiles import ImportProfile, ImportRecord, ProfileBundle
from repro.core.samples import INIT, RUNTIME, Frame, Sample, SampleSet
from repro.faas.events import InvocationRecord, entry_counts
from repro.faas.sim import CallSegment, ExecutionTrace, SimAppConfig

#: Virtual path prefix for simulator-synthesized frames.
SIM_PREFIX = "<sim>"


_FRAME_CACHE: dict[tuple[str, str], Frame] = {}


def frame_for_ref(qualified: str) -> Frame:
    """Synthesize a frame for a qualified function ref ``lib.mod:fn``."""
    cached = _FRAME_CACHE.get((qualified, ""))
    if cached is not None:
        return cached
    dotted, _, function = qualified.partition(":")
    path = dotted.replace(".", "/")
    frame = Frame(file=f"{SIM_PREFIX}/{path}.py", function=function, line=1)
    _FRAME_CACHE[(qualified, "")] = frame
    return frame


def frame_for_module(dotted: str) -> Frame:
    """Synthesize a module top-level frame for init attribution."""
    cached = _FRAME_CACHE.get((dotted, "<module>"))
    if cached is not None:
        return cached
    path = dotted.replace(".", "/")
    frame = Frame(file=f"{SIM_PREFIX}/{path}.py", function="<module>", line=1)
    _FRAME_CACHE[(dotted, "<module>")] = frame
    return frame


def _fold_run(
    runtime_ms: dict[tuple, float],
    entry_key: tuple[str, str],
    segments: Sequence[CallSegment],
    count: int,
) -> None:
    """Add one run — ``count`` traces sharing ``segments`` — to the totals.

    A path may occur more than once in one tuple (an entry calling the
    same ref twice); its self-times are then added round-robin, the order
    ``count`` consecutive traces would have added them in.

    The usual single-cost path is ``count`` sequential ``total += cost``
    additions run by :func:`itertools.accumulate` instead of a bytecode
    loop: the same IEEE additions in the same order, so the same bits.
    (Not ``sum(repeat(cost, count), total)`` — ``sum`` compensates its
    float additions from Python 3.12 on and would make the profile depend
    on the interpreter.)
    """
    costs_by_path: dict[tuple, list[float]] = {}
    for segment in segments:
        if segment.self_ms > 0:
            costs_by_path.setdefault(segment.path, []).append(segment.self_ms)
    rounds = range(count)
    for path, costs in costs_by_path.items():
        key = (entry_key, path)
        total = runtime_ms[key]
        if len(costs) == 1:
            total = deque(
                accumulate(repeat(costs[0], count), initial=total), maxlen=1
            )[0]
        else:
            for _ in rounds:
                for cost in costs:
                    total += cost
        runtime_ms[key] = total


def samples_from_traces(
    traces: Iterable[ExecutionTrace],
    interval_ms: float = 5.0,
) -> SampleSet:
    """Expected-value samples for every trace segment.

    Identical call paths recur across invocations of the same entry, so
    self-times are accumulated per unique ``(entry, path)`` first and each
    unique path becomes one weighted sample — semantically identical to
    per-trace samples (weights are additive) but orders of magnitude
    smaller for realistic workloads.

    Every trace of one deployed entry carries the *same*
    ``call_segments`` tuple object (shared compiled state), so the call
    segments are not walked per trace: each ``(app, entry)``'s traces are
    run-length-encoded by tuple identity and every run adds its
    self-times ``count`` times per path.  Keys enter ``runtime_ms`` where
    a per-trace fold would first insert them and each path sees the same
    additions in the same order, so the result is equal to that fold
    sample for sample, in order, to the bit.
    """
    if interval_ms <= 0:
        raise ProfilingError(f"interval must be positive: {interval_ms}")
    runtime_ms: dict[tuple, float] = {}
    init_ms: dict[tuple, float] = {}
    # entry key -> [[call_segments, trace count], ...] in stream order; a
    # run holds its tuple, so the identity test is against a live object.
    runs: dict[tuple, list[list]] = {}
    for trace in traces:
        entry_key = (trace.app, trace.entry)
        entry_runs = runs.setdefault(entry_key, [])
        segments = trace.call_segments
        if entry_runs and entry_runs[-1][0] is segments:
            entry_runs[-1][1] += 1
        else:
            entry_runs.append([segments, 1])
            for segment in segments:
                if segment.self_ms > 0:
                    runtime_ms.setdefault((entry_key, segment.path), 0.0)
        for segment in trace.init_segments:
            if segment.self_ms > 0:
                key = (entry_key, segment.module)
                init_ms[key] = init_ms.get(key, 0.0) + segment.self_ms
        for segment in trace.lazy_init_segments:
            if segment.self_ms > 0:
                key = (entry_key, segment.module)
                init_ms[key] = init_ms.get(key, 0.0) + segment.self_ms
    for entry_key, entry_runs in runs.items():
        for segments, count in entry_runs:
            _fold_run(runtime_ms, entry_key, segments, count)

    handlers = {  # one handler frame per (app, entry), not one per sample
        key: Frame(f"{SIM_PREFIX}/{key[0]}/handler.py", function=key[1], line=1)
        for key in runs
    }
    samples = SampleSet()
    for (entry_key, path), total_ms in runtime_ms.items():
        frames = tuple(frame_for_ref(ref) for ref in path[1:])
        samples.add(
            Sample(
                path=(handlers[entry_key],) + frames,
                weight=total_ms / interval_ms,
                kind=RUNTIME,
            )
        )
    for (entry_key, module), total_ms in init_ms.items():
        samples.add(
            Sample(
                path=(handlers[entry_key], frame_for_module(module)),
                weight=total_ms / interval_ms,
                kind=INIT,
            )
        )
    return samples


def import_profile_from_traces(
    traces: Sequence[ExecutionTrace],
) -> ImportProfile:
    """Average per-module init times over the traces that loaded them.

    Cold-start init segments and runtime lazy-load segments both count:
    a module deferred by the currently-deployed plan still surfaces in
    the import profile when some request loads it at first use, so
    re-profiling an already-optimized application sees its real costs.
    """
    cold = [trace for trace in traces if trace.cold]
    if not cold:
        raise ProfilingError("no cold-start traces to derive an import profile")
    totals: dict[str, float] = {}
    loads: dict[str, int] = {}
    for trace in traces:
        segments = list(trace.lazy_init_segments)
        if trace.cold:
            segments.extend(trace.init_segments)
        for segment in segments:
            totals[segment.module] = totals.get(segment.module, 0.0) + segment.self_ms
            loads[segment.module] = loads.get(segment.module, 0) + 1
    profile = ImportProfile()
    order = 0
    for module in sorted(totals):
        order += 1
        parent, _, _ = module.rpartition(".")
        self_ms = totals[module] / loads[module]
        profile.add(
            ImportRecord(
                module=module,
                self_ms=self_ms,
                cumulative_ms=self_ms,  # refined below
                parent=parent or None,
                order=order,
            )
        )
    return profile


def bundle_from_simulation(
    config: SimAppConfig,
    traces: Sequence[ExecutionTrace],
    records: Sequence[InvocationRecord],
    interval_ms: float = 5.0,
) -> ProfileBundle:
    """Assemble the full analyzer input from one simulated workload run."""
    cold_records = [record for record in records if record.cold]
    if not cold_records:
        raise ProfilingError("workload produced no cold starts to profile")
    mean_e2e = sum(r.e2e_ms for r in cold_records) / len(cold_records)
    mean_init = sum(r.init_ms for r in cold_records) / len(cold_records)
    return ProfileBundle(
        app=config.name,
        import_profile=import_profile_from_traces(traces),
        samples=samples_from_traces(traces, interval_ms=interval_ms),
        entry_counts=entry_counts(records),
        handler_imports=tuple(config.handler_imports),
        mean_cold_e2e_ms=mean_e2e,
        mean_cold_init_ms=mean_init,
        cold_starts=len(cold_records),
    )
