"""Shared workload for the observability suite.

One small-but-busy trace and spec, journaled by the tests in this
package.
"""

import math

import pytest

from repro.faas.cluster import FleetConfig
from repro.faas.sim import SimPlatformConfig
from repro.obs.journal import JournalWriter
from repro.workloads import TraceGenerator
from repro.workloads.shard import ShardReplaySpec, build_shard_replay

TRACE = TraceGenerator(
    app_count=3,
    duration_hours=12.0,
    window_hours=3.0,
    mean_requests_per_window=150.0,
    seed=21,
).generate()

SPEC = ShardReplaySpec(
    platform=SimPlatformConfig(record_traces=False, jitter_sigma=0.05),
    fleet=FleetConfig(max_containers=3, keep_alive_s=60.0, queue_capacity=2),
    seed=13,
    replay_seed=3,
    scale=0.3,
    window_s=3600.0,
)

FINGERPRINT = {"apps": 3, "scale": 0.3, "seed": 13}

TRACE_SAMPLE = 0.02


def journaled_run(path, trace_sample=TRACE_SAMPLE, spec=SPEC, trace=TRACE):
    """Replay the shared workload with a journal at ``path``."""
    platform, stream, accumulator = build_shard_replay(spec, trace)
    journal = JournalWriter(
        path,
        window_s=spec.window_s,
        fingerprint=FINGERPRINT,
        trace_sample=trace_sample,
    )
    with journal.begin():
        summary = platform.run_stream(
            stream, accumulator, flush_at=math.inf, obs=journal
        )
    return summary


@pytest.fixture(scope="session")
def journal_path(tmp_path_factory):
    """A sealed journal of the shared workload (built once per session)."""
    path = tmp_path_factory.mktemp("obs") / "run.jsonl"
    journaled_run(path)
    return path
