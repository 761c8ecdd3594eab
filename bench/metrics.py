"""Every metric the benchmark reports, by name.

``BENCHMARK.json`` lists the same names, units and directions;
``test_bench_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass

REPLAYS = ("replay_warm", "replay_durable", "replay_federated")
WARM, DURABLE, FEDERATED = ("replay_warm",), ("replay_durable",), ("replay_federated",)
PIPELINE = ("pipeline_table2",)
EVERY = REPLAYS + PIPELINE

#: ``(name, unit, better, bound)``: the bound is the share of the
#: parent's median by which the metric may worsen.  Ten runs of one tree,
#: each with another seed, spread (IQR / median) 0.01-0.11 on the timings
#: and under 0.01 on memory on the builder box (``bench.calibrate`` has
#: the measurements), and a bound has to be some three times the spread
#: to resolve anything: the timings get the largest bound a benchmark may
#: declare.  ``fail_share`` is not listed because its healthy value is 0;
#: it travels as the result line's ``attempted``/``failed`` and any
#: failure makes the run incorrect.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric of the traced run.

    ``moves`` names the end-to-end metric the layer metric should move
    and on which workloads — written down before measuring, so a change
    that moves something else is visible as such.
    """

    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    moves: str


PER_LAYER = (
    Layer("cli.import_s", "s", "lower", EVERY,
          "setup_s on every workload; <=10% of every wall_s"),
    Layer("cli.modules_imported", "count", "lower", EVERY,
          "setup_s and peak_rss_mb on every workload"),
    Layer("workloads.trace.generate_s", "s", "lower", REPLAYS,
          "setup_s on replay_*"),
    Layer("workloads.replay.compile_s", "s", "lower", REPLAYS,
          "wall_s on replay_warm (~10%); <5% elsewhere"),
    Layer("workloads.replay.compile_req_per_s", "1/s", "higher", REPLAYS,
          "wall_s on replay_warm"),
    Layer("workloads.replay.arrivals", "count", "higher", REPLAYS,
          "none: the work-unit count, must repeat exactly"),
    Layer("faas.replaydeploy.deploy_s", "s", "lower", REPLAYS,
          "setup_s on replay_*"),
    Layer("faas.cluster.run_stream_s", "s", "lower", REPLAYS,
          "wall_s/work_per_s on replay_warm (~55%) and replay_durable; ~0 on "
          "pipeline_table2"),
    Layer("faas.cluster.run_stream_req_per_s", "1/s", "higher", REPLAYS,
          "work_per_s on replay_warm and replay_durable"),
    Layer("faas.cluster.completed", "count", "higher", REPLAYS,
          "none: simulated result, must repeat exactly"),
    Layer("faas.cluster.shed", "count", "lower", REPLAYS,
          "none: simulated result, must repeat exactly"),
    Layer("faas.cluster.cold_start_share", "ratio", "lower", REPLAYS,
          "none: simulated result, must repeat exactly"),
    Layer("metrics.windows.finalize_s", "s", "lower", REPLAYS,
          "wall_s on replay_* (<1%)"),
    Layer("cli.residual_s", "s", "lower", EVERY,
          "wall_s: interpreter start, argparse, report rendering, interleaving"),
    Layer("trace.coverage", "ratio", "higher", EVERY,
          "none: honesty field, traced stage seconds / wall_s in [0.85, 1.15]"),
    Layer("faas.gateway.submit_stream_s", "s", "lower", WARM,
          "wall_s on replay_warm: the engine call the CLI makes"),
    Layer("faas.gateway.overhead_share", "ratio", "lower", WARM,
          "wall_s on replay_warm only (~8%)"),
    Layer("metrics.windows.to_wire_s", "s", "lower", WARM,
          "no end-to-end metric here (no sharded workload)"),
    Layer("metrics.windows.merge_wire_s", "s", "lower", WARM,
          "no end-to-end metric here (no sharded workload)"),
    Layer("metrics.windows.wire_bytes", "bytes", "lower", WARM,
          "no end-to-end metric here (no sharded workload)"),
    Layer("workloads.shard.replay_sharded_s", "s", "lower", WARM,
          "no end-to-end metric here: baseline for a multi-core benchmark"),
    Layer("workloads.shard.speedup_x", "x", "higher", WARM,
          "no end-to-end metric here: 2 workers on this box's cores"),
    Layer("workloads.shard.imbalance", "ratio", "lower", WARM,
          "no end-to-end metric here: largest shard / mean shard"),
    Layer("faas.autoscale.loop_req_per_s.per-request", "1/s", "higher", WARM,
          "work_per_s on replay_warm and replay_federated"),
    Layer("faas.autoscale.loop_req_per_s.target-utilization", "1/s", "higher", WARM,
          "no end-to-end metric here: the ROADMAP's policy column"),
    Layer("faas.autoscale.loop_req_per_s.panic-window", "1/s", "higher", WARM,
          "wall_s on replay_durable only"),
    Layer("faas.autoscale.loop_req_per_s.predictive", "1/s", "higher", WARM,
          "no end-to-end metric here: the ROADMAP's policy column"),
    Layer("faas.snapshot.run_stream_checkpointed_s", "s", "lower", DURABLE,
          "wall_s on replay_durable: the engine call the CLI makes"),
    Layer("faas.snapshot.checkpoint_write_s", "s", "lower", DURABLE,
          "wall_s on replay_durable only"),
    Layer("faas.snapshot.driver_overhead_share", "ratio", "lower", DURABLE,
          "wall_s on replay_durable only: stream_feed driver vs run_stream"),
    Layer("obs.journal.overhead_share", "ratio", "lower", DURABLE,
          "wall_s on replay_durable only"),
    Layer("obs.journal.bytes", "bytes", "lower", DURABLE,
          "wall_s on replay_durable only"),
    Layer("obs.journal.rows", "count", "lower", DURABLE,
          "wall_s on replay_durable only"),
    Layer("obs.query.summarize_s", "s", "lower", DURABLE,
          "none: the read beside the journal write"),
    Layer("faas.region.submit_stream_s", "s", "lower", FEDERATED,
          "wall_s on replay_federated only: the engine call the CLI makes"),
    Layer("faas.region.req_per_s", "1/s", "higher", FEDERATED,
          "work_per_s on replay_federated only"),
    Layer("faas.region.slowdown_x", "x", "lower", FEDERATED,
          "wall_s on replay_federated only: per-request time vs one cluster"),
    Layer("apps.build_s", "s", "lower", PIPELINE,
          "setup_s and wall_s (~7%) on pipeline_table2"),
    Layer("apps.modules_total", "count", "lower", PIPELINE,
          "none: input size, must repeat exactly"),
    Layer("workloads.arrival.schedule_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2 (<1%)"),
    Layer("faas.sim.deploy_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2"),
    Layer("faas.sim.profile_replay_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2 (~39% with core.simprofiler.bundle_s)"),
    Layer("core.simprofiler.bundle_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2"),
    Layer("core.samples.count", "count", "lower", PIPELINE,
          "core.analyzer.analyze_s and peak_rss_mb on pipeline_table2"),
    Layer("core.analyzer.analyze_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2 (~5%)"),
    Layer("core.analyzer.flagged_modules", "count", "higher", PIPELINE,
          "none: analysis result, must repeat exactly"),
    Layer("faas.sim.redeploy_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2"),
    Layer("faas.sim.measure_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2 (~41%)"),
    Layer("faas.sim.invocations", "count", "higher", PIPELINE,
          "none: measured cold starts, must repeat exactly"),
    Layer("faas.sim.invocations_per_s", "1/s", "higher", PIPELINE,
          "wall_s on pipeline_table2"),
    Layer("metrics.stats.summarize_s", "s", "lower", PIPELINE,
          "wall_s on pipeline_table2"),
    Layer("core.optimizer.rewrite_s", "s", "lower", PIPELINE,
          "none: optimize_source is not on table2's path"),
    Layer("core.optimizer.deferred_imports", "count", "higher", PIPELINE,
          "none: rewrite result, must repeat exactly"),
)
