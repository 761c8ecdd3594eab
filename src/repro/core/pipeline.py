"""SLIMSTART facade: profile → analyze → optimize → redeploy (Fig. 4).

:class:`SlimStart` wires the profiler, analyzer, optimizer and adaptive
monitor together for both back ends:

* the **simulated** path (``run_simulated_cycle``) replays a profiling
  workload on a :class:`SimPlatform`, measures the paper's 500-cold-start
  protocol before and after optimization, and returns speedups;
* the **real** path (``profile_real_invocations`` / ``optimize_workspace``)
  attaches the sampling profiler and import recorder to really-executing
  code and rewrites actual source files.

:class:`CICDPipeline` adds the adaptive loop: it watches entry-point
probability shifts (Eqs. 5-7) and re-triggers the cycle on real workload
change.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from repro.common.errors import ProfilingError, SpecError
from repro.core.analyzer import Analyzer, AnalyzerConfig, InefficiencyReport
from repro.core.adaptive import WorkloadMonitor, WindowDecision
from repro.core.import_recorder import ImportTimeRecorder
from repro.core.libstubber import StubResult, apply_library_deferrals
from repro.core.optimizer import OptimizationResult, optimize_source
from repro.core.profiler import ThreadSampler
from repro.core.profiles import ProfileBundle
from repro.core.samples import LibraryAttributor
from repro.core.simprofiler import SIM_PREFIX, bundle_from_simulation
from repro.faas.container import HANDLER_MODULE
from repro.faas.deployment import clone_workspace, read_handler, write_handler
from repro.faas.events import InvocationRecord, InvocationStats, entry_counts
from repro.faas.local import FunctionDeployment, LocalPlatform
from repro.faas.sim import SimAppConfig, SimPlatform, replay_workload
from repro.metrics import SpeedupReport
from repro.plan import DeferralPlan
from repro.workloads.arrival import burst_entries
from repro.workloads.popularity import EntryMix


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end knobs, defaulted to the paper's protocol."""

    #: Profiler sampling period; a class constant, read per instance.
    sample_interval_ms: ClassVar[float] = 5.0

    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    measure_cold_starts: int = 500  # concurrent requests per measurement run
    measure_runs: int = 5  # results averaged over five iterative runs

    def __post_init__(self) -> None:
        if self.measure_cold_starts < 1:
            raise SpecError(
                f"need at least one cold start per measurement run: "
                f"{self.measure_cold_starts}"
            )
        if self.measure_runs < 1:
            raise SpecError(f"need at least one measurement run: {self.measure_runs}")


@dataclass
class SimCycleResult:
    """Everything one optimize cycle produced on the simulator."""

    app: str
    report: InefficiencyReport
    plan: DeferralPlan
    before: InvocationStats
    after: InvocationStats
    speedups: SpeedupReport
    before_records: list[InvocationRecord]
    after_records: list[InvocationRecord]
    bundle: ProfileBundle | None = None  # the profile that drove the plan


@dataclass
class WorkspaceOptimization:
    """Result of rewriting a real workspace."""

    workspace: Path
    handler_result: OptimizationResult
    stub_result: StubResult

    @property
    def changed(self) -> bool:
        return self.handler_result.changed or self.stub_result.changed


def handler_imports_from_source(
    source: str, library_names: frozenset[str] | set[str]
) -> tuple[str, ...]:
    """Dotted library modules a handler imports at module level."""
    tree = ast.parse(source)
    found: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] in library_names:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.partition(".")[0] in library_names:
                found.append(module)
    return tuple(dict.fromkeys(found))


class SlimStart:
    """The tool: one object wiring profiling, analysis and optimization."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.analyzer = Analyzer(self.config.analyzer)

    # -- attribution ----------------------------------------------------------

    def sim_attributor(self, app_config: SimAppConfig) -> LibraryAttributor:
        return LibraryAttributor(
            workspace_prefixes=(SIM_PREFIX,),
            library_names=frozenset(app_config.ecosystem.library_names()),
        )

    def workspace_attributor(
        self, workspace: str | Path, library_names: set[str] | frozenset[str]
    ) -> LibraryAttributor:
        return LibraryAttributor(
            workspace_prefixes=(str(Path(workspace).resolve()),),
            library_names=frozenset(library_names),
        )

    # -- simulated path ----------------------------------------------------------

    def profile_simulated(
        self,
        platform: SimPlatform,
        app_config: SimAppConfig,
        workload: list[tuple[float, str]],
    ) -> ProfileBundle:
        """Replay a typical workload and assemble the profile bundle."""
        platform.clear_history(app_config.name)
        replay_workload(platform, app_config.name, workload)
        bundle = bundle_from_simulation(
            app_config,
            platform.traces(app_config.name),
            platform.records(app_config.name),
            interval_ms=self.config.sample_interval_ms,
        )
        return bundle

    def analyze(
        self, bundle: ProfileBundle, attributor: LibraryAttributor
    ) -> InefficiencyReport:
        return self.analyzer.analyze(bundle, attributor)

    def refine_plan(
        self,
        previous: DeferralPlan,
        report: InefficiencyReport,
        bundle: ProfileBundle,
        attributor: LibraryAttributor,
    ) -> DeferralPlan:
        """Merge a fresh analysis with still-valid previous deferrals.

        A module the *current* plan defers and that nothing loaded during
        re-profiling leaves no trace in the new profile, so the fresh
        report cannot re-flag it.  Such deferrals are carried forward;
        previously-deferred modules that the new workload does exercise
        (utilization at or above the rare threshold) are dropped and
        become eager again.
        """
        threshold = self.config.analyzer.rare_utilization_threshold
        module_util = self.analyzer.module_utilization(bundle, attributor)
        library_util, _ = self.analyzer.library_utilization(bundle, attributor)
        kept_edges = frozenset(
            dotted
            for dotted in previous.deferred_library_edges
            if self.analyzer.subtree_utilization(module_util, dotted) < threshold
        )
        kept_handler = frozenset(
            dotted
            for dotted in previous.deferred_handler_imports
            if library_util.get(dotted.partition(".")[0], 0.0) < threshold
        )
        carried = DeferralPlan(
            app=previous.app,
            deferred_handler_imports=kept_handler,
            deferred_library_edges=kept_edges,
        )
        return report.plan.merged_with(carried)

    def measure_cold_starts(
        self,
        platform: SimPlatform,
        app: str,
        mix: EntryMix,
    ) -> list[InvocationRecord]:
        """The paper's protocol: N concurrent requests × R runs, all cold.

        Trace recording is suspended during measurement — traces exist for
        profiling, and materializing per-segment traces for thousands of
        measurement invocations would only burn memory.
        """
        from dataclasses import replace as _replace

        platform.clear_history(app)
        saved_config = platform.config
        platform.config = _replace(saved_config, record_traces=False)
        try:
            for _ in range(self.config.measure_runs):
                platform.reset_pool(app)
                entries = burst_entries(mix, self.config.measure_cold_starts)
                platform.invoke_burst(app, entries)
        finally:
            platform.config = saved_config
        records = platform.records(app)
        platform.reset_pool(app)
        return records

    def run_simulated_cycle(
        self,
        app_config: SimAppConfig,
        profile_workload: list[tuple[float, str]],
        mix: EntryMix,
        platform: SimPlatform | None = None,
    ) -> SimCycleResult:
        """Full cycle on one app: profile, analyze, optimize, re-measure."""
        platform = platform or SimPlatform()
        if app_config.name not in platform.app_names():
            platform.deploy(app_config)
        bundle = self.profile_simulated(platform, app_config, profile_workload)
        report = self.analyze(bundle, self.sim_attributor(app_config))

        before_records = self.measure_cold_starts(platform, app_config.name, mix)
        platform.clear_history(app_config.name)
        platform.redeploy(app_config.name, report.plan)
        after_records = self.measure_cold_starts(platform, app_config.name, mix)

        before = InvocationStats.from_records(before_records)
        after = InvocationStats.from_records(after_records)
        speedups = SpeedupReport.compare(
            before.init, after.init, before.e2e, after.e2e,
            before.memory, after.memory,
        )
        return SimCycleResult(
            app=app_config.name,
            report=report,
            plan=report.plan,
            before=before,
            after=after,
            speedups=speedups,
            before_records=before_records,
            after_records=after_records,
            bundle=bundle,
        )

    # -- real path ------------------------------------------------------------------

    def profile_real_invocations(
        self,
        platform: LocalPlatform,
        deployment: FunctionDeployment,
        entries: list[str],
        library_names: set[str] | frozenset[str],
        interval_ms: float | None = None,
    ) -> ProfileBundle:
        """Profile really-executing invocations (cold start + workload).

        Installs the import recorder around a forced cold start, keeps the
        thread sampler running across the whole invocation sequence, and
        assembles the same bundle shape the simulator produces.
        """
        if not entries:
            raise ProfilingError("need at least one invocation to profile")
        interval = interval_ms or self.config.sample_interval_ms
        name = deployment.name
        handler_source = read_handler(deployment.workspace)
        handler_imports = handler_imports_from_source(handler_source, library_names)

        platform.force_cold(name)
        recorder = ImportTimeRecorder(list(library_names) + [HANDLER_MODULE])
        sampler = ThreadSampler(interval_ms=interval)
        records: list[InvocationRecord] = []
        sampler.start()
        try:
            with recorder:
                records.append(platform.invoke(name, entries[0]))
            for entry in entries[1:]:
                records.append(platform.invoke(name, entry))
        finally:
            samples = sampler.stop()

        profile = recorder.profile()
        cold = [record for record in records if record.cold]
        return ProfileBundle(
            app=name,
            import_profile=profile,
            samples=samples,
            entry_counts=entry_counts(records),
            handler_imports=handler_imports,
            mean_cold_e2e_ms=sum(r.e2e_ms for r in cold) / len(cold),
            mean_cold_init_ms=sum(r.init_ms for r in cold) / len(cold),
            cold_starts=len(cold),
        )

    def optimize_workspace(
        self,
        workspace: str | Path,
        plan: DeferralPlan,
        dest: str | Path,
    ) -> WorkspaceOptimization:
        """Clone ``workspace`` to ``dest`` and apply ``plan`` to the clone."""
        handler_source = read_handler(workspace)
        new_workspace = clone_workspace(workspace, dest)
        handler_result = optimize_source(
            handler_source, plan.deferred_handler_imports
        )
        if handler_result.changed:
            write_handler(new_workspace, handler_result.source)
        stub_result = apply_library_deferrals(
            new_workspace, plan.deferred_library_edges
        )
        return WorkspaceOptimization(
            workspace=new_workspace,
            handler_result=handler_result,
            stub_result=stub_result,
        )


@dataclass
class AdaptiveEvent:
    """One adaptive-loop action: a window closed, possibly re-optimizing."""

    decision: WindowDecision
    reprofiled: bool
    plan: DeferralPlan | None = None


class CICDPipeline:
    """Adaptive CI/CD loop on the simulator (Fig. 4's decision diamonds).

    Feed invocation records window by window; when the workload monitor
    reports a shift beyond epsilon, the pipeline re-profiles the app on the
    simulator and redeploys with the fresh plan.
    """

    def __init__(
        self,
        slimstart: SlimStart,
        platform: SimPlatform,
        app_config: SimAppConfig,
        monitor: WorkloadMonitor,
    ) -> None:
        self.slimstart = slimstart
        self.platform = platform
        self.app_config = app_config
        self.monitor = monitor
        self.events: list[AdaptiveEvent] = []
        self.profile_count = 0

    def observe(self, records: list[InvocationRecord]) -> list[AdaptiveEvent]:
        """Feed new records; returns events for any windows that closed."""
        produced: list[AdaptiveEvent] = []
        for record in records:
            for decision in self.monitor.observe(record.entry, record.timestamp):
                produced.append(self._handle(decision))
        self.events.extend(produced)
        return produced

    def _handle(self, decision: WindowDecision) -> AdaptiveEvent:
        if not decision.triggered:
            return AdaptiveEvent(decision=decision, reprofiled=False)
        # Re-profile using the most recent execution traces.
        traces = self.platform.traces(self.app_config.name)
        records = self.platform.records(self.app_config.name)
        if not any(trace.cold for trace in traces):
            return AdaptiveEvent(decision=decision, reprofiled=False)
        bundle = bundle_from_simulation(
            self.app_config,
            traces,
            records,
            interval_ms=self.slimstart.config.sample_interval_ms,
        )
        attributor = self.slimstart.sim_attributor(self.app_config)
        report = self.slimstart.analyze(bundle, attributor)
        plan = self.slimstart.refine_plan(
            self.platform.plan_for(self.app_config.name),
            report,
            bundle,
            attributor,
        )
        self.platform.redeploy(self.app_config.name, plan)
        self.profile_count += 1
        return AdaptiveEvent(decision=decision, reprofiled=True, plan=plan)
