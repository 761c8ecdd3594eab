"""Benchmark application model and instantiation.

An :class:`AppDefinition` declares an application the way the paper's
evaluation implicitly characterizes one:

* which libraries it bundles (module counts match Table II),
* which library feature clusters its entry points reach, split by
  workload class —

  - ``hot`` / ``hot_secondary``: reached by the dominant entry points,
  - ``rare``: reached by entry points invoked in ~1 % of requests
    (workload-dependent; dynamic profiling sees them below the 2 %
    threshold, static analysis considers them fully needed),
  - ``never``: reached only by entry points the typical workload does not
    trigger at all (statically reachable, dynamically dead), and
  - everything else loaded but unlisted is *orphaned* — not reachable from
    any entry point, i.e. the only class static analysis can also remove.

:func:`instantiate` turns a definition into a runnable
:class:`BenchmarkApp`: ecosystem, entry behaviours, workload mix, handler
source, and a virtual-time app config — calibrating the handler's own
execution time so the app's init:e2e proportions land near the paper's
(Table II's initialization vs. end-to-end speedup pair fixes that ratio).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.apps.codegen import generate_handler
from repro.apps.wiring import entry_exec_ms, expand_cluster_refs
from repro.common.errors import SpecError
from repro.faas.deployment import build_workspace
from repro.faas.local import FunctionDeployment
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatformConfig
from repro.synthlib.spec import Ecosystem, LibrarySpec, ModuleKey
from repro.workloads.popularity import EntryMix

#: Platform constants used by the evaluation benches (kept small: the
#: paper's init-dominated e2e ratios require modest platform overhead).
BENCH_COLD_PLATFORM_MS = 5.0
BENCH_RUNTIME_INIT_MS = 30.0
BENCH_WARM_PLATFORM_MS = 1.0

#: Invocation share of the secondary hot entry (``process``) and of each
#: rare entry (``aux_*``); the main ``handle`` entry takes the rest.
SECONDARY_POPULARITY = 0.13
RARE_POPULARITY = 0.01


def bench_platform_config(
    record_traces: bool = True, jitter_sigma: float = 0.05
) -> SimPlatformConfig:
    return SimPlatformConfig(
        cold_platform_ms=BENCH_COLD_PLATFORM_MS,
        runtime_init_ms=BENCH_RUNTIME_INIT_MS,
        warm_platform_ms=BENCH_WARM_PLATFORM_MS,
        record_traces=record_traces,
        jitter_sigma=jitter_sigma,
    )


@dataclass(frozen=True)
class PaperNumbers:
    """Table II's reported values for one application (the targets)."""

    lib_count: int
    module_count: int
    avg_depth: float
    init_speedup: float
    e2e_speedup: float
    p99_init_speedup: float
    p99_e2e_speedup: float


@dataclass(frozen=True)
class AppDefinition:
    """Declarative description of one benchmark application."""

    key: str  # paper shorthand, e.g. "R-DV"
    name: str  # python-identifier-friendly app name
    suite: str  # RainbowCake / FaaSLight / FaaSWorkbench / RealWorld
    category: str
    description: str
    library_builders: tuple[Callable[[], LibrarySpec], ...]
    hot: tuple[str, ...] = ()
    hot_secondary: tuple[str, ...] = ()
    rare: tuple[str, ...] = ()
    never: tuple[str, ...] = ()
    orphan_imports: tuple[str, ...] = ()  # libraries imported, called by nothing
    paper: PaperNumbers | None = None
    exec_budget_ms: float | None = None  # explicit main-entry exec time

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SpecError(f"app name must be an identifier: {self.name!r}")
        if not self.hot:
            raise SpecError(f"app {self.key}: at least one hot ref required")


@dataclass
class BenchmarkApp:
    """A fully-wired application ready for simulation or real deployment."""

    definition: AppDefinition
    ecosystem: Ecosystem
    handler_imports: tuple[str, ...]
    entries: tuple[EntryBehavior, ...]
    mix: EntryMix
    #: Modules the handler's global imports load with no plan applied, in
    #: load order; resolved once by :func:`instantiate`.
    unoptimized_closure: tuple[ModuleKey, ...]

    @property
    def key(self) -> str:
        return self.definition.key

    @property
    def name(self) -> str:
        return self.definition.name

    # -- program information (Table II columns) -----------------------------

    @property
    def library_count(self) -> int:
        return len(self.loaded_libraries())

    @property
    def module_count(self) -> int:
        return sum(
            self.ecosystem.library(name).module_count
            for name in self.loaded_libraries()
        )

    @property
    def average_depth(self) -> float:
        names = self.loaded_libraries()
        modules = [
            module
            for name in names
            for module in self.ecosystem.library(name).modules
        ]
        return sum(module.depth for module in modules) / len(modules)

    def loaded_libraries(self) -> list[str]:
        """Libraries in the unoptimized import closure (incl. transitive)."""
        return sorted({key.library for key in self.unoptimized_closure})

    # -- materialization -------------------------------------------------------

    def sim_config(self, cost_scale: float = 1.0) -> SimAppConfig:
        return SimAppConfig(
            name=self.name,
            ecosystem=self.ecosystem,
            handler_imports=self.handler_imports,
            entries=self.entries,
            cost_scale=cost_scale,
        )

    def handler_source(self) -> str:
        return generate_handler(
            self.name,
            self.handler_imports,
            self.entries,
            description=self.definition.description,
        )

    def build_real_workspace(
        self, dest: str | Path, scale: float = 0.05
    ) -> FunctionDeployment:
        workspace = build_workspace(
            self.ecosystem, self.handler_source(), dest, scale=scale
        )
        return FunctionDeployment(
            name=self.name,
            workspace=workspace,
            entries=tuple(entry.name for entry in self.entries),
        )


def instantiate(definition: AppDefinition) -> BenchmarkApp:
    """Build the runnable application from its definition."""
    ecosystem = Ecosystem()
    for builder in definition.library_builders:
        ecosystem.add(builder())
    ecosystem.validate()

    direct_libraries = list(
        dict.fromkeys(
            ref.partition(".")[0]
            for ref in (
                definition.hot
                + definition.hot_secondary
                + definition.rare
                + definition.never
            )
        )
    )
    for dotted in definition.orphan_imports:
        library = dotted.partition(".")[0]
        if library not in direct_libraries:
            direct_libraries.append(library)
    handler_imports = tuple(direct_libraries)

    closure = tuple(
        ecosystem.import_closure(
            [ecosystem.parse_module(dotted) for dotted in handler_imports]
        )
    )
    total_ms = ecosystem.total_init_cost_ms(closure) + BENCH_RUNTIME_INIT_MS

    # Handler execution-time calibration: choose the main entry's local
    # work so the app's init:exec proportions reproduce the paper's
    # init-vs-e2e speedup pair (see DESIGN.md §6).
    main_calls = tuple(expand_cluster_refs(ecosystem, definition.hot))
    main_lib_exec = entry_exec_ms(ecosystem, main_calls)
    if definition.exec_budget_ms is not None:
        handler_self = max(0.5, definition.exec_budget_ms - main_lib_exec)
    elif definition.paper is not None and definition.paper.e2e_speedup > 1.0:
        paper = definition.paper
        target_overhead = (
            total_ms
            * (paper.init_speedup - paper.e2e_speedup)
            / (paper.init_speedup * (paper.e2e_speedup - 1.0))
        )
        handler_self = max(
            0.5, target_overhead - BENCH_COLD_PLATFORM_MS - main_lib_exec
        )
    else:
        handler_self = 2.0

    entries: list[EntryBehavior] = [
        EntryBehavior(name="handle", calls=main_calls, handler_self_ms=handler_self)
    ]
    weighted: list[tuple[str, float]] = []
    main_weight = 1.0
    if definition.hot_secondary:
        secondary_calls = tuple(
            expand_cluster_refs(ecosystem, definition.hot_secondary)
        )
        entries.append(
            EntryBehavior(
                name="process", calls=secondary_calls, handler_self_ms=2.0
            )
        )
        weighted.append(("process", SECONDARY_POPULARITY))
        main_weight -= SECONDARY_POPULARITY
    for index, ref in enumerate(definition.rare):
        entry_name = f"aux_{index}_{ref.replace('.', '_')}"
        entries.append(
            EntryBehavior(
                name=entry_name,
                calls=tuple(expand_cluster_refs(ecosystem, (ref,))),
                handler_self_ms=2.0,
            )
        )
        weighted.append((entry_name, RARE_POPULARITY))
        main_weight -= RARE_POPULARITY
    for index, ref in enumerate(definition.never):
        entries.append(
            EntryBehavior(
                name=f"admin_{index}_{ref.replace('.', '_')}",
                calls=tuple(expand_cluster_refs(ecosystem, (ref,))),
                handler_self_ms=2.0,
            )
        )
    if main_weight <= 0:
        raise SpecError(f"app {definition.key}: popularity weights exceed 1")
    weighted.insert(0, ("handle", main_weight))

    mix = EntryMix(
        entries=tuple(name for name, _ in weighted),
        weights=tuple(weight for _, weight in weighted),
    )
    return BenchmarkApp(
        definition=definition,
        ecosystem=ecosystem,
        handler_imports=handler_imports,
        entries=tuple(entries),
        mix=mix,
        unoptimized_closure=closure,
    )
