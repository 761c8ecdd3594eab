"""Procedural construction of synthetic libraries from cluster plans.

Real libraries (the paper's Table II) contain hundreds to thousands of
modules; writing those specs by hand is hopeless.  The builder generates a
library from a handful of *cluster plans* — one per feature area (e.g.
igraph's ``core``, ``community``, ``drawing``) — while keeping three shape
properties the paper's analysis depends on:

1. **Eager import cascade** — the library root imports every cluster root
   and each package imports its children, so importing the library loads
   everything (the behaviour SLIMSTART optimizes away).
2. **Cascading call structure** — cluster roots act as orchestrators whose
   ``run`` delegates into child modules (§III, Fig. 5: orchestrators collect
   few samples themselves and need CCT escalation for fair attribution).
3. **Multiple call paths** — every orchestrator also calls a shared utility
   leaf when configured, reproducing Fig. 5's ``Lib-6`` multi-path case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import SpecError
from repro.common.rng import SeededRNG, derive_seed
from repro.synthlib.spec import FunctionSpec, LibrarySpec, ModuleSpec

#: Self-cost range (ms) for ordinary generated functions.  Kept small so
#: that "use one cluster" exercises every module of the cluster while the
#: entry's total execution time stays in the tens of milliseconds — library
#: call work is cheap relative to library *import* work, which is the whole
#: premise of the paper.
_FN_COST_RANGE = (0.05, 0.25)
_ORCHESTRATOR_COST_RANGE = (0.2, 0.6)


@dataclass(frozen=True)
class ClusterPlan:
    """Plan for one feature cluster of a generated library.

    ``init_share`` and ``memory_share`` are fractions of the library totals;
    cluster shares must sum to at most 1.0 and the library root module
    receives the remainder (real package roots do meaningful work too).
    ``depth`` is the maximum dotted depth of the cluster's modules, counting
    the library root as depth 1 (so the cluster root sits at depth 2).
    """

    name: str
    module_count: int
    init_share: float
    depth: int = 3
    memory_share: float | None = None
    functions_per_module: int = 1

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SpecError(f"invalid cluster name: {self.name!r}")
        if self.module_count < 1:
            raise SpecError(f"cluster {self.name!r} needs >= 1 module")
        if not 0.0 <= self.init_share <= 1.0:
            raise SpecError(f"cluster {self.name!r} init_share out of [0,1]")
        if self.depth < 2:
            raise SpecError(f"cluster {self.name!r} depth must be >= 2")
        if self.module_count > 1 and self.depth < 3:
            raise SpecError(
                f"cluster {self.name!r} has {self.module_count} modules but "
                f"depth {self.depth}; nested modules need depth >= 3"
            )
        if self.functions_per_module < 1:
            raise SpecError(f"cluster {self.name!r} needs >= 1 function/module")


def _level_counts(total_nested: int, levels: int) -> list[int]:
    """Distribute ``total_nested`` modules over ``levels`` levels.

    Deeper levels receive geometrically more modules (factor 2), mirroring
    real scientific libraries where most code sits deep in the package tree;
    this is what pushes the average import depth toward the values Table II
    reports (e.g. 7.97 for the SciPy-based model-serving app).  Every level
    above a populated level keeps at least one module so children always
    have a parent package.
    """
    if levels <= 0:
        return []
    weights = [2.0**index for index in range(levels)]
    weight_sum = sum(weights)
    counts = [int(total_nested * weight / weight_sum) for weight in weights]
    assigned = sum(counts)
    index = levels - 1
    while assigned < total_nested:
        counts[index] += 1
        assigned += 1
        index = (index - 1) % levels
    # Guarantee parents exist: any level below a populated one needs >= 1.
    deepest_populated = max(
        (index for index, count in enumerate(counts) if count), default=-1
    )
    for index in range(deepest_populated):
        while counts[index] == 0:
            counts[index] += 1
            # Take one module away from the most populated deeper level.
            donor = max(
                range(index + 1, levels), key=lambda position: counts[position]
            )
            if counts[donor] <= 1:
                break
            counts[donor] -= 1
    return counts


def _cluster_module_names(plan: ClusterPlan) -> list[str]:
    """Module names (relative to the library root) for one cluster."""
    names = [plan.name]
    nested = plan.module_count - 1
    if nested == 0:
        return names
    levels = plan.depth - 2  # levels 3 .. depth
    counts = _level_counts(nested, levels)
    previous_level = [plan.name]
    for level_index, count in enumerate(counts):
        if count == 0:
            continue
        current_level = []
        for index in range(count):
            parent = previous_level[index % len(previous_level)]
            current_level.append(f"{parent}.m{level_index}{index:03d}")
        names.extend(current_level)
        previous_level = current_level or previous_level
    return names


def _children_map(names: list[str]) -> dict[str, list[str]]:
    children: dict[str, list[str]] = {name: [] for name in names}
    for name in names:
        parent = name.rpartition(".")[0]
        if parent in children:
            children[parent].append(name)
    return children


def build_library(
    name: str,
    *,
    total_init_cost_ms: float,
    total_memory_kb: float,
    clusters: Sequence[ClusterPlan],
    seed: int = 0,
    category: str = "General",
    root_external_imports: Sequence[str] = (),
    shared_utility: str | None = None,
) -> LibrarySpec:
    """Generate a full :class:`LibrarySpec` from cluster plans.

    The library root module eagerly imports every cluster root, each package
    imports its children, and per-module init costs follow a heavy-tailed
    (log-normal) split of each cluster's share — mirroring how real package
    init cost concentrates in a few expensive modules.

    A pure function of its arguments (the RNG is derived from ``seed`` and
    ``name``), so equal arguments get the *same* immutable spec: the 22
    catalog applications name 83 distinct libraries 109 times.
    """
    return _build_library(
        name,
        total_init_cost_ms,
        total_memory_kb,
        tuple(clusters),
        seed,
        category,
        tuple(root_external_imports),
        shared_utility,
    )


@functools.lru_cache(maxsize=256)
def _build_library(
    name: str,
    total_init_cost_ms: float,
    total_memory_kb: float,
    clusters: tuple[ClusterPlan, ...],
    seed: int,
    category: str,
    root_external_imports: tuple[str, ...],
    shared_utility: str | None,
) -> LibrarySpec:
    if total_init_cost_ms < 0 or total_memory_kb < 0:
        raise SpecError("library totals must be non-negative")
    if not clusters:
        raise SpecError(f"library {name!r} needs at least one cluster")
    cluster_names = [plan.name for plan in clusters]
    if len(set(cluster_names)) != len(cluster_names):
        raise SpecError(f"duplicate cluster names in {name!r}")
    init_share_sum = sum(plan.init_share for plan in clusters)
    if init_share_sum > 1.0 + 1e-9:
        raise SpecError(
            f"cluster init shares of {name!r} sum to {init_share_sum:.3f} > 1"
        )
    if shared_utility is not None and shared_utility not in cluster_names:
        raise SpecError(f"shared utility cluster {shared_utility!r} not defined")

    rng = SeededRNG(derive_seed(seed, "library", name))
    modules: list[ModuleSpec] = []

    cluster_leaves: dict[str, list[str]] = {}
    cluster_children: dict[str, list[str]] = {}
    all_children: dict[str, list[str]] = {}

    per_cluster_names: dict[str, list[str]] = {}
    for plan in clusters:
        names = _cluster_module_names(plan)
        per_cluster_names[plan.name] = names
        children = _children_map(names)
        all_children.update(children)
        cluster_children[plan.name] = children[plan.name]
        cluster_leaves[plan.name] = [
            module for module in names if not children[module]
        ] or [plan.name]

    # The shared utility target: the first leaf of the designated cluster.
    utility_call: str | None = None
    if shared_utility is not None:
        utility_leaf = cluster_leaves[shared_utility][0]
        utility_call = f"{name}.{utility_leaf}:f0"

    for plan in clusters:
        names = per_cluster_names[plan.name]
        cluster_rng = rng.child("cluster", plan.name)
        weights = [math.exp(cluster_rng.gauss(0.0, 0.8)) for _ in names]
        weight_sum = sum(weights)
        cluster_init = total_init_cost_ms * plan.init_share
        memory_share = (
            plan.memory_share if plan.memory_share is not None else plan.init_share
        )
        cluster_memory = total_memory_kb * memory_share
        for module_name, weight in zip(names, weights):
            init_cost = cluster_init * weight / weight_sum
            memory = cluster_memory * weight / weight_sum
            functions = _module_functions(
                name,
                plan,
                module_name,
                all_children,
                cluster_children,
                utility_call,
                cluster_rng,
            )
            modules.append(
                ModuleSpec(
                    name=module_name,
                    init_cost_ms=init_cost,
                    memory_kb=memory,
                    imports=tuple(all_children[module_name]),
                    functions=tuple(functions),
                )
            )

    root_init = total_init_cost_ms * max(0.0, 1.0 - init_share_sum)
    memory_share_sum = sum(
        plan.memory_share if plan.memory_share is not None else plan.init_share
        for plan in clusters
    )
    root_memory = total_memory_kb * max(0.0, 1.0 - memory_share_sum)
    root_functions = [FunctionSpec(name="ping", self_cost_ms=0.2)]
    for plan in clusters:
        root_functions.append(
            FunctionSpec(
                name=f"use_{plan.name}",
                self_cost_ms=rng.child("rootfn", plan.name).uniform(0.2, 0.8),
                calls=(f"{name}.{plan.name}:run",),
            )
        )
    modules.append(
        ModuleSpec(
            name="",
            init_cost_ms=root_init,
            memory_kb=root_memory,
            imports=tuple(plan.name for plan in clusters),
            external_imports=root_external_imports,
            functions=tuple(root_functions),
        )
    )
    return LibrarySpec(name=name, category=category, modules=tuple(modules))


def _module_functions(
    library_name: str,
    plan: ClusterPlan,
    module_name: str,
    all_children: dict[str, list[str]],
    cluster_children: dict[str, list[str]],
    utility_call: str | None,
    rng: SeededRNG,
) -> list[FunctionSpec]:
    """Functions for one generated module (orchestrators included)."""
    functions: list[FunctionSpec] = []
    children = all_children[module_name]
    fn_rng = rng.child("fn", module_name)
    for index in range(plan.functions_per_module):
        calls: tuple[str, ...] = ()
        if index == 0 and children:
            # Cascading delegation: a package's f0 fans out into *every*
            # child, so invoking a cluster exercises the whole cluster —
            # utilization coverage is then controlled purely by which
            # clusters an application's entry points reach.
            calls = tuple(
                f"{library_name}.{child}:f0" for child in children
            )
        functions.append(
            FunctionSpec(
                name=f"f{index}",
                self_cost_ms=fn_rng.uniform(*_FN_COST_RANGE),
                calls=calls,
            )
        )
    if module_name == plan.name:
        # The cluster root is the orchestrator (Fig. 5's Lib-1 role): it
        # delegates into its children and, when configured, the shared
        # utility leaf — giving that leaf multiple call paths (Lib-6).
        orchestrated = [
            f"{library_name}.{child}:f0"
            for child in cluster_children[plan.name]
        ]
        if utility_call is not None and not utility_call.startswith(
            f"{library_name}.{plan.name}."
        ):
            orchestrated.append(utility_call)
        functions.append(
            FunctionSpec(
                name="run",
                self_cost_ms=fn_rng.uniform(*_ORCHESTRATOR_COST_RANGE),
                calls=tuple(orchestrated),
            )
        )
    return functions
