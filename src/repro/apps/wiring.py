"""Cluster wiring helpers: expand usage classes into entries and costs."""

from __future__ import annotations

from repro.common.errors import SpecError
from repro.synthlib.spec import Ecosystem, FunctionRef


def expand_cluster_refs(ecosystem: Ecosystem, refs: tuple[str, ...]) -> list[str]:
    """Expand usage refs into cluster-run calls.

    ``"lib"`` means every top-level cluster of the library;
    ``"lib.cluster"`` means that one cluster.  The result is a list of
    qualified function references (``lib.cluster:run``).
    """
    calls: list[str] = []
    for ref in refs:
        library_name, _, cluster = ref.partition(".")
        library = ecosystem.library(library_name)
        if cluster:
            if not library.has_module(cluster):
                raise SpecError(f"{library_name!r} has no cluster {cluster!r}")
            calls.append(f"{library_name}.{cluster}:run")
        else:
            for child in library.children(""):
                calls.append(f"{library_name}.{child}:run")
    return list(dict.fromkeys(calls))


def entry_exec_ms(ecosystem: Ecosystem, calls: tuple[str, ...]) -> float:
    """Total library self-time one entry spends per invocation (unscaled).

    Walks the specification call graph exactly like the simulator's entry
    compiler, so handler self-time calibration can subtract the library
    work an entry performs.
    """
    total = 0.0
    visited_stack: set[str] = set()
    for call in calls:
        total += _walk_exec_ms(ecosystem, ecosystem.parse_function(call), visited_stack)
    return total


def _walk_exec_ms(ecosystem: Ecosystem, ref: FunctionRef, visited_stack: set[str]) -> float:
    """Self-time of ``ref`` and its callees, skipping calls back into the stack."""
    if ref.qualified in visited_stack:
        return 0.0
    visited_stack.add(ref.qualified)
    cost = ecosystem.function(ref).self_cost_ms
    for target in ecosystem.call_targets(ref):
        cost += _walk_exec_ms(ecosystem, target, visited_stack)
    visited_stack.discard(ref.qualified)
    return cost


def subtree_init_ms(ecosystem: Ecosystem, ref: str) -> float:
    """Init cost of a usage ref's subtree (whole library or one cluster)."""
    library_name, _, cluster = ref.partition(".")
    library = ecosystem.library(library_name)
    if cluster:
        return library.subtree_init_cost_ms(cluster)
    return library.total_init_cost_ms
