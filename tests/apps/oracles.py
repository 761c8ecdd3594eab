"""Calibration figures the catalog tests check the apps against."""

from repro.apps.model import BENCH_RUNTIME_INIT_MS
from repro.apps.wiring import expand_cluster_refs


def expected_init_ms(app):
    """``(removable ms, total ms)``: the analyzer's expected outcome.

    "Kept" modules are those the hot entries touch (plus everything
    outside flagged subtrees); clusters untouched by hot entries whose
    init share is non-trivial will be deferred by the analyzer, so their
    subtree init counts as removable.  This mirrors the analyzer's own
    hierarchy walk over the app's unoptimized closure.
    """
    definition, ecosystem = app.definition, app.ecosystem
    closure = app.unoptimized_closure
    hot_calls = expand_cluster_refs(
        ecosystem, definition.hot + definition.hot_secondary
    )
    touched_modules: set[str] = set()
    seen_functions: set[str] = set()

    def walk(qualified: str) -> None:
        if qualified in seen_functions:
            return
        seen_functions.add(qualified)
        ref = ecosystem.parse_function(qualified)
        touched_modules.add(ref.key.dotted)
        for target in ecosystem.call_targets(ref):
            walk(target.qualified)

    for call in hot_calls:
        walk(call)

    total_ms = ecosystem.total_init_cost_ms(closure) + BENCH_RUNTIME_INIT_MS

    removable = 0.0
    loaded_by_library: dict[str, list] = {}
    for key in closure:
        loaded_by_library.setdefault(key.library, []).append(key)

    for library_name in loaded_by_library:
        library = ecosystem.library(library_name)

        def touched(subtree_root: str) -> bool:
            prefix = f"{library_name}.{subtree_root}"
            return any(
                module == prefix or module.startswith(prefix + ".")
                for module in touched_modules
            )

        def visit(subtree_root: str) -> None:
            nonlocal removable
            subtree_ms = library.subtree_init_cost_ms(subtree_root)
            if subtree_ms / total_ms < 0.01:  # analyzer's min subtree share
                return
            if not touched(subtree_root):
                removable += subtree_ms
                return
            for child in library.children(subtree_root):
                visit(child)

        if not any(
            module == library_name or module.startswith(library_name + ".")
            for module in touched_modules
        ):
            # Whole library unused: handler import (or edge) gets deferred.
            removable += sum(
                ecosystem.module(key).init_cost_ms
                for key in loaded_by_library[library_name]
            )
            continue
        for child in library.children(""):
            visit(child)
    return removable, total_ms


def expected_init_speedup(app):
    """Init speed-up if every removable module were deferred: the
    analytic figure each catalog app is calibrated to, before any
    profiling or measurement."""
    removable, total = expected_init_ms(app)
    remaining = total - removable
    if remaining <= 0:
        return float("inf")
    return total / remaining
