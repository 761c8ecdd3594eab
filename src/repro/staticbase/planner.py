"""Shared plan derivation: turn "used module" sets into deferral plans.

Given the set of modules that some analysis considers *used* (statically
reachable for FaaSLight, dynamically sampled for SLIMSTART's upper-bound
study), derive the maximal set of safely deferrable units: whole handler
imports when an entire library is dead, and maximal dead package subtrees
inside partially-used libraries.
"""

from __future__ import annotations

from typing import Iterable

from repro.plan import DeferralPlan


def _children(modules: set[str], dotted: str) -> list[str]:
    prefix = dotted + "."
    result = set()
    for module in modules:
        if module.startswith(prefix):
            remainder = module[len(prefix):]
            result.add(prefix + remainder.split(".")[0])
    return sorted(result)


def _subtree_used(used: set[str], dotted: str) -> bool:
    prefix = dotted + "."
    return any(module == dotted or module.startswith(prefix) for module in used)


def dead_subtree_plan(
    app: str,
    loaded_modules: Iterable[str],
    used_modules: Iterable[str],
    handler_imports: Iterable[str],
) -> DeferralPlan:
    """Derive the maximal-deferral plan from a used-module judgement.

    * A handler import whose library contains no used module is deferred at
      the handler level.
    * Inside libraries that are used, a top-down walk defers the *maximal*
      dead subtrees (flagging a dead package once, not each of its modules).
    * Libraries loaded only transitively (dependencies of dependencies) are
      deferred as library edges when fully dead.
    """
    loaded = set(loaded_modules)
    used = set(used_modules)
    handler_list = list(dict.fromkeys(handler_imports))

    deferred_handler: set[str] = set()
    deferred_edges: set[str] = set()

    handler_libraries = {dotted.partition(".")[0] for dotted in handler_list}
    loaded_libraries = {module.partition(".")[0] for module in loaded}

    for dotted in handler_list:
        library = dotted.partition(".")[0]
        if not _subtree_used(used, library):
            deferred_handler.add(dotted)

    for library in sorted(loaded_libraries):
        if library in deferred_handler or (
            library in {d.partition(".")[0] for d in deferred_handler}
        ):
            continue
        if not _subtree_used(used, library):
            if library not in handler_libraries:
                deferred_edges.add(library)
            continue

        # Depth first, in _children order: a dead subtree is deferred
        # whole and not entered.
        pending = _children(loaded, library)[::-1]
        while pending:
            subtree_root = pending.pop()
            if _subtree_used(used, subtree_root):
                pending += _children(loaded, subtree_root)[::-1]
            else:
                deferred_edges.add(subtree_root)

    return DeferralPlan(
        app=app,
        deferred_handler_imports=frozenset(deferred_handler),
        deferred_library_edges=frozenset(deferred_edges),
    )
