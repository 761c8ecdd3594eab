"""Scan-per-query references the pipeline's build-once indexes are checked against.

Each function is the body the index replaced, kept verbatim: one full
scan of the records (or one full walk of the tree) per question asked.
"""

from repro.core.cct import CallingContextTree


def naive_subtree_init_ms(profile, dotted_prefix):
    """``ImportProfile.subtree_init_ms`` as a ``startswith`` scan."""
    prefix = dotted_prefix + "."
    return sum(
        record.self_ms
        for module, record in profile._records.items()
        if module == dotted_prefix or module.startswith(prefix)
    )


def naive_children_of(profile, dotted):
    """``ImportProfile.children_of`` as a prefix scan."""
    prefix = f"{dotted}." if dotted else ""
    result = set()
    for module in profile._records:
        if not module.startswith(prefix) or module == dotted:
            continue
        remainder = module[len(prefix):]
        result.add(prefix + remainder.split(".")[0])
    result.discard(dotted)
    return sorted(result)


class ScannedProfile:
    """An import profile whose hierarchy queries are the scans above."""

    def __init__(self, profile):
        self._records = profile._records

    def subtree_init_ms(self, dotted_prefix):
        return naive_subtree_init_ms(self, dotted_prefix)

    def children_of(self, dotted):
        return naive_children_of(self, dotted)


def paths_to(tree, predicate, limit=5):
    """Heaviest call paths whose final frame satisfies ``predicate``.

    Returns ``(path, escalated weight)`` pairs, heaviest first: one walk
    of the whole tree per question, the query ``Analyzer._call_paths``
    answers for every flagged module in a single walk.
    """
    matches = []
    for path, node in tree.walk():
        if predicate(path[-1]):
            matches.append((path, node.total_runtime() + node.total_init()))
    matches.sort(key=lambda item: (-item[1], item[0]))
    return matches[:limit]


def naive_call_paths(bundle, attributor, report):
    """``Analyzer._call_paths`` as one :func:`paths_to` walk per flagged module."""
    tree = CallingContextTree.from_samples(bundle.samples)
    paths = {}
    for dotted in report.flagged_modules:
        prefix = dotted + "."

        def matches(frame) -> bool:
            module = attributor.module_of(frame)
            return module is not None and (
                module == dotted or module.startswith(prefix)
            )

        rendered = [
            " -> ".join(
                f"{frame.file.rsplit('/', 1)[-1]}:{frame.function}"
                for frame in path
            )
            for path, _ in paths_to(tree, matches, limit=3)
        ]
        if rendered:
            paths[dotted] = rendered
    return paths
