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


def naive_call_paths(bundle, attributor, report):
    """``Analyzer._call_paths`` as one ``paths_to`` walk per flagged module."""
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
            for path, _ in tree.paths_to(matches, limit=3)
        ]
        if rendered:
            paths[dotted] = rendered
    return paths
