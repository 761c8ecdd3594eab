"""Scan-per-query references ``LibrarySpec``'s hierarchy index is checked against.

Each function is the body the index replaced, kept verbatim: one
``startswith`` pass over all of the library's module names per question.
"""


def naive_children(library, name):
    """``LibrarySpec.children`` as a prefix scan."""
    prefix = f"{name}." if name else ""
    result = []
    for candidate in library._by_name:
        if not candidate or not candidate.startswith(prefix):
            continue
        remainder = candidate[len(prefix):]
        if remainder and "." not in remainder:
            result.append(candidate)
    return sorted(result)


def naive_subtree(library, name):
    """``LibrarySpec.subtree`` as a prefix scan."""
    if name == "":
        return library.module_names()
    prefix = name + "."
    return sorted(
        candidate
        for candidate in library._by_name
        if candidate == name or candidate.startswith(prefix)
    )


def naive_is_package(library, name):
    """``LibrarySpec.is_package`` as a prefix scan."""
    if name == "":
        return True
    prefix = name + "."
    return any(candidate.startswith(prefix) for candidate in library._by_name)


def naive_subtree_init_cost_ms(library, name):
    """``LibrarySpec.subtree_init_cost_ms`` summed over the scanned subtree."""
    return sum(library._by_name[m].init_cost_ms for m in naive_subtree(library, name))
