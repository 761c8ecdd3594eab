"""``LibrarySpec``'s hierarchy index against the scans it replaced."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.catalog import benchmark_apps
from repro.synthlib.spec import FunctionSpec, LibrarySpec, ModuleSpec

from tests.synthlib.oracles import (
    naive_children,
    naive_is_package,
    naive_subtree,
    naive_subtree_init_cost_ms,
)

#: Names no library has, shaped like the ones a confused caller passes.
_STRANGERS = ("nope", "nope.deeper", "core.", ".core", ".")


def assert_index_matches_scans(library, names):
    for name in names:
        assert library.children(name) == naive_children(library, name), name
        assert library.subtree(name) == naive_subtree(library, name), name
        assert library.is_package(name) == naive_is_package(library, name), name
        indexed = library.subtree_init_cost_ms(name)
        scanned = naive_subtree_init_cost_ms(library, name)
        # Same additions in the same order: equal to the last bit, and an
        # empty subtree is still the int 0 ``sum`` starts from.
        assert type(indexed) is type(scanned), name
        assert float(indexed).hex() == float(scanned).hex(), name


@pytest.fixture(scope="module")
def catalog_libraries():
    distinct = {}
    for app in benchmark_apps():
        for library in map(app.ecosystem.library, app.ecosystem.library_names()):
            distinct[id(library)] = library
    return list(distinct.values())


def test_every_catalog_library_answers_like_the_scans(catalog_libraries):
    for library in catalog_libraries:
        # Every dotted prefix of a module is itself a module (validated),
        # so the module names are all the prefixes there are; "" is among
        # them and most of them are leaves.
        names = library.module_names()
        assert "" in names
        assert any(not library.is_package(name) for name in names)
        assert_index_matches_scans(library, [*names, *_STRANGERS])


def test_unknown_names_get_the_quiet_answers(small_library):
    for name in _STRANGERS:
        assert small_library.children(name) == []
        assert small_library.subtree(name) == []
        assert small_library.is_package(name) is False
        assert small_library.subtree_init_cost_ms(name) == 0


def test_results_are_fresh_lists(small_library):
    for query, name in (("children", ""), ("subtree", "extra"), ("subtree", "")):
        first = getattr(small_library, query)(name)
        expected = list(first)
        first.append("smuggled")
        first.reverse()
        assert getattr(small_library, query)(name) == expected


#: Components chosen so siblings are string prefixes of one another
#: (``core`` / ``core2``, ``a.b`` / ``a.bc``): what a prefix index keyed on
#: the bare name gets wrong and ``startswith(name + ".")`` gets right.
_COMPONENTS = ("a", "b", "bc", "core", "core2", "a_", "_")


@st.composite
def module_trees(draw):
    paths = draw(
        st.sets(
            st.lists(st.sampled_from(_COMPONENTS), min_size=1, max_size=4).map(
                ".".join
            ),
            max_size=12,
        )
    )
    names = {""}
    for path in paths:
        parts = path.split(".")
        names.update(".".join(parts[:end]) for end in range(1, len(parts) + 1))
    ordered = draw(st.permutations(sorted(names)))
    costs = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=len(ordered),
            max_size=len(ordered),
        )
    )
    return LibrarySpec(
        name="treelib",
        modules=tuple(
            ModuleSpec(name=name, init_cost_ms=cost, functions=(FunctionSpec("f"),))
            for name, cost in zip(ordered, costs)
        ),
    )


@given(module_trees())
@settings(max_examples=150, deadline=None)
def test_random_trees_in_any_order_answer_like_the_scans(library):
    names = library.module_names()
    probes = {f"{name}.{part}" for name in names if name for part in _COMPONENTS}
    assert_index_matches_scans(library, [*names, *sorted(probes), *_STRANGERS])
    for name in names:
        assert library.find_function(name, "f") is library.module(name).functions[0]
        assert library.find_function(name, "g") is None
    assert library.find_function("nope", "f") is None


def test_string_prefix_siblings_stay_apart():
    library = LibrarySpec(
        name="sib",
        modules=tuple(
            ModuleSpec(name=name, init_cost_ms=cost)
            for name, cost in (
                ("", 1.0), ("core2", 2.0), ("core", 4.0), ("core.x", 8.0),
                ("core2.y", 16.0), ("a", 32.0), ("a.bc", 64.0), ("a.b", 128.0),
            )
        ),
    )
    assert library.subtree("core") == ["core", "core.x"]
    assert library.subtree("a.b") == ["a.b"]
    assert library.children("") == ["a", "core", "core2"]
    assert library.children("a") == ["a.b", "a.bc"]
    assert not library.is_package("a.b")
    assert library.subtree_init_cost_ms("core") == 12.0
    assert library.subtree_init_cost_ms("core2") == 18.0
