"""Tests for the synthetic library specification model."""

import dataclasses
import re

import pytest

from repro.common.errors import SpecError
from repro.synthlib.spec import (
    Ecosystem,
    FunctionRef,
    FunctionSpec,
    LibrarySpec,
    ModuleKey,
    ModuleSpec,
)

from tests.conftest import make_dependent_library, make_small_library


class TestModuleKey:
    def test_dotted_root(self):
        assert ModuleKey("libx", "").dotted == "libx"

    def test_dotted_nested(self):
        assert ModuleKey("libx", "a.b").dotted == "libx.a.b"

    def test_ancestors_of_root_is_empty(self):
        assert list(ModuleKey("libx", "").ancestors()) == []

    def test_ancestors_ordered_root_first(self):
        ancestors = list(ModuleKey("libx", "a.b.c").ancestors())
        assert ancestors == [
            ModuleKey("libx", ""),
            ModuleKey("libx", "a"),
            ModuleKey("libx", "a.b"),
        ]


class TestFunctionRef:
    def test_parse_root_function(self):
        ref = FunctionRef.parse("libx:ping", ["libx"])
        assert ref.key == ModuleKey("libx", "")
        assert ref.function == "ping"

    def test_parse_nested(self):
        ref = FunctionRef.parse("libx.core.fast:work", ["libx"])
        assert ref.key == ModuleKey("libx", "core.fast")

    def test_missing_colon(self):
        with pytest.raises(SpecError):
            FunctionRef.parse("libx.core", ["libx"])

    def test_unknown_library(self):
        with pytest.raises(SpecError):
            FunctionRef.parse("nope:fn", ["libx"])

    def test_qualified_roundtrip(self):
        text = "libx.core:run"
        assert FunctionRef.parse(text, ["libx"]).qualified == text

    @pytest.mark.parametrize("text", ["libx.:ping", "libx.core.:run", ".:ping"])
    def test_trailing_dot_is_refused_by_name(self, text):
        # "libx.:ping" used to parse as "libx:ping": two spellings, one function.
        with pytest.raises(SpecError, match=re.escape(repr(text))):
            FunctionRef.parse(text, {"libx": None})


class TestSpecValidation:
    def test_function_duplicate_name_rejected(self):
        with pytest.raises(SpecError):
            ModuleSpec(
                name="m",
                functions=(FunctionSpec("f"), FunctionSpec("f")),
            )

    def test_negative_init_cost_rejected(self):
        with pytest.raises(SpecError):
            ModuleSpec(name="m", init_cost_ms=-1.0)

    def test_missing_root_rejected(self):
        with pytest.raises(SpecError):
            LibrarySpec(name="l", modules=(ModuleSpec(name="a"),))

    def test_missing_package_prefix_rejected(self):
        with pytest.raises(SpecError):
            LibrarySpec(
                name="l",
                modules=(ModuleSpec(name=""), ModuleSpec(name="a.b")),
            )

    def test_unknown_import_rejected(self):
        with pytest.raises(SpecError):
            LibrarySpec(
                name="l",
                modules=(ModuleSpec(name="", imports=("ghost",)),),
            )

    def test_self_import_rejected(self):
        with pytest.raises(SpecError):
            LibrarySpec(
                name="l",
                modules=(
                    ModuleSpec(name=""),
                    ModuleSpec(name="a", imports=("a",)),
                ),
            )

    def test_import_cycle_rejected(self):
        with pytest.raises(SpecError, match="cycle"):
            LibrarySpec(
                name="l",
                modules=(
                    ModuleSpec(name=""),
                    ModuleSpec(name="a", imports=("b",)),
                    ModuleSpec(name="b", imports=("a",)),
                ),
            )

    def test_parent_importing_children_is_legal(self):
        # The igraph pattern: packages eagerly import their children.
        spec = LibrarySpec(
            name="l",
            modules=(
                ModuleSpec(name="", imports=("a",)),
                ModuleSpec(name="a", imports=("a.b",)),
                ModuleSpec(name="a.b"),
            ),
        )
        assert spec.module_count == 3


class TestLibraryIsFrozen:
    @pytest.mark.parametrize(
        "field, value",
        [("name", "other"), ("category", "X"), ("modules", ()), ("_by_name", {})],
    )
    def test_assigning_a_field_raises(self, small_library, field, value):
        before = getattr(small_library, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(small_library, field, value)
        assert getattr(small_library, field) is before

    def test_equality_and_hash_follow_the_declared_fields(self):
        one, two = make_small_library(), make_small_library()
        assert one is not two and one == two and hash(one) == hash(two)
        assert one != make_small_library("liby")


class TestLibraryAccessors:
    def test_children(self, small_library):
        assert small_library.children("") == ["core", "extra"]
        assert small_library.children("core") == ["core.fast"]

    def test_subtree(self, small_library):
        assert small_library.subtree("extra") == ["extra", "extra.heavy"]

    def test_subtree_of_root_is_everything(self, small_library):
        assert len(small_library.subtree("")) == 5

    def test_is_package(self, small_library):
        assert small_library.is_package("core")
        assert not small_library.is_package("core.fast")

    def test_totals(self, small_library):
        assert small_library.total_init_cost_ms == 100.0
        assert sum(m.memory_kb for m in small_library.modules) == 10_000.0

    def test_subtree_init_cost(self, small_library):
        assert small_library.subtree_init_cost_ms("extra") == 65.0

    def test_module_depths(self, small_library):
        # depths: root 1, core 2, core.fast 3, extra 2, extra.heavy 3
        depths = [module.depth for module in small_library.modules]
        assert sum(depths) / len(depths) == pytest.approx(11 / 5)

    def test_unknown_module_raises(self, small_library):
        with pytest.raises(SpecError):
            small_library.module("ghost")


class TestEcosystem:
    def test_duplicate_library_rejected(self, small_library):
        eco = Ecosystem([small_library])
        with pytest.raises(SpecError):
            eco.add(make_small_library())

    def test_parse_module(self, small_ecosystem):
        key = small_ecosystem.parse_module("libx.core.fast")
        assert key == ModuleKey("libx", "core.fast")

    def test_parse_unknown_module(self, small_ecosystem):
        with pytest.raises(SpecError):
            small_ecosystem.parse_module("libx.ghost")

    @pytest.mark.parametrize("dotted", ["libx.", "libx.core.", "."])
    def test_parse_module_refuses_a_trailing_dot(self, small_ecosystem, dotted):
        # "libx." used to name the root package, a second spelling of "libx".
        with pytest.raises(SpecError, match=re.escape(repr(dotted))):
            small_ecosystem.parse_module(dotted)

    def test_parse_function_refuses_a_trailing_dot(self, small_ecosystem):
        assert small_ecosystem.parse_function("libx:ping").qualified == "libx:ping"
        with pytest.raises(SpecError, match=r"'libx\.:ping'"):
            small_ecosystem.parse_function("libx.:ping")

    def test_trailing_dot_in_a_spec_fails_validation(self):
        with pytest.raises(SpecError):
            LibrarySpec(
                name="libz",
                modules=(ModuleSpec(name="", external_imports=("libx.",)),),
            )
        caller = LibrarySpec(
            name="libz",
            modules=(
                ModuleSpec(
                    name="",
                    functions=(FunctionSpec("f", calls=("libx.:ping",)),),
                ),
            ),
        )
        with pytest.raises(SpecError, match=r"'libx\.:ping'"):
            Ecosystem([make_small_library(), caller]).validate()

    def test_validate_checks_cross_library_calls(self):
        bad = LibrarySpec(
            name="libz",
            modules=(
                ModuleSpec(
                    name="",
                    functions=(FunctionSpec("f", calls=("libz:ghost",)),),
                ),
            ),
        )
        eco = Ecosystem([bad])
        with pytest.raises(SpecError):
            eco.validate()

    def test_validate_rejects_same_library_external_import(self):
        bad = LibrarySpec(
            name="libz",
            modules=(
                ModuleSpec(name="", external_imports=("libz.sub",)),
                ModuleSpec(name="sub"),
            ),
        )
        eco = Ecosystem([bad])
        with pytest.raises(SpecError):
            eco.validate()


class TestImportClosure:
    def test_root_closure_loads_everything(self, small_ecosystem):
        closure = small_ecosystem.import_closure([ModuleKey("libx", "")])
        assert len(closure) == 5

    def test_closure_includes_external_deps(self, small_ecosystem):
        closure = small_ecosystem.import_closure([ModuleKey("liby", "")])
        dotted = {key.dotted for key in closure}
        assert "libx" in dotted  # liby's root eagerly imports libx
        assert len(closure) == 7

    def test_importing_nested_loads_ancestors(self, small_ecosystem):
        closure = small_ecosystem.import_closure([ModuleKey("libx", "core.fast")])
        dotted = {key.dotted for key in closure}
        # Ancestor packages execute too (and here the root's own imports
        # cascade to the whole library, like real igraph/nltk roots do).
        assert {"libx", "libx.core", "libx.core.fast"} <= dotted

    def test_closure_order_is_completion_order(self, small_ecosystem):
        # A package that imports its children *completes* after them —
        # CPython semantics; the root therefore appears last.
        closure = small_ecosystem.import_closure([ModuleKey("libx", "")])
        dotted = [key.dotted for key in closure]
        assert dotted[-1] == "libx"
        assert dotted.index("libx.core.fast") < dotted.index("libx.core")

    def test_deferred_module_is_skipped(self, small_ecosystem):
        deferred = frozenset({ModuleKey("libx", "extra")})
        closure = small_ecosystem.import_closure(
            [ModuleKey("libx", "")], deferred=deferred
        )
        dotted = {key.dotted for key in closure}
        assert "libx.extra" not in dotted
        assert "libx.extra.heavy" not in dotted  # only reachable via extra

    def test_deferred_module_loads_when_forced(self, small_ecosystem):
        deferred = frozenset({ModuleKey("libx", "extra")})
        closure = small_ecosystem.import_closure(
            [ModuleKey("libx", "extra")], deferred=deferred
        )
        dotted = {key.dotted for key in closure}
        assert "libx.extra" in dotted

    def test_already_loaded_modules_are_not_reloaded(self, small_ecosystem):
        first = small_ecosystem.import_closure([ModuleKey("libx", "")])
        second = small_ecosystem.import_closure(
            [ModuleKey("libx", "")], already_loaded=first
        )
        assert second == []

    def test_closure_costs(self, small_ecosystem):
        closure = small_ecosystem.import_closure([ModuleKey("libx", "")])
        assert small_ecosystem.total_init_cost_ms(closure) == 100.0
        assert small_ecosystem.total_memory_kb(closure) == 10_000.0

    def test_deferral_savings_match_subtree_cost(self, small_ecosystem):
        full = small_ecosystem.import_closure([ModuleKey("libx", "")])
        lazy = small_ecosystem.import_closure(
            [ModuleKey("libx", "")],
            deferred=frozenset({ModuleKey("libx", "extra")}),
        )
        saved = small_ecosystem.total_init_cost_ms(
            full
        ) - small_ecosystem.total_init_cost_ms(lazy)
        assert saved == 65.0  # extra (40) + extra.heavy (25)

    def test_load_order_is_postorder(self, small_ecosystem):
        closure = small_ecosystem.import_closure([ModuleKey("liby", "")])
        dotted = [key.dotted for key in closure]
        # liby's root finishes loading last (its imports complete first).
        assert dotted[-1] == "liby"


class TestResolvedEdgesMemo:
    """Import edges are resolved once per ecosystem, until ``add``."""

    def test_closure_sees_a_library_added_after_an_earlier_closure(self):
        eco = Ecosystem([make_small_library()])
        assert len(eco.import_closure([ModuleKey("libx", "")])) == 5
        eco.add(make_dependent_library())  # liby's root imports libx
        closure = eco.import_closure([ModuleKey("liby", "")])
        assert {key.library for key in closure} == {"libx", "liby"}
        assert len(closure) == 7

    def test_unresolvable_edge_resolves_once_its_library_is_added(self):
        eco = Ecosystem([make_dependent_library()])  # libx still absent
        with pytest.raises(SpecError):
            eco.import_closure([ModuleKey("liby", "")])
        eco.add(make_small_library())
        assert len(eco.import_closure([ModuleKey("liby", "")])) == 7

    def test_edges_are_shared_but_immutable(self, small_ecosystem):
        edges = small_ecosystem.import_edges(ModuleKey("liby", ""))
        assert edges == (ModuleKey("liby", "util"), ModuleKey("libx", ""))
        assert small_ecosystem.import_edges(ModuleKey("liby", "")) is edges
        assert isinstance(edges, tuple)

    def test_unknown_module_still_raises_every_time(self, small_ecosystem):
        for _ in range(2):
            with pytest.raises(SpecError):
                small_ecosystem.import_edges(ModuleKey("libx", "nope"))


class TestParsedReferenceTable:
    """A reference string is parsed and resolved once per ecosystem, until ``add``."""

    def test_second_parse_is_a_lookup(self, small_ecosystem, monkeypatch):
        first = small_ecosystem.parse_function("libx.core.fast:work")
        assert first == FunctionRef(ModuleKey("libx", "core.fast"), "work")
        monkeypatch.setattr(
            FunctionRef, "parse", lambda *args: pytest.fail("parsed twice")
        )
        assert small_ecosystem.parse_function("libx.core.fast:work") is first

    def test_failures_are_not_remembered(self):
        eco = Ecosystem([make_small_library()])
        for _ in range(2):
            with pytest.raises(SpecError, match="unknown library 'liby'"):
                eco.parse_function("liby.util:fn")
        assert "liby.util:fn" not in eco._refs
        eco.add(make_dependent_library())
        ref = eco.parse_function("liby.util:fn")
        assert ref.key == ModuleKey("liby", "util")
        assert eco.function(ref).name == "fn"

    def test_add_drops_the_table(self):
        eco = Ecosystem([make_small_library()])
        eco.parse_function("libx:ping")
        assert eco._refs
        eco.add(make_dependent_library())
        assert not eco._refs  # dropped with the edges and the closures

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("libx.ghost:work", "unknown module"),
            ("libx.core:ghost", "unknown function"),
            ("libx.core", "missing ':'"),
            ("libx.core:not-a-name", "invalid function name"),
        ],
    )
    def test_every_check_still_runs_every_time(self, small_ecosystem, text, complaint):
        for _ in range(2):
            with pytest.raises(SpecError, match=complaint):
                small_ecosystem.parse_function(text)

    def test_function_lookup_names_what_is_missing(self, small_ecosystem):
        known = small_ecosystem.function(FunctionRef(ModuleKey("libx", "core"), "run"))
        assert known is small_ecosystem.module(ModuleKey("libx", "core")).functions[0]
        with pytest.raises(SpecError, match="unknown function 'libx.core:ghost'"):
            small_ecosystem.function(FunctionRef(ModuleKey("libx", "core"), "ghost"))
        with pytest.raises(SpecError, match="no module 'ghost'"):
            small_ecosystem.function(FunctionRef(ModuleKey("libx", "ghost"), "run"))
        with pytest.raises(SpecError, match="unknown library 'nope'"):
            small_ecosystem.function(FunctionRef(ModuleKey("nope", ""), "run"))


class TestColdClosureMemo:
    """A cold process's closure is resolved once per ``(roots, deferred)``."""

    ROOTS = [ModuleKey("liby", "")]

    def test_second_call_walks_nothing_and_returns_its_own_list(
        self, small_ecosystem, monkeypatch
    ):
        first = small_ecosystem.import_closure(self.ROOTS)
        expected = list(first)
        first.clear()  # a caller mutating its list must not reach the memo
        walked = []
        resolve = small_ecosystem.import_edges
        monkeypatch.setattr(
            small_ecosystem,
            "import_edges",
            lambda key: walked.append(key) or resolve(key),
        )
        second = small_ecosystem.import_closure(iter(self.ROOTS))
        assert second == expected and not walked
        second.append(ModuleKey("libx", "nope"))
        assert small_ecosystem.import_closure(self.ROOTS) == expected

    def test_deferred_sets_and_warm_containers_are_told_apart(self, small_ecosystem):
        deferred = {ModuleKey("libx", "extra")}
        warm = [ModuleKey("libx", ""), ModuleKey("libx", "core")]
        for _ in range(2):  # second round answers from the memo
            full = small_ecosystem.import_closure(self.ROOTS)
            lazy = small_ecosystem.import_closure(self.ROOTS, deferred=deferred)
            rest = small_ecosystem.import_closure(self.ROOTS, already_loaded=warm)
            assert len(full) == 7
            assert [key.dotted for key in lazy] == [
                "liby.util", "libx.core.fast", "libx.core", "libx", "liby",
            ]
            assert not set(rest) & set(warm) and len(rest) < len(full)

    def test_closure_after_add_sees_the_new_library(self):
        eco = Ecosystem([make_small_library()])
        assert len(eco.import_closure([ModuleKey("libx", "")])) == 5
        eco.add(make_dependent_library())
        assert not eco._closures  # dropped with the edges
        closure = eco.import_closure(self.ROOTS)
        assert {key.library for key in closure} == {"libx", "liby"}


class TestCallTargets:
    def test_call_targets_resolution(self, small_ecosystem):
        ref = small_ecosystem.parse_function("libx:use_core")
        targets = small_ecosystem.call_targets(ref)
        assert [t.qualified for t in targets] == ["libx.core:run"]
