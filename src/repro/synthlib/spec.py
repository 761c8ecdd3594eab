"""Declarative model of a synthetic library ecosystem.

A :class:`LibrarySpec` is a tree of :class:`ModuleSpec` objects.  Module
names are dotted paths *relative to the library root*; the empty string
names the root package itself (``<lib>/__init__.py``).  Each module carries

* ``init_cost_ms`` — CPU time burned when the module is first imported,
* ``memory_kb``   — resident memory attributed once the module is loaded,
* ``imports``     — same-library modules imported eagerly at module exec,
* ``external_imports`` — fully-qualified modules of *other* libraries
  imported eagerly at module exec, and
* ``functions``   — callables the module defines, each with a self cost and
  a list of fully-qualified callees.

Import semantics mirror CPython: importing ``lib.a.b`` first loads the
ancestor packages ``lib`` and ``lib.a``.  :meth:`Ecosystem.import_closure`
reproduces this, including the effect of *deferring* modules (lazy loading),
which is the mechanism both SLIMSTART and the FaaSLight baseline exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, NamedTuple

from repro.common.errors import SpecError

_IDENT_OK = str.isidentifier


def _check_dotted(name: str, *, allow_empty: bool) -> None:
    if name == "":
        if allow_empty:
            return
        raise SpecError("module name may not be empty here")
    for part in name.split("."):
        if not _IDENT_OK(part):
            raise SpecError(f"invalid module path component {part!r} in {name!r}")


def _split_library(dotted: str, text: str) -> tuple[str, str]:
    """Split ``lib[.module]`` into the library and the path beneath it.

    ``lib.`` is refused rather than read as ``lib``: one module must not
    have two spellings.  ``text`` is what the caller was given.
    """
    if dotted.endswith("."):
        raise SpecError(f"module path ends in '.': {text!r}")
    first, _, rest = dotted.partition(".")
    return first, rest


class ModuleKey(NamedTuple):
    """Globally unique module identifier: library name + relative path.

    A ``NamedTuple``: built, hashed, compared and ordered in C (a closure
    hashes each key several times), so equal to the plain 2-tuple.
    """

    library: str
    module: str  # "" for the library root package

    @property
    def dotted(self) -> str:
        """Absolute dotted import path, e.g. ``sligraph.drawing.colors``."""
        return f"{self.library}.{self.module}" if self.module else self.library

    def ancestors(self) -> Iterator["ModuleKey"]:
        """Yield strict package ancestors from the library root downward.

        The library root has no ancestors (and must not yield itself).
        """
        if not self.module:
            return
        yield ModuleKey(self.library, "")
        parts = self.module.split(".")
        for index in range(1, len(parts)):
            yield ModuleKey(self.library, ".".join(parts[:index]))


class FunctionRef(NamedTuple):
    """Fully-qualified reference to a function: ``lib.mod.sub:func`` (a tuple)."""

    key: ModuleKey
    function: str

    @property
    def qualified(self) -> str:
        return f"{self.key.dotted}:{self.function}"

    @classmethod
    def parse(cls, text: str, libraries: Container[str]) -> "FunctionRef":
        """Parse ``lib[.module]:function`` given the known library names."""
        if ":" not in text:
            raise SpecError(f"function reference missing ':': {text!r}")
        dotted, _, function = text.partition(":")
        if not function.isidentifier():
            raise SpecError(f"invalid function name in reference: {text!r}")
        first, rest = _split_library(dotted, text)
        if first not in libraries:
            raise SpecError(f"unknown library {first!r} in reference {text!r}")
        _check_dotted(rest, allow_empty=True)
        return cls(key=ModuleKey(first, rest), function=function)


@dataclass(frozen=True)
class FunctionSpec:
    """A callable defined by a module."""

    name: str
    self_cost_ms: float = 1.0
    calls: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SpecError(f"invalid function name: {self.name!r}")
        if self.self_cost_ms < 0:
            raise SpecError(f"negative function cost: {self.name} {self.self_cost_ms}")


@dataclass(frozen=True)
class ModuleSpec:
    """One module of a synthetic library."""

    name: str  # dotted path relative to the library root; "" is the root
    init_cost_ms: float = 0.0
    memory_kb: float = 0.0
    imports: tuple[str, ...] = ()
    external_imports: tuple[str, ...] = ()
    functions: tuple[FunctionSpec, ...] = ()

    def __post_init__(self) -> None:
        _check_dotted(self.name, allow_empty=True)
        if self.init_cost_ms < 0:
            raise SpecError(f"negative init cost for module {self.name!r}")
        if self.memory_kb < 0:
            raise SpecError(f"negative memory for module {self.name!r}")
        seen: set[str] = set()
        for function in self.functions:
            if function.name in seen:
                raise SpecError(
                    f"duplicate function {function.name!r} in module {self.name!r}"
                )
            seen.add(function.name)

    @property
    def depth(self) -> int:
        """Dotted depth counting the library root (root itself is 1)."""
        if not self.name:
            return 1
        return 1 + self.name.count(".") + 1


def _frozen_lists(table: dict[str, list[str]]) -> dict[str, tuple[str, ...]]:
    return {name: tuple(names) for name, names in table.items()}


def _derived():
    """A table a frozen spec computes from its declared fields, once."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class LibrarySpec:
    """A complete synthetic library: a validated tree of modules.

    Immutable: :func:`repro.synthlib.builder.build_library` hands the same
    spec to every ecosystem that names it.  The tables below are derived
    from ``modules`` once, here, and never invalidated.
    """

    name: str
    category: str = "General"
    modules: tuple[ModuleSpec, ...] = ()
    _by_name: dict[str, ModuleSpec] = _derived()
    #: Package -> its direct sub-modules, sorted (packages only).
    _children: dict[str, tuple[str, ...]] = _derived()
    #: Module -> itself plus everything nested beneath it, sorted.
    _subtrees: dict[str, tuple[str, ...]] = _derived()
    #: ``(module, function name)`` -> the function.
    _functions: dict[tuple[str, str], FunctionSpec] = _derived()

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SpecError(f"invalid library name: {self.name!r}")
        by_name: dict[str, ModuleSpec] = {}
        for module in self.modules:
            if module.name in by_name:
                raise SpecError(f"duplicate module {module.name!r} in {self.name}")
            by_name[module.name] = module
        object.__setattr__(self, "_by_name", by_name)
        self._validate()
        self._index()

    def _index(self) -> None:
        # Walking the names in sorted order leaves every table sorted, so
        # a query is a lookup and ``subtree_init_cost_ms`` adds in the
        # order ``sorted(subtree)`` always gave it.  Validation has already
        # established that every package prefix is itself a module.
        children: dict[str, list[str]] = {}
        subtrees: dict[str, list[str]] = {}
        for name in sorted(self._by_name):
            subtrees[name] = [name]
            if name:
                children.setdefault(name.rpartition(".")[0], []).append(name)
            ancestor = name
            while ancestor:  # every package above it, the root ("") last
                ancestor = ancestor.rpartition(".")[0]
                subtrees[ancestor].append(name)
        functions = {
            (module.name, function.name): function
            for module in self.modules
            for function in module.functions
        }
        object.__setattr__(self, "_children", _frozen_lists(children))
        object.__setattr__(self, "_subtrees", _frozen_lists(subtrees))
        object.__setattr__(self, "_functions", functions)

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        if "" not in self._by_name:
            raise SpecError(f"library {self.name!r} is missing its root module")
        for module in self.modules:
            self._validate_prefixes(module)
            self._validate_imports(module)
        self._validate_acyclic()

    def _validate_prefixes(self, module: ModuleSpec) -> None:
        if not module.name:
            return
        parts = module.name.split(".")
        for index in range(1, len(parts)):
            prefix = ".".join(parts[:index])
            if prefix not in self._by_name:
                raise SpecError(
                    f"module {module.name!r} of {self.name!r} has no package "
                    f"module for prefix {prefix!r}"
                )

    def _validate_imports(self, module: ModuleSpec) -> None:
        for target in module.imports:
            if target == module.name:
                raise SpecError(f"module {module.name!r} imports itself")
            if target not in self._by_name:
                raise SpecError(
                    f"module {module.name!r} of {self.name!r} imports unknown "
                    f"module {target!r}"
                )
        for target in module.external_imports:
            _check_dotted(target, allow_empty=False)

    def _validate_acyclic(self) -> None:
        # Depth-first cycle check over *explicit* intra-library import edges.
        # The implicit child -> ancestor-package dependency is intentionally
        # excluded: "package imports its children" is legal in CPython (the
        # partially-initialized parent already sits in ``sys.modules``) and
        # is exactly the eager-loading pattern this paper targets.
        # A loop over a stack of edge iterators, not a recursive closure:
        # a closure that calls itself is a reference cycle, and would keep
        # ``color`` alive until the cyclic collector ran.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._by_name}
        for name in self._by_name:
            if color[name] != WHITE:
                continue
            color[name] = GRAY
            path = [name]
            pending = [iter(self._by_name[name].imports)]
            while pending:
                for target in pending[-1]:
                    if color[target] == GRAY:
                        cycle = " -> ".join(path + [target])
                        raise SpecError(f"import cycle in {self.name!r}: {cycle}")
                    if color[target] == WHITE:
                        color[target] = GRAY
                        path.append(target)
                        pending.append(iter(self._by_name[target].imports))
                        break
                else:
                    pending.pop()
                    color[path.pop()] = BLACK

    # -- accessors -------------------------------------------------------

    def module(self, name: str) -> ModuleSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpecError(f"library {self.name!r} has no module {name!r}") from None

    def has_module(self, name: str) -> bool:
        return name in self._by_name

    def module_names(self) -> list[str]:
        return sorted(self._by_name)

    def keys(self) -> list[ModuleKey]:
        return [ModuleKey(self.name, name) for name in self.module_names()]

    def children(self, name: str) -> list[str]:
        """Direct sub-modules of the package ``name``."""
        return list(self._children.get(name, ()))

    def subtree(self, name: str) -> list[str]:
        """``name`` plus every module nested beneath it."""
        return list(self._subtrees.get(name, ()))

    def is_package(self, name: str) -> bool:
        """True when the module has nested modules (maps to a directory)."""
        return name == "" or name in self._children

    def find_function(self, module: str, name: str) -> FunctionSpec | None:
        """The function ``name`` of ``module``, or None when either is unknown."""
        return self._functions.get((module, name))

    # -- aggregate metrics (Table II columns) ------------------------------

    @property
    def module_count(self) -> int:
        return len(self.modules)

    @property
    def total_init_cost_ms(self) -> float:
        return sum(module.init_cost_ms for module in self.modules)

    def subtree_init_cost_ms(self, name: str) -> float:
        return sum(
            self._by_name[m].init_cost_ms for m in self._subtrees.get(name, ())
        )


class Ecosystem:
    """A set of libraries with cross-library references resolved."""

    def __init__(self, libraries: Iterable[LibrarySpec] = ()) -> None:
        self._libraries: dict[str, LibrarySpec] = {}
        #: :meth:`import_edges` results; specs only change through
        #: :meth:`add`, which drops them.
        self._edges: dict[ModuleKey, tuple[ModuleKey, ...]] = {}
        #: :meth:`import_closure` results for a cold process, by
        #: ``(roots, deferred)``; dropped by :meth:`add` like the edges.
        self._closures: dict[tuple | None, tuple[ModuleKey, ...]] = {}
        #: :meth:`parse_function` results by reference text — successes
        #: only, so a reference to a library added later resolves after
        #: the :meth:`add`, which drops the table with the other two.
        self._refs: dict[str, FunctionRef] = {}
        for library in libraries:
            self.add(library)

    def add(self, library: LibrarySpec) -> None:
        if library.name in self._libraries:
            raise SpecError(f"duplicate library {library.name!r}")
        self._libraries[library.name] = library
        self._edges.clear()
        self._closures.clear()
        self._refs.clear()

    # -- accessors -------------------------------------------------------

    def library(self, name: str) -> LibrarySpec:
        try:
            return self._libraries[name]
        except KeyError:
            raise SpecError(f"unknown library {name!r}") from None

    def library_names(self) -> list[str]:
        return sorted(self._libraries)

    def module(self, key: ModuleKey) -> ModuleSpec:
        return self.library(key.library).module(key.module)

    def has_module(self, key: ModuleKey) -> bool:
        library = self._libraries.get(key.library)
        return library is not None and library.has_module(key.module)

    def parse_module(self, dotted: str) -> ModuleKey:
        """Parse an absolute dotted path into a :class:`ModuleKey`."""
        first, rest = _split_library(dotted, dotted)
        if first not in self._libraries:
            raise SpecError(f"unknown library in module path {dotted!r}")
        key = ModuleKey(first, rest)
        if not self.has_module(key):
            raise SpecError(f"unknown module {dotted!r}")
        return key

    def parse_function(self, text: str) -> FunctionRef:
        """Parse and resolve ``lib[.module]:function``; once per text."""
        ref = self._refs.get(text)
        if ref is None:
            ref = FunctionRef.parse(text, self._libraries)
            library = self._libraries[ref.key.library]
            if not library.has_module(ref.key.module):
                raise SpecError(f"reference {text!r} names unknown module")
            if library.find_function(ref.key.module, ref.function) is None:
                raise SpecError(f"reference {text!r} names unknown function")
            self._refs[text] = ref
        return ref

    def function(self, ref: FunctionRef) -> FunctionSpec:
        key = ref.key
        found = self.library(key.library).find_function(key.module, ref.function)
        if found is None:
            self.module(key)  # an unknown module is reported as such
            raise SpecError(f"unknown function {ref.qualified!r}")
        return found

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Check cross-library references; raises :class:`SpecError`."""
        for library in self._libraries.values():
            for module in library.modules:
                for target in module.external_imports:
                    key = self.parse_module(target)
                    if key.library == library.name:
                        raise SpecError(
                            f"module {module.name!r} of {library.name!r} lists "
                            f"a same-library import as external: {target!r}"
                        )
                for function in module.functions:
                    for call in function.calls:
                        self.parse_function(call)

    # -- import semantics --------------------------------------------------

    def import_edges(self, key: ModuleKey) -> tuple[ModuleKey, ...]:
        """Eager import targets of ``key`` (same-library and external).

        Resolved (and validated) once per key; the tuple is shared
        between callers.
        """
        edges = self._edges.get(key)
        if edges is None:
            module = self.module(key)
            edges = self._edges[key] = (
                *(ModuleKey(key.library, target) for target in module.imports),
                *(self.parse_module(target) for target in module.external_imports),
            )
        return edges

    def import_closure(
        self,
        roots: Iterable[ModuleKey],
        deferred: frozenset[ModuleKey] | set[ModuleKey] = frozenset(),
        already_loaded: Iterable[ModuleKey] = (),
    ) -> list[ModuleKey]:
        """Modules loaded, in load order, when ``roots`` are imported.

        ``deferred`` models lazy loading: an *import edge into* a deferred
        module is skipped (a stub takes its place), so the module and
        anything only reachable through it stay unloaded.  Explicitly
        importing a deferred module (``roots``) still loads it — that is
        exactly what happens when a deferred import finally executes at
        first use.  ``already_loaded`` models a warm container.

        A cold process's closure (nothing ``already_loaded``) is resolved
        once per ``(roots, deferred)`` — an app's unoptimized closure is
        asked for when it is instantiated and again when it is compiled —
        and every call gets its own list.
        """
        roots = tuple(roots)
        deferred = frozenset(deferred)
        loaded: set[ModuleKey] = set(already_loaded)
        memo_key = None if loaded else (roots, deferred)
        if memo_key in self._closures:
            return list(self._closures[memo_key])
        order: list[ModuleKey] = []
        for root in roots:
            self._load(root, True, deferred, loaded, order)
        if memo_key is not None:
            self._closures[memo_key] = tuple(order)
        return order

    def _load(
        self,
        key: ModuleKey,
        forced: bool,
        deferred: frozenset[ModuleKey],
        loaded: set[ModuleKey],
        order: list[ModuleKey],
    ) -> None:
        """Import ``key`` into ``loaded`` / ``order`` (one step of
        :meth:`import_closure`; its state is passed in, so no closure
        refers to itself and nothing waits for the cyclic collector)."""
        if key in loaded:
            return
        if key in deferred and not forced:
            return
        # Python loads ancestor packages before the module itself, and
        # does so even when the package appears in ``deferred``: lazy
        # loading only removes *edges into* a module, so any surviving
        # import of a descendant still executes the package eagerly.
        for ancestor in key.ancestors():
            if ancestor not in loaded:
                self._load(ancestor, True, deferred, loaded, order)
        if key in loaded:  # an ancestor's imports may have loaded us
            return
        loaded.add(key)
        for target in self.import_edges(key):
            self._load(target, False, deferred, loaded, order)
        order.append(key)

    def total_init_cost_ms(self, keys: Iterable[ModuleKey]) -> float:
        return sum(self.module(key).init_cost_ms for key in keys)

    def total_memory_kb(self, keys: Iterable[ModuleKey]) -> float:
        return sum(self.module(key).memory_kb for key in keys)

    def call_targets(self, ref: FunctionRef) -> list[FunctionRef]:
        """Direct callees of ``ref`` per the specification."""
        return [self.parse_function(call) for call in self.function(ref).calls]
