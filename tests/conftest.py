"""Shared fixtures: a small, hand-crafted ecosystem with exactly known
costs (for precise assertions) plus a session-scoped materialized workspace.

Hypothesis profiles: ``default`` is Hypothesis's own.  ``deep`` (``pytest
tests/reference --hypothesis-profile=deep``) runs a thousand examples
per property with no deadline and prints a failure's reproduction blob.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.synthlib.spec import (
    Ecosystem,
    FunctionSpec,
    LibrarySpec,
    ModuleSpec,
)

settings.register_profile("deep", max_examples=1000, deadline=None, print_blob=True)


def make_small_library(name: str = "libx") -> LibrarySpec:
    """A tiny library with exactly-known costs.

    Layout::

        libx/                (root: 10 ms, 1000 kB) imports core, extra
          core/              (20 ms) imports core.fast
            fast             (5 ms)
          extra/             (40 ms) imports extra.heavy
            heavy            (25 ms)

    Total init 100 ms.  ``core.fast:work`` costs 2 ms; the root's
    ``use_core``/``use_extra`` delegate into the clusters.
    """
    return LibrarySpec(
        name=name,
        category="Test",
        modules=(
            ModuleSpec(
                name="",
                init_cost_ms=10.0,
                memory_kb=1000.0,
                imports=("core", "extra"),
                functions=(
                    FunctionSpec("use_core", 1.0, calls=(f"{name}.core:run",)),
                    FunctionSpec("use_extra", 1.0, calls=(f"{name}.extra:run",)),
                    FunctionSpec("ping", 0.5),
                ),
            ),
            ModuleSpec(
                name="core",
                init_cost_ms=20.0,
                memory_kb=2000.0,
                imports=("core.fast",),
                functions=(
                    FunctionSpec("run", 1.0, calls=(f"{name}.core.fast:work",)),
                ),
            ),
            ModuleSpec(
                name="core.fast",
                init_cost_ms=5.0,
                memory_kb=500.0,
                functions=(FunctionSpec("work", 2.0),),
            ),
            ModuleSpec(
                name="extra",
                init_cost_ms=40.0,
                memory_kb=4000.0,
                imports=("extra.heavy",),
                functions=(
                    FunctionSpec("run", 1.0, calls=(f"{name}.extra.heavy:work",)),
                ),
            ),
            ModuleSpec(
                name="extra.heavy",
                init_cost_ms=25.0,
                memory_kb=2500.0,
                functions=(FunctionSpec("work", 3.0),),
            ),
        ),
    )


def make_dependent_library(name: str = "liby", dep: str = "libx") -> LibrarySpec:
    """A small library that eagerly imports another at its root."""
    return LibrarySpec(
        name=name,
        category="Test",
        modules=(
            ModuleSpec(
                name="",
                init_cost_ms=8.0,
                memory_kb=800.0,
                imports=("util",),
                external_imports=(dep,),
                functions=(FunctionSpec("go", 1.0, calls=(f"{name}.util:fn",)),),
            ),
            ModuleSpec(
                name="util",
                init_cost_ms=12.0,
                memory_kb=1200.0,
                functions=(FunctionSpec("fn", 1.5),),
            ),
        ),
    )


@pytest.fixture()
def small_library() -> LibrarySpec:
    return make_small_library()


@pytest.fixture()
def small_ecosystem() -> Ecosystem:
    eco = Ecosystem([make_small_library(), make_dependent_library()])
    eco.validate()
    return eco


@pytest.fixture(scope="session")
def session_ecosystem() -> Ecosystem:
    eco = Ecosystem([make_small_library(), make_dependent_library()])
    eco.validate()
    return eco


@pytest.fixture(scope="session")
def session_workspace(tmp_path_factory, session_ecosystem):
    """A materialized workspace for the small ecosystem (fast imports)."""
    from repro.synthlib.generator import materialize_ecosystem

    workspace = tmp_path_factory.mktemp("small_ws")
    materialize_ecosystem(session_ecosystem, workspace, scale=0.01)
    return workspace
