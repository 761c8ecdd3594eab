"""Synthetic library ecosystem.

The paper evaluates SLIMSTART against real PyPI libraries (numpy, igraph,
nltk, pandas, scipy, ...).  Those libraries are not available offline and
their absolute import costs are machine-specific, so this package provides a
*synthetic library ecosystem*: declarative specifications of libraries
(module trees, per-module initialization cost and memory footprint,
intra/inter-library import edges, and call graphs) plus a generator that
materializes a specification as a real, importable Python package tree whose
import really does burn the specified amount of CPU time.

The same specifications drive the virtual-time simulator, so the simulated
and really-executed versions of an application share one source of truth.
"""

from repro.synthlib.spec import (
    Ecosystem,
    FunctionRef,
    FunctionSpec,
    LibrarySpec,
    ModuleKey,
    ModuleSpec,
)
from repro.synthlib.builder import ClusterPlan, build_library
from repro.synthlib.generator import materialize_ecosystem

__all__ = [
    "Ecosystem",
    "FunctionRef",
    "FunctionSpec",
    "LibrarySpec",
    "ModuleKey",
    "ModuleSpec",
    "ClusterPlan",
    "build_library",
    "materialize_ecosystem",
]
