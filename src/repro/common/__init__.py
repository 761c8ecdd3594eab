"""Shared low-level utilities: clocks, errors, seeded randomness.

Everything in :mod:`repro` that models time goes through the :class:`Clock`
protocol so that the same code runs against the real wall clock (the local
FaaS testbed) and against a deterministic virtual clock (the simulator).
"""

from repro.common.clock import Clock, RealClock, VirtualClock
from repro.common.errors import (
    DeploymentError,
    OptimizationError,
    ProfilingError,
    ReproError,
    SpecError,
)
from repro.common.rng import SeededRNG, derive_seed

__all__ = [
    "Clock",
    "RealClock",
    "VirtualClock",
    "ReproError",
    "SpecError",
    "ProfilingError",
    "OptimizationError",
    "DeploymentError",
    "SeededRNG",
    "derive_seed",
]
