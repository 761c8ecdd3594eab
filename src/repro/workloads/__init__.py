"""Workload substrate: entry-point popularity, arrivals, production
traces, and the streaming replay compiler that turns traces into lazy,
globally time-ordered arrival streams (:mod:`repro.workloads.replay`)."""

from repro.workloads.popularity import EntryMix, zipf_mix
from repro.workloads.arrival import (
    burst_entries,
    bursty_schedule,
    merge_tagged_schedules,
    poisson_schedule,
    regional_poisson_arrivals,
)
from repro.workloads.replay import (
    ARRIVAL_MODEL_NAMES,
    ArrivalModel,
    DiurnalArrivals,
    HashAffinity,
    PoissonArrivals,
    PopularityWeighted,
    RegionAssigner,
    UniformArrivals,
    as_paths,
    assign_regions,
    compile_trace,
    make_arrival_model,
)
from repro.workloads.trace import AppTrace, ProductionTrace, TraceGenerator

__all__ = [
    "EntryMix",
    "zipf_mix",
    "poisson_schedule",
    "burst_entries",
    "bursty_schedule",
    "merge_tagged_schedules",
    "regional_poisson_arrivals",
    "ARRIVAL_MODEL_NAMES",
    "ArrivalModel",
    "DiurnalArrivals",
    "HashAffinity",
    "PoissonArrivals",
    "PopularityWeighted",
    "RegionAssigner",
    "UniformArrivals",
    "as_paths",
    "assign_regions",
    "compile_trace",
    "make_arrival_model",
    "AppTrace",
    "ProductionTrace",
    "TraceGenerator",
]
