"""Local FaaS testbed: the substrate standing in for AWS Lambda.

Three interchangeable back ends share one record schema:

* :class:`~repro.faas.local.LocalPlatform` really imports and executes
  handler code in-process, with per-container import isolation and real
  wall-clock timing — used by the case studies and the profiler-overhead
  experiment.
* :class:`~repro.faas.sim.SimPlatform` is an event-driven virtual-time
  simulator driven by the same application/library specifications — used
  by the 500-cold-start evaluation sweeps, which would take hours of wall
  time to execute for real.
* :class:`~repro.faas.cluster.ClusterPlatform` scales the simulator to
  fleet questions: per-application container fleets behind a heap-based
  event loop, with scale-from-zero, FIFO request queueing, configurable
  per-container concurrency, and keep-alive expiry.  Its
  ``run_stream`` folds each run into a windowed summary
  (:class:`~repro.metrics.WindowedSummary`): cold-start rate, queueing
  delay, shed rate, GB-seconds and dollars per window.

The cluster is fronted by the :class:`~repro.faas.gateway.Gateway`,
which maps function URLs to (application, entry) pairs, feeds the
adaptive workload monitor, and hands the cluster one time-ordered
arrival stream (``run_stream``), so whole schedules replay under true
concurrency.

:mod:`repro.faas.autoscale` makes the cluster's scaling decisions
pluggable: a :class:`~repro.faas.autoscale.ScalingPolicy` per fleet
(eager per-request, target-utilization headroom, or Knative-style
panic windows), selected via
:attr:`~repro.faas.cluster.FleetConfig.policy`, with every run priced
in dollars through the :class:`~repro.metrics.CostSummary` cost view.
:mod:`repro.faas.forecast` adds the feed-forward option: window-count
forecasters (EWMA, additive-seasonal Holt-Winters) behind the
:class:`~repro.faas.forecast.Predictive` policy, which pre-warms
containers ahead of the forecast demand instead of reacting to it.

:mod:`repro.faas.region` scales the cluster across *regions*: a
:class:`~repro.faas.region.RegionFederation` runs one cluster per named
region on a shared virtual clock, with pluggable latency-aware routing
policies (round-robin, least-loaded, locality-biased with spillover) and
cross-region failover, fronted by the
:class:`~repro.faas.region.FederatedGateway`.
"""

from repro.faas.autoscale import (
    FleetView,
    PanicWindow,
    PerRequest,
    ScalingPolicy,
    TargetUtilization,
    WindowObservation,
    make_scaling_policy,
)
from repro.faas.forecast import (
    EWMAForecaster,
    Forecaster,
    HoltWintersForecaster,
    Predictive,
    make_forecaster,
)
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.events import InvocationRecord, InvocationStats
from repro.faas.gateway import Gateway, Route
from repro.faas.local import FunctionDeployment, LocalPlatform
from repro.faas.region import (
    DROP,
    FederatedGateway,
    LeastLoadedPolicy,
    LocalityPolicy,
    ProbabilisticOffloadPolicy,
    RegionFederation,
    RegionSpec,
    RegionTopology,
    RoundRobinPolicy,
    RoutingPolicy,
)
from repro.faas.sim import EntryBehavior, SimAppConfig, SimPlatform, SimPlatformConfig

__all__ = [
    "FleetView",
    "PanicWindow",
    "PerRequest",
    "ScalingPolicy",
    "TargetUtilization",
    "WindowObservation",
    "make_scaling_policy",
    "EWMAForecaster",
    "Forecaster",
    "HoltWintersForecaster",
    "Predictive",
    "make_forecaster",
    "InvocationRecord",
    "InvocationStats",
    "Gateway",
    "Route",
    "FunctionDeployment",
    "LocalPlatform",
    "EntryBehavior",
    "SimAppConfig",
    "SimPlatform",
    "SimPlatformConfig",
    "ClusterPlatform",
    "FleetConfig",
    "DROP",
    "FederatedGateway",
    "LeastLoadedPolicy",
    "LocalityPolicy",
    "ProbabilisticOffloadPolicy",
    "RegionFederation",
    "RegionSpec",
    "RegionTopology",
    "RoundRobinPolicy",
    "RoutingPolicy",
]
