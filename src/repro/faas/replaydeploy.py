"""Deploy a production trace's synthetic fleet onto the simulators.

:mod:`repro.workloads.replay` compiles a
:class:`~repro.workloads.trace.ProductionTrace` into an arrival stream but
deliberately stays below the ``faas`` layer; this module is the bridge
that turns the trace's *applications* into deployable
:class:`~repro.faas.sim.SimAppConfig` specs so the stream has fleets to
land on.

Trace apps carry no synthetic library ecosystem — their handlers are
entry points with a flat self-time over an *empty* ecosystem, so a cold
start costs exactly the platform's container provisioning + runtime
init.  That is the right baseline for replay experiments that compare
autoscaling policies: what matters is *when* boots happen under the
trace's arrival shape, not what each boot loads.  (To study deferral
plans at trace scale, deploy real :class:`SimAppConfig` specs instead —
the streaming path is app-agnostic.)
"""

from __future__ import annotations

from repro.faas.sim import EntryBehavior, SimAppConfig
from repro.synthlib.spec import Ecosystem
from repro.workloads.trace import AppTrace, ProductionTrace

#: Trace apps execute no synthetic library code; one shared empty
#: ecosystem keeps :func:`repro.faas.sim.compiled_app`'s cache keyed
#: consistently across every trace app.
_EMPTY_ECOSYSTEM = Ecosystem()
#: Base memory of every trace app's container.
TRACE_APP_MEMORY_MB = 96.0


def trace_app_config(app: AppTrace, exec_ms: float = 2.0) -> SimAppConfig:
    """A deployable :class:`SimAppConfig` for one trace application."""
    return SimAppConfig(
        name=app.name,
        ecosystem=_EMPTY_ECOSYSTEM,
        handler_imports=(),
        entries=tuple(
            EntryBehavior(name=entry, handler_self_ms=exec_ms)
            for entry in app.handlers
        ),
        base_memory_mb=TRACE_APP_MEMORY_MB,
    )


def deploy_trace(
    platform,
    trace: ProductionTrace,
    exec_ms: float = 2.0,
    fleet=None,
) -> list[str]:
    """Deploy every trace app onto a cluster or federation.

    ``platform`` is anything with the shared ``deploy(config, fleet=...)``
    surface: :class:`~repro.faas.cluster.ClusterPlatform` deploys one
    fleet per app, :class:`~repro.faas.region.RegionFederation` deploys
    each app to every region.  Returns the deployed app names.
    """
    names = []
    for app in trace.apps:
        config = trace_app_config(app, exec_ms=exec_ms)
        platform.deploy(config, fleet=fleet)
        names.append(app.name)
    return names


def expose_trace(gateway, trace: ProductionTrace) -> None:
    """Register every trace app's ``/<app>/<handler>`` gateway routes."""
    for app in trace.apps:
        gateway.expose(app.name, app.handlers)
