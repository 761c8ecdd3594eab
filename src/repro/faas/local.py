"""Really-executing local FaaS platform.

Runs handlers in-process with real imports and real wall-clock timing.  The
platform clock (injectable, so tests can use a :class:`VirtualClock`) only
gates *keep-alive decisions*; latency measurements always come from
``time.perf_counter``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.common.clock import Clock, RealClock
from repro.common.errors import DeploymentError
from repro.faas.container import RealContainer
from repro.faas.events import InvocationRecord


@dataclass(frozen=True)
class FunctionDeployment:
    """A deployable function package (the 'zip upload' of the paper)."""

    name: str
    workspace: Path  # contains handler.py + generated libraries + runtime
    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise DeploymentError(f"deployment {self.name!r} declares no entries")


class _DeployedApp:
    def __init__(self, deployment: FunctionDeployment) -> None:
        self.deployment = deployment
        self.container: RealContainer | None = None
        self.last_used: float = float("-inf")
        self.records: list[InvocationRecord] = []
        self.version = 1


class LocalPlatform:
    """Single-tenant local platform executing real handler code."""

    #: Idle time after which the warm container is gone.
    KEEP_ALIVE_S = 600.0

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or RealClock()
        self._apps: dict[str, _DeployedApp] = {}
        self._container_ids = itertools.count(1)

    def deploy(self, deployment: FunctionDeployment) -> str:
        if deployment.name in self._apps:
            raise DeploymentError(f"app already deployed: {deployment.name!r}")
        if not Path(deployment.workspace).is_dir():
            raise DeploymentError(
                f"workspace does not exist: {deployment.workspace}"
            )
        self._apps[deployment.name] = _DeployedApp(deployment)
        return deployment.name

    def redeploy(self, deployment: FunctionDeployment) -> None:
        """Replace an app's package (e.g. after optimization); pool resets."""
        app = self._app(deployment.name)
        version = app.version
        records = app.records
        fresh = _DeployedApp(deployment)
        fresh.version = version + 1
        fresh.records = records
        self._apps[deployment.name] = fresh

    def _app(self, name: str) -> _DeployedApp:
        try:
            return self._apps[name]
        except KeyError:
            raise DeploymentError(f"unknown app: {name!r}") from None

    def invoke(
        self, name: str, entry: str, payload: Any = None
    ) -> InvocationRecord:
        """Invoke an entry; cold-starts when no warm container exists."""
        app = self._app(name)
        deployment = app.deployment
        if entry not in deployment.entries:
            raise DeploymentError(f"app {name!r} has no entry {entry!r}")
        now = self.clock.now()
        expired = now - app.last_used > self.KEEP_ALIVE_S
        cold = app.container is None or expired
        init_ms = 0.0
        if cold:
            container = RealContainer(
                container_id=f"{name}-c{next(self._container_ids)}",
                workspace=Path(deployment.workspace),
            )
            init_ms = container.cold_start()
            app.container = container
        assert app.container is not None
        _, exec_ms = app.container.invoke(entry, payload)
        app.last_used = now
        record = InvocationRecord(
            app=name,
            entry=entry,
            timestamp=now,
            cold=cold,
            init_ms=init_ms,
            exec_ms=exec_ms,
            e2e_ms=init_ms + exec_ms,
            memory_mb=app.container.memory_mb(),
            container_id=app.container.container_id,
        )
        app.records.append(record)
        return record

    def force_cold(self, name: str) -> None:
        """Drop the warm container so the next invocation cold-starts."""
        self._app(name).container = None

    def records(self, name: str) -> list[InvocationRecord]:
        return list(self._app(name).records)

    def clear_history(self, name: str) -> None:
        self._app(name).records.clear()

    def app_names(self) -> list[str]:
        return sorted(self._apps)
