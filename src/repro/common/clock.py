"""Clock abstraction used by both the real testbed and the simulator.

Times are expressed in *seconds* as floats, mirroring :func:`time.monotonic`.
The simulator advances a :class:`VirtualClock` explicitly, which makes every
experiment bit-reproducible and lets a 300-hour production trace replay in
milliseconds of wall time.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """Minimal clock interface: a monotonically non-decreasing ``now``."""

    def now(self) -> float:
        """Return the current time in seconds."""
        ...  # pragma: no cover - protocol stub


class RealClock:
    """Wall-clock backed by :func:`time.monotonic`."""

    def now(self) -> float:
        return time.monotonic()


class VirtualClock:
    """Deterministic clock advanced explicitly by the simulator.

    Plain time-keeping and nothing else: one float that only moves
    forward.  Whatever happens *at* a virtual time is an event of the
    simulator that owns the clock, which hands each handler its time as
    an argument and tells the clock where it stands when it returns
    control to its caller (see :mod:`repro.faas.cluster`).
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance_to(self, deadline: float) -> None:
        """Advance to an absolute time; the clock never rewinds."""
        if deadline < self._now:
            raise ValueError(f"cannot rewind clock: {deadline} < {self._now}")
        self._now = deadline
