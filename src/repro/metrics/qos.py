"""QoS classes: per-request utility, deadlines, and penalty semantics.

The paper's adaptive cold-start optimization only matters when requests
differ in what a violated deadline *costs*.  This module defines the
quality-of-service vocabulary the rest of the stack shares, in the style
of the faas-offloading-sim exemplar: a request belongs to a
:class:`QoSClass` carrying

* a **utility** earned when the request completes within its deadline,
* a **deadline** (``deadline_ms``, end-to-end: queueing + service +
  any forwarding wire time),
* a **deadline penalty** charged when the request completes *late*, and
* a **drop penalty** charged when the request is shed (bounded queue)
  or intentionally dropped by a routing policy,
* an **arrival weight** — the relative share of traffic the class
  receives when a trace is compiled with a QoS mix
  (:func:`repro.workloads.replay.assign_qos`).

This module sits at the metrics layer — below both ``repro.faas`` (whose
cluster event loop evaluates deadlines at completion time) and
``repro.workloads`` (whose trace compiler attaches classes to requests)
— so every layer shares one definition.  The class *name* is the wire
format: streams, event payloads, and accumulator hooks carry the name
only, and each consumer resolves it against its configured registry.

Accounting semantics (the single definition, shared by the cluster's
completion path and :class:`~repro.metrics.windows.WindowAccumulator`):

* completion within deadline  → ``+utility``
* completion past deadline    → ``-deadline_penalty`` (no utility)
* shed / dropped              → ``-drop_penalty``
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import SpecError


@dataclass(frozen=True)
class QoSClass:
    """One quality-of-service class (see module docstring for semantics).

    Attributes:
        name: Class identifier; the wire format every layer passes around.
        utility: Reward for completing within ``deadline_ms``.
        deadline_ms: End-to-end deadline (``inf`` = never violated).
        deadline_penalty: Cost of completing *after* the deadline.
        drop_penalty: Cost of shedding/dropping the request entirely.
        arrival_weight: Relative traffic share under a QoS mix.
    """

    name: str
    utility: float = 1.0
    deadline_ms: float = math.inf
    deadline_penalty: float = 0.0
    drop_penalty: float = 0.0
    arrival_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("QoS class name must be non-empty")
        if self.deadline_ms <= 0:
            raise SpecError(f"deadline must be positive: {self.deadline_ms}")
        if self.deadline_penalty < 0 or self.drop_penalty < 0:
            raise SpecError(
                f"penalties must be non-negative: {self.deadline_penalty}, "
                f"{self.drop_penalty}"
            )
        # NaN fails both comparisons; +inf would take every draw.
        if not 0 < self.arrival_weight < math.inf:
            raise SpecError(
                f"arrival weight must be positive and finite: {self.arrival_weight}"
            )

    def completion_value(self, e2e_ms: float) -> tuple[bool, float]:
        """``(violated, utility_contribution)`` for a completed request."""
        if e2e_ms > self.deadline_ms:
            return True, -self.deadline_penalty
        return False, self.utility


#: The class every untagged request implicitly belongs to: unit utility,
#: no deadline, no penalties.  A trace compiled with *only* this class is
#: behaviourally identical to an untagged trace (every golden /
#: stream-equivalence / shard suite stays bit-identical).
DEFAULT_QOS_CLASS = QoSClass(name="standard")

#: Named presets the CLI's ``--qos-mix`` flag draws from.  Deadlines are
#: end-to-end milliseconds; utilities/penalties are in the same arbitrary
#: "value" unit the utility-vs-$ frontier plots.
QOS_PRESETS: dict[str, QoSClass] = {
    "critical": QoSClass(
        name="critical",
        utility=4.0,
        deadline_ms=500.0,
        deadline_penalty=2.0,
        drop_penalty=4.0,
    ),
    "standard": DEFAULT_QOS_CLASS,
    "batch": QoSClass(
        name="batch",
        utility=0.25,
        deadline_ms=math.inf,
        deadline_penalty=0.0,
        drop_penalty=0.05,
    ),
}


def qos_registry(classes) -> dict[str, QoSClass]:
    """Index classes by name, rejecting duplicates.

    The shape every consumer (cluster, federation, routing policy) keeps
    internally; building it here keeps the duplicate check in one place.
    """
    registry: dict[str, QoSClass] = {}
    for qos_class in classes:
        if not isinstance(qos_class, QoSClass):
            raise SpecError(f"not a QoS class: {qos_class!r}")
        if qos_class.name in registry:
            raise SpecError(f"duplicate QoS class: {qos_class.name!r}")
        registry[qos_class.name] = qos_class
    if not registry:
        raise SpecError("need at least one QoS class")
    return registry


def parse_qos_mix(text: str) -> tuple[QoSClass, ...]:
    """Parse the CLI's ``--qos-mix`` value into a class tuple.

    Format: comma-separated ``preset`` or ``preset=weight`` entries, e.g.
    ``"critical=1,standard=5,batch=4"``.  Presets come from
    :data:`QOS_PRESETS`; an explicit weight overrides the preset's
    ``arrival_weight``.  Order is preserved (it seeds nothing, but keeps
    reports readable).
    """
    classes: list[QoSClass] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_text = part.partition("=")
        name = name.strip()
        preset = QOS_PRESETS.get(name)
        if preset is None:
            raise SpecError(
                f"unknown QoS class {name!r} "
                f"(choose from {sorted(QOS_PRESETS)})"
            )
        if weight_text:
            try:
                weight = float(weight_text)
            except ValueError:
                raise SpecError(
                    f"QoS weight for {name!r} must be a number: {weight_text!r}"
                ) from None
            preset = QoSClass(
                name=preset.name,
                utility=preset.utility,
                deadline_ms=preset.deadline_ms,
                deadline_penalty=preset.deadline_penalty,
                drop_penalty=preset.drop_penalty,
                arrival_weight=weight,
            )
        classes.append(preset)
    if not classes:
        raise SpecError(f"--qos-mix must name at least one class: {text!r}")
    qos_registry(classes)  # duplicate check
    return tuple(classes)
