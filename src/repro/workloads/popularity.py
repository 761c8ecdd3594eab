"""Entry-point popularity models.

The paper's motivation (§II-C, Fig. 3) rests on skewed entry-point usage:
most serverless apps expose several handler functions but a few dominate
invocations.  :class:`EntryMix` captures one app's popularity vector and
generates deterministic invocation sequences from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import WorkloadError
from repro.common.rng import SeededRNG


@dataclass(frozen=True)
class EntryMix:
    """A normalized popularity distribution over entry points."""

    entries: tuple[str, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.weights):
            raise WorkloadError("entries and weights must align")
        if not self.entries:
            raise WorkloadError("entry mix may not be empty")
        if any(weight < 0 for weight in self.weights):
            raise WorkloadError("negative popularity weight")
        total = sum(self.weights)
        if total <= 0:
            raise WorkloadError("popularity weights must sum to > 0")

    def probability(self, entry: str) -> float:
        total = sum(self.weights)
        for name, weight in zip(self.entries, self.weights):
            if name == entry:
                return weight / total
        raise WorkloadError(f"unknown entry {entry!r}")

    def sample_sequence(self, count: int, seed: int) -> list[str]:
        """Deterministic i.i.d. entry sequence of length ``count``."""
        if count < 0:
            raise WorkloadError(f"count must be non-negative: {count}")
        rng = SeededRNG(seed)
        return [
            rng.weighted_choice(self.entries, self.weights) for _ in range(count)
        ]

    def proportional_sequence(self, count: int) -> list[str]:
        """Largest-remainder quota sequence: exact expected proportions.

        Used by measurement benches so the entry mix of a 500-request burst
        is identical before and after optimization (no sampling noise in
        the speedup comparison).
        """
        total = sum(self.weights)
        quotas = [count * weight / total for weight in self.weights]
        counts = [int(quota) for quota in quotas]
        remainder = count - sum(counts)
        by_fraction = sorted(
            range(len(self.entries)),
            key=lambda index: -(quotas[index] - counts[index]),
        )
        for index in by_fraction[:remainder]:
            counts[index] += 1
        sequence: list[str] = []
        for entry, entry_count in zip(self.entries, counts):
            sequence.extend([entry] * entry_count)
        return sequence


def zipf_mix(entries: list[str], exponent: float = 1.2) -> EntryMix:
    """Zipf-skewed mix over ``entries`` (rank order = given order)."""
    if not entries:
        raise WorkloadError("need at least one entry")
    weights = SeededRNG.zipf_weights(len(entries), exponent=exponent)
    return EntryMix(entries=tuple(entries), weights=tuple(weights))
