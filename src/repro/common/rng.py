"""Seeded randomness helpers.

Every stochastic component in the repro package takes an explicit integer
seed and derives child seeds with :func:`derive_seed`, so that adding a new
random draw in one component never perturbs the stream of another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base: int, *labels: str | int) -> int:
    """Derive a stable child seed from ``base`` and a label path.

    Uses BLAKE2 rather than Python's ``hash`` so results are stable across
    processes and interpreter versions.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(base).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest(), "big")


class SeededRNG:
    """Thin wrapper over :class:`random.Random` with domain helpers."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def child(self, *labels: str | int) -> "SeededRNG":
        """Return an independent generator for a named sub-domain."""
        return SeededRNG(derive_seed(self.seed, *labels))

    def getstate(self):
        """The underlying generator state (for checkpoint serialization)."""
        return self._random.getstate()

    def setstate(self, state) -> None:
        """Restore a state captured by :meth:`getstate`."""
        self._random.setstate(state)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def uniform_list(self, low: float, high: float, count: int) -> list[float]:
        """``count`` uniform draws as a list; identical stream to calling
        :meth:`uniform` ``count`` times (the bound-method batch form exists
        for hot paths that draw thousands of values per call)."""
        draw = self._random.uniform
        return [draw(low, high) for _ in range(count)]

    def random_list(self, count: int) -> list[float]:
        """``count`` draws of :meth:`random` as a list, same stream."""
        draw = self._random.random
        return [draw() for _ in range(count)]

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival sample; ``rate`` in events/second."""
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        return self._random.expovariate(rate)

    def gauss(self, mean: float, stddev: float) -> float:
        return self._random.gauss(mean, stddev)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def shuffle(self, items: list[T]) -> None:
        self._random.shuffle(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        return self._random.sample(items, count)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one item with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        return self._random.choices(items, weights=weights, k=1)[0]

    def zipf_weights(self, count: int, exponent: float = 1.0) -> list[float]:
        """Normalized Zipf popularity weights for ranks ``1..count``.

        Deterministic given the arguments (no random draw); lives here so
        workload code has a single popularity vocabulary.
        """
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        if exponent < 0:
            raise ValueError(f"exponent must be non-negative: {exponent}")
        raw = [1.0 / (rank**exponent) for rank in range(1, count + 1)]
        total = sum(raw)
        return [weight / total for weight in raw]

    def poisson(self, mean: float) -> int:
        """Poisson sample via inversion (mean kept modest in our workloads)."""
        if mean < 0:
            raise ValueError(f"mean must be non-negative: {mean}")
        if mean == 0:
            return 0
        # Knuth's algorithm is fine for the small means used by the traces.
        import math

        threshold = math.exp(-mean)
        count = 0
        product = self._random.random()
        while product > threshold:
            count += 1
            product *= self._random.random()
        return count


def spread(values: Iterable[float], total: float) -> list[float]:
    """Rescale ``values`` so they sum to ``total`` (empty input -> empty)."""
    items = list(values)
    current = sum(items)
    if not items:
        return []
    if current <= 0:
        share = total / len(items)
        return [share] * len(items)
    factor = total / current
    return [value * factor for value in items]
